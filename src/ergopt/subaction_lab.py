"""Sub-actions on the prepend graph: verification, extremal constructions,
the discounted route to calibrated solutions, contact loci, and refinements.

A sub-action u satisfies weight + u(src) - u(tgt) <= beta on every edge.
Calibrated means u(V) = min over out-edges of (u(tgt) - weight + beta), the
Bellman fixed-point form. Everything here is exact, the discounted
construction included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import HypothesisFails, NegativeCycle, NonConvergence, NotSubaction, NotTransitive
from .graph_engine import (
    Edge,
    PrependGraph,
    _bellman_ford,
    _scaled_costs,
    bellman_potentials,
    build_prepend_graph,
    max_mean_cycle,
)
from .potential_model import pad_potential
from .symbolic_core import Word, classify_transitivity

# The discount walk solves rho_k = 1 - 2^-k for k = 1..k_max, by default up
# to SCHEDULE_K_MAX, and stops once successive normalized solutions differ by
# at most OUTER_STOP.
SCHEDULE_K_MAX = 30
OUTER_STOP = Fraction(1, 10**9)


@dataclass(frozen=True)
class NodeFunction:
    """Exact Fraction values indexed like graph.nodes."""

    graph: PrependGraph
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.graph.nodes):
            raise ValueError("one value per node required")
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))

    def __getitem__(self, node: int):
        return self.values[node]

    def by_word(self, word: Word):
        return self.values[self.graph.node_index[tuple(word)]]

    def shifted(self, const) -> "NodeFunction":
        c = Fraction(const)
        return NodeFunction(self.graph, tuple(v + c for v in self.values))

    def normalized(self) -> "NodeFunction":
        """Subtract the maximum value."""
        return self.shifted(-max(self.values))


def pointwise_max(u: NodeFunction, v: NodeFunction) -> NodeFunction:
    if u.graph is not v.graph:
        raise ValueError("node functions live on different graphs")
    return NodeFunction(u.graph, tuple(max(a, b) for a, b in zip(u.values, v.values)))


def convex_combination(t, u: NodeFunction, v: NodeFunction) -> NodeFunction:
    if u.graph is not v.graph:
        raise ValueError("node functions live on different graphs")
    t = Fraction(t)
    if not (0 <= t <= 1):
        raise ValueError("t must lie in [0, 1]")
    vals = tuple(t * a + (1 - t) * b for a, b in zip(u.values, v.values))
    return NodeFunction(u.graph, vals)


# ---------------------------------------------------------------------------
# verification predicates


def subaction_residual(
    u: NodeFunction, graph: PrependGraph, beta: Fraction
) -> tuple[Fraction, tuple[Edge, ...]]:
    """Worst edge slack and the edges violating the defining inequality."""
    slacks = [
        (e.weight + u[e.src] - u[e.tgt] - beta, e) for e in graph.edges
    ]
    worst = max(s for s, _ in slacks)
    violations = tuple(e for s, e in slacks if s > 0)
    return worst, violations


def is_subaction(u: NodeFunction, graph: PrependGraph, beta: Fraction) -> bool:
    return subaction_residual(u, graph, beta)[0] <= 0


def calibration_residual(u: NodeFunction, graph: PrependGraph, beta) -> Fraction:
    """Max over nodes of |u(V) - min over out-edges (u(tgt) - weight + beta)|."""
    beta = Fraction(beta)
    worst = None
    for v in range(len(graph.nodes)):
        bell = min(u[e.tgt] - e.weight + beta for e in graph.out_edges(v))
        gap = abs(u[v] - bell)
        if worst is None or gap > worst:
            worst = gap
    if worst is None:
        raise AssertionError("graph has no nodes")
    return worst


@dataclass(frozen=True)
class ContactLocus:
    """Edges where the sub-action inequality is tight."""

    edges: frozenset[int]


def contact_locus(u: NodeFunction, graph: PrependGraph, beta: Fraction) -> ContactLocus:
    worst, _ = subaction_residual(u, graph, beta)
    if worst > 0:
        raise NotSubaction(f"edge slack {worst} is positive")
    tight = frozenset(
        e.index for e in graph.edges if e.weight + u[e.src] - u[e.tgt] == beta
    )
    return ContactLocus(tight)


def contact_sources(locus: ContactLocus, graph: PrependGraph) -> frozenset[int]:
    """Nodes with at least one tight outgoing edge."""
    return frozenset(graph.edges[i].src for i in locus.edges)


def dual_value(u: NodeFunction, graph: PrependGraph) -> Fraction:
    """max over edges of weight + u(src) - u(tgt); at least beta for every u."""
    return max(e.weight + u[e.src] - u[e.tgt] for e in graph.edges)


# ---------------------------------------------------------------------------
# extremal constructions


def maximal_subaction(graph: PrependGraph, beta: Fraction) -> NodeFunction:
    """Largest nonpositive sub-action, u(V) = min(0, cheapest path cost from V).

    Costs are beta minus weight. The graph engine's Bellman-Ford kernel runs
    on the reversed arcs, so its zero-cost super-source supplies the cap at 0.
    Raises NegativeCycle if beta is below the true maximum mean.
    """
    D, costs = _scaled_costs(graph, beta)
    u, _, looped = _bellman_ford(len(graph.nodes), [(t, s, c) for s, t, c in costs])
    if looped is not None:
        raise NegativeCycle("costs beta - weight admit a negative cycle")
    return NodeFunction(graph, tuple(Fraction(x, D) for x in u))


# ---------------------------------------------------------------------------
# discounted construction


def _policy_values(graph: PrependGraph, policy: list[Edge], rho: Fraction) -> list[Fraction]:
    """Exact values of a stationary policy: u(V) = rho * (u(next V) - weight)."""
    n = len(graph.nodes)
    values: list[Fraction | None] = [None] * n
    state = [0] * n  # 0 unvisited, 1 in progress, 2 done
    for start in range(n):
        if state[start] == 2:
            continue
        chain = []
        v = start
        while state[v] == 0:
            state[v] = 1
            chain.append(v)
            v = policy[v].tgt
        if state[v] == 1:
            # closed a new cycle: solve it in closed form
            cut = chain.index(v)
            cycle = chain[cut:]
            L = len(cycle)
            acc = Fraction(0)
            rp = Fraction(1)
            for node in cycle:
                rp *= rho
                acc += rp * policy[node].weight
            u0 = -acc / (1 - rho ** L)
            values[cycle[0]] = u0
            for node in reversed(cycle[1:]):
                nxt = policy[node].tgt
                values[node] = rho * (values[nxt] - policy[node].weight)  # type: ignore[operand-type]
            # fix the wrap: recompute cycle[0] from its successor for safety
            head = cycle[0]
            if values[head] != rho * (values[policy[head].tgt] - policy[head].weight):
                raise AssertionError("closed-form cycle value fails to wrap around")
        # back-substitute the tail of the chain (tree part)
        for node in reversed(chain):
            if values[node] is None:
                nxt = policy[node].tgt
                values[node] = rho * (values[nxt] - policy[node].weight)  # type: ignore[operand-type]
            state[node] = 2
    return values  # type: ignore[return-value]


def _exact_discounted(
    graph: PrependGraph, rho: Fraction, policy: list[Edge] | None = None
) -> list[Fraction]:
    """Fixed point of u(V) = rho * min over out-edges (u(tgt) - weight).

    Policy iteration starts from the given policy, improving it in place, or
    from each node's first out-edge. The fixed point is unique, so the start
    changes only the number of sweeps.
    """
    if policy is None:
        policy = [graph.out_edges(v)[0] for v in range(len(graph.nodes))]
    for _ in range(10 * len(graph.edges) + 10):
        values = _policy_values(graph, policy, rho)
        improved = False
        for v in range(len(graph.nodes)):
            current = values[policy[v].tgt] - policy[v].weight
            best_edge = policy[v]
            best = current
            for e in graph.out_edges(v):
                cand = values[e.tgt] - e.weight
                if cand < best:
                    best = cand
                    best_edge = e
            if best_edge is not policy[v] and best < current:
                policy[v] = best_edge
                improved = True
        if not improved:
            return values
    raise AssertionError("policy iteration failed to settle")


def discounted_fixed_point(graph: PrependGraph, rho) -> NodeFunction:
    """The unique discounted fixed point, solved exactly by policy iteration."""
    rho = Fraction(rho)
    if not (0 < rho < 1):
        raise ValueError("rho must lie strictly inside (0, 1)")
    return NodeFunction(graph, tuple(_exact_discounted(graph, rho)))


def calibrated_via_discount(
    graph: PrependGraph,
    k_max: int = SCHEDULE_K_MAX,
    steps: list[tuple[Fraction, Fraction, Fraction | None]] | None = None,
) -> tuple[NodeFunction, Fraction]:
    """Calibrated sub-action as the limit of normalized discounted solutions.

    Walks rho_k = 1 - 2^-k for k = 1..k_max until successive normalized
    solutions differ by at most OUTER_STOP, reconstructs rational values, and
    verifies exact calibration. Also returns a, the discounted estimate of
    beta.

    If ``steps`` is given, each solved rho appends (rho, (1 - rho) * -max u,
    max change of the normalized solution since the previous rho or None at
    the first), all exact; on return the last entry is the rho where the stop
    fired.
    """
    prev: tuple[list[Fraction], Fraction, Fraction] | None = None  # norm, 1 - rho, a
    # warm start: each rho's optimal policy seeds policy iteration at the next
    policy = [graph.out_edges(v)[0] for v in range(len(graph.nodes))]
    for k in range(1, k_max + 1):
        rho = Fraction(2**k - 1, 2**k)
        vals = _exact_discounted(graph, rho, policy)
        top = max(vals)
        norm = [v - top for v in vals]
        delta = 1 - rho
        a_est = delta * (-top)
        change = None if prev is None else max(abs(a - b) for a, b in zip(norm, prev[0]))
        if steps is not None:
            steps.append((rho, a_est, change))
        if prev is not None and change <= OUTER_STOP:
            candidate = NodeFunction(graph, tuple(v.limit_denominator(10**6) for v in norm))
            beta = max_mean_cycle(graph).beta
            if calibration_residual(candidate, graph, beta) != 0:
                raise NonConvergence("rational reconstruction is not exactly calibrated")
            # The estimate converges linearly in (1 - rho); one Richardson
            # step over the last two exact values removes the linear term.
            _, prev_delta, prev_a = prev
            return candidate, a_est + (a_est - prev_a) * delta / (prev_delta - delta)
        prev = (norm, delta, a_est)
    raise NonConvergence("discount schedule exhausted before the outer stop")


# ---------------------------------------------------------------------------
# cohomology test


@dataclass(frozen=True)
class LivsicResult:
    cohomologous: bool
    constant: Fraction
    transfer: NodeFunction | None


def livsic_test(graph: PrependGraph) -> LivsicResult:
    """Is the potential a coboundary plus a constant?

    Exact criterion: the best and worst cycle means coincide, i.e.
    beta(A) + beta(-A) == 0, with beta(-A) computed from the re-reduced
    negated source potential. When they do, every cycle has mean beta, so
    every edge is tight under the Bellman potential h, and u = h(0) - h is
    the transfer function vanishing at node 0.
    """
    if classify_transitivity(graph.system).kind == "reducible":
        raise NotTransitive("cohomology test needs a transitive system")
    beta_plus = max_mean_cycle(graph).beta
    negated = build_prepend_graph(graph.system, graph.potential.scale(-1))
    beta_minus = max_mean_cycle(negated).beta
    if beta_plus + beta_minus != 0:
        return LivsicResult(False, beta_plus, None)
    h = bellman_potentials(graph, beta_plus)
    u = [h[0] - x for x in h]
    for e in graph.edges:
        if e.weight + u[e.src] - u[e.tgt] != beta_plus:
            raise AssertionError(f"transfer function leaves edge {e.key} slack")
    return LivsicResult(True, beta_plus, NodeFunction(graph, tuple(u)))


# ---------------------------------------------------------------------------
# rigidity and refinement


def rigidity_check(u: NodeFunction, uprime: NodeFunction, support_nodes) -> bool:
    """True when u - u' is constant across the given nodes."""
    diffs = {u[v] - uprime[v] for v in support_nodes}
    return len(diffs) <= 1


def refine_subaction_Uk(u: NodeFunction, graph: PrependGraph, k: int) -> NodeFunction:
    """Lift u to the depth-(q+k-1) graph via the k-step averaged construction.

    The refined value at a window v is the weighted head sum of edge weights
    (coefficients (k-i)/k) plus the average of u over the k windows of v.
    Tight refined edges project into tight edges of u at every offset below k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    worst, _ = subaction_residual(u, graph, max_mean_cycle(graph).beta)
    if worst > 0:
        raise NotSubaction("refinement needs a sub-action")
    if k == 1:
        return u
    q = graph.q
    refined_potential = pad_potential(graph.potential, graph.potential.past_depth, q + k - 1)
    refined = build_prepend_graph(graph.system, refined_potential)
    reduced = graph.reduced
    vals = []
    for v in refined.nodes:
        head = sum(
            ((k - i) * reduced.value(v[i - 1: i + q]) for i in range(1, k)),
            Fraction(0),
        )
        tail = sum((u.by_word(v[j: j + q]) for j in range(k)), Fraction(0))
        vals.append((head + tail) / k)
    return NodeFunction(refined, tuple(vals))


def noncalibrated_example(u: NodeFunction, graph: PrependGraph) -> tuple[NodeFunction, Word]:
    """Two-step refinement of a calibrated u, plus a node where it fails
    the Bellman equation.

    Needs an edge with strictly slack inequality; the witness is the refined
    window obtained by prepending that edge's symbol onto its source. Raises
    HypothesisFails when every edge is tight (coboundary case).
    """
    beta = max_mean_cycle(graph).beta
    worst, _ = subaction_residual(u, graph, beta)
    if worst > 0:
        raise NotSubaction("construction starts from a sub-action")
    strict = [
        e for e in graph.edges if e.weight + u[e.src] - u[e.tgt] < beta
    ]
    if not strict:
        raise HypothesisFails("every edge is tight; no strictly slack edge exists")
    witness_edge = min(strict, key=lambda e: e.key)
    U = refine_subaction_Uk(u, graph, 2)
    witness = witness_edge.key
    refined = U.graph
    w_idx = refined.node_index[witness]
    defect = min(
        U[e.tgt] - e.weight + beta for e in refined.out_edges(w_idx)
    ) - U[w_idx]
    if not defect > 0:
        raise AssertionError("witness must violate calibration")
    return U, witness
