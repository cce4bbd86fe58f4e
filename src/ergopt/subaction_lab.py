"""Sub-actions on the prepend graph: verification, extremal constructions,
the discounted route to calibrated solutions, contact loci, and refinements.

A sub-action u satisfies weight + u(src) - u(tgt) <= beta on every edge.
Calibrated means u(V) = min over out-edges of (u(tgt) - weight + beta), the
Bellman fixed-point form. Everything here is exact, the discounted
construction included: its policy iteration runs on ints, with the weights
scaled once by their common denominator W and every value of one policy
held over one common denominator, W * lcm over policy cycles of
(b^L - a^L) * b^d at rho = a/b, and its limit is the bias of the first
optimal policy shown bias-optimal. The residuals and the contact locus
compare edge slacks as ints over the common denominator of beta, the
weights and u; the slack table is built once per sub-action and beta and
shared by ``subaction_residual``, ``calibration_residual``,
``contact_locus`` and ``is_subaction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import HypothesisFails, NonConvergence, NotSubaction, NotTransitive
from .graph_engine import (
    Edge,
    PrependGraph,
    _bellman_ints,
    _policy_split,
    build_prepend_graph,
    max_mean_cycle,
)
from .potential_model import pad_potential
from .symbolic_core import Word, classify_transitivity

# The discount walk solves rho_k = 1 - 2^-k for k = 1..k_max, by default up
# to SCHEDULE_K_MAX; the cap is its only stop short of a bias-optimal policy.
SCHEDULE_K_MAX = 30


@dataclass(frozen=True)
class NodeFunction:
    """Exact Fraction values indexed like graph.nodes.

    The private field _slacks keeps the function's scaled edge slacks on
    its own graph, beta -> (L, slacks), for the residuals and the contact
    locus to share.
    """

    graph: PrependGraph
    values: tuple[Fraction, ...]
    _slacks: dict[Fraction, tuple[int, list[int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.values) != len(self.graph.nodes):
            raise ValueError("one value per node required")
        values = self.values
        if not (type(values) is tuple and {Fraction}.issuperset(map(type, values))):
            object.__setattr__(self, "values", tuple(map(Fraction, values)))

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


def _scaled_slacks(u: NodeFunction, graph: PrependGraph, beta) -> tuple[int, list[int]]:
    """L and every edge's slack weight + u(src) - u(tgt) - beta times L, in edge order.

    L is the lcm of the denominators of beta, of the weights and of u, so
    every scaled slack is an int.
    """
    beta = Fraction(beta)
    W, out = graph._out_arcs
    L = math.lcm(W, beta.denominator, *(x.denominator for x in u.values))
    U = [x.numerator * (L // x.denominator) for x in u.values]
    m, b = L // W, beta.numerator * (L // beta.denominator)
    # c = -W * weight on each out-arc, so L * weight = -c * m
    return L, [U[a] - U[t] - c * m - b for a, arcs in enumerate(out) for t, c in arcs]


def _slack_table(u: NodeFunction, graph: PrependGraph, beta) -> tuple[int, list[int]]:
    """``_scaled_slacks``, built once per u and beta on u's own graph and shared.

    The list is the kept table itself; callers only read it.
    """
    if graph is not u.graph:
        return _scaled_slacks(u, graph, beta)
    beta = Fraction(beta)
    table = u._slacks.get(beta)
    if table is None:
        table = u._slacks[beta] = _scaled_slacks(u, graph, beta)
    return table


def subaction_residual(
    u: NodeFunction, graph: PrependGraph, beta: Fraction
) -> tuple[Fraction, tuple[Edge, ...]]:
    """Worst edge slack and the edges violating the defining inequality."""
    L, slacks = _slack_table(u, graph, beta)
    violations = tuple(e for e, s in zip(graph.edges, slacks) if s > 0)
    return Fraction(max(slacks), L), violations


def is_subaction(u: NodeFunction, graph: PrependGraph, beta: Fraction) -> bool:
    return subaction_residual(u, graph, beta)[0] <= 0


def calibration_residual(u: NodeFunction, graph: PrependGraph, beta) -> Fraction:
    """Max over nodes of |u(V) - min over out-edges (u(tgt) - weight + beta)|.

    That gap is |max slack over V's out-edges|.
    """
    if not graph.nodes:
        raise AssertionError("graph has no nodes")
    L, slacks = _slack_table(u, graph, beta)
    # the slacks come by source, so node v's out-edges are one slice
    worst, end = 0, 0
    for arcs in graph._out_arcs[1]:
        start, end = end, end + len(arcs)
        worst = max(worst, abs(max(slacks[start:end])))
    return Fraction(worst, L)


@dataclass(frozen=True)
class ContactLocus:
    """Edges where the sub-action inequality is tight."""

    edges: frozenset[int]


def contact_locus(u: NodeFunction, graph: PrependGraph, beta: Fraction) -> ContactLocus:
    L, slacks = _slack_table(u, graph, beta)
    worst = max(slacks)
    if worst > 0:
        raise NotSubaction(f"edge slack {Fraction(worst, L)} is positive")
    return ContactLocus(frozenset(i for i, s in enumerate(slacks) if s == 0))


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

    Costs are beta minus weight. The graph engine's least-cost search runs
    on the reversed arcs with every node seeded at 0, which supplies the
    cap (``_bellman_ints``). Raises NegativeCycle if beta is below the true
    maximum mean.
    """
    D, _, u = _bellman_ints(graph, beta, reverse=True)
    return NodeFunction(graph, tuple(Fraction(x, D) for x in u))


# ---------------------------------------------------------------------------
# discounted construction


def _policy_values(
    arcs: Sequence[Sequence[tuple[int, int]]], policy: list[int], a: int, b: int
) -> tuple[list[int], int]:
    """Exact values of a stationary policy at rho = a/b, over one denominator.

    Node v follows its arc (t, c) = arcs[v][policy[v]] and solves
    x(v) = rho * (x(t) + c). Returns (X, den) with x = X / den, where den is
    the lcm over policy cycles of b^L - a^L, times b^d for the depth d of the
    deepest node off the cycles. A cycle of length L is solved in closed form
    over b^L - a^L; every other value follows from its successor with one
    exact division by b.
    """
    n = len(arcs)
    step = [out[i] for out, i in zip(arcs, policy)]
    cycles, tree = _policy_split([t for t, _ in step])
    depth = [0] * n
    for node in tree:
        depth[node] = depth[step[node][0]] + 1
    lcm = math.lcm(*{b ** len(c) - a ** len(c) for c in cycles})
    den = lcm * b ** max(depth)
    X = [0] * n

    def back(node: int) -> int:
        t, c = step[node]
        q, r = divmod(a * (X[t] + c * den), b)
        if r:
            raise AssertionError("a discounted value is not a multiple of 1/den")
        return q

    for cycle in cycles:
        # x(c_0) = a * sum_j a^j b^(L-1-j) c_j / (b^L - a^L), c_j the cycle's costs
        acc, ap, bp = 0, 1, 1
        for node in cycle:
            acc = acc * b + step[node][1] * ap
            ap *= a
            bp *= b
        head = cycle[0]
        X[head] = a * acc * (den // (bp - ap))
        for node in reversed(cycle[1:]):
            X[node] = back(node)
        if back(head) != X[head]:
            raise AssertionError("closed-form cycle value fails to wrap around")
    for node in tree:
        X[node] = back(node)
    return X, den


def _certified_bias(
    arcs: Sequence[Sequence[tuple[int, int]]], policy: list[int]
) -> tuple[list[int], int, int] | None:
    """The policy's bias u and gain g as (U, M, G), u = U / (W M) and
    g = G / (W M), if Veinott's test shows the policy bias-optimal
    (Puterman, MDPs, ch. 10); None otherwise.

    The bias, the constant term of the policy's discounted values as rho -> 1
    (Blackwell 1962), has u(v) = u(t) - w + g on each policy arc (v, t) of
    weight w, g the cycle mean, and mean 0 on each policy cycle; the next
    term y has y(v) = y(t) + u(v) there, also of mean 0. The test: the cycles
    share g, w + u(v) - u(t) <= g on every arc (so g = beta), and y(t) <=
    y(t') on every arc (v, t) where that is an equality, t' being v's policy
    successor. A bias-optimal policy's bias is the limit of the normalized
    optimal discounted values.
    """
    step = [out[i] for out, i in zip(arcs, policy)]
    cycles, tree = _policy_split([t for t, _ in step])
    M = 2 * math.lcm(*map(len, cycles))  # makes every U an int
    means = {-sum(step[v][1] for v in cycle) * (M // len(cycle)) for cycle in cycles}
    if len(means) != 1:
        return None
    (G,) = means
    order = [v for cycle in cycles for v in reversed(cycle[1:])] + tree

    def along(d: list[int]) -> list[int]:
        # X(v) = X(t) + d(v) on policy arcs, of mean 0 on each policy cycle
        # c_0 ... c_(L-1) as X(c_0) = sum_j (L - 1 - j) d(c_j) / L, an int here
        X = [0] * len(d)
        for cycle in cycles:
            L = len(cycle)
            X[cycle[0]] = sum((L - 1 - j) * d[v] for j, v in enumerate(cycle)) // L
        for node in order:
            X[node] = X[step[node][0]] + d[node]
        return X

    # U = u * W * M, G = g * W * M and Y = y * W * M * M, as w = -c / W
    U = along([c * M + G for _, c in step])
    Y = along([M * x for x in U])
    for v, out in enumerate(arcs):
        for t, c in out:
            slack = U[v] - U[t] - c * M - G  # (w + u(v) - u(t) - g) * W * M
            if slack > 0 or (slack == 0 and Y[t] > Y[step[v][0]]):
                return None
    return U, M, G


def _exact_discounted(
    arcs: Sequence[Sequence[tuple[int, int]]], a: int, b: int, policy: list[int]
) -> tuple[list[int], int]:
    """Fixed point of x(V) = rho * min over out-arcs (x(t) + c), rho = a/b.

    Policy iteration starts from the given policy (positions in arcs),
    improving it in place; a node switches arc only to a strictly better
    one, the first in arc order. The fixed point is unique, so the start
    changes only the number of sweeps. Returns (X, den) as _policy_values.
    """
    for _ in range(10 * sum(map(len, arcs)) + 10):
        X, den = _policy_values(arcs, policy, a, b)
        improved = False
        for v, out in enumerate(arcs):
            t, c = out[policy[v]]
            best = X[t] + c * den
            best_i = policy[v]
            for i, (t, c) in enumerate(out):
                cand = X[t] + c * den
                if cand < best:
                    best = cand
                    best_i = i
            if best_i != policy[v]:
                policy[v] = best_i
                improved = True
        if not improved:
            return X, den
    raise AssertionError("policy iteration failed to settle")


def discounted_fixed_point(graph: PrependGraph, rho) -> NodeFunction:
    """The unique discounted fixed point, solved exactly by policy iteration."""
    rho = Fraction(rho)
    if not (0 < rho < 1):
        raise ValueError("rho must lie strictly inside (0, 1)")
    W, arcs = graph._out_arcs
    X, den = _exact_discounted(arcs, rho.numerator, rho.denominator, [0] * len(arcs))
    return NodeFunction(graph, tuple(Fraction(x, W * den) for x in X))


def calibrated_via_discount(
    graph: PrependGraph,
    k_max: int = SCHEDULE_K_MAX,
    steps: list[tuple[Fraction, Fraction]] | None = None,
) -> tuple[NodeFunction, Fraction]:
    """Calibrated sub-action as the exact limit of normalized discounted solutions.

    Walks rho_k = 1 - 2^-k for k = 1..k_max. At the first rho whose optimal
    policy is shown bias-optimal, that policy's bias, normalized by the
    maximum, is returned with a = beta, once the policy's gain is checked to
    equal beta. Raises NonConvergence when k_max runs out first.

    If ``steps`` is given, each solved rho appends (rho, (1 - rho) * -max x)
    for its discounted values x; the last entry is the rho of acceptance.
    """
    W, arcs = graph._out_arcs
    beta = max_mean_cycle(graph).beta
    # warm start: each rho's optimal policy seeds policy iteration at the next
    policy = [0] * len(arcs)
    for k in range(1, k_max + 1):
        b = 2**k
        X, den = _exact_discounted(arcs, b - 1, b, policy)
        if steps is not None:
            steps.append((Fraction(b - 1, b), Fraction(-max(X), b * W * den)))
        if bias := _certified_bias(arcs, policy):
            U, M, G = bias
            if Fraction(G, W * M) != beta:
                raise AssertionError("the bias-optimal policy's gain differs from beta")
            return NodeFunction(graph, tuple(Fraction(x, W * M) for x in U)).normalized(), beta
    raise NonConvergence("discount schedule exhausted before a policy was shown bias-optimal")


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
    negated source potential; a sum below 0, a best mean below the worst,
    raises AssertionError. When they coincide, every cycle has mean beta, so
    every edge is tight under the Bellman potential h that max_mean_cycle
    returns with beta, and u = h(0) - h is the transfer function vanishing
    at node 0.
    """
    if classify_transitivity(graph.system).kind == "reducible":
        raise NotTransitive("cohomology test needs a transitive system")
    plus = max_mean_cycle(graph)
    beta_plus = plus.beta
    negated = build_prepend_graph(graph.system, graph.potential.scale(-1))
    beta_minus = max_mean_cycle(negated).beta
    if beta_plus + beta_minus < 0:
        raise AssertionError("beta(A) + beta(-A) is negative")
    if beta_plus + beta_minus != 0:
        return LivsicResult(False, beta_plus, None)
    h = plus.potential
    u = [h[0] - x for x in h]
    for e in graph.edges:
        if e.weight + u[e.src] - u[e.tgt] != beta_plus:
            raise AssertionError(f"transfer function leaves edge {e.key} slack")
    return LivsicResult(True, beta_plus, NodeFunction(graph, tuple(u)))


# ---------------------------------------------------------------------------
# refinement


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
    vals = []
    for v in refined.nodes:
        head = sum(
            ((k - i) * graph.edge_by_key(v[i - 1: i + q]).weight for i in range(1, k)),
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
