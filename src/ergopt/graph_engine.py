"""The prepend graph of a reduced potential and its exact cycle algorithms.

Nodes are allowed future windows of length q. Prepending symbol s onto the
window w = (x_0 .. x_{q-1}) moves along the edge w -> (s, x_0 .. x_{q-2})
whose key is the allowed (q+1)-word (s,) + w and whose weight is the reduced
potential value there. All arithmetic is exact; criticality is an equality
predicate on rationals.

The dynamic programs (policy iteration, Bellman, the negative-cycle search
and the all-pairs costs) run on Python ints: every edge cost is scaled by
the common denominator of the weights and of beta, and results turn back
into exact Fractions when they return.

beta comes from exact policy iteration on the max-plus Bellman operator
(Howard's algorithm, ``_policy_iteration``): O(n + m) per round and, on
random full and golden-mean shifts of 128-1024 nodes, 9-23 rounds, where
Karp's table is Theta(n * m + n^2). One least-cost search at beta
certifies it and gives the potential h. Karp's algorithm is kept in the
tests as a reference, as are Floyd-Warshall and Tarjan; the parametric
route and the circulation LP are the other two independent routes to beta.

The excursion-cost matrix lives at the graph's own beta and comes from
Johnson's method: the Bellman potential that ``max_mean_cycle`` kept
reweights every arc to a cost >= 0, and row s is one label-correcting search
from s on those reweighted costs, shifted back by the potential. A row is
searched when it is first read, so a caller pays only for the rows it
reads. The matrix stays on ints: ``ManeMatrix`` holds the costs over their
denominator D and builds a Fraction only when an entry is read. The
critical structure tests only the tight arcs inside the tight core (what is
left of the tight subgraph once nodes without a tight in-arc or out-arc
are peeled off), so it reads only the core's rows; the critical classes
are the connected components of the critical edges.

Each graph keeps what it has computed, so nothing is computed twice for
one graph:

- each node's int out-arcs over the common denominator W of its weights
  (``_scale_out_arcs``), the one int arc table it keeps: policy iteration,
  the discounted route and the edge slacks of ``subaction_lab`` read it,
  and ``_scaled_costs`` shifts it to the costs b - weight for any b;
- its ``BetaResult``, so policy iteration and the search for h run once;
  it keeps the arcs at beta and the tight core, which the critical
  structure reads, and the canonical witness cycle is searched once, in
  the core, and only when read (``max_mean_cycle``);
- its excursion-cost matrix at beta, built from the kept Bellman potential
  and arcs with no search for h of its own, and each row of it once read
  (``min_cost_all_pairs``).

One least-cost search, ``_label_correcting``, serves every least-cost
problem but the parametric route: the Bellman potential at beta and, in
``subaction_lab``, the maximal sub-action on reversed arcs (both
``_bellman_ints``, every node seeded at 0), each excursion row and
``ManeMatrix.least_into``. It scans in FIFO passes and gives up when a
pass n + 1 would start, which only a negative cycle reaches. The parametric
route keeps its own Bellman-Ford rounds (``_relax``), so it shares no loop
with the certificate of policy iteration's beta: its improving cycle
(``_negative_cycle``) walks the predecessor arcs after each round, in
O(n), and stops at the first cycle they close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import NegativeCycle
from .potential_model import LocallyConstantPotential, reduce_past
from .symbolic_core import SubshiftSystem, Word, allowed_words


class Edge(NamedTuple):
    index: int
    src: int
    tgt: int
    symbol: int
    weight: Fraction
    key: Word


@dataclass(frozen=True)
class PrependGraph:
    system: SubshiftSystem
    q: int
    nodes: tuple[Word, ...]
    edges: tuple[Edge, ...]
    potential: LocallyConstantPotential

    @cached_property
    def node_index(self) -> dict[Word, int]:
        return {w: i for i, w in enumerate(self.nodes)}

    @cached_property
    def _out(self) -> tuple[tuple[Edge, ...], ...]:
        # the edges come by source, then symbol
        lists: list[list[Edge]] = [[] for _ in self.nodes]
        for e in self.edges:
            lists[e.src].append(e)
        return tuple(map(tuple, lists))

    @cached_property
    def _out_arcs(self) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
        """The memo of ``_scale_out_arcs``: W and each node's int out-arcs."""
        return _scale_out_arcs(self)

    @cached_property
    def _by_key(self) -> dict[Word, Edge]:
        return {e.key: e for e in self.edges}

    @cached_property
    def _beta_result(self) -> BetaResult:
        return _solve_max_mean_cycle(self)

    @cached_property
    def _mane(self) -> ManeMatrix:
        return _solve_min_cost_all_pairs(self)

    def out_edges(self, src: int) -> tuple[Edge, ...]:
        return self._out[src]

    def edge_by_key(self, key: Word) -> Edge:
        try:
            return self._by_key[tuple(key)]
        except KeyError:
            raise KeyError(f"no edge with key {key}") from None


def build_prepend_graph(
    system: SubshiftSystem, potential: LocallyConstantPotential
) -> PrependGraph:
    """The depth-q graph of a potential's past reduction, edges by source, then symbol."""
    weight = reduce_past(potential)
    q = potential.future_depth
    nodes = tuple(allowed_words(system, q))
    index = {w: i for i, w in enumerate(nodes)}
    symbols = system.symbols()
    # before[b]: the 1-words that may be prepended onto a word starting with b
    before = [[(s,) for s in symbols if system.allows(s, b)] for b in symbols]
    # node w has an out-arc when w[0] has a predecessor and an in-arc when
    # w[-1] has a successor; the cycle kernels need both at every node
    if not (all(before) and all(map(any, system.transition))):
        raise AssertionError("prepend graph must have no sources or sinks")
    # the edge columns, each in edge order
    keys = [s + w for w in nodes for s in before[w[0]]]
    sources = [i for i, w in enumerate(nodes) for _ in before[w[0]]]
    targets = [index[key[:q]] for key in keys]
    columns = zip(range(len(keys)), sources, targets, map(itemgetter(0), keys),
                  map(weight.__getitem__, keys), keys)
    edges = tuple(map(tuple.__new__, repeat(Edge), columns))
    return PrependGraph(system, q, nodes, edges, potential)


# ---------------------------------------------------------------------------
# integer kernel shared by the dynamic programs


def _scaled_costs(
    graph: PrependGraph, shift: Fraction
) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """Edge costs shift - weight as ints scaled by a common denominator D.

    D is the lcm of the weight denominators and of shift's denominator, so
    (src, tgt, D * (shift - weight)) is exact for every edge. The arcs are
    read off ``PrependGraph._out_arcs``, whose weights W divides D; its
    edges come by source, then symbol, so the arcs come in edge order.
    """
    W, out = graph._out_arcs
    D = math.lcm(W, shift.denominator)
    base, k = shift.numerator * (D // shift.denominator), D // W
    return D, tuple((a, b, base + k * c) for a, arcs in enumerate(out) for b, c in arcs)


def _scale_out_arcs(graph: PrependGraph) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """W and each node's out-arcs (tgt, c), c = -W * weight, in out_edges order.

    W is the lcm of the weight denominators. This is the one int table a
    graph keeps (``PrependGraph._out_arcs``): policy iteration, the
    discounted route and the edge slacks of ``subaction_lab`` read it, and
    ``_scaled_costs`` shifts it.
    """
    W = math.lcm(*(e.weight.denominator for e in graph.edges))
    return W, tuple(
        tuple((e.tgt, -e.weight.numerator * (W // e.weight.denominator)) for e in edges)
        for edges in graph._out
    )


def _relax(
    arcs: Sequence[tuple[int, int, int]], dist: list[int], pred: list[int | None]
) -> int | None:
    """One Bellman-Ford round: relax the int arcs (a, b, c) in order.

    Records in pred the index of the arc that lowers each node and returns
    the last node lowered, or None when the round changes nothing.
    """
    lowered = None
    for i, (a, b, c) in enumerate(arcs):
        cand = dist[a] + c
        if cand < dist[b]:
            dist[b] = cand
            pred[b] = i
            lowered = b
    return lowered


# ---------------------------------------------------------------------------
# max mean cycle (policy iteration)


class BetaResult:
    """beta, its canonical witness cycle and the Bellman potential h at beta.

    beta, h and the scaled arcs of beta - weight, as ints over D, come with
    the result, which finds the indices of the tight-core arcs
    (``_tight_core_arcs``); the witness cycle and h as Fractions are built
    when first read. The result holds the graph's edges, never the graph
    itself, so a graph that keeps its result forms no reference cycle.
    """

    def __init__(
        self,
        beta: Fraction,
        D: int,
        h: Sequence[int],
        edges: Sequence[Edge],
        arcs: Sequence[tuple[int, int, int]],
    ) -> None:
        self.beta = beta
        self.D = D
        self.h = h
        self.arcs = arcs
        self.core = tuple(_tight_core_arcs(len(h), arcs, h))
        self._edges = edges

    @cached_property
    def witness_cycle(self) -> tuple[Edge, ...]:
        """The least cycle of tight arcs (``_minimal_cycle``); its mean is beta.

        Every cycle of tight arcs lies in the tight core, so only the core's
        arcs are searched.
        """
        witness = _minimal_cycle(len(self.h), [self._edges[i] for i in self.core])
        if sum((e.weight for e in witness), Fraction(0)) / len(witness) != self.beta:
            raise AssertionError("witness cycle mean differs from beta")
        return witness

    @cached_property
    def potential(self) -> tuple[Fraction, ...]:
        """h as exact Fractions."""
        return tuple(Fraction(x, self.D) for x in self.h)


def _policy_iteration(out: Sequence[Sequence[tuple[int, int]]]) -> tuple[int, int]:
    """Least cycle mean over the int arcs (t, c) leaving each node v, out[v],
    as (num, den) with den > 0.

    Exact multichain policy iteration on the min-plus Bellman operator
    (Howard's algorithm; Cochet-Terrasson, Cohen, Gaubert, McGettrick and
    Quadrat 1998). A policy picks one out-arc per node, starting from the
    cheapest. ``_policy_values`` gives each node the mean of the policy
    cycle it reaches and a bias, both ints over the lcm of the cycle
    lengths. Every node then takes the out-arc (t, c) with the least pair
    (eta[t], c * L + x[t]), mean first, and switches only on a strict gain.
    A new policy cycle can only use arcs of equal old mean, and one through
    a switched arc has a smaller mean, so each round lowers the
    (mean, bias) pair of every switched node and raises none, and no
    policy repeats. When no node gains, every cycle of the graph has mean
    at least that of some policy cycle. Every node needs an out-arc.
    num / den is the total cost and the length of the least-mean policy
    cycle, not reduced to lowest terms.
    """
    succ = [0] * len(out)
    cost = [0] * len(out)
    for v, choices in enumerate(out):
        succ[v], cost[v] = min(choices, key=itemgetter(1))
    while True:
        L, eta, x, cycles = _policy_values(succ, cost)
        switched = False
        for v, choices in enumerate(out):
            # the current arc scores (eta[v], x[v] + eta[v]); switch on a
            # strictly smaller pair, mean first
            best, bias = eta[v], x[v] + eta[v]
            pick = None
            for t, c in choices:
                e = eta[t]
                if e <= best:
                    b = c * L + x[t]
                    if e < best or b < bias:
                        best, bias, pick = e, b, (t, c)
            if pick is not None:
                succ[v], cost[v] = pick
                switched = True
        if not switched:
            break
    best_num, best_den = cycles[0]
    for num, den in cycles[1:]:
        if num * best_den < best_num * den:
            best_num, best_den = num, den
    return best_num, best_den


def _policy_split(succ: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """The cycles of the map v -> succ[v], each in map order, and its other
    nodes, each listed after its successor.

    Walks from each node in turn, stamping the nodes with the walk's start,
    in O(n) over all walks. A walk that meets its own stamp has closed a
    new cycle; the nodes it passed before that cycle, or before a node of
    an earlier walk, are tree nodes.
    """
    walk = [-1] * len(succ)  # the walk that first reached each node
    cycles: list[list[int]] = []
    tree: list[int] = []
    for start in range(len(succ)):
        if walk[start] >= 0:
            continue
        path = []
        v = start
        while walk[v] < 0:
            walk[v] = start
            path.append(v)
            v = succ[v]
        if walk[v] == start:
            at = path.index(v)
            cycles.append(path[at:])
            del path[at:]
        tree += reversed(path)
    return cycles, tree


def _policy_values(
    succ: Sequence[int], cost: Sequence[int]
) -> tuple[int, list[int], list[int], list[tuple[int, int]]]:
    """L, the mean and the bias of every node over L, and each policy cycle.

    The policy sends v along one arc to succ[v] at cost[v]. Each node
    reaches exactly one cycle of the policy; eta[v] is that cycle's mean
    and x[v] the cost over L of the path to the cycle's least node, less
    eta[v] per arc, so x[v] = cost[v] * L - eta[v] + x[succ[v]] everywhere
    and x is 0 at the least node of each cycle. L is the lcm of the cycle
    lengths, so both are ints. The cycles come as (total cost, length).
    """
    loops, tree = _policy_split(succ)
    L = math.lcm(*map(len, loops))
    eta = [0] * len(succ)
    x = [0] * len(succ)
    cycles = []
    for loop in loops:
        total = sum(cost[v] for v in loop)
        mean = total * (L // len(loop))
        cycles.append((total, len(loop)))
        at = loop.index(min(loop))
        acc = 0
        # back round the cycle from its least node: loop[at - 1], loop[at - 2], ...
        for k in range(len(loop) - 1, 0, -1):
            v = loop[(at + k) % len(loop)]
            acc += cost[v] * L - mean
            eta[v] = mean
            x[v] = acc
        eta[loop[at]] = mean
    # each tree node follows its successor, which is valued by then
    for v in tree:
        t = succ[v]
        e = eta[t]
        eta[v] = e
        x[v] = cost[v] * L - e + x[t]
    return L, eta, x, cycles


def _bellman_ints(
    graph: PrependGraph, beta: Fraction, reverse: bool = False
) -> tuple[int, tuple[tuple[int, int, int], ...], list[int]]:
    """D, the scaled arcs of beta - weight and the least costs h over D.

    h[v] is the least cost of a path into v, or out of v when reverse is
    set, capped at 0: one ``_label_correcting`` search with every node
    seeded at 0. Raises NegativeCycle if beta is below the true maximum
    mean.
    """
    D, arcs = _scaled_costs(graph, beta)
    adj: list[list[tuple[int, int]]] = [[] for _ in graph.nodes]
    for a, b, c in arcs:
        if reverse:
            a, b = b, a
        adj[a].append((b, c))
    h = _label_correcting(adj, [(v, 0) for v in range(len(adj))])
    if h is None:
        raise NegativeCycle("costs beta - weight admit a negative cycle")
    return D, arcs, h  # type: ignore[return-value]


def bellman_potentials(graph: PrependGraph, beta: Fraction) -> list[Fraction]:
    """Least-cost-to-reach values h for costs beta - weight, from a super-source.

    After convergence every edge has nonnegative reduced cost
    (beta - weight) + h(src) - h(tgt), with equality exactly on the edges of
    mean-beta cycles and of least-cost paths. Raises NegativeCycle if beta is
    below the true maximum mean.
    """
    D, _, h = _bellman_ints(graph, beta)
    return [Fraction(x, D) for x in h]


def _minimal_cycle(n: int, edge_pool: list[Edge]) -> tuple[Edge, ...]:
    """Shortest cycle in the pool on nodes 0 .. n-1; ties by smallest node sequence.

    Searches lengths 1, 2, ... and start nodes in ascending order, extending
    paths only through nodes larger than the start with edges in ascending
    target order, so the first hit is the canonical representative.
    """
    out: dict[int, list[Edge]] = {}
    for e in sorted(edge_pool, key=lambda e: (e.tgt, e.symbol)):
        out.setdefault(e.src, []).append(e)
    for length in range(1, n + 1):
        for start in range(n):
            found = _cycle_dfs(out, start, start, length, [start], [])
            if found is not None:
                return tuple(found)
    raise AssertionError("edge pool contains no cycle")


def _cycle_dfs(
    out: dict[int, list[Edge]],
    start: int,
    current: int,
    remaining: int,
    visited: list[int],
    path: list[Edge],
) -> list[Edge] | None:
    for e in out.get(current, []):
        if remaining == 1:
            if e.tgt == start:
                return path + [e]
            continue
        if e.tgt <= start or e.tgt in visited:
            continue
        found = _cycle_dfs(out, start, e.tgt, remaining - 1, visited + [e.tgt], path + [e])
        if found is not None:
            return found
    return None


def max_mean_cycle(graph: PrependGraph) -> BetaResult:
    """beta by policy iteration, certified, with its Bellman potential.

    The result is kept on the graph, so a repeated call returns the same
    object and policy iteration and the search for h run once per graph;
    the witness cycle is searched only when read.
    """
    return graph._beta_result


def _solve_max_mean_cycle(graph: PrependGraph) -> BetaResult:
    """beta from ``_policy_iteration``, certified by both of its bounds.

    beta is the mean of a policy cycle, so no more than the maximum; the
    check is that beta - weight admits no negative cycle (``_bellman_ints``
    raises otherwise), so no cycle has a larger mean, and that some cycle
    of tight arcs (a nonempty tight core) attains beta.
    """
    W, out = graph._out_arcs
    num, den = _policy_iteration(out)
    beta = Fraction(-num, den * W)
    D, arcs, h = _bellman_ints(graph, beta)
    result = BetaResult(beta, D, tuple(h), graph.edges, arcs)
    if not result.core:
        raise AssertionError("no cycle attains beta")
    return result


# ---------------------------------------------------------------------------
# parametric route (independent of policy iteration)


def _negative_cycle(graph: PrependGraph, b: Fraction) -> tuple[Edge, ...] | None:
    """A cycle with mean above b, or None when no cycle has one.

    Bellman-Ford on the costs b - weight, stopped at the first round after
    which the predecessor arcs close a cycle: every such cycle costs less
    than 0, and when some cycle does, one closes within n + 1 rounds. A
    round that changes nothing proves there is none.
    """
    n = len(graph.nodes)
    _, arcs = _scaled_costs(graph, b)
    dist = [0] * n
    pred: list[int | None] = [None] * n
    for _ in range(n + 1):
        if _relax(arcs, dist, pred) is None:
            return None
        cycle = _predecessor_cycle(arcs, pred)
        if cycle is not None:
            return tuple(graph.edges[i] for i in cycle)
    raise AssertionError("a node lowered in round n + 1 closes no predecessor cycle")


def _predecessor_cycle(
    arcs: Sequence[tuple[int, int, int]], pred: list[int | None]
) -> list[int] | None:
    """The arc indices, in path order, of the first cycle of predecessor arcs.

    Walks back from each node in turn, in O(n) over all walks: a node is
    unvisited, on the current walk (stamped with its start) or done; a walk
    that meets its own stamp has closed a cycle.
    """
    stamp = [0] * len(pred)
    for start in range(1, len(pred) + 1):
        v: int | None = start - 1
        while v is not None and not stamp[v]:
            stamp[v] = start
            i = pred[v]
            v = None if i is None else arcs[i][0]
        if v is not None and stamp[v] == start:
            cycle = []
            u = v
            while True:
                i = pred[u]
                cycle.append(i)
                u = arcs[i][0]
                if u == v:
                    break
            cycle.reverse()
            return cycle
    return None


def parametric_beta(graph: PrependGraph) -> Fraction:
    """Least b whose costs b - weight admit no negative cycle.

    Exact cycle-improvement: start from the mean of an arbitrary cycle, and
    while some cycle beats the current candidate replace the candidate by that
    cycle's mean. Means strictly increase through a finite set, so this
    terminates; the final value is certified by the no-negative-cycle check
    together with the cycle that attained it.
    """
    # start from the cycle that first out-edges lead to from node 0
    first = [graph.out_edges(v)[0] for v in range(len(graph.nodes))]
    cycle = [first[v] for v in _policy_split([e.tgt for e in first])[0][0]]
    b = sum((e.weight for e in cycle), Fraction(0)) / len(cycle)
    while True:
        better = _negative_cycle(graph, b)
        if better is None:
            return b
        mean = sum((e.weight for e in better), Fraction(0)) / len(better)
        if not mean > b:
            raise AssertionError("an improving cycle must beat the candidate mean")
        b = mean


# ---------------------------------------------------------------------------
# all-pairs least path costs and the critical structure


def _label_correcting(
    adj: Sequence[Sequence[tuple[int, int]]], seeds: Iterable[tuple[int, int]]
) -> list[int | float] | None:
    """Least seed label plus path cost to every node; inf where none reaches.

    adj[v] lists the int arcs (t, c) leaving v, and each seed (t, f) labels
    node t with f. A FIFO label-correcting search (Bellman-Ford-Moore) in
    passes: pass 1 scans the seeded nodes, and pass k + 1, first in first
    out, the nodes that pass k lowered. After pass k every label is at most
    the least cost over paths of k arcs from a seed, so when no cycle costs
    less than 0, least paths have at most n - 1 arcs and pass n lowers
    nothing. Returns None when a pass n + 1 would start, which only a
    negative cycle reaches. O(n * m) in the worst case.
    """
    dist: list[int | float] = [math.inf] * len(adj)
    queued = [False] * len(adj)
    queue = []
    for t, f in seeds:
        if f < dist[t]:
            dist[t] = f
            if not queued[t]:
                queued[t] = True
                queue.append(t)
    for _ in range(len(adj)):  # passes 1 .. n
        if not queue:
            return dist
        lowered = []
        for v in queue:
            queued[v] = False
            dv = dist[v]
            for t, c in adj[v]:
                cand = dv + c
                if cand < dist[t]:
                    dist[t] = cand
                    if not queued[t]:
                        queued[t] = True
                        lowered.append(t)
        queue = lowered
    return None if queue else dist


class ManeMatrix:
    """Minimum cost of a nonempty path between node pairs, costs beta - weight.

    Entries are ints over D, the common denominator of beta and the
    weights; None encodes an unreachable pair (possible only off strongly
    connected graphs). The matrix holds the Bellman potential h over D and
    every arc reweighted by it, c + h[src] - h[tgt] >= 0 (Johnson 1977), and
    fills row s only when it is first read: one label-correcting search
    from s over the reweighted arcs (``row``). ``cost``, ``value`` and
    ``phi`` read rows; ``least_into`` searches the reversed arcs once for
    the least costs into a set of targets, and reads no row.
    """

    def __init__(
        self,
        beta: Fraction,
        D: int,
        h: Sequence[int],
        out: Sequence[Sequence[tuple[int, int]]],
    ) -> None:
        self.beta = beta
        self.D = D
        self.h = h
        self.out = out  # out[v]: the arcs (t, reweighted cost) leaving v
        self._rows: list[tuple[int | None, ...] | None] = [None] * len(h)

    def row(self, src: int) -> tuple[int | None, ...]:
        """The costs over D from src to every node, searched on first read."""
        row = self._rows[src]
        if row is None:
            row = self._rows[src] = self._build_row(src)
        return row

    def _build_row(self, src: int) -> tuple[int | None, ...]:
        # seeded with the out-arcs of src, never with the empty path, so
        # the diagonal entry is the least cost of a nonempty cycle
        INF, hs = math.inf, self.h[src]
        dist = _label_correcting(self.out, self.out[src])
        return tuple([
            None if d == INF else d - hs + hv  # type: ignore[misc]
            for d, hv in zip(dist, self.h)
        ])

    @property
    def cost(self) -> tuple[tuple[int | None, ...], ...]:
        """Every row; reading it searches from each source not yet read."""
        return tuple(self.row(s) for s in range(len(self.h)))

    def value(self, src: int, tgt: int) -> Fraction | None:
        c = self.row(src)[tgt]
        return None if c is None else Fraction(c, self.D)

    @cached_property
    def phi(self) -> tuple[tuple[Fraction | None, ...], ...]:
        """Every entry as an exact Fraction."""
        n = len(self.h)
        return tuple(tuple(self.value(i, j) for j in range(n)) for i in range(n))

    def least_into(self, seeds: Sequence[tuple[int, int]], m: int) -> list[int | None]:
        """min over the seeds (t, f) of f + m * cost(v -> t), for every node v.

        The costs are over D, so f and the result are over D * m. The path
        from v to t may be empty, which gives f at v = t. One multi-source
        search on the reversed reweighted arcs scaled by m, seeded at each t
        with f + m * h[t]; None marks a node that reaches no seed.
        """
        h = self.h
        into: list[list[tuple[int, int]]] = [[] for _ in h]
        for v, arcs in enumerate(self.out):
            for t, c in arcs:
                into[t].append((v, c * m))
        dist = _label_correcting(into, [(t, f + m * h[t]) for t, f in seeds])
        INF = math.inf
        return [None if d == INF else d - m * hv for d, hv in zip(dist, h)]  # type: ignore[misc]


def min_cost_all_pairs(graph: PrependGraph) -> ManeMatrix:
    """Least costs of nonempty paths between all node pairs, costs beta - weight.

    beta is the graph's own maximum mean. The matrix is kept on the graph,
    so a repeated call returns the same object, with the rows read so far.
    """
    return graph._mane


def _solve_min_cost_all_pairs(graph: PrependGraph) -> ManeMatrix:
    """Johnson's reweighting by the kept Bellman potential; no row searched yet.

    The potential h of ``BetaResult``, as ints over D, satisfies
    h[tgt] <= h[src] + c on every scaled arc (src, tgt, c), since h is a
    least cost from a super-source and no arc can lower it further. So
    every reweighted cost c + h[src] - h[tgt] is >= 0, and a path's
    reweighted cost is its cost plus h[s] - h[v] for its ends s and v. On
    random full shifts of 64-256 nodes a row search scanned each node about
    2-2.5 times.
    """
    result = graph._beta_result
    D, h = result.D, result.h
    out: list[list[tuple[int, int]]] = [[] for _ in h]
    for a, b, c in result.arcs:
        out[a].append((b, c + h[a] - h[b]))
    return ManeMatrix(result.beta, D, h, out)


@dataclass(frozen=True)
class CriticalStructure:
    beta: Fraction
    critical_nodes: frozenset[int]
    critical_edges: frozenset[int]
    classes: tuple[tuple[int, ...], ...]  # each sorted; ordered by first node

    def anchors(self) -> tuple[int, ...]:
        return tuple(cls[0] for cls in self.classes)


def _tight_core_arcs(
    n: int, arcs: Sequence[tuple[int, int, int]], h: Sequence[int]
) -> list[int]:
    """Indices of the tight arcs (c + h[src] == h[tgt]) inside the tight core.

    The core is what remains of the tight subgraph after repeatedly
    dropping every node with no tight in-arc or no tight out-arc inside it.
    Every node of a cycle of tight arcs keeps an arc either way, so each
    such cycle lies in the core.
    """
    tight = [i for i, (a, b, c) in enumerate(arcs) if c + h[a] == h[b]]
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for i in tight:
        a, b, _ = arcs[i]
        succ[a].append(b)
        pred[b].append(a)
    ins = [len(p) for p in pred]
    outs = [len(s) for s in succ]
    dropped = [not (i and o) for i, o in zip(ins, outs)]
    stack = [v for v in range(n) if dropped[v]]
    while stack:
        v = stack.pop()
        for t in succ[v]:
            ins[t] -= 1
            if not (ins[t] or dropped[t]):
                dropped[t] = True
                stack.append(t)
        for s in pred[v]:
            outs[s] -= 1
            if not (outs[s] or dropped[s]):
                dropped[s] = True
                stack.append(s)
    return [i for i in tight if not (dropped[arcs[i][0]] or dropped[arcs[i][1]])]


def critical_structure(graph: PrependGraph) -> CriticalStructure:
    """Edges on mean-beta cycles, their source nodes, and the classes they join.

    An arc (src, tgt, c) is critical when c + cost[tgt][src] == 0, that is
    when it closes a zero-cost cycle. Every arc of such a cycle has
    reweighted cost 0, so it is tight under the Bellman potential and the
    cycle lies in the tight core that ``BetaResult`` keeps: the test runs
    on the core's arcs only and reads only the core's rows of the matrix.
    Every arc of a zero-cost cycle is critical, so the classes (two nodes
    share one exactly when their round-trip cost is 0) are the connected
    components of the critical edges, found by union-find. The round trips
    are then checked against the matrix: 0 from each anchor to every
    member of its class, > 0 between two anchors.
    """
    result = graph._beta_result
    mane = min_cost_all_pairs(graph)
    arcs = result.arcs
    n = len(graph.nodes)
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    edge_ids = []
    for i in result.core:
        src, tgt, c = arcs[i]
        back = mane.row(tgt)[src]
        if back is not None and c + back == 0:
            edge_ids.append(i)
            root[find(src)] = find(tgt)
    nodes = frozenset(arcs[i][0] for i in edge_ids)
    # in ascending node order, each class first appears at its least node
    classes: dict[int, list[int]] = {}
    for v in sorted(nodes):
        classes.setdefault(find(v), []).append(v)
    structure = CriticalStructure(
        mane.beta, nodes, frozenset(edge_ids), tuple(map(tuple, classes.values()))
    )

    def round_trip(u: int, v: int) -> int | None:
        there, back = mane.row(u)[v], mane.row(v)[u]
        return None if there is None or back is None else there + back

    anchors = structure.anchors()
    for a, cls in zip(anchors, structure.classes):
        if any(round_trip(a, v) != 0 for v in cls):
            raise AssertionError("a critical class holds a node off its anchor's zero-cost cycles")
    for i, a in enumerate(anchors):
        for b in anchors[:i]:
            trip = round_trip(a, b)
            if trip is not None and trip <= 0:
                raise AssertionError("two critical classes share a zero-cost cycle")
    return structure
