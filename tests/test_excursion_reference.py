"""The integer excursion layer against the code it replaced.

The references below are the Fraction forms of the critical structure (read
off the Fraction Floyd-Warshall reference of ``test_integer_kernel``), of
the witness selection in max_mean_cycle (tight edges tested on Fraction
potentials) and of the three residuals. The integer code compares scaled
ints instead, so every class, critical edge, witness cycle, residual,
violation set, contact locus and error message must match them exactly: on
full 2-, 3- and 4-shifts, golden-mean shifts, a random transitive system
and a reducible system, at weight denominators up to 10 and up to 1000,
with weights in {0, 1}, which gives several critical classes, and with a
constant plus a random coboundary, which makes every arc critical on a
transitive system.

``ref_critical_structure`` finds the critical edges on the Fraction
Floyd-Warshall matrix, one round trip per edge, and groups them into classes
with its own Tarjan pass, so it shares no input with ``critical_structure``,
which takes the strongly connected components of the tight arcs.

``ref_int_floyd_warshall`` is the integer Floyd-Warshall that
``min_cost_all_pairs`` used before it reweighted by the Bellman potential
and searched from each source. D and every int entry of the excursion
matrix must match it at beta, on the instances above plus more random
transitive systems and one 128-node full shift per weight kind, and so
must each row read on its own, in any order; below beta the reference must
raise NegativeCycle. ``critical_structure`` reads no row, and must still
match the reference, which reads every row.

``ref_excursion_minimum`` is the per-node formula that
``mane_family_subaction`` evaluated, one matrix row per node, before it ran
one reverse search seeded at the base point's period windows. The family
sub-action of x at xbar's window is the Mane potential from x to xbar, so
matching the formula at every node covers both. It must match exactly on
the bundled fixtures and on seeded transitive instances, at every
non-wandering point with a preperiod of at most 2 symbols and a period of at
most 3, points with a preperiod and points whose period repeats a window
among them; it may not search a row once ``omega_set`` is built.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from ergopt import fixtures
from ergopt.errors import NegativeCycle, NotSubaction, NotTransitive
from ergopt.graph_engine import (
    BetaResult,
    _minimal_cycle,
    _scaled_costs,
    bellman_potentials,
    build_prepend_graph,
    critical_structure,
    max_mean_cycle,
    min_cost_all_pairs,
)
from ergopt.mane_aubry import (
    BoundaryData,
    mane_family_subaction,
    omega_membership,
    omega_set,
    reconstruct,
)
from ergopt.potential_model import LocallyConstantPotential, coboundary_modify
from ergopt.subaction_lab import (
    NodeFunction,
    calibration_residual,
    contact_locus,
    maximal_subaction,
    subaction_residual,
)
from ergopt.symbolic_core import allowed_words, point, window

from conftest import (
    full_shift,
    golden_mean,
    random_fraction,
    random_system,
    reducible_system,
    two_class_graph,
)
from test_integer_kernel import ref_all_pairs


# ---------------------------------------------------------------------------
# Fraction references


def ref_critical_structure(graph, beta):
    """Critical nodes, critical edges, and classes: each sorted, ordered by least node."""
    phi = ref_all_pairs(graph, beta)
    nodes = frozenset(v for v in range(len(graph.nodes)) if phi[v][v] == 0)
    edge_ids = []
    for e in graph.edges:
        back = phi[e.tgt][e.src]
        if back is not None and (beta - e.weight) + back == 0:
            edge_ids.append(e.index)
    adj: dict[int, list[int]] = {}
    for i in edge_ids:
        e = graph.edges[i]
        adj.setdefault(e.src, []).append(e.tgt)

    # Tarjan's strongly connected components, iterative
    index = [0]
    low = {}
    disc = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    comps: list[list[int]] = []
    for root in range(len(graph.nodes)):
        if root in disc:
            continue
        work = [(root, iter(adj.get(root, [])))]
        disc[root] = low[root] = index[0]
        index[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in disc:
                    disc[w] = low[w] = index[0]
                    index[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj.get(w, []))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == disc[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    classes = sorted(
        (tuple(sorted(c)) for c in comps if any(v in nodes for v in c)),
        key=lambda c: c[0],
    )
    return nodes, frozenset(edge_ids), tuple(classes)


def ref_int_floyd_warshall(graph, beta):
    """D and the least nonempty-path costs over D; None where unreachable."""
    n = len(graph.nodes)
    D, edges = _scaled_costs(graph, beta)
    INF = math.inf
    phi = [[INF] * n for _ in range(n)]
    for src, tgt, c in edges:
        if c < phi[src][tgt]:
            phi[src][tgt] = c
    for k in range(n):
        # a snapshot of row k is exact: round k changes row k only when
        # phi[k][k] < 0, which raises below anyway
        pk = [(j, kj) for j, kj in enumerate(phi[k]) if kj != INF]
        for row in phi:
            ik = row[k]
            if ik == INF:
                continue
            for j, kj in pk:
                cand = ik + kj
                if cand < row[j]:
                    row[j] = cand
    for v in range(n):
        if phi[v][v] < 0:
            raise NegativeCycle(f"node {graph.nodes[v]} lies on a cycle of mean above beta")
    return D, tuple(tuple(None if c == INF else c for c in row) for row in phi)


def ref_witness(graph, beta):
    h = bellman_potentials(graph, beta)
    tight = [e for e in graph.edges if (beta - e.weight) + h[e.src] - h[e.tgt] == 0]
    return _minimal_cycle(len(graph.nodes), tight), tuple(h)


def ref_subaction_residual(u, graph, beta):
    slacks = [(e.weight + u[e.src] - u[e.tgt] - beta, e) for e in graph.edges]
    worst = max(s for s, _ in slacks)
    violations = tuple(e for s, e in slacks if s > 0)
    return worst, violations


def ref_calibration_residual(u, graph, beta):
    beta = Fraction(beta)
    worst = None
    for v in range(len(graph.nodes)):
        bell = min(u[e.tgt] - e.weight + beta for e in graph.out_edges(v))
        gap = abs(u[v] - bell)
        if worst is None or gap > worst:
            worst = gap
    return worst


def ref_contact_locus(u, graph, beta):
    worst, _ = ref_subaction_residual(u, graph, beta)
    if worst > 0:
        raise NotSubaction(f"edge slack {worst} is positive")
    return frozenset(e.index for e in graph.edges if e.weight + u[e.src] - u[e.tgt] == beta)


# ---------------------------------------------------------------------------
# instances


SYSTEMS = {
    "full2": (full_shift(2), (1, 2, 3)),
    "full3": (full_shift(3), (1, 2, 3)),
    "full4": (full_shift(4), (1, 2, 3)),
    "golden": (golden_mean(), (1, 2, 3)),
    "random3": (random_system(random.Random(31), 3, require_transitive=True), (1, 2)),
    "reducible": (reducible_system(), (1, 2, 3)),
}

def _drawn(draw):
    """The window table of seeded draws, one per allowed (1 + q)-word."""
    return lambda rng, system, q: {k: draw(rng) for k in allowed_words(system, 1 + q)}


def _coboundary(rng, system, q):
    """A constant plus the coboundary of a random depth-q word function."""
    zero = LocallyConstantPotential(
        system, 1, q, dict.fromkeys(allowed_words(system, 1 + q), Fraction(0))
    )
    f = {w: random_fraction(rng, max_den=10) for w in allowed_words(system, q)}
    return coboundary_modify(zero, f, random_fraction(rng, max_den=10)).table


# each kind's window table on a system at future depth q
WEIGHTS = {
    "d10": _drawn(lambda rng: random_fraction(rng, max_den=10)),
    "d1000": _drawn(lambda rng: random_fraction(rng, max_den=1000)),
    "01": _drawn(lambda rng: Fraction(rng.randint(0, 1))),
    "coboundary": _coboundary,
}


def _instances():
    out = []
    for kind, table_of in WEIGHTS.items():
        rng = random.Random(f"excursion-{kind}")
        for name, (system, depths) in SYSTEMS.items():
            for q in depths:
                table = table_of(rng, system, q)
                A = LocallyConstantPotential(system, 1, q, table)
                graph = build_prepend_graph(system, A)
                out.append(pytest.param(graph, id=f"{name}-q{q}-{kind}"))
    return out


INSTANCES = _instances()


def _node_functions(graph, beta):
    """Calibrated, sub-action and arbitrary node functions on one graph."""
    rng = random.Random(len(graph.nodes) * 7919 + len(graph.edges))
    n = len(graph.nodes)
    return [
        maximal_subaction(graph, beta),
        NodeFunction(graph, tuple(-h for h in max_mean_cycle(graph).potential)),
        NodeFunction(graph, tuple(random_fraction(rng, max_den=10) for _ in range(n))),
        NodeFunction(graph, tuple(random_fraction(rng, max_den=1000) for _ in range(n))),
        NodeFunction(graph, tuple(Fraction(0) for _ in range(n))),
    ]


@pytest.mark.parametrize(
    "graph", INSTANCES + [pytest.param(two_class_graph(), id="two_class")]
)
def test_critical_structure_matches_reference(graph):
    beta = max_mean_cycle(graph).beta
    nodes, edges, classes = ref_critical_structure(graph, beta)
    cs = critical_structure(graph)
    assert cs.critical_nodes == nodes
    assert cs.critical_edges == edges
    assert cs.classes == classes


@pytest.mark.parametrize("graph", INSTANCES)
def test_witness_and_potential_match_reference(graph):
    result = max_mean_cycle(graph)
    witness, h = ref_witness(graph, result.beta)
    assert result.witness_cycle == witness
    assert result.potential == h


@pytest.mark.parametrize("graph", INSTANCES)
def test_residuals_match_reference(graph):
    beta = max_mean_cycle(graph).beta
    nonzero = 0
    for b in (beta, beta + Fraction(1, 7), beta - Fraction(2, 3)):
        for u in _node_functions(graph, beta):
            assert subaction_residual(u, graph, b) == ref_subaction_residual(u, graph, b)
            residual = calibration_residual(u, graph, b)
            assert residual == ref_calibration_residual(u, graph, b)
            nonzero += residual != 0
            try:
                expected = ref_contact_locus(u, graph, b)
            except NotSubaction as exc:
                with pytest.raises(NotSubaction) as got:
                    contact_locus(u, graph, b)
                assert str(got.value) == str(exc)
            else:
                assert contact_locus(u, graph, b).edges == expected
    assert nonzero > 0


def test_zero_one_weights_give_several_classes():
    counts = []
    for param in INSTANCES:
        graph = param.values[0]
        if param.id.endswith("-01"):
            counts.append(len(critical_structure(graph).classes))
    assert max(counts) >= 2


def test_coboundary_weights_make_every_arc_critical():
    # the tight arcs then form one strongly connected component
    graphs = [p.values[0] for p in INSTANCES if p.id.endswith("-coboundary")]
    for graph in graphs:
        cs = critical_structure(graph)
        if graph.system != reducible_system():
            assert cs.critical_edges == {e.index for e in graph.edges}
            assert cs.classes == (tuple(range(len(graph.nodes))),)
    assert len(graphs) == 17


def _all_pairs_instances():
    out = list(INSTANCES)
    for kind, table_of in WEIGHTS.items():
        rng = random.Random(f"all-pairs-{kind}")
        graphs = []
        for i in range(4):
            system = random_system(rng, rng.choice((3, 4)), require_transitive=True)
            graphs.append((f"random{i}", system, rng.choice((1, 2))))
        graphs.append(("full2", full_shift(2), 7))  # 128 nodes
        for name, system, q in graphs:
            table = table_of(rng, system, q)
            graph = build_prepend_graph(system, LocallyConstantPotential(system, 1, q, table))
            out.append(pytest.param(graph, id=f"{name}-q{q}-{kind}-n{len(graph.nodes)}"))
    return out


ALL_PAIRS_INSTANCES = _all_pairs_instances()


@pytest.mark.parametrize("graph", ALL_PAIRS_INSTANCES)
def test_all_pairs_matches_the_int_floyd_warshall(graph):
    beta = max_mean_cycle(graph).beta
    mane = min_cost_all_pairs(graph)
    assert (mane.D, mane.cost) == ref_int_floyd_warshall(graph, beta)
    assert all(type(c) is int for row in mane.cost for c in row if c is not None)
    with pytest.raises(NegativeCycle):
        ref_int_floyd_warshall(graph, beta - Fraction(1, 997))


@pytest.mark.parametrize("graph", ALL_PAIRS_INSTANCES[::3])
def test_rows_read_one_at_a_time_match_the_int_floyd_warshall(graph):
    # on a rebuilt graph no row has been read yet; each read searches one
    # row, and a repeated read returns it without a search
    graph = build_prepend_graph(graph.system, graph.potential)
    _, expected = ref_int_floyd_warshall(graph, max_mean_cycle(graph).beta)
    mane = min_cost_all_pairs(graph)
    order = list(range(len(graph.nodes)))
    random.Random(len(order)).shuffle(order)
    for read, src in enumerate(order, 1):
        assert mane.row(src) == expected[src]
        assert mane.row(src) is mane.row(src)
        assert sum(row is not None for row in mane._rows) == read


def test_all_pairs_reference_covers_its_cases():
    graphs = [param.values[0] for param in ALL_PAIRS_INSTANCES]
    assert max(len(g.nodes) for g in graphs) == 128
    unreachable = zeros = 0
    for g in graphs:
        cost = min_cost_all_pairs(g).cost
        unreachable += sum(c is None for row in cost for c in row)
        zeros += sum(c == 0 for row in cost for c in row)
    assert unreachable > 0 and zeros > 0


@pytest.mark.parametrize("graph", [p for p in INSTANCES if not p.id.startswith("reducible")])
def test_reconstruct_matches_the_fraction_formula(graph):
    omega = omega_set(graph)
    anchors = omega.critical.anchors()
    rng = random.Random(len(graph.nodes) * 31 + len(anchors))
    for max_den in (1, 10, 1000):
        values = tuple(random_fraction(rng, max_den=max_den) for _ in anchors)
        expected = tuple(
            min(f + omega.mane.value(v, a) for f, a in zip(values, anchors))
            for v in range(len(graph.nodes))
        )
        assert reconstruct(BoundaryData(omega, values)).values == expected


# ---------------------------------------------------------------------------
# the Mane family and potential against the per-node formula


def ref_excursion_minimum(omega, x, start_node) -> Fraction:
    """min over one period of [phi(start_node -> W_j(x)) + sum of costs before j]."""
    graph = omega.graph
    q = graph.q
    J = len(x.preperiod)
    P = len(x.period)
    cum = Fraction(0)
    best = None
    for j in range(J + P):
        if j >= J:
            tgt = graph.node_index[window(x, j, q)]
            cand = omega.mane.value(start_node, tgt) + cum
            if best is None or cand < best:
                best = cand
        edge = graph.edge_by_key(window(x, j, q + 1))
        cum += omega.beta - edge.weight
    return best


def _valid_points(system):
    """The valid forward points with a preperiod of <= 2 symbols and a period of <= 3."""
    def words(lo: int, hi: int):
        return [w for n in range(lo, hi + 1) for w in itertools.product(system.symbols(), repeat=n)]

    found = {point(pre, per) for pre in words(0, 2) for per in words(1, 3)}
    return sorted((x for x in found if x.is_valid(system)), key=lambda x: (x.preperiod, x.period))


def _match_family_and_potential(graph) -> list:
    """Compare the family with the formula at every member of _valid_points
    and at the witness cycle's point; returns the members compared."""
    omega = omega_set(graph)
    n = len(graph.nodes)
    points = _valid_points(graph.system)
    cycle = max_mean_cycle(graph).witness_cycle
    members = [x for x in points if omega_membership(omega, x)]
    witness = point("", tuple(e.symbol for e in reversed(cycle)))
    if witness not in members:
        members.append(witness)
    for x in members:
        expected = tuple(ref_excursion_minimum(omega, x, v) for v in range(n))
        assert mane_family_subaction(omega, x).values == expected
    return members


def _repeats_a_window(x, q) -> bool:
    J = len(x.preperiod)
    windows = [window(x, j, q) for j in range(J, J + len(x.period))]
    return len(set(windows)) < len(windows)


@pytest.mark.parametrize("name", fixtures.available())
def test_family_and_potential_match_the_formula_on_the_fixtures(name):
    config = fixtures.load(name)
    graph = build_prepend_graph(config.system, config.potential)
    if name == "reducible":
        with pytest.raises(NotTransitive):
            omega_set(graph)
        return
    members = _match_family_and_potential(graph)
    assert members


def _seeded_graphs():
    out = []
    for kind, table_of in WEIGHTS.items():
        rng = random.Random(f"family-{kind}")
        for i in range(6):
            system = random_system(rng, rng.choice((2, 3)), require_transitive=True)
            q = rng.choice((1, 2))
            table = table_of(rng, system, q)
            graph = build_prepend_graph(system, LocallyConstantPotential(system, 1, q, table))
            out.append(pytest.param(graph, id=f"random{i}-q{q}-{kind}-n{len(graph.nodes)}"))
    for name, system in (("full2", full_shift(2)), ("golden", golden_mean())):
        for q in (1, 2):
            table = {k: Fraction(3, 7) for k in allowed_words(system, 1 + q)}
            graph = build_prepend_graph(system, LocallyConstantPotential(system, 1, q, table))
            out.append(pytest.param(graph, id=f"{name}-q{q}-constant"))
    return out


SEEDED_GRAPHS = _seeded_graphs()


@pytest.mark.parametrize("graph", SEEDED_GRAPHS)
def test_family_and_potential_match_the_formula_on_seeded_instances(graph):
    assert _match_family_and_potential(graph)


def test_the_formula_comparison_meets_preperiods_and_repeated_windows():
    graphs = [param.values[0] for param in SEEDED_GRAPHS]
    for name in fixtures.available():
        if name != "reducible":
            config = fixtures.load(name)
            graphs.append(build_prepend_graph(config.system, config.potential))
    with_preperiod = repeating = 0
    for graph in graphs:
        omega = omega_set(graph)
        for x in _valid_points(graph.system):
            if omega_membership(omega, x):
                with_preperiod += bool(x.preperiod)
                repeating += _repeats_a_window(x, graph.q)
    assert with_preperiod > 0 and repeating > 0


def test_family_and_potential_search_no_row(monkeypatch):
    # 64 nodes; omega_set reads no row, so the formula searches every row
    rng = random.Random("family-rows")
    system = full_shift(2)
    table = {k: random_fraction(rng) for k in allowed_words(system, 7)}
    graph = build_prepend_graph(system, LocallyConstantPotential(system, 1, 6, table))
    omega = omega_set(graph)
    built = []
    build_row = BetaResult._build_row

    def counting_build_row(self, src):
        built.append(src)
        return build_row(self, src)

    monkeypatch.setattr(BetaResult, "_build_row", counting_build_row)
    cycle = max_mean_cycle(graph).witness_cycle
    x = point("", tuple(e.symbol for e in reversed(cycle)))
    u = mane_family_subaction(omega, x)
    assert built == []
    unread = sum(row is None for row in omega.mane._rows)
    expected = tuple(ref_excursion_minimum(omega, x, v) for v in range(len(graph.nodes)))
    assert u.values == expected
    assert len(built) == unread == len(graph.nodes)
