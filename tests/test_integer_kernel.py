"""The integer dynamic programs against the rational formulas they replace.

Each reference below is the plain Fraction loop that the integer kernel
replaced; ``ref_karp`` is Karp's algorithm, which ``max_mean_cycle`` ran
before exact policy iteration took its place. The kernel must reproduce it
exactly, value for value, on full shifts, golden-mean shifts and a
reducible system (whose matrix has unreachable pairs), at weight
denominators up to 10 and up to 1000.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import ergopt.graph_engine as graph_engine
from ergopt.errors import NegativeCycle
from ergopt.graph_engine import (
    _label_correcting,
    _negative_cycle,
    _policy_iteration,
    _scaled_costs,
    bellman_potentials,
    build_prepend_graph,
    max_mean_cycle,
    min_cost_all_pairs,
    parametric_beta,
)
from ergopt.potential_model import LocallyConstantPotential
from ergopt.subaction_lab import (
    SCHEDULE_K_MAX,
    _exact_discounted,
    maximal_subaction,
)
from ergopt.symbolic_core import allowed_words, classify_transitivity

from conftest import (
    full_shift,
    golden_mean,
    random_fraction,
    random_graph,
    random_system,
    reducible_system,
)


# ---------------------------------------------------------------------------
# Fraction references


def ref_karp(graph) -> Fraction:
    # Karp's dynamic program, the reference for the policy-iteration kernel
    n = len(graph.nodes)
    d = [[Fraction(0)] * n]
    for k in range(1, n + 1):
        row = [None] * n
        for e in graph.edges:
            cand = d[k - 1][e.src] + e.weight
            if row[e.tgt] is None or cand > row[e.tgt]:
                row[e.tgt] = cand
        d.append(row)
    return max(
        min((d[n][v] - d[k][v]) / (n - k) for k in range(n)) for v in range(n)
    )


def ref_bellman(graph, beta):
    n = len(graph.nodes)
    h = [Fraction(0)] * n
    for _ in range(n):
        changed = False
        for e in graph.edges:
            cand = h[e.src] + beta - e.weight
            if cand < h[e.tgt]:
                h[e.tgt] = cand
                changed = True
        if not changed:
            return h
    raise AssertionError("reference Bellman did not settle")


def ref_all_pairs(graph, beta):
    n = len(graph.nodes)
    phi = [[None] * n for _ in range(n)]
    for e in graph.edges:
        c = beta - e.weight
        if phi[e.src][e.tgt] is None or c < phi[e.src][e.tgt]:
            phi[e.src][e.tgt] = c
    for k in range(n):
        for i in range(n):
            ik = phi[i][k]
            if ik is None:
                continue
            for j in range(n):
                kj = phi[k][j]
                if kj is None:
                    continue
                if phi[i][j] is None or ik + kj < phi[i][j]:
                    phi[i][j] = ik + kj
    return tuple(tuple(row) for row in phi)


def excursion_values(graph):
    """Every entry of the graph's excursion costs as a Fraction, None where no path leads."""
    mane = min_cost_all_pairs(graph)
    n = len(graph.nodes)
    return tuple(tuple(mane.value(i, j) for j in range(n)) for i in range(n))


def ref_negative_cycle(graph, b):
    n = len(graph.nodes)
    dist = [Fraction(0)] * n
    pred = [None] * n
    marked = None
    for round_ in range(n + 1):
        changed = False
        for e in graph.edges:
            cand = dist[e.src] + b - e.weight
            if cand < dist[e.tgt]:
                dist[e.tgt] = cand
                pred[e.tgt] = e
                changed = True
                if round_ == n:
                    marked = e.tgt
        if not changed:
            return None
    v = marked
    for _ in range(n):
        v = pred[v].src
    cycle = []
    u = v
    while True:
        cycle.append(pred[u])
        u = pred[u].src
        if u == v:
            break
    return tuple(reversed(cycle))


def ref_maximal_subaction(graph, beta):
    n = len(graph.nodes)
    u = [Fraction(0)] * n
    for _ in range(n + 2):
        changed = False
        for v in range(n):
            best = min((beta - e.weight) + u[e.tgt] for e in graph.out_edges(v))
            best = min(Fraction(0), best)
            if best != u[v]:
                u[v] = best
                changed = True
        if not changed:
            return tuple(u)
    raise AssertionError("reference sweep did not settle")


# ---------------------------------------------------------------------------
# instances


SYSTEMS = {
    "full2": (full_shift(2), (1, 2, 3)),
    "full3": (full_shift(3), (1, 2)),
    "golden": (golden_mean(), (1, 2, 3)),
    "reducible": (reducible_system(), (1, 2)),
}


def _instances(max_den: int, count: int = 3):
    rng = random.Random(1000 + max_den)
    out = []
    for name, (system, depths) in SYSTEMS.items():
        for q in depths:
            for _ in range(count):
                table = {
                    k: random_fraction(rng, max_den=max_den)
                    for k in allowed_words(system, 1 + q)
                }
                A = LocallyConstantPotential(system, 1, q, table)
                out.append(pytest.param(build_prepend_graph(system, A), id=f"{name}-q{q}-d{max_den}"))
    return out


INSTANCES = _instances(10) + _instances(1000)


@pytest.mark.parametrize("graph", INSTANCES)
def test_kernel_matches_fraction_reference(graph):
    beta = ref_karp(graph)
    assert max_mean_cycle(graph).beta == beta
    assert parametric_beta(graph) == beta
    assert bellman_potentials(graph, beta) == ref_bellman(graph, beta)
    assert excursion_values(graph) == ref_all_pairs(graph, beta)
    assert maximal_subaction(graph, beta).values == ref_maximal_subaction(graph, beta)


@pytest.mark.parametrize("graph", _instances(10, count=1) + _instances(1000, count=1))
def test_scaled_costs_match_the_direct_formula(graph):
    # shifts whose denominators are new to the weights
    rng = random.Random(len(graph.edges))
    shifts = [Fraction(0)] + [
        Fraction(rng.randint(-50, 50), rng.choice((1, 3, 7, 997, 1000, 2**20)))
        for _ in range(6)
    ]
    for shift in shifts:
        D = math.lcm(shift.denominator, *(e.weight.denominator for e in graph.edges))
        direct = [(e.src, e.tgt, D * (shift - e.weight)) for e in graph.edges]
        got_D, arcs = _scaled_costs(graph, shift)
        assert got_D == D
        assert list(arcs) == direct
        assert all(type(c) is int for _, _, c in arcs)
        assert type(arcs) is tuple


def _backward_chain(n: int) -> list[list[tuple[int, int]]]:
    # arcs v -> v - 1 of cost -1: the least path into node 0 takes n - 1
    # arcs, and scanning the seeds in node order finds one arc of it a pass
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for v in range(1, n):
        adj[v].append((v - 1, -1))
    return adj


@pytest.mark.parametrize("n", [1, 2, 3, 10, 50])
def test_label_correcting_needs_no_pass_past_n(n):
    seeds = [(v, 0) for v in range(n)]
    assert _label_correcting(_backward_chain(n), seeds) == [v - (n - 1) for v in range(n)]
    # from the last node alone, pass k lowers node n - 1 - k
    assert _label_correcting(_backward_chain(n), [(n - 1, 0)]) == [v - (n - 1) for v in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 10, 50])
def test_label_correcting_gives_up_on_a_negative_cycle(n):
    # the arc 0 -> n - 1 of cost n - 2 closes the chain into a cycle of cost -1
    adj = _backward_chain(n)
    adj[0].append((n - 1, n - 2))
    assert _label_correcting(adj, [(v, 0) for v in range(n)]) is None
    assert _label_correcting(adj, [(n - 1, 0)]) is None


@pytest.mark.parametrize("graph", _instances(10, count=1) + _instances(1000, count=1))
def test_karp_kernel_on_shifted_arcs(graph):
    # the least mean of the arcs of shift - weight is shift - beta, with
    # beta from the Karp reference; policy iteration must return it
    beta = ref_karp(graph)
    for shift in (Fraction(0), beta, beta + Fraction(1, 7), Fraction(-3, 11)):
        D, arcs = _scaled_costs(graph, shift)
        out = [[] for _ in graph.nodes]
        for a, b, c in arcs:
            out[a].append((b, c))
        num, den = _policy_iteration(out)
        assert den > 0
        assert Fraction(num, den * D) == shift - beta


def _random_instances(max_den: int):
    # random transition matrices from the shared helper, transitive and
    # reducible, at future depths 1 and 2
    rng = random.Random(2000 + max_den)
    out = []
    for kind in ("transitive", "reducible"):
        found = 0
        while found < 4:
            system = random_system(rng, rng.randint(2, 4), require_transitive=kind == "transitive")
            if (classify_transitivity(system).kind == "reducible") != (kind == "reducible"):
                continue
            q = 1 + found % 2
            table = {k: random_fraction(rng, max_den=max_den) for k in allowed_words(system, 1 + q)}
            A = LocallyConstantPotential(system, 1, q, table)
            out.append(pytest.param(build_prepend_graph(system, A), id=f"{kind}{found}-q{q}-d{max_den}"))
            found += 1
    return out


@pytest.mark.parametrize("graph", _random_instances(10) + _random_instances(1000))
def test_policy_iteration_matches_karp_on_random_systems(graph):
    beta = ref_karp(graph)
    W, out = graph._out_arcs
    num, den = _policy_iteration(out)
    assert Fraction(-num, den * W) == beta
    assert max_mean_cycle(graph).beta == beta


@pytest.mark.parametrize("system", [full_shift(2), full_shift(3), golden_mean(), reducible_system()])
def test_policy_iteration_with_all_weights_equal(monkeypatch, system):
    # every cycle has mean 7/3, so every policy is optimal and none switches:
    # the first policy is valued once and kept
    rounds = []
    policy_values = graph_engine._policy_values

    def counting(succ, cost):
        rounds.append(len(succ))
        return policy_values(succ, cost)

    monkeypatch.setattr(graph_engine, "_policy_values", counting)
    for q in (1, 2, 3):
        table = {k: Fraction(7, 3) for k in allowed_words(system, 1 + q)}
        graph = build_prepend_graph(system, LocallyConstantPotential(system, 1, q, table))
        assert ref_karp(graph) == Fraction(7, 3)
        W, out = graph._out_arcs
        rounds.clear()
        num, den = _policy_iteration(out)
        assert rounds == [len(graph.nodes)]
        assert Fraction(-num, den * W) == Fraction(7, 3)
        result = max_mean_cycle(graph)
        assert result.beta == Fraction(7, 3)
        assert len(result.witness_cycle) == 1


@pytest.mark.parametrize("graph", INSTANCES)
def test_negative_cycle_below_the_optimum(graph):
    beta = ref_karp(graph)
    below = beta - Fraction(1, 997)
    # the same cycle, though it may start at another node: the kernel stops
    # in the round the cycle closes, the reference walks n arcs back from a
    # node lowered in round n + 1
    cycle = ref_negative_cycle(graph, below)
    rotations = {cycle[k:] + cycle[:k] for k in range(len(cycle))}
    assert _negative_cycle(graph, below) in rotations
    assert _negative_cycle(graph, beta) is None
    with pytest.raises(NegativeCycle):
        bellman_potentials(graph, below)
    with pytest.raises(NegativeCycle):
        maximal_subaction(graph, below)


def full_shift_scale_graph(q: int):
    """The scale table's full 2-shift: p = 1, weights from random.Random(5) in word order."""
    rng = random.Random(5)
    system = full_shift()
    table = {
        k: Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        for k in allowed_words(system, 1 + q)
    }
    return build_prepend_graph(system, LocallyConstantPotential(system, 1, q, table))


@pytest.mark.parametrize(
    "make_graph, beta, rounds",
    [
        (lambda: random_graph(random.Random(21), 2, 5), Fraction(139, 40), [1, 2, 7]),
        (lambda: full_shift_scale_graph(10), Fraction(18863, 3780), [4, 12]),
    ],
    ids=["seeded-32", "full2-1024"],
)
def test_the_parametric_route_stops_at_the_first_predecessor_cycle(
    monkeypatch, make_graph, beta, rounds
):
    # Bellman-Ford rounds in each step of parametric_beta: an improving step
    # ends in the round its cycle closes (it ran all n + 1 rounds before),
    # the last step when a round changes nothing
    graph = make_graph()
    counted: list[int] = []
    relax, negative_cycle = graph_engine._relax, graph_engine._negative_cycle

    def counting_negative_cycle(graph, b):
        counted.append(0)
        return negative_cycle(graph, b)

    def counting_relax(arcs, dist, pred):
        counted[-1] += 1
        return relax(arcs, dist, pred)

    monkeypatch.setattr(graph_engine, "_negative_cycle", counting_negative_cycle)
    monkeypatch.setattr(graph_engine, "_relax", counting_relax)
    assert parametric_beta(graph) == beta
    assert counted == rounds
    monkeypatch.undo()
    assert max_mean_cycle(graph).beta == beta


def test_reducible_matrix_has_unreachable_pairs():
    system = reducible_system()
    A = LocallyConstantPotential(
        system, 1, 1, {k: Fraction(1, 3) for k in allowed_words(system, 2)}
    )
    graph = build_prepend_graph(system, A)
    phi = excursion_values(graph)
    assert any(v is None for row in phi for v in row)
    assert phi == ref_all_pairs(graph, Fraction(1, 3))


@pytest.mark.parametrize("graph", _instances(10, count=1) + _instances(1000, count=1))
def test_warm_start_keeps_every_discounted_value(graph):
    W, arcs = graph._out_arcs

    def solve(rho, policy=None):
        if policy is None:
            policy = [0] * len(arcs)
        X, den = _exact_discounted(arcs, rho.numerator, rho.denominator, policy)
        return [Fraction(x, W * den) for x in X]

    policy = [0] * len(arcs)
    for k in range(1, SCHEDULE_K_MAX + 1):
        rho = Fraction(2**k - 1, 2**k)
        assert solve(rho, policy) == solve(rho)
