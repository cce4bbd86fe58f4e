"""The integer discounted policy iteration against the Fraction one it replaced.

The references below are the plain Fraction policy evaluation, policy
iteration and discount walk. The integer kernel keeps every value over one
common denominator, so its values and its policies must match them exactly:
on seeded random transitive systems (r in {2, 3}, q in {1, 2, 3}, weight
denominators up to 10 and up to 1000) and on the named fixtures.

The reference walk is the route's earlier form: it stopped once successive
normalized solutions were close and guessed the limit from the last one.
The route now takes the exact bias of the first optimal policy that
Veinott's test shows bias-optimal, so its steps are a prefix of the
reference's, and its values equal the reference's wherever the reference
converges. Three seeded sets of 60
instances check that the route is accepted on every one of them.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ergopt.errors import NonConvergence
from ergopt.graph_engine import Edge, build_prepend_graph, critical_structure, max_mean_cycle
from ergopt.potential_model import LocallyConstantPotential
from ergopt.subaction_lab import (
    SCHEDULE_K_MAX,
    NodeFunction,
    _exact_discounted,
    calibrated_via_discount,
    calibration_residual,
    discounted_fixed_point,
)
from ergopt.symbolic_core import allowed_words

from conftest import (
    f1_graph,
    f3_graph,
    f5_graph,
    f6_graph,
    random_fraction,
    random_graph,
    random_system,
    two_class_graph,
)


# ---------------------------------------------------------------------------
# Fraction references


def ref_policy_values(graph, policy: list[Edge], rho: Fraction) -> list[Fraction]:
    n = len(graph.nodes)
    values: list = [None] * n
    state = [0] * n
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
            cycle = chain[chain.index(v):]
            acc = Fraction(0)
            rp = Fraction(1)
            for node in cycle:
                rp *= rho
                acc += rp * policy[node].weight
            values[cycle[0]] = -acc / (1 - rho ** len(cycle))
            for node in reversed(cycle[1:]):
                values[node] = rho * (values[policy[node].tgt] - policy[node].weight)
        for node in reversed(chain):
            if values[node] is None:
                values[node] = rho * (values[policy[node].tgt] - policy[node].weight)
            state[node] = 2
    return values


def ref_exact_discounted(graph, rho: Fraction, policy: list[Edge] | None = None) -> list[Fraction]:
    if policy is None:
        policy = [graph.out_edges(v)[0] for v in range(len(graph.nodes))]
    while True:
        values = ref_policy_values(graph, policy, rho)
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


# The route this reference walk comes from stopped once successive normalized
# solutions differed by at most this much, and then guessed the limit.
OUTER_STOP = Fraction(1, 10**9)


def ref_calibrated_via_discount(graph, k_max: int, steps: list):
    prev = None
    policy = [graph.out_edges(v)[0] for v in range(len(graph.nodes))]
    for k in range(1, k_max + 1):
        rho = Fraction(2**k - 1, 2**k)
        vals = ref_exact_discounted(graph, rho, policy)
        top = max(vals)
        norm = [v - top for v in vals]
        delta = 1 - rho
        a_est = delta * (-top)
        change = None if prev is None else max(abs(a - b) for a, b in zip(norm, prev[0]))
        steps.append((rho, a_est, change))
        if prev is not None and change <= OUTER_STOP:
            candidate = NodeFunction(graph, tuple(v.limit_denominator(10**6) for v in norm))
            beta = max_mean_cycle(graph).beta
            if calibration_residual(candidate, graph, beta) != 0:
                raise NonConvergence("rational reconstruction is not exactly calibrated")
            _, prev_delta, prev_a = prev
            return candidate, a_est + (a_est - prev_a) * delta / (prev_delta - delta)
        prev = (norm, delta, a_est)
    raise NonConvergence("discount schedule exhausted before the outer stop")


# ---------------------------------------------------------------------------
# instances


def _random_instances():
    rng = random.Random(7)
    out = []
    for max_den in (10, 1000):
        for r in (2, 3):
            for q in (1, 2, 3):
                graph = random_graph(rng, r, q, max_den=max_den, require_transitive=True)
                out.append(pytest.param(graph, id=f"r{r}-q{q}-d{max_den}"))
    return out


FIXTURES = [
    pytest.param(make(), id=make.__name__) for make in (f1_graph, f3_graph, f5_graph, f6_graph)
]
INSTANCES = _random_instances() + FIXTURES


def _values(graph, a: int, b: int, policy: list[int]) -> list[Fraction]:
    W, arcs = graph._out_arcs
    X, den = _exact_discounted(arcs, a, b, policy)
    return [Fraction(x, W * den) for x in X]


def _positions(graph, policy: list[Edge]) -> list[int]:
    return [graph.out_edges(v).index(e) for v, e in enumerate(policy)]


# ---------------------------------------------------------------------------
# comparisons


@pytest.mark.parametrize("graph", INSTANCES)
def test_values_and_policies_at_every_rho_match(graph):
    n = len(graph.nodes)
    ref_policy = [graph.out_edges(v)[0] for v in range(n)]
    policy = [0] * n
    for k in range(1, SCHEDULE_K_MAX + 1):
        rho = Fraction(2**k - 1, 2**k)
        warm = ref_exact_discounted(graph, rho, ref_policy)
        assert _values(graph, 2**k - 1, 2**k, policy) == warm
        assert policy == _positions(graph, ref_policy)
        assert _values(graph, 2**k - 1, 2**k, [0] * n) == warm


@pytest.mark.parametrize("graph", INSTANCES)
def test_discounted_fixed_point_at_general_rho(graph):
    rng = random.Random(len(graph.edges))
    rhos = [Fraction(1, 2), Fraction(3, 4), Fraction(9, 10), Fraction(1, 1000)]
    rhos += [Fraction(rng.randint(1, 99), 100) for _ in range(3)]
    for rho in rhos:
        assert list(discounted_fixed_point(graph, rho).values) == ref_exact_discounted(graph, rho)


def _ref_route(graph):
    """The reference walk's (rho, a) steps and its values, or None if it refused."""
    ref_steps: list = []
    try:
        values = ref_calibrated_via_discount(graph, SCHEDULE_K_MAX, ref_steps)[0].values
    except NonConvergence:
        values = None
    return [(rho, a) for rho, a, _ in ref_steps], values


@pytest.mark.parametrize("graph", INSTANCES)
def test_route_matches_the_fraction_route(graph):
    ref_steps, ref_values = _ref_route(graph)
    steps: list = []
    u, a = calibrated_via_discount(graph, SCHEDULE_K_MAX, steps)
    assert steps == ref_steps[: len(steps)]
    if ref_values is not None:
        assert u.values == ref_values
    assert a == max_mean_cycle(graph).beta


def _accepting_k(graph) -> int:
    steps: list = []
    calibrated_via_discount(graph, SCHEDULE_K_MAX, steps)
    return len(steps)


def test_every_instance_converges_and_refuses_below_its_k():
    later = 0
    for param in INSTANCES:
        graph = param.values[0]
        K = _accepting_k(graph)
        if K > 1:
            later += 1
            with pytest.raises(NonConvergence):
                calibrated_via_discount(graph, K - 1)
    assert later > 0


def test_short_schedule_refuses_like_the_reference():
    ref_steps: list = []
    with pytest.raises(NonConvergence):
        ref_calibrated_via_discount(two_class_graph(), 2, ref_steps)
    steps: list = []
    with pytest.raises(NonConvergence, match="schedule exhausted"):
        calibrated_via_discount(two_class_graph(), 2, steps)
    assert steps == [(rho, a) for rho, a, _ in ref_steps]


# ---------------------------------------------------------------------------
# seeded convergence


def _seeded_instances(seed: int, count: int = 60):
    """Random transitive instances: r in {2, 3, 4}, q in {1, 2, 3}, at most
    4^4 = 256 windows; weights in {0, 1} for every fourth instance, else
    n/d with |n| <= 20 and d up to 10 or up to 1000."""
    rng = random.Random(seed)
    graphs = []
    for i in range(count):
        r, q = rng.choice((2, 3, 4)), rng.choice((1, 2, 3))
        system = random_system(rng, r, require_transitive=True)
        words = allowed_words(system, q + 1)
        if i % 4 == 0:
            table = {w: Fraction(rng.randint(0, 1)) for w in words}
        else:
            table = {w: random_fraction(rng, max_den=(10, 1000)[i % 2]) for w in words}
        graphs.append(build_prepend_graph(system, LocallyConstantPotential(system, 1, q, table)))
    return graphs


SEEDED = {seed: _seeded_instances(seed) for seed in (7, 11, 13)}
NEAR_ONE = 1 - Fraction(1, 2**40)


@pytest.mark.parametrize("seed", sorted(SEEDED))
def test_route_accepts_every_seeded_instance(seed):
    several_classes = 0
    for graph in SEEDED[seed]:
        beta = max_mean_cycle(graph).beta
        u, a = calibrated_via_discount(graph)
        assert a == beta
        assert calibration_residual(u, graph, beta) == 0
        _, ref_values = _ref_route(graph)
        if ref_values is not None:
            assert u.values == ref_values
        near = discounted_fixed_point(graph, NEAR_ONE).normalized()
        assert max(abs(x - y) for x, y in zip(u.values, near.values)) <= Fraction(1, 10**8)
        several_classes += len(critical_structure(graph).classes) >= 2
    assert several_classes > 0


def test_cap_one_below_the_accepting_k_refuses():
    K, graph = next((k, g) for g in SEEDED[7] if (k := _accepting_k(g)) >= 5)
    with pytest.raises(NonConvergence):
        calibrated_via_discount(graph, K - 1)
    calibrated_via_discount(graph, K)
