"""The integer discounted policy iteration against the Fraction one it replaced.

The references below are the plain Fraction policy evaluation, policy
iteration and discount walk. The integer kernel keeps every value over one
common denominator, so its values, its policies, the walk's ``steps``, the
returned (u, a) and each NonConvergence must match them exactly: on seeded
random transitive systems (r in {2, 3}, q in {1, 2, 3}, weight denominators
up to 10 and up to 1000) and on the named fixtures.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ergopt.errors import NonConvergence
from ergopt.graph_engine import Edge, max_mean_cycle
from ergopt.subaction_lab import (
    OUTER_STOP,
    SCHEDULE_K_MAX,
    NodeFunction,
    _discount_arcs,
    _exact_discounted,
    calibrated_via_discount,
    calibration_residual,
    discounted_fixed_point,
)

from conftest import f1_graph, f3_graph, f5_graph, f6_graph, random_graph


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
    W, arcs = _discount_arcs(graph)
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


@pytest.mark.parametrize("graph", INSTANCES)
def test_route_matches_the_fraction_route(graph):
    ref_steps: list = []
    try:
        expected = ref_calibrated_via_discount(graph, SCHEDULE_K_MAX, ref_steps)
    except NonConvergence as exc:
        expected = str(exc)
    steps: list = []
    try:
        got = calibrated_via_discount(graph, SCHEDULE_K_MAX, steps)
    except NonConvergence as exc:
        got = str(exc)
    assert steps == ref_steps
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got[0].values == expected[0].values
        assert got[1] == expected[1]


def test_some_instances_converge_and_some_do_not():
    outcomes = set()
    for param in INSTANCES:
        try:
            calibrated_via_discount(param.values[0])
            outcomes.add("converged")
        except NonConvergence:
            outcomes.add("refused")
    assert outcomes == {"converged", "refused"}


def test_short_schedule_refuses_like_the_reference():
    ref_steps: list = []
    with pytest.raises(NonConvergence) as ref:
        ref_calibrated_via_discount(f1_graph(), 2, ref_steps)
    steps: list = []
    with pytest.raises(NonConvergence) as got:
        calibrated_via_discount(f1_graph(), 2, steps)
    assert str(got.value) == str(ref.value)
    assert steps == ref_steps
