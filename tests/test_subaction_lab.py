"""Sub-action verification, constructions, and refinements."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import ergopt.subaction_lab as subaction_lab
from ergopt.errors import HypothesisFails, NonConvergence, NotSubaction, NotTransitive
from ergopt.graph_engine import build_prepend_graph, critical_structure, max_mean_cycle
from ergopt.potential_model import LocallyConstantPotential, coboundary_modify
from ergopt.subaction_lab import (
    NodeFunction,
    _certified_bias,
    _exact_discounted,
    calibrated_via_discount,
    calibration_residual,
    contact_locus,
    contact_sources,
    convex_combination,
    discounted_fixed_point,
    dual_value,
    is_subaction,
    livsic_test,
    maximal_subaction,
    noncalibrated_example,
    pointwise_max,
    refine_subaction_Uk,
    subaction_residual,
)
from ergopt.symbolic_core import allowed_words

from conftest import (
    f1_graph,
    f3_graph,
    f5_graph,
    f6_graph,
    full_shift,
    golden_mean,
    random_fraction,
    random_graph,
    reducible_system,
    two_class_graph,
)

ONE = Fraction(1)


def nf(graph, *values):
    return NodeFunction(graph, tuple(Fraction(v) for v in values))


def solve_discounted(graph, rho: Fraction, solve=_exact_discounted) -> list[Fraction]:
    """Cold-started values of the integer kernel at rho, as Fractions."""
    W, arcs = graph._out_arcs
    X, den = solve(arcs, rho.numerator, rho.denominator, [0] * len(arcs))
    return [Fraction(x, W * den) for x in X]


# ---------------------------------------------------------------------------
# residuals and loci


def test_residual_certificate_tight():
    g = f1_graph()
    worst, bad = subaction_residual(nf(g, 1, 0), g, ONE)
    assert worst == 0 and bad == ()


def test_residual_zero_function():
    g = f1_graph()
    worst, bad = subaction_residual(nf(g, 0, 0), g, ONE)
    assert worst == 0 and bad == ()


def test_residual_violation_listed():
    g = f6_graph()
    worst, bad = subaction_residual(nf(g, 0, 0), g, ONE)
    assert worst == 1
    assert [e.key for e in bad] == [(1, 0)]
    assert not is_subaction(nf(g, 0, 0), g, ONE)


def test_contact_locus_heavy_loop():
    g = f1_graph()
    locus = contact_locus(nf(g, 1, 0), g, ONE)
    assert {g.edges[i].key for i in locus.edges} == {(1, 1), (1, 0)}


def test_contact_locus_constant_weights():
    g = f3_graph()
    locus = contact_locus(nf(g, 0, 0), g, Fraction(5))
    assert len(locus.edges) == len(g.edges)


def test_contact_locus_three_tight_edges():
    g = f6_graph()
    locus = contact_locus(nf(g, -1, 0), g, ONE)
    assert {g.edges[i].key for i in locus.edges} == {(1, 0), (1, 1), (0, 1)}


def test_contact_locus_rejects_non_subaction():
    g = f6_graph()
    with pytest.raises(NotSubaction):
        contact_locus(nf(g, 0, 0), g, ONE)


def test_calibration_residual_pinned():
    g = f1_graph()
    assert calibration_residual(nf(g, 1, 0), g, ONE) == 0
    assert calibration_residual(nf(g, 0, 0), g, ONE) == 1
    assert calibration_residual(nf(f3_graph(), 0, 0), f3_graph(), Fraction(5)) == 0


def test_one_slack_table_per_function_and_beta(monkeypatch):
    g = f6_graph()
    built = []
    scaled = subaction_lab._scaled_slacks

    def counting_slacks(u, graph, beta):
        built.append((u, graph, beta))
        return scaled(u, graph, beta)

    monkeypatch.setattr(subaction_lab, "_scaled_slacks", counting_slacks)
    u = nf(g, -1, 0)
    for beta in (ONE, 1, Fraction(2)):  # 1 and ONE are one key
        residuals = (subaction_residual(u, g, beta)[0], calibration_residual(u, g, beta))
        assert residuals == ((0, 0) if beta == 1 else (-1, 1))
        assert is_subaction(u, g, beta)
    assert {g.edges[i].key for i in contact_locus(u, g, ONE).edges} == {(1, 0), (1, 1), (0, 1)}
    assert len(built) == 2
    # an equal function holds its own table
    assert calibration_residual(nf(g, -1, 0), g, ONE) == 0
    assert len(built) == 3
    # slacks on a graph other than u's own are built on every call, not kept
    other = f6_graph()
    for _ in range(2):
        assert calibration_residual(u, other, ONE) == 0
    assert len(built) == 5
    assert u == nf(g, -1, 0) and "_slacks" not in repr(u)


def test_calibrated_has_tight_edge_everywhere():
    g = f1_graph()
    u = nf(g, 1, 0)
    locus = contact_locus(u, g, ONE)
    assert contact_sources(locus, g) == {0, 1}


# ---------------------------------------------------------------------------
# maximal sub-action


def test_maximal_subaction_pinned():
    assert maximal_subaction(f1_graph(), ONE).values == (0, 0)
    assert maximal_subaction(f3_graph(), Fraction(5)).values == (0, 0)
    assert maximal_subaction(f6_graph(), ONE).values == (-1, 0)


def test_maximal_subaction_properties(rng):
    for _ in range(25):
        g = random_graph(rng, rng.choice([2, 3]), rng.choice([1, 2]))
        beta = max_mean_cycle(g).beta
        u = maximal_subaction(g, beta)
        assert all(v <= 0 for v in u.values)
        assert subaction_residual(u, g, beta)[0] <= 0


def test_maximal_dominates_normalized_calibrated(rng):
    for make in (f1_graph, f3_graph, f5_graph, f6_graph):
        g = make()
        beta = max_mean_cycle(g).beta
        top = maximal_subaction(g, beta)
        cal, _ = calibrated_via_discount(g)
        candidates = [cal.normalized()]
        candidates.append(pointwise_max(candidates[0], top))
        candidates.append(convex_combination(Fraction(1, 3), candidates[0], top))
        for v in candidates:
            assert subaction_residual(v, g, beta)[0] <= 0
            assert all(a <= b for a, b in zip(v.values, top.values))


def test_combinations_stay_subactions(rng):
    for _ in range(20):
        g = random_graph(rng, 2, rng.choice([1, 2]))
        beta = max_mean_cycle(g).beta
        u = maximal_subaction(g, beta)
        shift = random_fraction(rng, lo=0, hi=5)
        v = u.shifted(-shift)
        for w in (pointwise_max(u, v), convex_combination(Fraction(1, 2), u, v)):
            assert subaction_residual(w, g, beta)[0] <= 0


# ---------------------------------------------------------------------------
# duality


def test_dual_value_lower_bound(rng):
    for _ in range(100):
        g = random_graph(rng, rng.choice([2, 3]), 1)
        beta = max_mean_cycle(g).beta
        f = NodeFunction(g, tuple(random_fraction(rng) for _ in g.nodes))
        assert dual_value(f, g) >= beta


def test_dual_value_attained_by_calibrated():
    for make in (f1_graph, f3_graph, f5_graph, f6_graph):
        g = make()
        beta = max_mean_cycle(g).beta
        u = maximal_subaction(g, beta)
        assert dual_value(u, g) == beta


# ---------------------------------------------------------------------------
# discounted route


def test_discounted_closed_form_two_node():
    g = f1_graph()
    for rho in (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)):
        u = discounted_fixed_point(g, rho)
        assert u.values == (-rho**2 / (1 - rho), -rho / (1 - rho))


def test_discounted_closed_form_constant():
    g = f3_graph()
    rho = Fraction(7, 8)
    u = discounted_fixed_point(g, rho)
    assert u.values == (-5 * rho / (1 - rho),) * len(g.nodes)


def test_discounted_fixed_point_reports_the_exact_solution(rng):
    for _ in range(10):
        g = random_graph(rng, 2, rng.choice([1, 2]))
        rho = Fraction(rng.randint(1, 99), 100)
        assert discounted_fixed_point(g, rho).values == tuple(solve_discounted(g, rho))
    for rho in (0, 1, Fraction(3, 2)):
        with pytest.raises(ValueError):
            discounted_fixed_point(f1_graph(), rho)


def test_discounted_vanishes_as_rho_small():
    g = f6_graph()
    u = discounted_fixed_point(g, Fraction(1, 1000))
    assert all(abs(v) < 0.01 for v in u.values)


def test_discounted_fixed_point_equation(rng):
    for _ in range(15):
        g = random_graph(rng, 2, rng.choice([1, 2]))
        rho = Fraction(rng.randint(1, 9), 10)
        vals = solve_discounted(g, rho)
        for v in range(len(g.nodes)):
            best = min(vals[e.tgt] - e.weight for e in g.out_edges(v))
            assert vals[v] == rho * best


def test_discounted_estimate_rate_and_monotonicity():
    for make in (f1_graph, f3_graph, f6_graph):
        g = make()
        beta = max_mean_cycle(g).beta
        gaps = []
        deltas = []
        for k in range(1, 12):
            rho = Fraction(2**k - 1, 2**k)
            top = max(solve_discounted(g, rho))
            gaps.append(abs((1 - rho) * (-top) - beta))
            deltas.append(1 - rho)
        rate = max(gap / d for gap, d in zip(gaps, deltas))
        assert all(gap <= rate * d for gap, d in zip(gaps, deltas))
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))


def test_calibrated_via_discount_pinned():
    g = f1_graph()
    u, a = calibrated_via_discount(g)
    assert u.values == (0, -1)
    assert a == 1

    u3, a3 = calibrated_via_discount(f3_graph())
    assert u3.values == (0, 0)
    assert a3 == 5

    g6 = f6_graph()
    u6, a6 = calibrated_via_discount(g6)
    assert u6[0] - u6[1] == -1
    assert a6 == 1
    assert calibration_residual(u6, g6, ONE) == 0


def test_calibrated_via_discount_offsets_two_classes_like_the_discounted_limit():
    # two critical 2-cycles of mean 1, weights (2, 0) on 0 <-> 1 and (1, 1) on
    # 2 <-> 3, every other edge -10: many calibrated sub-actions exist, and
    # the limit's offset between the classes comes from the bias of each cycle
    system = full_shift(4)
    table = {(s, w): Fraction(-10) for s in range(4) for w in range(4)}
    table.update({(1, 0): 2, (0, 1): 0, (3, 2): 1, (2, 3): 1})
    g = build_prepend_graph(system, LocallyConstantPotential(system, 1, 1, table))
    assert len(critical_structure(g).classes) == 2
    u, a = calibrated_via_discount(g)
    assert u.values == (-1, 0, Fraction(-1, 2), Fraction(-1, 2))
    assert a == 1
    near = discounted_fixed_point(g, 1 - Fraction(1, 2**40)).normalized()
    assert max(abs(x - y) for x, y in zip(u.values, near.values)) <= Fraction(1, 10**9)


def test_calibrated_via_discount_takes_the_bias_optimal_policy():
    # at rho = 1/2 and 3/4 the optimal policy takes the 3-cycle at node 0; its
    # bias is calibrated, but the tight loop at 0 beats it in the next
    # coefficient, and the limit takes the loop
    g = two_class_graph()
    assert len(critical_structure(g).classes) == 2
    steps = []
    u, a = calibrated_via_discount(g, steps=steps)
    assert len(steps) == 3
    assert u.values == (Fraction(-4, 5), 0, Fraction(-9, 5), Fraction(-4, 5))
    assert a == 1
    near = discounted_fixed_point(g, 1 - Fraction(1, 2**40)).normalized()
    assert max(abs(x - y) for x, y in zip(u.values, near.values)) <= Fraction(1, 10**9)


def test_calibrated_via_discount_schedule_too_short():
    with pytest.raises(NonConvergence):
        calibrated_via_discount(two_class_graph(), 2)


def test_discount_steps_record_each_solve_of_the_route(rng, monkeypatch):
    import ergopt.subaction_lab as lab

    solve = lab._exact_discounted
    solved = []
    policies = []

    def counted(arcs, a, b, policy):
        solved.append(Fraction(a, b))
        out = solve(arcs, a, b, policy)
        policies.append(list(policy))
        return out

    monkeypatch.setattr(lab, "_exact_discounted", counted)
    near_one = 1 - Fraction(1, 2**60)
    for _ in range(16):
        g = random_graph(rng, rng.choice([2, 3]), rng.choice([1, 2]), require_transitive=True)
        solved.clear()
        policies.clear()
        steps = []
        u, a = calibrated_via_discount(g, steps=steps)
        assert [rho for rho, _ in steps] == solved
        # each estimate is (1 - rho) * -max of the cold-started solution
        for rho, a_est in steps:
            assert a_est == (1 - rho) * -max(solve_discounted(g, rho, solve))
        # accepted at the first policy shown bias-optimal, with an exactly
        # calibrated limit of the normalized discounted solutions
        W, arcs = g._out_arcs
        shown = [_certified_bias(arcs, p) is not None for p in policies]
        assert shown == [False] * (len(steps) - 1) + [True]
        beta = max_mean_cycle(g).beta
        assert a == beta and calibration_residual(u, g, beta) == 0
        near = solve_discounted(g, near_one, solve)
        top = max(near)
        assert max(abs(x - y + top) for x, y in zip(u.values, near)) <= Fraction(1, 10**9)


# ---------------------------------------------------------------------------
# cohomology test


def test_livsic_constant_potential():
    res = livsic_test(f3_graph())
    assert res.cohomologous and res.constant == 5
    assert set(res.transfer.values) == {0}


def test_livsic_recovers_coboundary():
    system = full_shift()
    zero = LocallyConstantPotential(system, 1, 1, {})
    f = {(0,): Fraction(1), (1,): Fraction(0)}
    modified = coboundary_modify(zero, f, Fraction(3))
    res = livsic_test(build_prepend_graph(system, modified))
    assert res.cohomologous and res.constant == 3
    # The transfer satisfies weight + u(src) - u(tgt) = beta, so it returns
    # the negated modifier up to an additive constant.
    diffs = {res.transfer.by_word(w) + f[w] for w in f}
    assert len(diffs) == 1


def test_livsic_transfer_tight_everywhere():
    system = full_shift()
    zero = LocallyConstantPotential(system, 1, 1, {})
    f = {(0,): Fraction(2, 3), (1,): Fraction(-1, 5)}
    g = build_prepend_graph(system, coboundary_modify(zero, f, Fraction(-2)))
    res = livsic_test(g)
    assert res.cohomologous
    u = res.transfer
    assert all(e.weight + u[e.src] - u[e.tgt] == res.constant for e in g.edges)


def test_livsic_negative_case():
    res = livsic_test(f1_graph())
    assert not res.cohomologous
    assert res.constant == 1
    assert res.transfer is None


def test_livsic_requires_transitive():
    system = reducible_system()
    A = LocallyConstantPotential(system, 1, 1, {})
    with pytest.raises(NotTransitive):
        livsic_test(build_prepend_graph(system, A))


def ref_livsic_transfer(graph, beta):
    """Transfer by a breadth-first spanning walk from node 0: u(0) = 0, and
    each newly reached target gets u(src) + weight - beta."""
    u = [None] * len(graph.nodes)
    u[0] = Fraction(0)
    queue = [0]
    while queue:
        v = queue.pop(0)
        for e in graph.out_edges(v):
            if u[e.tgt] is None:
                u[e.tgt] = u[v] + e.weight - beta
                queue.append(e.tgt)
    return tuple(u)


LIVSIC_SYSTEMS = (("full2", full_shift(2)), ("full3", full_shift(3)), ("golden", golden_mean()))


def _coboundary_instances():
    rng = random.Random(2718)
    out = []
    for name, system in LIVSIC_SYSTEMS:
        for q in (1, 2, 3):
            for i in range(2):
                constant = random_fraction(rng)
                base = LocallyConstantPotential(
                    system, 1, q, {k: constant for k in allowed_words(system, 1 + q)}
                )
                f = {w: random_fraction(rng, max_den=1000) for w in allowed_words(system, q)}
                modified = coboundary_modify(base, f, random_fraction(rng))
                out.append(pytest.param(modified, id=f"{name}-q{q}-{i}"))
    return out


COBOUNDARIES = _coboundary_instances()


@pytest.mark.parametrize("A", COBOUNDARIES)
def test_livsic_transfer_matches_the_spanning_walk(A):
    graph = build_prepend_graph(A.system, A)
    res = livsic_test(graph)
    assert res.cohomologous
    assert res.transfer.values == ref_livsic_transfer(graph, res.constant)


@pytest.mark.parametrize("A", COBOUNDARIES)
def test_livsic_off_coboundary_has_no_transfer(A):
    # moving one edge off the loop at 0^q changes the means of the cycles
    # through it and leaves the loop's mean alone
    key = (1,) + (0,) * A.future_depth
    table = dict(A.table)
    table[key] += Fraction(1, 7)
    perturbed = LocallyConstantPotential(A.system, 1, A.future_depth, table)
    res = livsic_test(build_prepend_graph(A.system, perturbed))
    assert not res.cohomologous
    assert res.transfer is None


# ---------------------------------------------------------------------------
# rigidity


def test_rigidity_pinned_cases():
    # f6 has one critical class, {0, 1}: the maximal and the discount-limit
    # sub-actions differ there by one constant
    g6 = f6_graph()
    u = maximal_subaction(g6, ONE)
    v, _ = calibrated_via_discount(g6)
    assert u.values == (-1, 0)
    assert len({u[w] - v[w] for w in (0, 1)}) == 1

    # f5 has two classes, {0} and {1}: (0, 0) and (0, 1) are both calibrated,
    # so the constant may change from one class to the next
    g5 = f5_graph()
    a, b = nf(g5, 0, 0), nf(g5, 0, 1)
    assert calibration_residual(a, g5, ONE) == calibration_residual(b, g5, ONE) == 0
    assert len({a[w] - b[w] for w in (0,)}) == 1
    assert len({a[w] - b[w] for w in (0, 1)}) == 2


def test_rigidity_on_critical_classes(rng):
    for _ in range(20):
        g = random_graph(rng, 2, rng.choice([1, 2]), require_transitive=True)
        beta = max_mean_cycle(g).beta
        u = maximal_subaction(g, beta)
        v, _ = calibrated_via_discount(g)
        for cls in critical_structure(g).classes:
            # the maximal and a calibrated sub-action differ by one constant on a class
            assert len({u[w] - v[w] for w in cls}) == 1


# ---------------------------------------------------------------------------
# refinement


def test_refine_identity_at_k1():
    g = f6_graph()
    u = nf(g, -1, 0)
    assert refine_subaction_Uk(u, g, 1) is u


def test_refine_pinned_two_step():
    g = f6_graph()
    U = refine_subaction_Uk(nf(g, -1, 0), g, 2)
    by_word = {w: U.by_word(w) for w in U.graph.nodes}
    assert by_word == {
        (0, 0): Fraction(-1),
        (0, 1): Fraction(-1, 2),
        (1, 0): Fraction(1, 2),
        (1, 1): Fraction(1, 2),
    }
    locus = contact_locus(U, U.graph, ONE)
    srcs = contact_sources(locus, U.graph)
    assert U.graph.node_index[(0, 0)] not in srcs


def test_refine_constant_case():
    g = f3_graph()
    for k in (2, 3):
        U = refine_subaction_Uk(nf(g, 0, 0), g, k)
        assert len(set(U.values)) == 1
        locus = contact_locus(U, U.graph, Fraction(5))
        assert len(locus.edges) == len(U.graph.edges)


def test_refine_subaction_and_inclusion(rng):
    for _ in range(50):
        g = random_graph(rng, 2, 1)
        beta = max_mean_cycle(g).beta
        u = maximal_subaction(g, beta)
        k = rng.choice([2, 3])
        U = refine_subaction_Uk(u, g, k)
        assert subaction_residual(U, U.graph, beta)[0] <= 0
        base = {g.nodes[v] for v in contact_sources(contact_locus(u, g, beta), g)}
        for v in contact_sources(contact_locus(U, U.graph, beta), U.graph):
            word = U.graph.nodes[v]
            for j in range(k):
                assert word[j: j + g.q] in base


def test_critical_nodes_have_tight_edges(rng):
    for _ in range(20):
        g = random_graph(rng, rng.choice([2, 3]), 1, require_transitive=True)
        beta = max_mean_cycle(g).beta
        for u in (maximal_subaction(g, beta), calibrated_via_discount(g)[0]):
            locus = contact_locus(u, g, beta)
            srcs = contact_sources(locus, g)
            for node in critical_structure(g).critical_nodes:
                assert node in srcs


# ---------------------------------------------------------------------------
# the non-calibrated construction


def test_noncalibrated_example_pinned():
    g = f6_graph()
    U, witness = noncalibrated_example(nf(g, -1, 0), g)
    assert witness == (0, 0)
    assert U.by_word((0, 0)) == -1
    assert subaction_residual(U, U.graph, ONE)[0] <= 0
    assert calibration_residual(U, U.graph, ONE) > 0


def test_noncalibrated_hypothesis_fails_for_constant():
    g = f3_graph()
    with pytest.raises(HypothesisFails):
        noncalibrated_example(nf(g, 0, 0), g)


def test_noncalibrated_tail_anchored_counterexample():
    system = full_shift()
    A = LocallyConstantPotential(system, 2, 1, {(1, 1, 1): Fraction(1)})
    g = build_prepend_graph(system, A)
    u, _ = calibrated_via_discount(g)
    U, witness = noncalibrated_example(u, g)
    assert witness == (0, 0)


def test_noncalibrated_rejects_non_subaction():
    g = f6_graph()
    with pytest.raises(NotSubaction):
        noncalibrated_example(nf(g, 5, 0), g)
