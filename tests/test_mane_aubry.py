"""Non-wandering membership, excursion costs, and the boundary-data bijection."""

from __future__ import annotations

from fractions import Fraction

import pytest

import ergopt.mane_aubry as mane_aubry
from ergopt.errors import NotCalibrated, NotInOmega, NotTransitive
from ergopt.graph_engine import (
    build_prepend_graph,
    max_mean_cycle,
    min_cost_all_pairs,
)
from ergopt.holonomic_opt import CirculationMeasure, face_contains, maximizing_face
from ergopt.mane_aubry import (
    BoundaryData,
    OmegaSet,
    is_compatible,
    mane_family_subaction,
    maximal_calibrated,
    omega_membership,
    omega_set,
    reconstruct,
    represent,
)
from ergopt.oracle_bruteforce import oracle_mane, oracle_omega
from ergopt.potential_model import LocallyConstantPotential
from ergopt.subaction_lab import (
    NodeFunction,
    calibration_residual,
    maximal_subaction,
    subaction_residual,
)
from ergopt.symbolic_core import TransitivityReport, point

from conftest import (
    f1_graph,
    f3_graph,
    f5_graph,
    f6_graph,
    random_fraction,
    random_graph,
    reducible_system,
)


def masses_by_key(graph, assignment: dict[tuple[int, ...], Fraction]):
    vals = [Fraction(0)] * len(graph.edges)
    for key, mass in assignment.items():
        vals[graph.edge_by_key(key).index] = Fraction(mass)
    return tuple(vals)


def mane_at(omega: OmegaSet, x, xbar) -> Fraction:
    """The cheapest excursion cost from x to xbar: x's family sub-action at xbar's window."""
    return mane_family_subaction(omega, x)[omega.graph.node_index[xbar.symbols(omega.graph.q)]]


# ---------------------------------------------------------------------------
# membership


def test_membership_single_heavy_loop():
    omega = omega_set(f1_graph())
    assert omega_membership(omega, point("", "1"))
    assert not omega_membership(omega, point("", "0"))
    assert not omega_membership(omega, point("0", "1"))


def test_membership_constant_everything():
    omega = omega_set(f3_graph())
    for x in (point("", "0"), point("", "01"), point("110", "10")):
        assert omega_membership(omega, x)


def test_membership_two_loops():
    omega = omega_set(f5_graph())
    assert omega_membership(omega, point("", "0"))
    assert omega_membership(omega, point("", "1"))
    assert not omega_membership(omega, point("", "01"))


def test_membership_agrees_with_oracle():
    cases = [
        (f1_graph(), [point("", "1"), point("", "0"), point("0", "1")]),
        (f5_graph(), [point("", "0"), point("", "1"), point("", "01")]),
    ]
    for graph, points in cases:
        omega = omega_set(graph)
        for x in points:
            expected = oracle_omega(
                graph.system, graph.potential, omega.beta, x, Fraction(1, 64)
            )
            assert omega_membership(omega, x) == expected


def test_omega_requires_transitive():
    system = reducible_system()
    A = LocallyConstantPotential(system, 1, 1, {})
    with pytest.raises(NotTransitive):
        omega_set(build_prepend_graph(system, A))


def test_omega_set_rejects_a_graph_of_two_components(monkeypatch):
    # the reducible system, reported transitive: node 0 never reaches
    # node 1, so its graph is two strongly connected components, which only
    # omega_set's guard sees; it reads no excursion row to see it
    system = reducible_system()
    g = build_prepend_graph(system, LocallyConstantPotential(system, 1, 1, {(1, 1): 1}))
    monkeypatch.setattr(
        mane_aubry, "classify_transitivity", lambda system: TransitivityReport("transitive", 1)
    )
    with pytest.raises(AssertionError, match="excursion costs on a transitive system"):
        omega_set(g)
    assert min_cost_all_pairs(g)._rows == [None, None]


def test_reconstruct_rejects_a_node_that_reaches_no_anchor():
    # on the reducible system node 0 never reaches node 1, whose loop is
    # the only critical class; omega_set refuses the system, so the view is
    # assembled by hand from the graph's one result
    system = reducible_system()
    g = build_prepend_graph(system, LocallyConstantPotential(system, 1, 1, {(1, 1): 1}))
    result = max_mean_cycle(g)
    omega = OmegaSet(g, result.beta, result, result)
    assert omega.critical.classes == ((g.node_index[(1,)],),)
    with pytest.raises(AssertionError, match="excursion costs on a transitive system"):
        reconstruct(BoundaryData(omega, (Fraction(0),)))


# ---------------------------------------------------------------------------
# the pairwise potential


def test_potential_pinned_values():
    omega = omega_set(f1_graph())
    assert mane_at(omega, point("", "1"), point("0", "1")) == 1
    assert mane_at(omega, point("", "1"), point("", "1")) == 0

    omega3 = omega_set(f3_graph())
    for x in (point("", "0"), point("", "01")):
        for xbar in (point("", "1"), point("10", "01")):
            assert mane_at(omega3, x, xbar) == 0

    omega5 = omega_set(f5_graph())
    assert mane_at(omega5, point("", "0"), point("", "1")) == 1


def test_potential_vanishes_on_self():
    for make in (f1_graph, f3_graph, f5_graph, f6_graph):
        omega = omega_set(make())
        for x in (point("", "0"), point("", "1"), point("", "01")):
            if omega_membership(omega, x):
                assert mane_at(omega, x, x) == 0


def test_potential_rejects_wandering_base():
    omega = omega_set(f1_graph())
    with pytest.raises(NotInOmega):
        mane_at(omega, point("", "0"), point("", "1"))


def test_potential_matches_oracle():
    pairs = [
        (f1_graph(), point("", "1"), point("0", "1")),
        (f5_graph(), point("", "0"), point("", "1")),
        (f5_graph(), point("", "1"), point("", "0")),
        (f6_graph(), point("", "01"), point("", "1")),
    ]
    for graph, x, xbar in pairs:
        omega = omega_set(graph)
        expected = oracle_mane(graph.system, graph.potential, omega.beta, x, xbar, N=3)
        assert mane_at(omega, x, xbar) == expected


def test_potential_dominates_subaction_increments():
    for make in (f1_graph, f5_graph, f6_graph):
        graph = make()
        omega = omega_set(graph)
        u = maximal_subaction(graph, omega.beta)
        members = [
            x
            for x in (point("", "0"), point("", "1"), point("", "01"))
            if omega_membership(omega, x)
        ]
        others = [point("", "0"), point("", "1"), point("0", "1"), point("1", "0")]
        for x in members:
            for xbar in others:
                s = mane_at(omega, x, xbar)
                vx = u[graph.node_index[x.symbols(graph.q)]]
                vbar = u[graph.node_index[xbar.symbols(graph.q)]]
                assert s >= vbar - vx


# ---------------------------------------------------------------------------
# the calibrated family


def test_family_pinned_values():
    omega = omega_set(f1_graph())
    assert mane_family_subaction(omega, point("", "1")).values == (1, 0)

    omega3 = omega_set(f3_graph())
    assert mane_family_subaction(omega3, point("", "0")).values == (0, 0)

    omega5 = omega_set(f5_graph())
    assert mane_family_subaction(omega5, point("", "0")).values == (0, 1)


def test_family_is_calibrated(rng):
    for _ in range(15):
        graph = random_graph(rng, 2, rng.choice([1, 2]), require_transitive=True)
        omega = omega_set(graph)
        # An optimal cycle read against the prepend direction is a valid
        # forward orbit, and all of its window edges are critical.
        cycle = max_mean_cycle(graph).witness_cycle
        x = point("", tuple(e.symbol for e in reversed(cycle)))
        assert omega_membership(omega, x)
        u = mane_family_subaction(omega, x)
        assert calibration_residual(u, graph, omega.beta) == 0
        assert subaction_residual(u, graph, omega.beta)[0] <= 0


# ---------------------------------------------------------------------------
# boundary data


def test_represent_pinned():
    g1 = f1_graph()
    omega1 = omega_set(g1)
    data = represent(NodeFunction(g1, (1, 0)), omega1)
    assert data.values == (0,)
    assert reconstruct(data).values == (1, 0)

    g5 = f5_graph()
    omega5 = omega_set(g5)
    data5 = represent(NodeFunction(g5, (0, 1)), omega5)
    assert data5.values == (0, 1)
    assert is_compatible(data5)
    assert omega5.mane.value(0, 1) == 1  # compatibility holds with equality

    g3 = f3_graph()
    omega3 = omega_set(g3)
    assert represent(NodeFunction(g3, (7, 7)), omega3).values == (7,)


def test_represent_rejects_uncalibrated():
    g = f1_graph()
    with pytest.raises(NotCalibrated):
        represent(NodeFunction(g, (0, 0)), omega_set(g))


def test_reconstruct_pinned():
    omega5 = omega_set(f5_graph())
    assert reconstruct(BoundaryData(omega5, (0, 0))).values == (0, 0)
    assert reconstruct(BoundaryData(omega5, (0, 2))).values == (0, 1)

    omega1 = omega_set(f1_graph())
    assert reconstruct(BoundaryData(omega1, (0,))).values == (1, 0)


def test_incompatible_data_detected():
    omega5 = omega_set(f5_graph())
    assert is_compatible(BoundaryData(omega5, (0, 1)))
    assert not is_compatible(BoundaryData(omega5, (0, 2)))


def test_roundtrip_on_random_calibrated(rng):
    from ergopt.subaction_lab import calibrated_via_discount

    for _ in range(12):
        graph = random_graph(rng, 2, rng.choice([1, 2]), require_transitive=True)
        omega = omega_set(graph)
        u, _ = calibrated_via_discount(graph)
        assert reconstruct(represent(u, omega)).values == u.values


def test_isometry(rng):
    for _ in range(20):
        graph = random_graph(rng, 2, rng.choice([1, 2]), require_transitive=True)
        omega = omega_set(graph)
        anchors = omega.critical.anchors()

        def compatible(raw):
            clipped = tuple(
                min(
                    raw[j] + (omega.mane.value(anchors[i], anchors[j]) if i != j else 0)
                    for j in range(len(anchors))
                )
                for i in range(len(anchors))
            )
            return BoundaryData(omega, clipped)

        f = compatible([random_fraction(rng) for _ in anchors])
        g = compatible([random_fraction(rng) for _ in anchors])
        assert is_compatible(f) and is_compatible(g)
        uf, ug = reconstruct(f), reconstruct(g)
        node_gap = max(abs(a - b) for a, b in zip(uf.values, ug.values))
        class_gap = max(abs(a - b) for a, b in zip(f.values, g.values))
        assert node_gap == class_gap


def test_maximal_calibrated_pinned():
    assert maximal_calibrated(f1_graph()).values == (1, 0)
    assert maximal_calibrated(f5_graph()).values == (0, 0)
    assert maximal_calibrated(f3_graph()).values == (0, 0)


def test_maximal_calibrated_dominates_nonpositive_on_omega(rng):
    for make in (f1_graph, f5_graph, f6_graph):
        graph = make()
        omega = omega_set(graph)
        top = maximal_calibrated(graph, omega)
        u = maximal_subaction(graph, omega.beta)
        assert all(a <= b for a, b in zip(u.values, top.values))
        shifted = reconstruct(represent(top, omega))
        assert shifted.values == top.values


# ---------------------------------------------------------------------------
# support location: a circulation is in the maximizing face exactly when its
# support is critical, and a cycle's support is critical exactly when the
# cycle's point lies in Omega


def test_support_check_heavy_loop():
    graph = f1_graph()
    m = CirculationMeasure(graph, masses_by_key(graph, {(1, 1): Fraction(1)}))
    assert face_contains(maximizing_face(graph), m)
    assert omega_membership(omega_set(graph), point("", "1"))


def test_support_check_two_cycle():
    graph = f6_graph()
    m = CirculationMeasure(
        graph,
        masses_by_key(graph, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}),
    )
    assert face_contains(maximizing_face(graph), m)
    assert omega_membership(omega_set(graph), point("", "01"))


def test_support_check_accepts_a_mixture_of_critical_loops():
    # two critical classes: the face holds each loop and every mixture of them
    graph = f5_graph()
    m = CirculationMeasure(
        graph,
        masses_by_key(graph, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}),
    )
    assert face_contains(maximizing_face(graph), m)
    omega = omega_set(graph)
    assert omega_membership(omega, point("", "0")) and omega_membership(omega, point("", "1"))


def test_support_check_detects_noncritical_cycle():
    graph = f1_graph()
    m = CirculationMeasure(graph, masses_by_key(graph, {(0, 0): Fraction(1)}))
    assert not face_contains(maximizing_face(graph), m)
    assert not omega_membership(omega_set(graph), point("", "0"))
