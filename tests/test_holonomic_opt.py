"""Circulation LP, decorated orbits, moment constraints, and trajectories."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ergopt.errors import InfeasibleTarget, NotHolonomic
from ergopt.graph_engine import build_prepend_graph, max_mean_cycle
from ergopt.holonomic_opt import (
    CirculationMeasure,
    DecoratedOrbitMeasure,
    alpha,
    beta_lp,
    constrained_beta,
    face_contains,
    integral,
    is_holonomic,
    is_maximizing,
    maximizing_face,
    optimal_trajectory_average,
    orbit_circulation,
)
from ergopt.potential_model import ConstraintSpec, LocallyConstantPotential, pad_potential, reduce_past
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
    random_system,
)


def counterexample_potential():
    """Full 2-shift potential rewarding an all-ones window across the junction."""
    return LocallyConstantPotential(full_shift(), 2, 1, {(1, 1, 1): Fraction(1)})


def loop_indicator():
    """Weight 1 on windows whose first future symbol is 0."""
    system = full_shift()
    return LocallyConstantPotential(
        system, 1, 1, {(0, 0): 1, (1, 0): 1}
    )


def spec_with(target=None, multiplier=None):
    return ConstraintSpec((loop_indicator(),), target=target, multiplier=multiplier)


# ---------------------------------------------------------------------------
# the LP


def test_beta_lp_unique_heavy_loop():
    g = f1_graph()
    value, measure = beta_lp(g)
    assert value == 1
    expected = {e.index: Fraction(0) for e in g.edges}
    expected[g.edge_by_key((1, 1)).index] = Fraction(1)
    assert dict(enumerate(measure.edge_masses)) == expected


def test_beta_lp_constant_weights():
    value, measure = beta_lp(f3_graph())
    assert value == 5
    assert sum(measure.edge_masses) == 1


def test_beta_lp_two_optimal_vertices():
    g = f6_graph()
    value, measure = beta_lp(g)
    assert value == 1
    assert face_contains(maximizing_face(g), measure)


def test_beta_lp_matches_cycle_optimum(rng):
    for _ in range(25):
        g = random_graph(rng, rng.choice([2, 3]), rng.choice([1, 2]))
        value, measure = beta_lp(g)
        assert value == max_mean_cycle(g).beta
        support = measure.support()
        masses = {measure.edge_masses[i] for i in support}
        assert len(masses) == 1  # extreme points are uniform cycle measures
        assert len(support) * next(iter(masses)) == 1


def test_beta_lp_at_128_nodes_is_a_uniform_cycle_at_karps_beta():
    rng = random.Random(128)
    system = full_shift()
    table = {k: random_fraction(rng, max_den=1000) for k in allowed_words(system, 8)}
    g = build_prepend_graph(system, LocallyConstantPotential(system, 1, 7, table))
    assert len(g.nodes) == 128
    value, measure = beta_lp(g)
    assert value == max_mean_cycle(g).beta
    support = [g.edges[i] for i in measure.support()]
    assert {measure.edge_masses[e.index] for e in support} == {Fraction(1, len(support))}
    # the support is one cycle: each node on it has one edge in and one out
    assert sorted(e.src for e in support) == sorted(e.tgt for e in support)
    assert len({e.src for e in support}) == len(support)
    v, walked = support[0].src, 0
    out = {e.src: e.tgt for e in support}
    while True:
        v, walked = out[v], walked + 1
        if v == support[0].src:
            break
    assert walked == len(support)


def test_circulation_validation():
    g = f1_graph()
    with pytest.raises(ValueError, match="one mass per edge"):
        CirculationMeasure(g, (1, 0, 0))
    bad = [Fraction(0)] * len(g.edges)
    bad[g.edge_by_key((1, 0)).index] = Fraction(1)
    with pytest.raises(ValueError, match="not conserved"):
        CirculationMeasure(g, tuple(bad))  # edge flow without return flow
    with pytest.raises(ValueError, match="total mass"):
        CirculationMeasure(g, tuple(Fraction(0) for _ in g.edges))
    loops = [0] * len(g.edges)
    loops[g.edge_by_key((0, 0)).index] = -1
    loops[g.edge_by_key((1, 1)).index] = 2
    with pytest.raises(ValueError, match="nonnegative"):
        CirculationMeasure(g, tuple(loops))  # total one and conserved


# ---------------------------------------------------------------------------
# decorated orbits


def test_integral_distinguishes_decorations():
    A = counterexample_potential()
    system = A.system
    rich = DecoratedOrbitMeasure(system, (1,), ((1, 1),))
    poor = DecoratedOrbitMeasure(system, (1,), ((0, 1),))
    assert integral(A, rich) == 1
    assert integral(A, poor) == 0


def test_integral_constant():
    g = f3_graph()
    m = DecoratedOrbitMeasure(g.system, (0, 1), ((1,), (0,)))
    assert integral(g.potential, m) == 5


def test_integral_mixture():
    A = counterexample_potential()
    system = A.system
    rich = DecoratedOrbitMeasure(system, (1,), ((1, 1),), weight=Fraction(1, 4))
    poor = DecoratedOrbitMeasure(system, (1,), ((0, 1),), weight=Fraction(3, 4))
    assert integral(A, [rich, poor]) == Fraction(1, 4)
    with pytest.raises(ValueError):
        integral(A, [rich])


def test_is_holonomic_anchor_rule():
    system = full_shift()
    assert is_holonomic(DecoratedOrbitMeasure(system, (1,), ((1, 1),)))
    assert is_holonomic(DecoratedOrbitMeasure(system, (1,), ((0, 1),)))
    # anchor must equal the previous orbit symbol
    assert not is_holonomic(DecoratedOrbitMeasure(system, (1,), ((1, 0),)))


def test_is_holonomic_checks_tail_adjacency():
    gm = golden_mean()
    # 1 -> 1 is forbidden in the tail (0, 1) read as consecutive pairs (1, 1)?
    # Here the violating pair is inside the tail itself.
    bad = DecoratedOrbitMeasure(gm, (0, 1), ((1, 1), (1, 0)))
    assert not is_holonomic(bad)
    good = DecoratedOrbitMeasure(gm, (0, 1), ((0, 1), (1, 0)))
    assert is_holonomic(good)


def test_is_maximizing_counterexample_pair():
    A = counterexample_potential()
    system = A.system
    g = build_prepend_graph(system, A)
    beta = max_mean_cycle(g).beta
    assert beta == 1
    rich = DecoratedOrbitMeasure(system, (1,), ((1, 1),))
    poor = DecoratedOrbitMeasure(system, (1,), ((0, 1),))
    assert is_maximizing(rich, A, beta)
    assert not is_maximizing(poor, A, beta)
    # both decorations project to the same x-marginal
    assert orbit_circulation(g, rich).edge_masses == orbit_circulation(g, poor).edge_masses


def test_is_maximizing_rejects_nonholonomic():
    A = counterexample_potential()
    with pytest.raises(NotHolonomic):
        is_maximizing(DecoratedOrbitMeasure(A.system, (1,), ((1, 0),)), A, 1)


def test_constant_potential_everything_maximizes():
    g = f3_graph()
    m = DecoratedOrbitMeasure(g.system, (0, 1), ((1,), (0,)))
    assert is_maximizing(m, g.potential, 5)


def test_face_criterion_matches_integral():
    # a decorated orbit reaches beta exactly when its x-marginal is in the
    # face and every tail attains the maximum over the tails of its edge
    A = counterexample_potential()
    system = A.system
    g = build_prepend_graph(system, A)
    beta = max_mean_cycle(g).beta
    face = maximizing_face(g)
    weights = reduce_past(A)
    p, q = A.past_depth, A.future_depth
    candidates = [
        DecoratedOrbitMeasure(system, orbit, tails)
        for orbit, tails_options in [
            ((1,), [((1, 1),), ((0, 1),)]),
            ((0,), [((0, 0),), ((1, 0),)]),
            ((0, 1), [((0, 1), (1, 0)), ((1, 1), (0, 0))]),
        ]
        for tails in tails_options
    ]
    in_face = 0
    for m in candidates:
        keys = [m.step_key(j, q) for j in range(len(m.orbit))]
        criterion = face_contains(face, orbit_circulation(g, m)) and all(
            A.value(key) == weights[key[p - 1:]] for key in keys
        )
        assert criterion == (integral(A, m) == beta)
        in_face += criterion
    assert in_face == 1


# ---------------------------------------------------------------------------
# moment constraints


def test_constrained_beta_pinned():
    g = f5_graph()
    assert constrained_beta(g, spec_with(target=(1,))) == 1
    assert constrained_beta(g, spec_with(target=(Fraction(1, 2),))) == 1
    with pytest.raises(InfeasibleTarget):
        constrained_beta(g, spec_with(target=(2,)))


def test_constrained_beta_binds():
    g = f1_graph()
    # forcing half the mass onto symbol-0 windows costs half the optimum
    assert constrained_beta(g, spec_with(target=(Fraction(1, 2),))) == Fraction(1, 2)


def test_constrained_beta_pads_a_component_wider_than_the_window():
    # Padding the potential one level deeper leaves the optimum unchanged, on
    # seeded instances whose component reads up to one symbol past the window.
    rng = random.Random(20261018)
    for _ in range(60):
        system = random_system(rng, rng.randint(2, 3), require_transitive=True)
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        table = {k: random_fraction(rng) for k in allowed_words(system, p + q)}
        A = LocallyConstantPotential(system, p, q, table)
        f = rng.randint(1, q + 1)
        phi = LocallyConstantPotential(
            system, 1, f, {k: rng.randint(0, 1) for k in allowed_words(system, 1 + f)}
        )
        # the midpoint of the component's range over circulations is attainable
        top = max_mean_cycle(build_prepend_graph(system, phi)).beta
        bottom = -max_mean_cycle(build_prepend_graph(system, phi.scale(-1))).beta
        graph = build_prepend_graph(system, A)
        deeper = build_prepend_graph(system, pad_potential(A, p, max(q, f) + 1))
        target = ConstraintSpec((phi,), target=((top + bottom) / 2,))
        assert constrained_beta(graph, target) == constrained_beta(deeper, target)
        beyond = ConstraintSpec((phi,), target=(top + 1,))
        for g in (graph, deeper):
            with pytest.raises(InfeasibleTarget):
                constrained_beta(g, beyond)


def test_alpha_pinned():
    g = f5_graph()
    assert alpha(g, spec_with(multiplier=(1,))) == -1
    assert alpha(g, spec_with(multiplier=(-1,))) == -2
    assert alpha(g, spec_with(multiplier=(0,))) == -max_mean_cycle(g).beta


def test_alpha_concavity(rng):
    g = f5_graph()
    for _ in range(50):
        base = Fraction(rng.randint(-40, 40), rng.randint(1, 8))
        step = Fraction(rng.randint(1, 30), rng.randint(1, 8))
        values = [
            alpha(g, spec_with(multiplier=(c,)))
            for c in (base - step, base, base + step)
        ]
        assert values[1] >= (values[0] + values[2]) / 2


def test_fenchel_inequality(rng):
    g = f5_graph()
    for _ in range(25):
        c = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        h = Fraction(rng.randint(0, 8), 8)
        lhs = alpha(g, spec_with(multiplier=(c,)))
        rhs = c * h - constrained_beta(g, spec_with(target=(h,)))
        assert lhs <= rhs


def test_constrained_concavity_along_segment():
    g = f5_graph()
    values = [
        constrained_beta(g, spec_with(target=(Fraction(k, 8),))) for k in range(9)
    ]
    for i in range(1, 8):
        assert values[i] >= (values[i - 1] + values[i + 1]) / 2


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_absorbed_away_from_indicator():
    g = f5_graph()
    K = 2**20
    (avg,) = optimal_trajectory_average(g, spec_with(multiplier=(Fraction(1, 2),)), K)
    assert avg == Fraction(1, K)
    assert avg < Fraction(1, 10**6)


def test_trajectory_absorbed_on_indicator():
    g = f5_graph()
    (avg,) = optimal_trajectory_average(
        g, spec_with(multiplier=(Fraction(-1, 2),)), 2**20
    )
    assert avg == 1


def test_trajectory_at_kink_reports_an_endpoint():
    g = f5_graph()
    (avg,) = optimal_trajectory_average(g, spec_with(multiplier=(0,)), 2**10)
    assert avg in (Fraction(0), Fraction(1), Fraction(1, 2**10))


def test_trajectory_short_lengths_exact():
    g = f5_graph()
    constraints = spec_with(multiplier=(Fraction(1, 2),))
    for K in (1, 2, 3, 7):
        (avg,) = optimal_trajectory_average(g, constraints, K)
        assert avg == Fraction(1, K)
