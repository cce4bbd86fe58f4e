"""The integer-tableau simplex against a plain Fraction tableau.

The reference below is the plain Fraction simplex: the same two phases and
pivoting rules (largest reduced cost, Bland's first positive one after m
consecutive degenerate pivots, minimum ratio with ties to the smallest
basic index), with the reduced costs rebuilt column by column on every
iteration. It keeps the artificial columns but enters only the n
structural ones, so an artificial that leaves never comes back; one basic
at level zero also leaves when its entry in the entering column is
negative, and phase 2 starts on phase 1's basis, the artificials left in
it costing zero. The integer tableau keeps each row as numerators over a
denominator, so its true tableau is the reference's at every step, and
status, value, solution and basis must match field for field: on seeded
random LPs, and on the circulation and moment LPs of full shifts and
golden-mean shifts at weight denominators up to 10 and up to 1000.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import ergopt.holonomic_opt as holonomic_opt
import ergopt.rational_simplex as rational_simplex
from ergopt import fixtures
from ergopt.errors import InfeasibleTarget
from ergopt.graph_engine import build_prepend_graph
from ergopt.holonomic_opt import beta_lp, constrained_beta, maximizing_face
from ergopt.potential_model import ConstraintSpec, LocallyConstantPotential
from ergopt.rational_simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp
from ergopt.symbolic_core import allowed_words

from conftest import f1_graph, full_shift, golden_mean, random_fraction


# ---------------------------------------------------------------------------
# Fraction reference


def _ref_pivot(T, basis, row, col):
    piv = T[row][col]
    T[row] = [v / piv for v in T[row]]
    prow = T[row]
    for i in range(len(T)):
        if i != row and T[i][col] != 0:
            f = T[i][col]
            T[i] = [a - f * b for a, b in zip(T[i], prow)]
    basis[row] = col


def _ref_optimize(T, basis, obj, n):
    m = len(T)
    degenerate = 0
    while True:
        z = [obj[j] - sum(obj[basis[i]] * T[i][j] for i in range(m)) for j in range(n)]
        positive = [j for j in range(n) if z[j] > 0]
        if not positive:
            return OPTIMAL
        enter = positive[0] if degenerate >= m else max(positive, key=lambda j: (z[j], -j))
        leave = -1
        best = None
        for i in range(m):
            a = T[i][enter]
            if a > 0 or (a < 0 and basis[i] >= n and T[i][-1] == 0):
                ratio = T[i][-1] / abs(a)
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED
        degenerate = degenerate + 1 if best == 0 else 0
        _ref_pivot(T, basis, leave, enter)


def ref_solve_lp(objective, rows, rhs):
    c = [Fraction(v) for v in objective]
    n = len(c)
    A = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    m = len(A)
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
    T = [A[i] + [Fraction(1) if k == i else Fraction(0) for k in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    phase1_obj = [Fraction(0)] * n + [Fraction(-1)] * m
    if _ref_optimize(T, basis, phase1_obj, n) != OPTIMAL:
        raise AssertionError("reference phase 1 unbounded")
    if -sum(phase1_obj[basis[i]] * T[i][-1] for i in range(m)) > 0:
        return INFEASIBLE, None, None, None
    if _ref_optimize(T, basis, c + [Fraction(0)] * m, n) == UNBOUNDED:
        return UNBOUNDED, None, None, None
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i][-1]
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return OPTIMAL, value, tuple(x), tuple(bi for bi in basis if bi < n)


def fields(res):
    return res.status, res.value, res.solution, res.basis


def assert_matches_reference(objective, rows, rhs):
    """Field-for-field equality; returns the status."""
    res = solve_lp(objective, rows, rhs)
    assert fields(res) == ref_solve_lp(objective, rows, rhs)
    return res.status


@pytest.fixture
def recorded_lps(monkeypatch):
    """Every LP that holonomic_opt hands to solve_lp, in call order."""
    calls = []

    def recording(objective, rows, rhs):
        calls.append((list(objective), [list(r) for r in rows], list(rhs)))
        return solve_lp(objective, rows, rhs)

    monkeypatch.setattr(holonomic_opt, "solve_lp", recording)
    return calls


# ---------------------------------------------------------------------------
# random LPs


def _random_lp(rng: random.Random):
    n, m = rng.randint(1, 7), rng.randint(1, 5)
    den = rng.choice([1, 4, 12])

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, den)) if rng.random() < 0.7 else Fraction(0)

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.3:
        rows[rng.randrange(1, m)] = list(rows[0]) if rng.random() < 0.5 else [Fraction(0)] * n
    if rng.random() < 0.6:
        x0 = [Fraction(rng.randint(0, 4), rng.randint(1, den)) for _ in range(n)]
        rhs = [sum(a * x for a, x in zip(r, x0)) for r in rows]
    else:
        rhs = [Fraction(rng.randint(-5, 5), rng.randint(1, den)) for _ in range(m)]
    objective = [Fraction(rng.randint(-5, 5), rng.randint(1, den)) for _ in range(n)]
    return objective, rows, rhs


def test_random_lps_match_reference():
    rng = random.Random(20261018)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    seen = {"fractional": 0, "negative_rhs": 0, "repeated_or_zero_row": 0}
    for _ in range(600):
        objective, rows, rhs = _random_lp(rng)
        statuses[assert_matches_reference(objective, rows, rhs)] += 1
        seen["fractional"] += any(v.denominator > 1 for r in rows for v in r)
        seen["negative_rhs"] += any(v < 0 for v in rhs)
        seen["repeated_or_zero_row"] += any(
            rows[i] == rows[0] or not any(rows[i]) for i in range(1, len(rows))
        )
    assert min(statuses.values()) >= 50, statuses
    assert min(seen.values()) >= 50, seen


def test_degenerate_lps_match_reference(monkeypatch):
    # zero right-hand sides make every pivot degenerate, so the Bland
    # fallback and the pivot count that triggers it decide these bases
    rng = random.Random(20261019)
    bland_lps = 0
    entering = rational_simplex._entering
    took_bland = []

    def spy(z, ncols, bland):
        enter = entering(z, ncols, bland)
        took_bland.append(bland and enter >= 0)
        return enter

    monkeypatch.setattr(rational_simplex, "_entering", spy)
    for _ in range(1000):
        n = rng.randint(2, 7)
        m = rng.randint(1, min(5, n))
        rows = [[rng.randint(-2, 3) for _ in range(n)] for _ in range(m)]
        objective = [rng.randint(-4, 4) for _ in range(n)]
        took_bland.clear()
        assert_matches_reference(objective, rows, [0] * m)
        bland_lps += any(took_bland)
    assert bland_lps >= 50, bland_lps


# ---------------------------------------------------------------------------
# circulation and moment LPs of prepend graphs


GRAPHS = [
    ("full2", 2), ("full2", 4), ("full3", 1), ("full3", 2),
    ("full4", 1), ("full4", 2), ("golden", 2), ("golden", 5),
]


def _system(name):
    return golden_mean() if name == "golden" else full_shift(int(name[-1]))


@pytest.mark.parametrize("max_den", [10, 1000])
@pytest.mark.parametrize("name,q", GRAPHS)
def test_graph_lps_match_reference(recorded_lps, name, q, max_den):
    rng = random.Random(f"{name}-{q}-{max_den}")
    system = _system(name)
    table = {k: random_fraction(rng, max_den=max_den) for k in allowed_words(system, 1 + q)}
    graph = build_prepend_graph(system, LocallyConstantPotential(system, 1, q, table))
    _, measure = beta_lp(graph)

    components = tuple(
        LocallyConstantPotential(
            system, 1, 1,
            {k: Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for k in allowed_words(system, 2)},
        )
        for _ in range(2)
    )
    edge_values = [
        [phi.value(e.key[:2]) for e in graph.edges] for phi in components
    ]
    reached = tuple(
        sum((m * v for m, v in zip(measure.edge_masses, vals)), Fraction(0))
        for vals in edge_values
    )
    # the optimal vertex meets its own moments; no circulation averages
    # below the smallest edge value
    for target in (reached[:1], reached):
        constrained_beta(graph, ConstraintSpec(components[: len(target)], target=target))
    with pytest.raises(InfeasibleTarget):
        constrained_beta(graph, ConstraintSpec(components[:1], target=(min(edge_values[0]) - 1,)))

    statuses = [assert_matches_reference(*lp) for lp in recorded_lps]
    assert statuses == [OPTIMAL, OPTIMAL, OPTIMAL, INFEASIBLE]


# ---------------------------------------------------------------------------
# paths the random cases may miss


def test_zero_level_artificial_leaves_on_negative_entry(monkeypatch):
    # Phase 1 ends with the second artificial basic at level zero and its
    # row reading (-3, 0, -3 | 0). Column 2 enters phase 2 and the first
    # row is 0 there, so only that artificial blocks it: the pivot divides
    # by -3, at ratio zero, and the row's sign flips to keep its
    # denominator positive. Without the block x2 would grow unbounded,
    # carrying the artificial with it.
    objective = [2, 3, 2]
    rows = [[2, 1, 0], [1, 2, -3]]
    rhs = [1, 2]
    negative_leaves = []
    real_pivot = rational_simplex._pivot

    def spy(T, D, basis, row, col):
        if basis[row] >= len(objective) and T[row][col] < 0:
            negative_leaves.append((row, col))
        real_pivot(T, D, basis, row, col)

    monkeypatch.setattr(rational_simplex, "_pivot", spy)
    assert assert_matches_reference(objective, rows, rhs) == OPTIMAL
    assert negative_leaves == [(1, 2)]
    res = solve_lp(objective, rows, rhs)
    assert res.value == 3
    assert res.solution == (0, 1, 0)
    assert res.basis == (1, 2)


def test_fallback_ends_when_the_objective_rises(monkeypatch):
    # First LP: phase 1 makes m = 6 degenerate pivots by the largest reduced
    # cost, two of them taking zero-level artificials out on negative
    # entries; Bland's rule then takes one more degenerate pivot and one
    # that raises the objective to zero, which ends phase 1, and phase 2
    # starts again with the largest reduced cost. Second LP: phase 1 makes
    # m = 4 degenerate pivots, Bland's rule one that raises the objective,
    # and the largest reduced cost enters again in phase 1 and in phase 2.
    cases = [
        (
            [
                [0, 2, -1, 3, 1, 3, 3, 2, 1, 1],
                [-2, -1, 2, 1, 1, -1, 0, 1, -2, -1],
                [0, 3, -1, 3, 1, -1, 2, -1, -2, 2],
                [-1, 3, -2, 1, 1, -1, 3, 2, 1, 3],
                [-2, 0, -2, -2, 2, -1, 1, 0, 3, -1],
                [2, 2, 2, 2, -1, -1, 2, 2, 2, -1],
            ],
            [1, 0, 0, 0, 0, 0],
            [-1, -3, 0, 0, 3, 0, 2, -3, 0, -4],
            "DDDDDDBBD",
            Fraction(78, 127),
        ),
        (
            [[3, -2, 3, -1, 1, 1], [3, 3, -1, -2, 0, 3], [3, 1, 1, 3, -1, 0], [0, 0, -2, -1, 1, 3]],
            [1, 0, 0, 0],
            [-1, -1, 4, 0, 3, 4],
            "DDDDBDD",
            Fraction(41, 16),
        ),
    ]
    rules = []
    entering = rational_simplex._entering

    def spy(z, ncols, bland):
        enter = entering(z, ncols, bland)
        if enter >= 0:
            rules.append("B" if bland else "D")
        return enter

    monkeypatch.setattr(rational_simplex, "_entering", spy)
    for rows, rhs, objective, sequence, value in cases:
        rules.clear()
        assert assert_matches_reference(objective, rows, rhs) == OPTIMAL
        assert "".join(rules) == sequence
        assert solve_lp(objective, rows, rhs).value == value


def test_constrained_beta_scales_fractional_rows(recorded_lps):
    # A third of the symbol-0 indicator pinned at a sixth is the same face as
    # the indicator pinned at a half: the row's scale is 3, its target 1/6.
    g = f1_graph()
    system = full_shift()
    third = LocallyConstantPotential(
        system, 1, 1, {(0, 0): Fraction(1, 3), (1, 0): Fraction(1, 3)}
    )
    spec = ConstraintSpec((third,), target=(Fraction(1, 6),))
    assert constrained_beta(g, spec) == Fraction(1, 2)
    (lp,) = recorded_lps
    moment_row = lp[1][-1]
    assert any(Fraction(v).denominator == 3 for v in moment_row)
    assert assert_matches_reference(*lp) == OPTIMAL


@pytest.mark.parametrize("name", fixtures.available())
def test_face_support_vertex_unchanged(recorded_lps, name):
    config = fixtures.load(name)
    graph = build_prepend_graph(config.system, config.potential)
    _, measure = beta_lp(graph)
    (lp,) = recorded_lps
    status, _, solution, _ = ref_solve_lp(*lp)
    assert status == OPTIMAL
    assert measure.edge_masses == solution
    assert set(measure.support()) <= maximizing_face(graph).allowed_edges
