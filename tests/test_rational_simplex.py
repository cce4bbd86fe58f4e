"""Exact simplex on hand problems and randomized sanity checks."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import ergopt.rational_simplex as rational_simplex
from ergopt.graph_engine import build_prepend_graph
from ergopt.holonomic_opt import beta_lp
from ergopt.potential_model import LocallyConstantPotential
from ergopt.rational_simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp

from conftest import full_shift


class TestHandProblems:
    def test_box_corner(self):
        # max x + 2y with x + s1 = 1, y + s2 = 1
        res = solve_lp(
            [1, 2, 0, 0],
            [[1, 0, 1, 0], [0, 1, 0, 1]],
            [1, 1],
        )
        assert res.status == OPTIMAL
        assert res.value == 3
        assert res.solution[:2] == (1, 1)

    def test_simplex_face(self):
        # max x over the probability simplex on three coordinates
        res = solve_lp([1, 0, 0], [[1, 1, 1]], [1])
        assert res.status == OPTIMAL
        assert res.value == 1

    def test_minimize(self):
        # min x over the simplex is minus max -x
        res = solve_lp([-1, 0, 0], [[1, 1, 1]], [1])
        assert res.status == OPTIMAL
        assert -res.value == 0

    def test_infeasible(self):
        # x + y = -1 with x, y >= 0
        res = solve_lp([1, 1], [[1, 1]], [-1])
        assert res.status == INFEASIBLE

    def test_unbounded(self):
        # max x with x - y = 0
        res = solve_lp([1, 0], [[1, -1]], [0])
        assert res.status == UNBOUNDED

    def test_redundant_rows(self):
        res = solve_lp(
            [1, 1],
            [[1, 1], [2, 2], [1, 1]],
            [1, 2, 1],
        )
        assert res.status == OPTIMAL
        assert res.value == 1

    def test_no_rows_left_unbounded(self):
        # with no constraint left only x >= 0 holds, and c_0 > 0 grows forever
        for rows, rhs in (([], []), ([[0, 0]], [0])):
            assert solve_lp([1, 0], rows, rhs).status == UNBOUNDED

    def test_no_rows_left_optimal_at_zero(self):
        zero = (Fraction(0), Fraction(0))
        for rows, rhs in (([], []), ([[0, 0], [0, 0]], [0, 0])):
            res = solve_lp([0, 0], rows, rhs)
            assert (res.status, res.value, res.solution, res.basis) == (OPTIMAL, 0, zero, ())
            res = solve_lp([-1, 0], rows, rhs)
            assert (res.status, res.value, res.solution, res.basis) == (OPTIMAL, 0, zero, ())

    def test_fractional_data(self):
        res = solve_lp(
            [Fraction(1, 3), Fraction(1, 7)],
            [[Fraction(1, 2), Fraction(1, 2)]],
            [Fraction(1)],
        )
        assert res.status == OPTIMAL
        assert res.value == Fraction(2, 3)


class TestRandomized:
    def test_feasibility_of_solutions(self, rng: random.Random):
        for _ in range(40):
            n, m = rng.randint(2, 6), rng.randint(1, 3)
            x0 = [Fraction(rng.randint(0, 5)) for _ in range(n)]
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            rhs = [sum(r[j] * x0[j] for j in range(n)) for r in rows]
            obj = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
            res = solve_lp(obj, rows, rhs)
            assert res.status in (OPTIMAL, UNBOUNDED)
            if res.status == OPTIMAL:
                for r, target in zip(rows, rhs):
                    assert sum(a * x for a, x in zip(r, res.solution)) == target
                assert all(x >= 0 for x in res.solution)
                feasible_value = sum(c * x for c, x in zip(obj, x0))
                assert res.value >= feasible_value

    def test_matches_vertex_enumeration(self, rng: random.Random, monkeypatch):
        from itertools import combinations

        bland_entries = []
        real_entering = rational_simplex._entering

        def spy(z, ncols, bland):
            enter = real_entering(z, ncols, bland)
            if bland and enter >= 0:
                bland_entries.append(enter)
            return enter

        # the tableau and basis each _optimize call ends on; the last call
        # of a feasible LP is phase 2
        ends = []
        real_optimize = rational_simplex._optimize

        def end_spy(T, D, basis):
            status = real_optimize(T, D, basis)
            ends.append(([row[:-1] for row in T[:-1]], list(basis)))
            return status

        monkeypatch.setattr(rational_simplex, "_entering", spy)
        monkeypatch.setattr(rational_simplex, "_optimize", end_spy)
        lps = []
        for _ in range(20):
            n, m = rng.randint(2, 5), rng.randint(1, 2)
            rows = [[Fraction(rng.randint(-2, 3)) for _ in range(n)] for _ in range(m)]
            x0 = [Fraction(rng.randint(0, 3)) for _ in range(n)]
            rhs = [sum(r[j] * x0[j] for j in range(n)) for r in rows]
            obj = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
            lps.append((obj, rows, rhs))
        # zero right-hand sides: every pivot is degenerate, so after m of
        # them the entering column is Bland's
        for _ in range(200):
            n = rng.randint(2, 7)
            m = rng.randint(1, min(5, n))
            rows = [[Fraction(rng.randint(-2, 3)) for _ in range(n)] for _ in range(m)]
            obj = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
            lps.append((obj, rows, [Fraction(0)] * m))
        # rows through a point with zero coordinates: phase 2 often ends
        # with an artificial still basic at level zero in a row that is not
        # redundant
        for _ in range(300):
            n = rng.randint(2, 6)
            m = rng.randint(1, min(4, n))
            rows = [[Fraction(rng.randint(-2, 3)) for _ in range(n)] for _ in range(m)]
            x0 = [Fraction(rng.choice([0, 0, 1, 2])) for _ in range(n)]
            rhs = [sum(r[j] * x0[j] for j in range(n)) for r in rows]
            obj = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
            lps.append((obj, rows, rhs))
        bland_matches = artificial_ends = 0
        for obj, rows, rhs in lps:
            n, m = len(obj), len(rows)
            entered = len(bland_entries)
            res = solve_lp(obj, rows, rhs)
            if res.status != OPTIMAL:
                continue
            # the answer's basis is structural and independent, so x is a vertex
            assert all(col < n for col in res.basis)
            assert _rank([[row[col] for col in res.basis] for row in rows]) == len(res.basis)
            T, basis = ends[-1]
            artificial_ends += any(col >= n and any(T[i]) for i, col in enumerate(basis))
            # brute force over a maximal set of independent rows: evaluate
            # every basic solution
            independent: list[int] = []
            for i in range(m):
                if _rank([rows[k] for k in independent + [i]]) > len(independent):
                    independent.append(i)
            rows = [rows[i] for i in independent]
            rhs = [rhs[i] for i in independent]
            m = len(rows)
            best = None
            for cols in combinations(range(n), m):
                sol = _solve_square([ [rows[i][j] for j in cols] for i in range(m)], rhs)
                if sol is None or any(v < 0 for v in sol):
                    continue
                x = [Fraction(0)] * n
                for c, v in zip(cols, sol):
                    x[c] = v
                val = sum(o * xi for o, xi in zip(obj, x))
                if best is None or val > best:
                    best = val
            assert res.value == best
            bland_matches += len(bland_entries) > entered
        assert bland_matches > 0
        assert artificial_ends >= 20, artificial_ends


def test_circulation_lp_pivot_count(monkeypatch):
    # Full 2-shift at future depth 7 (128 nodes, 256 edges), weights
    # randint(-20, 20)/randint(1, 10) from Random(5) in word order. The
    # count pins the pivoting rules: a change to them moves it.
    rng = random.Random(5)
    system = full_shift()
    table = {
        word: Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        for word in itertools.product(range(2), repeat=8)
    }
    graph = build_prepend_graph(system, LocallyConstantPotential(system, 1, 7, table))
    pivots = []
    real_pivot = rational_simplex._pivot

    def counting(T, D, basis, row, col):
        pivots.append(col)
        real_pivot(T, D, basis, row, col)

    monkeypatch.setattr(rational_simplex, "_pivot", counting)
    beta, _ = beta_lp(graph)
    assert len(graph.nodes) == 128
    assert len(pivots) == 67
    assert beta == Fraction(10697, 2268)


def _rank(M: list[list[Fraction]]) -> int:
    """Rank by Gaussian elimination."""
    A = [row[:] for row in M]
    rank = 0
    for col in range(len(A[0]) if A else 0):
        piv = next((r for r in range(rank, len(A)) if A[r][col] != 0), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        for r in range(rank + 1, len(A)):
            f = A[r][col] / A[rank][col]
            A[r] = [a - f * c for a, c in zip(A[r], A[rank])]
        rank += 1
    return rank


def _solve_square(M: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination; None when singular."""
    n = len(M)
    A = [row[:] + [b[i]] for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        A[col] = [v / A[col][col] for v in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [a - f * c for a, c in zip(A[r], A[col])]
    return [A[i][n] for i in range(n)]
