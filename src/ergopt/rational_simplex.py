"""Dense two-phase simplex over exact rationals.

Solves max c.x subject to A x = b, x >= 0. Bland's rule everywhere, so no
cycling; basic solutions are polytope vertices, which downstream code relies
on for extremeness. Intended for desk-scale instances (up to a few thousand
nonzeros), not production LPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Fraction | None
    solution: tuple[Fraction, ...] | None
    basis: tuple[int, ...] | None


def _pivot(T: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = T[row][col]
    T[row] = [v / piv for v in T[row]]
    prow = T[row]
    for i in range(len(T)):
        if i != row and T[i][col] != 0:
            f = T[i][col]
            T[i] = [a - f * b for a, b in zip(T[i], prow)]
    basis[row] = col


def _optimize(T: list[list[Fraction]], basis: list[int], obj: Sequence[Fraction]) -> str:
    """Maximize obj over the tableau in place; Bland's rule."""
    m = len(T)
    ncols = len(T[0]) - 1
    while True:
        enter = -1
        for j in range(ncols):
            zj = obj[j] - sum(obj[basis[i]] * T[i][j] for i in range(m))
            if zj > 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED
        _pivot(T, basis, leave, enter)


def solve_lp(
    objective: Sequence,
    rows: Sequence[Sequence],
    rhs: Sequence,
    maximize: bool = True,
) -> LPResult:
    """Solve max (or min) objective.x subject to rows.x == rhs, x >= 0."""
    c = [Fraction(v) for v in objective]
    n = len(c)
    A = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    if len(A) != len(b) or any(len(row) != n for row in A):
        raise ValueError("inconsistent LP dimensions")
    if not maximize:
        flipped = solve_lp([-v for v in c], rows, rhs, maximize=True)
        value = -flipped.value if flipped.value is not None else None
        return LPResult(flipped.status, value, flipped.solution, flipped.basis)

    m = len(A)
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]

    # phase 1: one artificial per row
    T = [A[i] + [Fraction(1) if k == i else Fraction(0) for k in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    phase1_obj = [Fraction(0)] * n + [Fraction(-1)] * m
    status = _optimize(T, basis, phase1_obj)
    if status != OPTIMAL:
        raise AssertionError("phase 1 is bounded below by 0 yet did not reach an optimum")
    infeasibility = -sum(phase1_obj[basis[i]] * T[i][-1] for i in range(m))
    if infeasibility > 0:
        return LPResult(INFEASIBLE, None, None, None)

    # drive artificials out of the basis; drop redundant rows
    keep: list[int] = []
    for i in range(m):
        if basis[i] < n:
            keep.append(i)
            continue
        pivot_col = next((j for j in range(n) if T[i][j] != 0), None)
        if pivot_col is None:
            continue  # identically zero row: redundant constraint
        _pivot(T, basis, i, pivot_col)
        keep.append(i)
    T = [T[i][:n] + [T[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    status = _optimize(T, basis, c)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None, None)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = T[i][-1]
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return LPResult(OPTIMAL, value, tuple(x), tuple(basis))
