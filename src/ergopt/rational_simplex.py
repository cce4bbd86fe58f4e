"""Two-phase simplex with exact rational answers.

Solves max c.x subject to A x = b, x >= 0. Basic solutions are polytope
vertices, which downstream code relies on for extremeness. Meant for the
prepend-graph LPs of this package: a few hundred rows and about a thousand
columns, mostly zeros, and highly degenerate.

The entering column has the largest reduced cost (Dantzig's rule), ties to
the smallest index; the leaving row has the minimum ratio, ties to the
smallest basic index. After m consecutive degenerate pivots (ratio zero, m
the number of rows) the entering column is Bland's (1977) instead, the
first with a positive reduced cost, until a pivot raises the objective.

Phase 1 carries no artificial columns. A basis entry n + i, past the n
structural columns, marks row i while its artificial is basic; only
structural columns enter, so an artificial that leaves never comes back.
The phase-1 reduced costs, those of minus the sum of the artificials,
start as the sum of the rows. An artificial basic at level zero also
leaves, at ratio zero, when its row is negative in the entering column.
That fixes it at zero and excludes no feasible point, so phase 1 still
reaches zero exactly when the LP is feasible. Phase 2 starts on phase 1's
basis as it is, the artificials left in it costing zero; a redundant row
is zero in every structural column and never blocks a pivot. The answer
reads only the structural basics, part of a basis, so x is a vertex.

This terminates: at most m pivots take an artificial out. Between them
the pivots are those of the LP with the basic artificials fixed at zero,
where Bland's rule cannot cycle, so every run of degenerate pivots ends,
and the pivot that ends one raises the objective, so no basis met before
it comes back; there are finitely many bases.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968): each row is a
dense list of Python ints over its own positive denominator, and every
update divides the row and its denominator by their gcd. The reduced-cost
row is one more row of the tableau, updated by each pivot like the others.
Row over denominator is, step for step, the tableau of the plain rational
method, so every pivot choice matches it.

A pivot lists the nonzero columns of its row once, and every other row
changes only in those columns. On circulation LPs the pivot rows stay
sparse (3% nonzero at 256 nodes), and the pivot's denominator divides the
entry it clears in all but a few eliminations (1 600 of 1 619 on a
256-node full 2-shift), so nearly every elimination touches only those
entries and scales nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
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


def _nonzero(row: Sequence) -> list[int]:
    """The columns where row is nonzero."""
    return list(compress(range(len(row)), row))


def _eliminate(
    row: list[int], den: int, prow: list[int], pden: int, col: int, nz: list[int]
) -> tuple[list[int], int]:
    """row/den minus its entry in col times prow/pden, whose entry there is 1.

    nz lists the columns where prow is nonzero, and only those entries
    change. The row is updated in place unless pden does not divide its
    entry in col; only then is every entry scaled. The result is again
    integers over a positive denominator, with the content of the row
    divided out.
    """
    g = gcd(row[col], pden)
    a, b = pden // g, row[col] // g
    if a != 1:
        row = [a * x for x in row]
        den *= a
    for j in nz:
        row[j] -= b * prow[j]
    # the content divides den and every changed entry; it is most often 1,
    # and one changed entry (row[col] is now 0) usually shows it
    if gcd(den, row[nz[0] if nz[0] != col else nz[-1]]) > 1:
        g = gcd(den, *[row[j] for j in nz])
        if g > 1:
            g = gcd(g, *row)
            if g > 1:
                row = [x // g for x in row]
                den //= g
    return row, den


def _pivot(T: list[list[int]], D: list[int], basis: list[int], row: int, col: int) -> None:
    """Pivot on (row, col), updating every row of T."""
    prow = T[row]
    g = gcd(*prow) if prow[col] > 0 else -gcd(*prow)  # a positive denominator
    if g != 1:
        prow = [v // g for v in prow]
    piv = prow[col]
    T[row] = prow
    D[row] = piv
    nz = _nonzero(prow)
    for i in range(len(T)):
        if i != row and T[i][col] != 0:
            T[i], D[i] = _eliminate(T[i], D[i], prow, piv, col, nz)
    basis[row] = col


def _entering(z: list[int], ncols: int, bland: bool) -> int:
    """The entering column for reduced costs z, or -1 when none is positive.

    Dantzig's largest reduced cost, ties to the smallest index, or with
    bland the first positive one.
    """
    if bland:
        return next((j for j in range(ncols) if z[j] > 0), -1)
    top = max(z[:ncols], default=0)
    return z.index(top) if top > 0 else -1


def _optimize(T: list[list[int]], D: list[int], basis: list[int]) -> str:
    """Maximize over the tableau in place.

    T[-1] holds the reduced costs c_j - c_B B^-1 A_j over one denominator,
    so their numerators compare directly and column j may enter when its
    numerator is positive. Ratios rhs / entry share a row's denominator,
    which cancels, and are compared by cross-multiplication.
    """
    ncols = len(T[-1]) - 1
    m = len(T) - 1
    degenerate = 0  # consecutive pivots that left the objective unchanged
    while True:
        enter = _entering(T[-1], ncols, degenerate >= m)
        if enter < 0:
            return OPTIMAL
        leave = -1
        best_num = best_den = 0
        for i in range(m):
            a = T[i][enter]
            if a > 0 or (a < 0 and basis[i] >= ncols and T[i][-1] == 0):
                r, a = T[i][-1], abs(a)
                if (
                    leave < 0
                    or r * best_den < best_num * a
                    or (r * best_den == best_num * a and basis[i] < basis[leave])
                ):
                    best_num, best_den = r, a
                    leave = i
        if leave < 0:
            return UNBOUNDED
        degenerate = degenerate + 1 if best_num == 0 else 0
        _pivot(T, D, basis, leave, enter)


def _cost_row(T: list[list[int]], D: list[int], basis: list[int], costs: Sequence) -> None:
    """Append the reduced-cost row of costs for the current basis to T."""
    den = lcm(*(v.denominator for v in costs))
    T.append([v.numerator * (den // v.denominator) for v in costs] + [0])
    D.append(den)
    for i, col in enumerate(basis):
        if col < len(costs) and T[-1][col] != 0:
            T[-1], D[-1] = _eliminate(T[-1], D[-1], T[i], D[i], col, _nonzero(T[i]))


def solve_lp(
    objective: Sequence,
    rows: Sequence[Sequence],
    rhs: Sequence,
) -> LPResult:
    """Solve max objective.x subject to rows.x == rhs, x >= 0.

    Every entry is an int or a Fraction; their numerators and denominators
    are read as given. With no constraint left (none given, or every row
    redundant) only x >= 0 remains: the problem is unbounded if some cost
    improves on 0, and x = 0 is optimal otherwise.
    """
    n = len(objective)
    if len(rows) != len(rhs) or any(len(row) != n for row in rows):
        raise ValueError("inconsistent LP dimensions")

    # phase 1: row i is scaled to integers by s, which only its nonzero
    # entries can raise; basis entry n + i is its artificial
    m = len(rows)
    T: list[list[int]] = []
    D: list[int] = []
    for row, b in zip(rows, rhs):
        nz = _nonzero(row)
        s = lcm(*(row[j].denominator for j in nz), b.denominator)
        sign = -1 if b < 0 else 1  # keep every right-hand side nonnegative
        scaled = [0] * (n + 1)
        for j in nz:
            scaled[j] = sign * row[j].numerator * (s // row[j].denominator)
        scaled[-1] = sign * b.numerator * (s // b.denominator)
        T.append(scaled)
        D.append(s)
    basis = [n + i for i in range(m)]
    den = lcm(*D)
    cost = [0] * (n + 1)
    for row, s in zip(T, D):
        for j in _nonzero(row):
            cost[j] += row[j] * (den // s)
    T.append(cost)
    D.append(den)
    status = _optimize(T, D, basis)
    if status != OPTIMAL:
        raise AssertionError("phase 1 is bounded below by 0 yet did not reach an optimum")
    artificials = T.pop()[-1]  # minus the phase-1 optimum
    D.pop()
    if artificials > 0:
        return LPResult(INFEASIBLE, None, None, None)

    _cost_row(T, D, basis, objective)
    status = _optimize(T, D, basis)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None, None)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(T[i][-1], D[i])
    structural = tuple(bi for bi in basis if bi < n)
    value = sum((objective[bi] * x[bi] for bi in structural), Fraction(0))
    return LPResult(OPTIMAL, value, tuple(x), structural)
