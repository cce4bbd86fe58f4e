"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same command on the same input can take twice as long
from one stretch of a few seconds to the next, because other tenants load the
machine. A pass of a workload lasts a few seconds, so that drift moves pass
times between runs more than most program changes would.

``probe()`` runs a fixed amount of exact rational work, modelled on the two
hot layers of ``ergopt``: Gauss-Jordan elimination of a small ``Fraction``
matrix (pivots of the exact simplex) and a max-plus Floyd-Warshall sweep over
``Fraction`` weights (the all-pairs excursion matrix). It uses the standard
library only, never the program, so a change to ``ergopt`` cannot move it.
The benchmark runs probes between commands, outside their timed spans, and
scales each pass time by ``NOMINAL_S`` over the probes' mean time in that pass:
the pass time on a host where one probe takes ``NOMINAL_S``.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# A round figure for one probe on the 2-vCPU Xeon host the benchmark was sized
# on, where a probe took 12 to 22 ms as the host's load changed.
NOMINAL_S = 0.02

_rng = random.Random(20240607)
_MATRIX = [[Fraction(_rng.randint(-20, 20), _rng.randint(1, 10)) for _ in range(10)]
           for _ in range(10)]
_NODES = 16
_EDGES = {
    (i, j): Fraction(_rng.randint(-20, 20), _rng.randint(1, 10))
    for i in range(_NODES)
    for j in range(_NODES)
    if _rng.random() < 0.3
}


def _eliminate() -> None:
    rows = [row[:] for row in _MATRIX]
    n = len(rows)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / head[col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], head)]


def _all_pairs() -> None:
    d = [[_EDGES.get((i, j)) for j in range(_NODES)] for i in range(_NODES)]
    for k in range(_NODES):
        dk = d[k]
        for di in d:
            dik = di[k]
            if dik is None:
                continue
            for j, dkj in enumerate(dk):
                if dkj is not None and (di[j] is None or dik + dkj > di[j]):
                    di[j] = dik + dkj


def probe() -> float:
    """Seconds this host takes for the fixed reference work, now."""
    start = time.perf_counter()
    _eliminate()
    _all_pairs()
    return time.perf_counter() - start
