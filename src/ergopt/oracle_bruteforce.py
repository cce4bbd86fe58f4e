"""Deliberately naive reference computations for tiny instances.

These enumerate decorated cycles and prepend paths directly from the
potential table, with no pruning beyond admissibility, so they share no code
with the graph algorithms they certify.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import HorizonTooSmall
from .potential_model import LocallyConstantPotential
from .symbolic_core import (
    EventuallyPeriodicPoint,
    SubshiftSystem,
    allowed_words,
    distance,
    prepend,
    window,
)


def _step_max_table(system: SubshiftSystem, A: LocallyConstantPotential) -> dict:
    """Best table value per (anchor, future window), scanning the raw table."""
    p = A.past_depth
    best: dict[tuple[int, ...], Fraction] = {}
    for full, v in A.table.items():
        key = full[p - 1:]
        if key not in best or v > best[key]:
            best[key] = v
    return best


def _cyclic_windows_allowed(system: SubshiftSystem, word: tuple[int, ...]) -> bool:
    n = len(word)
    return all(system.allows(word[j], word[(j + 1) % n]) for j in range(n))


def _is_necklace(word: tuple[int, ...]) -> bool:
    """True for the lexicographically least rotation of a primitive word."""
    n = len(word)
    for shift in range(1, n):
        rot = word[shift:] + word[:shift]
        if rot < word:
            return False
        if rot == word:
            return False  # not primitive; a shorter word covers it
    return True


def oracle_beta(system: SubshiftSystem, A: LocallyConstantPotential, max_cycle_len: int) -> Fraction:
    """Best average of A over decorated cycles, by exhaustive enumeration.

    Every cyclic word up to the given length is tried with every admissible
    per-step past tail (the per-step best is read off the raw table). The
    length bound must cover a maximal simple cycle of the window graph.
    """
    q = A.future_depth
    node_count = len(allowed_words(system, q))
    if max_cycle_len < node_count:
        raise ValueError("max_cycle_len must reach the window-graph node count")
    maxes = _step_max_table(system, A)
    best: Fraction | None = None
    words: list[tuple[int, ...]] = [(s,) for s in system.symbols()]
    for length in range(1, max_cycle_len + 1):
        if length > 1:
            words = [
                w + (s,)
                for w in words
                for s in system.symbols()
                if system.allows(w[-1], s)
            ]
        for word in words:
            if not _cyclic_windows_allowed(system, word):
                continue
            if not _is_necklace(word) and length > 1:
                continue
            total = Fraction(0)
            ok = True
            for j in range(length):
                anchor = word[(j - 1) % length]
                future = tuple(word[(j + i) % length] for i in range(q))
                key = (anchor,) + future
                if key not in maxes:
                    ok = False
                    break
                total += maxes[key]
            if ok:
                mean = total / length
                if best is None or mean > best:
                    best = mean
    if best is None:
        raise AssertionError("a valid system always has an allowed cycle")
    return best


def oracle_mane(
    system: SubshiftSystem,
    A: LocallyConstantPotential,
    beta: Fraction,
    x: EventuallyPeriodicPoint,
    xbar: EventuallyPeriodicPoint,
    N: int,
    max_path_len: int | None = None,
) -> Fraction:
    """Least accumulated deficit over prepend paths from xbar to a neighborhood of x.

    Starts at xbar, prepends admissible symbols one at a time, and accepts a
    path once the current point agrees with x on its first N coordinates.
    Each step pays beta minus the best table value for that prepend.
    """
    q = A.future_depth
    if max_path_len is None:
        max_path_len = 3 * len(allowed_words(system, q)) + N
    maxes = _step_max_table(system, A)
    best: Fraction | None = None
    target = window(x, 0, N)

    def explore(pt: EventuallyPeriodicPoint, cost: Fraction, steps: int) -> None:
        nonlocal best
        if steps > 0 and window(pt, 0, N) == target:
            if best is None or cost < best:
                best = cost
            # keep going: steps can have negative cost, so a longer path
            # through this match may still undercut it
        if steps == max_path_len:
            return
        for s in sorted(system.symbols()):
            if not system.allows(s, pt.symbol(0)):
                continue
            key = (s,) + window(pt, 0, q)
            step_cost = beta - maxes[key]
            explore(prepend(system, pt, s), cost + step_cost, steps + 1)

    explore(xbar, Fraction(0), 0)
    if best is None:
        raise HorizonTooSmall(
            f"no admissible path within {max_path_len} steps at depth {N}"
        )
    return best


def oracle_omega(
    system: SubshiftSystem,
    A: LocallyConstantPotential,
    beta: Fraction,
    x: EventuallyPeriodicPoint,
    eps: Fraction,
    max_path_len: int | None = None,
) -> bool:
    """Search for a cheap return path: prepends leading from x back near x.

    True is definitive (a qualifying cycle was found); False only reports the
    horizon searched.
    """
    q = A.future_depth
    if max_path_len is None:
        max_path_len = 3 * len(allowed_words(system, q)) + 8
    eps = Fraction(eps)
    maxes = _step_max_table(system, A)

    def explore(pt: EventuallyPeriodicPoint, acc: Fraction, steps: int) -> bool:
        if steps > 0 and distance(system, pt, x) <= eps and abs(acc) < eps:
            return True
        if steps == max_path_len:
            return False
        for s in sorted(system.symbols()):
            if not system.allows(s, pt.symbol(0)):
                continue
            key = (s,) + window(pt, 0, q)
            gain = maxes[key] - beta
            if explore(prepend(system, pt, s), acc + gain, steps + 1):
                return True
        return False

    return explore(x, Fraction(0), 0)
