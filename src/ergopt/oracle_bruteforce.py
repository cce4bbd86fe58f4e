"""Deliberately naive reference computations for tiny instances.

These enumerate decorated cycles and prepend paths directly from the
potential table, so they share no code with the graph algorithms they
certify. The prepend-path searches walk paths breadth first, and at each
length keep one state per leading word a step reads: ``oracle_mane`` the
least cost, which is all its minimum needs, and ``oracle_omega`` the best
gain, which decides whether a path can still close at gain 0 when beta is
the optimum. The answers are those of the full enumeration.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import HorizonTooSmall, OracleBudgetExceeded
from .potential_model import LocallyConstantPotential
from .symbolic_core import (
    EventuallyPeriodicPoint,
    SubshiftSystem,
    allowed_words,
    window,
)

# Most states oracle_omega expands before it gives up. With one state per
# head and length it expands at most 191 on the bundled fixtures (check's
# samples and every point of period <= 2, eps 1/64 and 1/4), at most 20 479
# on full 2-shifts of 64-256 nodes, and at most 10 813 on the random configs
# of the command gate (seeds 1-4 x 100, check's samples and eps), where 2 of
# 541 calls pass the budget.
OMEGA_STATE_BUDGET = 50_000

# Largest agreement depth oracle_omega searches at: the least k with
# lambda**k <= eps, which grows without bound as lambda nears 1. check's
# eps of 1/64 stays within it for lambda up to 64**(-1/1024), about 0.99595.
# A power of two, since _agreement_depth squares lambda up to it.
AGREEMENT_DEPTH_BOUND = 1024

# Most words oracle_beta enumerates before it gives up: all allowed words of
# lengths 1..max_cycle_len. The bundled fixtures need at most 18 and a full
# 3-shift with q=2 (9 nodes) 88 572; a full 2-shift with q=4 (16 nodes)
# would need 262 142, which took about 4 s on a 2-vCPU host.
BETA_WORD_BUDGET = 100_000


def _step_max_table(A: LocallyConstantPotential) -> dict:
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
    Raises OracleBudgetExceeded, before enumerating any word, when there are
    more than BETA_WORD_BUDGET allowed words up to that length; the count
    stops once it passes the budget.
    """
    q = A.future_depth
    node_count = len(allowed_words(system, q))
    if max_cycle_len < node_count:
        raise ValueError("max_cycle_len must reach the window-graph node count")
    # allowed words of each length, counted by their last symbol, until
    # the running total passes the budget
    ending = [1] * system.alphabet_size
    total = sum(ending)
    for _ in range(1, max_cycle_len):
        if total > BETA_WORD_BUDGET:
            break
        ending = [
            sum(c for a, c in enumerate(ending) if system.allows(a, s))
            for s in system.symbols()
        ]
        total += sum(ending)
    if total > BETA_WORD_BUDGET:
        raise OracleBudgetExceeded(
            f"beta oracle budget reached: more than {BETA_WORD_BUDGET} "
            f"allowed words up to length {max_cycle_len}"
        )
    maxes = _step_max_table(A)
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


def _predecessors(system: SubshiftSystem) -> dict[int, list[int]]:
    """The symbols that may be prepended in front of each symbol."""
    return {
        a: [s for s in system.symbols() if system.allows(s, a)]
        for a in system.symbols()
    }


def _agreement_depth(system: SubshiftSystem, eps: Fraction) -> int:
    """Least k with lambda**k <= eps, for eps > 0.

    distance(pt, x) <= eps exactly when pt and x agree on their first k
    coordinates. lambda = a / b is in lowest terms, so each power is kept
    as the int pair (a**k, b**k) and never reduced. The powers
    lambda**(2**j) are squared until one is at or below eps, and k is then
    built bit by bit below it. When lambda**AGREEMENT_DEPTH_BOUND is still
    above eps, k is past the bound and OracleBudgetExceeded is raised; no
    larger power is built.
    """
    m, n = eps.numerator, eps.denominator
    if m >= n:
        return 0  # lambda**0 = 1 <= eps
    a, b = system.metric_lambda.numerator, system.metric_lambda.denominator
    powers = [(a, b)]  # lambda**(2**j) for j = 0, 1, ...
    while a * n > m * b:
        if 2 ** (len(powers) - 1) >= AGREEMENT_DEPTH_BOUND:
            raise OracleBudgetExceeded(
                f"omega oracle agreement depth bound of {AGREEMENT_DEPTH_BOUND} passed: "
                f"lambda**{AGREEMENT_DEPTH_BOUND} is above eps"
            )
        a, b = a * a, b * b
        powers.append((a, b))
    # the largest k with lambda**k > eps, from the highest bit down
    k, num, den = 0, 1, 1
    for j in reversed(range(len(powers) - 1)):
        a, b = num * powers[j][0], den * powers[j][1]
        if a * n > m * b:
            k, num, den = k + 2**j, a, b
    return k + 1


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

    A step reads only the leading max(N, q) symbols of the current point, so
    paths are walked breadth first and, at each length, only the least cost
    per leading word is kept. Every length up to the horizon is scanned:
    steps can have negative cost, so a longer path may undercut a shorter
    match.
    """
    q = A.future_depth
    if max_path_len is None:
        max_path_len = 3 * len(allowed_words(system, q)) + N
    maxes = _step_max_table(A)
    preds = _predecessors(system)
    target = window(x, 0, N)
    m = max(N, q)
    best: Fraction | None = None
    frontier = {window(xbar, 0, m): Fraction(0)}
    for _ in range(max_path_len):
        reached: dict[tuple[int, ...], Fraction] = {}
        for head, cost in frontier.items():
            for s in preds[head[0]]:
                new_head = ((s,) + head)[:m]
                new_cost = cost + beta - maxes[(s,) + head[:q]]
                if new_head not in reached or new_cost < reached[new_head]:
                    reached[new_head] = new_cost
        for head, cost in reached.items():
            if head[:N] == target and (best is None or cost < best):
                best = cost
        frontier = reached
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

    A path of length >= 1 qualifies when it ends within min(eps, lambda**q)
    of x and its accumulated gain (table value minus beta per step) is
    exactly 0; eps is only the distance, which fixes how many leading
    symbols must agree. For eps <= 0 no number of agreeing symbols will do,
    and the answer is False.

    The search is breadth first over the leading N symbols, where N is the
    least k with lambda**k <= eps raised to at least q: a step and the
    acceptance test read nothing else. N >= q is a stricter distance, so a
    True still means what it says, and it makes every qualifying path a
    closed walk in the window graph, whose gain is <= 0 when beta is the
    true optimum. So the best gain per head at each length decides whether
    some path with that head can still close at gain 0, and only that gain
    is kept: at most one state per head and length. This assumes beta is
    the optimum of A; the beta checks of ``check`` test beta itself.

    True is definitive. The kept gains at one length fix those at the next,
    so when they repeat an earlier length's, no later length can qualify
    and False is definitive too; otherwise False only reports the horizon
    searched. Raises OracleBudgetExceeded rather than expand more than
    OMEGA_STATE_BUDGET states or search at an agreement depth above
    AGREEMENT_DEPTH_BOUND.
    """
    q = A.future_depth
    if max_path_len is None:
        max_path_len = 3 * len(allowed_words(system, q)) + 8
    eps = Fraction(eps)
    if eps <= 0:
        return False  # no finite agreement depth puts a point within eps of x
    # gains scaled by one common denominator, so sums stay exact ints
    gains = {key: v - beta for key, v in _step_max_table(A).items()}
    scale = math.lcm(*(g.denominator for g in gains.values()))
    gains = {key: int(g * scale) for key, g in gains.items()}
    preds = _predecessors(system)
    n = max(_agreement_depth(system, eps), q)
    start = window(x, 0, n)
    frontier = {start: 0}
    seen = {frozenset(frontier.items())}
    expanded = 0
    for depth in range(max_path_len):
        if expanded + len(frontier) > OMEGA_STATE_BUDGET:
            raise OracleBudgetExceeded(
                f"omega oracle budget of {OMEGA_STATE_BUDGET} states reached: "
                f"{expanded} expanded by depth {depth} of {max_path_len}, "
                f"{len(frontier)} more at depth {depth}"
            )
        expanded += len(frontier)
        reached: dict[tuple[int, ...], int] = {}
        for head, acc in frontier.items():
            for s in preds[head[0]]:
                new_head = ((s,) + head)[:n]
                new_acc = acc + gains[(s,) + head[:q]]
                if new_head not in reached or new_acc > reached[new_head]:
                    reached[new_head] = new_acc
        if reached.get(start) == 0:
            return True
        frontier = reached
        key = frozenset(frontier.items())
        if key in seen:
            return False
        seen.add(key)
    return False
