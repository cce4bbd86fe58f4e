"""Subshifts of finite type and exact point arithmetic.

Points of the one-sided shift space are kept in canonical eventually
periodic form, so equality is structural and the word metric is exactly
computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import ForbiddenTransition

Word = tuple[int, ...]


@dataclass(frozen=True)
class SubshiftSystem:
    """One-sided subshift of finite type with a fixed word metric.

    transition[a][b] == 1 means the two-letter word (a, b) is allowed.
    """

    alphabet_size: int
    transition: tuple[tuple[int, ...], ...]
    metric_lambda: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        r = self.alphabet_size
        if r < 1:
            raise ValueError("alphabet_size must be >= 1")
        rows = tuple(tuple(int(v) for v in row) for row in self.transition)
        if len(rows) != r or any(len(row) != r for row in rows):
            raise ValueError(f"transition must be {r}x{r}")
        if any(v not in (0, 1) for row in rows for v in row):
            raise ValueError("transition entries must be 0 or 1")
        if any(not any(row) for row in rows):
            raise ValueError("every transition row needs at least one 1")
        if any(not any(row[j] for row in rows) for j in range(r)):
            raise ValueError("every transition column needs at least one 1")
        lam = Fraction(self.metric_lambda)
        if not (0 < lam < 1):
            raise ValueError("metric_lambda must lie strictly between 0 and 1")
        object.__setattr__(self, "transition", rows)
        object.__setattr__(self, "metric_lambda", lam)

    def allows(self, a: int, b: int) -> bool:
        """True when the two-letter word (a, b) is allowed."""
        return self.transition[a][b] == 1

    def symbols(self) -> range:
        return range(self.alphabet_size)


def allowed_words(system: SubshiftSystem, length: int) -> list[Word]:
    """All allowed words of the given length, in lexicographic order."""
    if length < 1:
        raise ValueError("length must be >= 1")
    symbols = system.symbols()
    # after[a]: the symbols that may follow a, as 1-tuples
    after = [[(b,) for b in symbols if system.allows(a, b)] for a in symbols]
    words: list[Word] = [(s,) for s in symbols]
    for _ in range(length - 1):
        words = [w + s for w in words for s in after[w[-1]]]
    return words


def _primitive_root(word: Word) -> Word:
    """Shortest word whose repetition gives the argument."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


@dataclass(frozen=True)
class EventuallyPeriodicPoint:
    """Point of the shift space: preperiod then repeated period.

    Canonical form is enforced on construction: the period is primitive and
    the preperiod is as short as possible, so structural equality coincides
    with equality as infinite words.
    """

    preperiod: Word
    period: Word

    def __post_init__(self) -> None:
        pre = tuple(int(s) for s in self.preperiod)
        per = _primitive_root(tuple(int(s) for s in self.period))
        if not per:
            raise ValueError("period must be nonempty")
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = (per[-1],) + per[:-1]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    def symbol(self, j: int) -> int:
        """Symbol at coordinate j >= 0."""
        pre = self.preperiod
        if j < len(pre):
            return pre[j]
        return self.period[(j - len(pre)) % len(self.period)]

    def symbols(self, count: int) -> Word:
        return tuple(self.symbol(j) for j in range(count))

    def is_valid(self, system: SubshiftSystem) -> bool:
        """Check every consecutive transition against the system."""
        w = self.preperiod + self.period + self.period[:1]
        return all(system.allows(a, b) for a, b in zip(w, w[1:]))


def point(symbol_string: Iterable[int] | str, period: Iterable[int] | str) -> EventuallyPeriodicPoint:
    """Convenience constructor accepting digit strings, e.g. point("0", "1")."""

    def conv(w: Iterable[int] | str) -> Word:
        if isinstance(w, str):
            return tuple(int(ch) for ch in w)
        return tuple(int(s) for s in w)

    return EventuallyPeriodicPoint(conv(symbol_string), conv(period))


@dataclass(frozen=True)
class TransitivityReport:
    kind: str  # "reducible" | "transitive" | "mixing"
    period: int | None


def _reachable(adj: list[list[int]], start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def classify_transitivity(system: SubshiftSystem) -> TransitivityReport:
    """Classify the transition digraph: reducible, transitive, or mixing.

    Transitive means strongly connected; mixing additionally requires the gcd
    of cycle lengths (the period) to be 1. The period is None for reducible
    systems.
    """
    r = system.alphabet_size
    adj = [[b for b in range(r) if system.allows(a, b)] for a in range(r)]
    radj = [[b for b in range(r) if system.allows(b, a)] for a in range(r)]
    if _reachable(adj, 0) != set(range(r)) or _reachable(radj, 0) != set(range(r)):
        return TransitivityReport("reducible", None)
    # BFS levels; gcd of (level[u] + 1 - level[v]) over edges gives the period.
    level = {0: 0}
    queue = [0]
    while queue:
        u = queue.pop(0)
        for v in adj[u]:
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    g = 0
    for u in range(r):
        for v in adj[u]:
            g = math.gcd(g, level[u] + 1 - level[v])
    g = abs(g)
    return TransitivityReport("mixing" if g == 1 else "transitive", g)


def prepend(system: SubshiftSystem, x: EventuallyPeriodicPoint, s: int) -> EventuallyPeriodicPoint:
    """Push symbol s onto the front of a point."""
    if not system.allows(s, x.symbol(0)):
        raise ForbiddenTransition(f"pair ({s}, {x.symbol(0)}) is not allowed")
    return EventuallyPeriodicPoint((s,) + x.preperiod, x.period)


def distance(system: SubshiftSystem, x: EventuallyPeriodicPoint, y: EventuallyPeriodicPoint) -> Fraction:
    """Word metric lambda**k, k the first coordinate where the points disagree."""
    if x == y:
        return Fraction(0)
    horizon = (
        max(len(x.preperiod), len(y.preperiod))
        + math.lcm(len(x.period), len(y.period))
        + 1
    )
    for j in range(horizon):
        if x.symbol(j) != y.symbol(j):
            return system.metric_lambda ** j
    return Fraction(0)


def window(pt: EventuallyPeriodicPoint, start: int, length: int) -> Word:
    """Symbols at coordinates start .. start+length-1."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if start < 0:
        raise ValueError("start must be >= 0")
    return tuple(pt.symbol(j) for j in range(start, start + length))
