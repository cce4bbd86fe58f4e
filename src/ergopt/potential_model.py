"""Locally constant potentials, past-tail reduction, and coboundaries.

A potential value depends on finitely many past coordinates (y_{p-1} .. y_0)
and future coordinates (x_0 .. x_{q-1}). Window keys are single tuples
(y_{p-1}, ..., y_0, x_0, ..., x_{q-1}); read left to right every adjacent
pair must be an allowed two-letter word, so keys are exactly the allowed
(p+q)-words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .symbolic_core import SubshiftSystem, Word, allowed_words


def _as_fraction(v) -> Fraction:
    if type(v) is Fraction:
        return v
    if isinstance(v, float):
        raise TypeError("potential tables are exact; pass Fraction/int/str")
    return Fraction(v)


@dataclass(frozen=True)
class LocallyConstantPotential:
    """Rational-valued table on allowed (past_depth + future_depth)-windows."""

    system: SubshiftSystem
    past_depth: int
    future_depth: int
    table: Mapping[Word, Fraction]

    def __post_init__(self) -> None:
        if self.past_depth < 1 or self.future_depth < 1:
            raise ValueError("depths must be >= 1")
        keys = allowed_words(self.system, self.past_depth + self.future_depth)
        full = dict.fromkeys(keys, Fraction(0))
        table = self.table
        if {Fraction}.issuperset(map(type, table.values())):
            full.update(table)
        else:
            full.update((tuple(k), _as_fraction(v)) for k, v in table.items())
        if len(full) != len(keys):  # a given window is not an allowed word
            extra = set(full) - set(keys)
            raise ValueError(f"windows not allowed by the transition matrix: {sorted(extra)[:3]}")
        object.__setattr__(self, "table", full)

    def value(self, key: Word) -> Fraction:
        return self.table[tuple(key)]

    def scale(self, factor: Fraction) -> "LocallyConstantPotential":
        f = Fraction(factor)
        return LocallyConstantPotential(
            self.system, self.past_depth, self.future_depth,
            {k: f * v for k, v in self.table.items()},
        )


def reduce_past(A: LocallyConstantPotential) -> dict[Word, Fraction]:
    """Edge weights: the maximum of A over past tails, per edge key.

    Keys are the allowed (1 + future_depth)-words (y_0, x_0 .. x_{q-1}).
    Lossless for path/cycle optimization because the tail at each step of a
    prepend path is a free choice, independent of every other step. At
    past depth 1 the windows already are the edge keys, and A's own table
    is returned.
    """
    p = A.past_depth
    if p == 1:
        return A.table
    weights: dict[Word, Fraction] = {}
    for full, v in A.table.items():
        key = full[p - 1:]
        w = weights.get(key)
        if w is None or v > w:
            weights[key] = v
    # every symbol has an allowed predecessor, so every allowed (1+q)-word
    # extends to a full window and is present
    return weights


def _as_word_table(f) -> tuple[dict[Word, Fraction], int]:
    """Accept either a mapping word -> value or a graph-aligned node function."""
    graph = getattr(f, "graph", None)
    if graph is not None:
        values = f.values
        return {graph.nodes[i]: Fraction(values[i]) for i in range(len(graph.nodes))}, graph.q
    table = {tuple(k): _as_fraction(v) for k, v in dict(f).items()}
    if not table:
        raise ValueError("empty word table")
    qs = {len(k) for k in table}
    if len(qs) != 1:
        raise ValueError("word table keys must share one length")
    return table, qs.pop()


def coboundary_modify(A: LocallyConstantPotential, f, const) -> LocallyConstantPotential:
    """Add the coboundary of a depth-q word function plus a constant.

    The new table satisfies, at every paired point,
    new(pt) = A(pt) + f(future window) - f(prepended future window) + const,
    where the prepended window starts with the past's first symbol.
    """
    q = A.future_depth
    ftable, fq = _as_word_table(f)
    if fq != q:
        raise ValueError("word function depth must equal the potential future depth")
    a = _as_fraction(const)
    p = A.past_depth
    table = {}
    for key, v in A.table.items():
        future = key[p:]
        shifted = (key[p - 1],) + future[: q - 1]
        table[key] = v + ftable[future] - ftable[shifted] + a
    return LocallyConstantPotential(A.system, p, q, table)


def pad_potential(A: LocallyConstantPotential, past_depth: int, future_depth: int) -> LocallyConstantPotential:
    """Re-express A on deeper windows; values are read off a contiguous slice."""
    p, q = A.past_depth, A.future_depth
    if past_depth < p or future_depth < q:
        raise ValueError("padding cannot reduce depth")
    if (past_depth, future_depth) == (p, q):
        return A
    table = {}
    for key in allowed_words(A.system, past_depth + future_depth):
        table[key] = A.table[key[past_depth - p: past_depth + q]]
    return LocallyConstantPotential(A.system, past_depth, future_depth, table)


def combine(terms: list[tuple[Fraction, LocallyConstantPotential]]) -> LocallyConstantPotential:
    """Exact linear combination of potentials on one system, padded as needed."""
    if not terms:
        raise ValueError("need at least one term")
    system = terms[0][1].system
    if any(t.system != system for _, t in terms):
        raise ValueError("terms must share a system")
    P = max(t.past_depth for _, t in terms)
    Q = max(t.future_depth for _, t in terms)
    padded = [(Fraction(c), pad_potential(t, P, Q)) for c, t in terms]
    keys = allowed_words(system, P + Q)
    table = {k: sum((c * t.table[k] for c, t in padded), Fraction(0)) for k in keys}
    return LocallyConstantPotential(system, P, Q, table)


@dataclass(frozen=True)
class ConstraintSpec:
    """Moment constraints: component potentials with a target or a multiplier."""

    components: tuple[LocallyConstantPotential, ...]
    target: tuple[Fraction, ...] | None = None
    multiplier: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if not comps:
            raise ValueError("need at least one constraint component")
        system = comps[0].system
        if any(c.system != system for c in comps):
            raise ValueError("components must share a system")
        object.__setattr__(self, "components", comps)
        for name in ("target", "multiplier"):
            vec = getattr(self, name)
            if vec is not None:
                vec = tuple(_as_fraction(v) for v in vec)
                if len(vec) != len(comps):
                    raise ValueError(f"{name} length must match component count")
                object.__setattr__(self, name, vec)
