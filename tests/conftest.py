"""Shared systems and helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ergopt.potential_model import LocallyConstantPotential
from ergopt.symbolic_core import SubshiftSystem, allowed_words


def full_shift(r: int = 2) -> SubshiftSystem:
    row = tuple([1] * r)
    return SubshiftSystem(r, tuple([row] * r))


def golden_mean() -> SubshiftSystem:
    # Symbol 0 may precede anything; the word (1, 1) is forbidden.
    return SubshiftSystem(2, ((1, 1), (1, 0)))


def swap_system() -> SubshiftSystem:
    return SubshiftSystem(2, ((0, 1), (1, 0)))


def reducible_system() -> SubshiftSystem:
    return SubshiftSystem(2, ((1, 1), (0, 1)))


def random_system(rng: random.Random, r: int, require_transitive: bool = False) -> SubshiftSystem:
    """Random 0/1 matrix with no dead rows or columns."""
    while True:
        rows = tuple(
            tuple(1 if rng.random() < 0.7 else 0 for _ in range(r)) for _ in range(r)
        )
        if any(not any(row) for row in rows):
            continue
        if any(not any(row[j] for row in rows) for j in range(r)):
            continue
        system = SubshiftSystem(r, rows)
        if require_transitive:
            from ergopt.symbolic_core import classify_transitivity

            if classify_transitivity(system).kind == "reducible":
                continue
        return system


def constant_potential(system: SubshiftSystem, value, past_depth: int = 1, future_depth: int = 1) -> LocallyConstantPotential:
    """The same value on every allowed window."""
    keys = allowed_words(system, past_depth + future_depth)
    return LocallyConstantPotential(system, past_depth, future_depth, dict.fromkeys(keys, Fraction(value)))


def random_fraction(rng: random.Random, lo: int = -20, hi: int = 20, max_den: int = 10) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260814)


# Small named weight patterns used across the suite (full 2-shift, depth 1).


def _pattern(table: dict[tuple[int, ...], int | Fraction]):
    from ergopt.graph_engine import build_prepend_graph

    system = full_shift()
    A = LocallyConstantPotential(system, 1, 1, {k: Fraction(v) for k, v in table.items()})
    return build_prepend_graph(system, A)


def f1_graph():
    """Unit weight on the loop at 1, zero elsewhere."""
    return _pattern({(1, 1): 1})


def f3_graph(value: int = 5):
    """Constant weights."""
    return _pattern({(0, 0): value, (0, 1): value, (1, 0): value, (1, 1): value})


def f5_graph():
    """Unit weights on both loops: two critical classes."""
    return _pattern({(0, 0): 1, (1, 1): 1})


def f6_graph():
    """Weight 2 on the edge prepending 1 onto 0, weight 1 on the loop at 1."""
    return _pattern({(1, 0): 2, (1, 1): 1})


# Full 4-shift, p = q = 1, keyed (target, source) like every table here: the
# loop at 0 and the 3-cycle 0 -> 1 -> 2 -> 0 (weights 9/5, -4/5, 2) both have
# mean 1, as has the loop at 3; every other edge weighs -10. Two critical
# classes, {0, 1, 2} and {3}. The optimal policy at rho = 1/2 and 3/4 takes
# the 3-cycle at 0; its bias is calibrated but not the limit, which takes the
# loop at 0 and is first optimal at rho = 7/8.
TWO_CLASS_WEIGHTS = {(s, w): Fraction(-10) for s in range(4) for w in range(4)}
TWO_CLASS_WEIGHTS.update(
    {(0, 0): Fraction(1), (1, 0): Fraction(9, 5), (2, 1): Fraction(-4, 5), (0, 2): Fraction(2),
     (3, 3): Fraction(1)}
)


def two_class_graph():
    from ergopt.graph_engine import build_prepend_graph
    from ergopt.potential_model import LocallyConstantPotential

    system = full_shift(4)
    return build_prepend_graph(system, LocallyConstantPotential(system, 1, 1, TWO_CLASS_WEIGHTS))


def two_class_config_text() -> str:
    lines = ["[system]", "alphabet_size = 4"] + ["row = 1 1 1 1"] * 4
    lines += ["", "[potential]", "past_depth = 1", "future_depth = 1"]
    lines += [f"window {s} {w} = {x}" for (s, w), x in sorted(TWO_CLASS_WEIGHTS.items())]
    return "\n".join(lines) + "\n"


def random_graph(rng: random.Random, r: int, q: int, max_den: int = 10, p: int = 1,
                 require_transitive: bool = False):
    from ergopt.graph_engine import build_prepend_graph
    from ergopt.potential_model import LocallyConstantPotential
    from ergopt.symbolic_core import allowed_words

    system = random_system(rng, r, require_transitive=require_transitive)
    table = {
        k: random_fraction(rng, max_den=max_den)
        for k in allowed_words(system, p + q)
    }
    A = LocallyConstantPotential(system, p, q, table)
    return build_prepend_graph(system, A)


def with_rows(mane, rows):
    """A copy of the excursion matrix that returns the given rows as read.

    rows maps a source to its tampered row; every other row is searched on
    first read, as in the original.
    """
    from ergopt.graph_engine import ManeMatrix

    copy = ManeMatrix(mane.beta, mane.D, mane.h, mane.out)
    for src, row in rows.items():
        copy._rows[src] = tuple(row)
    return copy

