"""Point arithmetic, classification, and metric behaviour."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergopt.errors import ForbiddenTransition
from ergopt.symbolic_core import (
    EventuallyPeriodicPoint,
    allowed_words,
    classify_transitivity,
    distance,
    point,
    prepend,
    window,
)

from conftest import full_shift, golden_mean, random_system, reducible_system, swap_system


class TestCanonicalForm:
    def test_primitive_period(self):
        p = point("", "0101")
        assert p.period == (0, 1)
        assert p.preperiod == ()

    def test_preperiod_absorbed_into_period(self):
        # 1.(1)* is just (1)*
        p = point("1", "1")
        assert p.preperiod == ()
        assert p.period == (1,)

    def test_preperiod_rotation(self):
        # 0.(10)* = (01)*
        p = point("0", "10")
        assert p.preperiod == ()
        assert p.period == (0, 1)

    def test_structural_equality_is_word_equality(self):
        # two spellings of the same word
        assert point("0", "10") == point("", "01")
        assert point("011", "1") == point("0", "1")
        assert point("01", "10") != point("", "01")

    def test_symbols(self):
        p = point("0", "1")
        assert p.symbols(4) == (0, 1, 1, 1)

    def test_prepend_is_canonical(self):
        # prepending undoes the shift, and the result is in canonical form
        assert prepend(full_shift(), point("", "1"), 0) == point("0", "1")
        assert prepend(full_shift(), point("", "10"), 0) == point("", "01")


class TestClassify:
    def test_full_shift_mixing(self):
        rep = classify_transitivity(full_shift())
        assert rep.kind == "mixing"
        assert rep.period == 1

    def test_golden_mean_mixing(self):
        rep = classify_transitivity(golden_mean())
        assert rep.kind == "mixing"
        assert rep.period == 1

    def test_swap_transitive_period_two(self):
        rep = classify_transitivity(swap_system())
        assert rep.kind == "transitive"
        assert rep.period == 2

    def test_reducible(self):
        rep = classify_transitivity(reducible_system())
        assert rep.kind == "reducible"
        assert rep.period is None

    def test_permutation_invariance(self, rng: random.Random):
        for _ in range(25):
            system = random_system(rng, rng.randint(2, 4))
            r = system.alphabet_size
            perm = list(range(r))
            rng.shuffle(perm)
            rows = tuple(
                tuple(system.transition[perm[i]][perm[j]] for j in range(r))
                for i in range(r)
            )
            from ergopt.symbolic_core import SubshiftSystem

            assert classify_transitivity(SubshiftSystem(r, rows)) == classify_transitivity(system)


class TestPrepend:
    def test_full_shift(self):
        assert prepend(full_shift(), point("", "1"), 0) == point("0", "1")

    def test_golden_mean_allowed(self):
        # prepending the constrained symbol onto the free fixed point
        assert prepend(golden_mean(), point("", "0"), 1) == point("1", "0")

    def test_golden_mean_forbidden(self):
        with pytest.raises(ForbiddenTransition):
            prepend(golden_mean(), point("1", "0"), 1)

    def test_shift_inverts_prepend(self, rng: random.Random):
        # dropping the prepended symbol gives x back, compared on a window
        # long enough to cover the preperiod and one period of the result
        for _ in range(60):
            system = random_system(rng, rng.randint(2, 4))
            periods = [
                w for n in range(1, system.alphabet_size + 1)
                for w in allowed_words(system, n) if system.allows(w[-1], w[0])
            ]
            per = rng.choice(periods)
            pre = rng.choice([()] + [(a,) for a in system.symbols() if system.allows(a, per[0])])
            x = point(pre, per)
            for s in system.symbols():
                if system.allows(s, x.symbol(0)):
                    y = prepend(system, x, s)
                    n = len(y.preperiod) + len(y.period)
                    assert y.symbol(0) == s
                    assert window(y, 1, n) == window(x, 0, n)


class TestDistance:
    def test_equal_points(self):
        assert distance(full_shift(), point("", "1"), point("", "1")) == 0

    def test_disagree_at_zero(self):
        assert distance(full_shift(), point("0", "1"), point("", "1")) == 1

    def test_disagree_at_two(self):
        d = distance(full_shift(), point("110", "1"), point("11", "1"))
        assert d == Fraction(1, 4)

    def test_equal_spellings(self):
        assert distance(full_shift(), point("0", "10"), point("", "01")) == 0

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_ultrametric(self, data):
        system = full_shift()
        words = st.lists(st.integers(0, 1), min_size=0, max_size=3).map(tuple)
        pers = st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple)
        pts = [
            EventuallyPeriodicPoint(data.draw(words), data.draw(pers))
            for _ in range(3)
        ]
        x, y, z = pts
        assert distance(system, x, z) <= max(distance(system, x, y), distance(system, y, z))


def prependable(system, x) -> set[int]:
    """The symbols that prepend accepts in front of x."""
    out = set()
    for s in system.symbols():
        try:
            prepend(system, x, s)
        except ForbiddenTransition:
            continue
        out.add(s)
    return out


class TestWindowsAndPasts:
    def test_prependable_full(self):
        assert prependable(full_shift(), point("", "0")) == {0, 1}

    def test_prependable_golden(self):
        assert prependable(golden_mean(), point("", "0")) == {0, 1}
        assert prependable(golden_mean(), point("1", "0")) == {0}

    def test_window_examples(self):
        assert window(point("", "1"), 0, 3) == (1, 1, 1)
        assert window(point("0", "1"), 0, 2) == (0, 1)
        assert window(point("", "01"), 1, 3) == (1, 0, 1)


class TestAllowedWords:
    def test_full_shift_counts(self):
        assert len(allowed_words(full_shift(), 3)) == 8

    def test_golden_counts(self):
        # words without the factor (1, 1)
        assert len(allowed_words(golden_mean(), 2)) == 3
        assert len(allowed_words(golden_mean(), 3)) == 5
