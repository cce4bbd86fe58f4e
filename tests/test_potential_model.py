"""Potential tables, reduction, coboundaries, padding and combination."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from ergopt.graph_engine import build_prepend_graph, max_mean_cycle
from ergopt.holonomic_opt import DecoratedOrbitMeasure, integral
from ergopt.potential_model import (
    LocallyConstantPotential,
    coboundary_modify,
    combine,
    pad_potential,
    reduce_past,
)
from ergopt.symbolic_core import allowed_words

from conftest import constant_potential, full_shift, golden_mean, random_fraction, random_system


def tail_anchored_potential() -> LocallyConstantPotential:
    """Past depth 2 table that pays only when both recent symbols are 1."""
    return LocallyConstantPotential(
        full_shift(), 2, 1, {(1, 1, 1): Fraction(1)}
    )


class TestTable:
    # A window reads the past deepest first, then the future: (y1, y0, x0)
    # for past depth 2 and future depth 1.

    def test_constant(self):
        A = constant_potential(full_shift(), 5)
        assert {A.value(w) for w in allowed_words(full_shift(), 2)} == {5}

    def test_tail_anchored_hit(self):
        assert tail_anchored_potential().value((1, 1, 1)) == 1

    def test_tail_anchored_miss(self):
        # the past reads 1, 0 going back: y0 = 1 but y1 = 0
        A = tail_anchored_potential()
        assert A.value((0, 1, 1)) == 0
        assert [w for w in allowed_words(full_shift(), 3) if A.value(w)] == [(1, 1, 1)]

    def test_missing_windows_default_to_zero(self):
        A = LocallyConstantPotential(full_shift(), 1, 1, {(0, 0): Fraction(7)})
        assert A.value((1, 1)) == 0

    def test_disallowed_window_rejected(self):
        with pytest.raises(ValueError):
            LocallyConstantPotential(golden_mean(), 1, 1, {(1, 1): Fraction(1)})

    def test_disallowed_windows_named_first_three_in_order(self):
        table = {(1, 1, 1, 1): 1, (0, 0, 0, 0): 2, (0, 1, 1, 0): 3, (1, 1, 0, 0): 4, (0, 0, 1, 1): 5}
        with pytest.raises(ValueError) as err:
            LocallyConstantPotential(golden_mean(), 1, 3, table)
        assert str(err.value) == (
            "windows not allowed by the transition matrix: "
            "[(0, 0, 1, 1), (0, 1, 1, 0), (1, 1, 0, 0)]"
        )

    def test_full_table_in_word_order_with_exact_zeros(self):
        A = LocallyConstantPotential(golden_mean(), 1, 2, {(1, 0, 1): 3, (0, 0, 0): "1/2"})
        assert list(A.table) == allowed_words(golden_mean(), 3)
        assert A.table == {
            (0, 0, 0): Fraction(1, 2), (0, 0, 1): 0, (0, 1, 0): 0, (1, 0, 0): 0, (1, 0, 1): 3,
        }
        assert {type(v) for v in A.table.values()} == {Fraction}

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            LocallyConstantPotential(full_shift(), 1, 1, {(0, 0): 0.5})


class TestReducePast:
    def test_tail_anchored(self):
        weights = reduce_past(tail_anchored_potential())
        assert weights == {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}

    def test_depth_one_identity(self):
        A = LocallyConstantPotential(full_shift(), 1, 1, {(1, 1): Fraction(1)})
        assert reduce_past(A) == dict(A.table)

    def test_constant_any_depth(self):
        weights = reduce_past(constant_potential(full_shift(), 5, past_depth=3, future_depth=1))
        assert set(weights) == set(allowed_words(full_shift(), 2))
        assert set(weights.values()) == {Fraction(5)}

    def test_dominates_pointwise(self, rng: random.Random):
        for _ in range(20):
            system = random_system(rng, rng.randint(2, 3))
            p, q = rng.randint(1, 3), rng.randint(1, 2)
            table = {k: random_fraction(rng, max_den=6) for k in allowed_words(system, p + q)}
            A = LocallyConstantPotential(system, p, q, table)
            weights = reduce_past(A)
            assert set(weights) == set(allowed_words(system, 1 + q))
            attained = set()
            for full, v in A.table.items():
                key = full[p - 1:]
                assert weights[key] >= v
                if v == weights[key]:
                    attained.add(key)
            assert attained == set(weights)

    def test_decorated_face_accepts_exactly_the_tails_at_the_maximum(self, rng: random.Random):
        # brute force over A.table: a decorated orbit's integral is beta
        # exactly when its key means reach beta and every tail's window
        # attains the maximum over all windows of its key; integer weights in
        # [-2, 2] make ties among the tails common
        potentials = [tail_anchored_potential()]
        while len(potentials) < 12:
            system = random_system(rng, rng.randint(2, 3), require_transitive=True)
            p = rng.randint(2, 3 if system.alphabet_size == 2 else 2)
            q = rng.randint(1, 2)
            table = {k: Fraction(rng.randint(-2, 2)) for k in allowed_words(system, p + q)}
            potentials.append(LocallyConstantPotential(system, p, q, table))
        checked = in_face = 0
        for A in potentials:
            system, p, q = A.system, A.past_depth, A.future_depth
            best: dict = {}
            for full, v in A.table.items():
                key = full[p - 1:]
                best[key] = max(best.get(key, v), v)
            graph = build_prepend_graph(system, A)
            result = max_mean_cycle(graph)
            orbits = [tuple(e.symbol for e in reversed(result.witness_cycle))]
            orbits += [
                w for M in (1, 2, 3) for w in itertools.product(system.symbols(), repeat=M)
                if all(system.allows(w[j], w[(j + 1) % M]) for j in range(M))
            ]
            for orbit in orbits:
                M = len(orbit)
                choices = [
                    [t for t in allowed_words(system, p) if t[-1] == orbit[j - 1]]
                    for j in range(M)
                ]
                for tails in itertools.islice(itertools.product(*choices), 64):
                    m = DecoratedOrbitMeasure(system, orbit, tails)
                    keys = [m.step_key(j, q)[p - 1:] for j in range(M)]
                    at_max = all(A.value(m.step_key(j, q)) == best[k] for j, k in enumerate(keys))
                    on_face = sum(best[k] for k in keys) == result.beta * M
                    expected = on_face and at_max
                    assert expected == (integral(A, m) == result.beta)
                    checked += 1
                    in_face += expected
        assert checked > 1000 and in_face > 50


class TestCoboundary:
    def test_identity(self):
        A = tail_anchored_potential()
        assert coboundary_modify(A, {(0,): 0, (1,): 0}, 0).table == A.table

    def test_constant_shift(self):
        A = constant_potential(full_shift(), 0)
        out = coboundary_modify(A, {(0,): 0, (1,): 0}, 3)
        assert set(out.table.values()) == {Fraction(3)}

    def test_pointwise_identity(self, rng: random.Random):
        for _ in range(30):
            system = random_system(rng, rng.randint(2, 3))
            p, q = rng.randint(1, 2), rng.randint(1, 2)
            table = {k: random_fraction(rng, max_den=6) for k in allowed_words(system, p + q)}
            A = LocallyConstantPotential(system, p, q, table)
            f = {w: random_fraction(rng, max_den=6) for w in allowed_words(system, q)}
            a = random_fraction(rng, max_den=6)
            out = coboundary_modify(A, f, a)
            for key in A.table:
                future = key[p:]
                shifted = (key[p - 1],) + future[: q - 1]
                assert out.table[key] == A.table[key] + f[future] - f[shifted] + a


class TestPadCombine:
    def test_pad_preserves_values(self, rng: random.Random):
        system = golden_mean()
        table = {k: random_fraction(rng) for k in allowed_words(system, 2)}
        A = LocallyConstantPotential(system, 1, 1, table)
        B = pad_potential(A, 2, 2)
        for key in B.table:
            assert B.table[key] == A.table[key[1:3]]

    def test_combine_linear(self, rng: random.Random):
        system = full_shift()
        A = LocallyConstantPotential(
            system, 1, 1, {k: random_fraction(rng) for k in allowed_words(system, 2)}
        )
        B = LocallyConstantPotential(
            system, 2, 1, {k: random_fraction(rng) for k in allowed_words(system, 3)}
        )
        out = combine([(Fraction(2), A), (Fraction(-1), B)])
        assert (out.past_depth, out.future_depth) == (2, 1)
        for key in out.table:
            assert out.table[key] == 2 * A.table[key[1:]] - B.table[key]
