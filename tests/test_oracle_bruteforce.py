"""The naive oracles against hand values and the fast algorithms."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import ergopt.oracle_bruteforce as oracle_bruteforce
from ergopt.errors import HorizonTooSmall, OracleBudgetExceeded
from ergopt.graph_engine import build_prepend_graph, max_mean_cycle
from ergopt.oracle_bruteforce import (
    AGREEMENT_DEPTH_BOUND,
    _agreement_depth,
    oracle_beta,
    oracle_mane,
    oracle_omega,
)
from ergopt.potential_model import LocallyConstantPotential
from ergopt.symbolic_core import SubshiftSystem, allowed_words, point

from conftest import constant_potential, full_shift, random_fraction, random_system


def tail_anchored_potential() -> LocallyConstantPotential:
    return LocallyConstantPotential(full_shift(), 2, 1, {(1, 1, 1): Fraction(1)})


def f1_potential() -> LocallyConstantPotential:
    return LocallyConstantPotential(full_shift(), 1, 1, {(1, 1): Fraction(1)})


def f5_potential() -> LocallyConstantPotential:
    return LocallyConstantPotential(
        full_shift(), 1, 1, {(0, 0): Fraction(1), (1, 1): Fraction(1)}
    )


def f6_potential() -> LocallyConstantPotential:
    return LocallyConstantPotential(
        full_shift(), 1, 1, {(1, 0): Fraction(2), (1, 1): Fraction(1)}
    )


class TestOracleBeta:
    def test_tail_anchored(self):
        assert oracle_beta(full_shift(), tail_anchored_potential(), 4) == 1

    def test_constant(self):
        assert oracle_beta(full_shift(), constant_potential(full_shift(), 5), 4) == 5

    def test_f6(self):
        assert oracle_beta(full_shift(), f6_potential(), 4) == 1

    def test_short_horizon_rejected(self):
        with pytest.raises(ValueError):
            oracle_beta(full_shift(), f1_potential(), 1)

    def test_word_budget(self, monkeypatch):
        # the full 2-shift has 2 + 4 + 8 = 14 allowed words up to length 3
        monkeypatch.setattr(oracle_bruteforce, "BETA_WORD_BUDGET", 14)
        assert oracle_beta(full_shift(), f6_potential(), 3) == 1
        monkeypatch.setattr(oracle_bruteforce, "BETA_WORD_BUDGET", 13)
        with pytest.raises(
            OracleBudgetExceeded,
            match="budget reached: more than 13 allowed words up to length 3",
        ):
            oracle_beta(full_shift(), f6_potential(), 3)

    def test_matches_karp_on_random_instances(self, rng: random.Random):
        for _ in range(30):
            system = random_system(rng, rng.randint(2, 3))
            p, q = rng.randint(1, 2), rng.randint(1, 2)
            table = {
                k: random_fraction(rng, max_den=6)
                for k in allowed_words(system, p + q)
            }
            A = LocallyConstantPotential(system, p, q, table)
            graph = build_prepend_graph(system, A)
            assert oracle_beta(system, A, len(graph.nodes)) == max_mean_cycle(graph).beta


class TestOracleMane:
    def test_f1_cross(self):
        val = oracle_mane(
            full_shift(), f1_potential(), Fraction(1), point("", "1"), point("0", "1"), 3
        )
        assert val == 1

    def test_constant_zero(self):
        val = oracle_mane(
            full_shift(),
            constant_potential(full_shift(), 5),
            Fraction(5),
            point("", "1"),
            point("", "0"),
            3,
        )
        assert val == 0

    def test_f5_cross(self):
        val = oracle_mane(
            full_shift(), f5_potential(), Fraction(1), point("", "0"), point("", "1"), 3
        )
        assert val == 1

    def test_horizon_error(self):
        with pytest.raises(HorizonTooSmall):
            oracle_mane(
                full_shift(), f1_potential(), Fraction(1),
                point("", "1"), point("", "0"), 4, max_path_len=2,
            )

    def test_nondecreasing_in_depth(self):
        system = full_shift()
        A = f6_potential()
        vals = [
            oracle_mane(system, A, Fraction(1), point("", "1"), point("", "01"), N, max_path_len=9)
            for N in (1, 2, 3, 4)
        ]
        assert vals == sorted(vals)


class TestOracleOmega:
    def test_f1_fixed_loop(self):
        assert oracle_omega(
            full_shift(), f1_potential(), Fraction(1), point("", "1"), Fraction(1, 8)
        )

    def test_f1_zero_point_never_returns(self):
        for horizon in (6, 9, 12):
            assert not oracle_omega(
                full_shift(), f1_potential(), Fraction(1), point("", "0"),
                Fraction(1, 8), max_path_len=horizon,
            )

    def test_constant_everything_returns(self):
        A = constant_potential(full_shift(), 5)
        for x in (point("", "0"), point("", "01"), point("1", "0")):
            assert oracle_omega(full_shift(), A, Fraction(5), x, Fraction(1, 8))


def with_lambda(lam: Fraction) -> SubshiftSystem:
    return SubshiftSystem(2, ((1, 1), (1, 1)), lam)


class TestAgreementDepth:
    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(3, 4), Fraction(996, 1000)])
    def test_the_bound_is_the_largest_depth_accepted(self, lam):
        # at eps = lambda**bound the depth is the bound; any eps below it
        # asks for one symbol more
        eps = lam**AGREEMENT_DEPTH_BOUND
        assert _agreement_depth(with_lambda(lam), eps) == AGREEMENT_DEPTH_BOUND
        assert _agreement_depth(with_lambda(lam), eps / lam) == AGREEMENT_DEPTH_BOUND - 1
        below = eps * Fraction(10**6 - 1, 10**6)
        with pytest.raises(
            OracleBudgetExceeded,
            match=f"agreement depth bound of {AGREEMENT_DEPTH_BOUND} passed",
        ):
            _agreement_depth(with_lambda(lam), below)

    def test_matches_the_least_power_at_or_below_eps(self, rng: random.Random):
        refused = []
        for _ in range(200):
            den = rng.choice((1000, 997))
            lam = Fraction(rng.randint(1, den - 1), den)
            eps = Fraction(rng.randint(1, 3), 10 ** rng.randint(0, 60))
            k, power = 0, Fraction(1)
            while power > eps and k <= AGREEMENT_DEPTH_BOUND:
                k, power = k + 1, power * lam
            refused.append(k > AGREEMENT_DEPTH_BOUND)
            if k <= AGREEMENT_DEPTH_BOUND:
                assert _agreement_depth(with_lambda(lam), eps) == k
            else:
                with pytest.raises(OracleBudgetExceeded):
                    _agreement_depth(with_lambda(lam), eps)
        assert 0 < sum(refused) < len(refused)

    def test_oracle_omega_raises_past_the_bound(self):
        system = with_lambda(Fraction(99999, 100000))
        A = LocallyConstantPotential(system, 1, 1, {(1, 1): Fraction(1)})
        with pytest.raises(OracleBudgetExceeded, match="agreement depth bound"):
            oracle_omega(system, A, Fraction(1), point("", "1"), Fraction(1, 64))
