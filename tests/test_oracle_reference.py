"""The breadth-first oracles against the depth-first searches they replaced.

The references below walk every prepend path up to the horizon, one
EventuallyPeriodicPoint at a time, and test acceptance with `distance` and
`window` on the full point; the omega reference accepts within
min(eps, lambda**q), the distance the oracle's raised depth stands for. The
breadth-first oracles keep one state per leading word and length (the
least cost, or the best gain), so their answers must be the references'
exactly: on every bundled fixture and on seeded random instances
(alphabets of 2 and 3 symbols, future depths 1 to 3, lambda 1/2 and 1/10,
0/1 and fractional weights), with enough answers on each side to mean
something.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

import pytest

import ergopt.oracle_bruteforce as oracle_bruteforce
from ergopt import fixtures
from ergopt.cli_reports import main
from ergopt.errors import HorizonTooSmall, OracleBudgetExceeded
from ergopt.graph_engine import build_prepend_graph, max_mean_cycle
from ergopt.oracle_bruteforce import _step_max_table, oracle_mane, oracle_omega
from ergopt.potential_model import LocallyConstantPotential
from ergopt.symbolic_core import (
    SubshiftSystem,
    allowed_words,
    distance,
    point,
    prepend,
    window,
)

from conftest import full_shift, random_fraction, random_system


# ---------------------------------------------------------------------------
# depth-first references


def ref_oracle_mane(system, A, beta, x, xbar, N, max_path_len=None):
    q = A.future_depth
    if max_path_len is None:
        max_path_len = 3 * len(allowed_words(system, q)) + N
    maxes = _step_max_table(A)
    best = None
    target = window(x, 0, N)

    def explore(pt, cost, steps):
        nonlocal best
        if steps > 0 and window(pt, 0, N) == target:
            if best is None or cost < best:
                best = cost
        if steps == max_path_len:
            return
        for s in sorted(system.symbols()):
            if not system.allows(s, pt.symbol(0)):
                continue
            key = (s,) + window(pt, 0, q)
            explore(prepend(system, pt, s), cost + beta - maxes[key], steps + 1)

    explore(xbar, Fraction(0), 0)
    if best is None:
        raise HorizonTooSmall(f"no admissible path within {max_path_len} steps at depth {N}")
    return best


def ref_oracle_omega(system, A, beta, x, eps, max_path_len=None):
    q = A.future_depth
    if max_path_len is None:
        max_path_len = 3 * len(allowed_words(system, q)) + 8
    eps = Fraction(eps)
    if eps <= 0:
        return False  # as the oracle: no finite agreement depth reaches eps
    maxes = _step_max_table(A)
    bound = min(eps, system.metric_lambda ** q)  # as the oracle's depth max(N, q)

    def explore(pt, acc, steps):
        if steps > 0 and distance(system, pt, x) <= bound and acc == 0:
            return True
        if steps == max_path_len:
            return False
        for s in sorted(system.symbols()):
            if not system.allows(s, pt.symbol(0)):
                continue
            key = (s,) + window(pt, 0, q)
            if explore(prepend(system, pt, s), acc + maxes[key] - beta, steps + 1):
                return True
        return False

    return explore(x, Fraction(0), 0)


def mane_outcome(mane, *args):
    """The value, or HorizonTooSmall when no path matches."""
    try:
        return mane(*args)
    except HorizonTooSmall:
        return HorizonTooSmall


# ---------------------------------------------------------------------------
# instances


def periodic_points(system, limit=None):
    """Valid points with period <= 2 and preperiod <= 1, in a fixed order."""
    pts = []
    for per in allowed_words(system, 1) + allowed_words(system, 2):
        if not system.allows(per[-1], per[0]):
            continue
        for pre in [()] + allowed_words(system, 1):
            x = point(pre, per)
            if x.is_valid(system) and x not in pts:
                pts.append(x)
    return pts[:limit]


def fixture_instances():
    """(name, system, potential, beta, points) with check's sample points first."""
    out = []
    for name in fixtures.available():
        config = fixtures.load(name)
        system, A = config.system, config.potential
        cycle = max_mean_cycle(build_prepend_graph(system, A))
        pts = [point("", tuple(e.symbol for e in reversed(cycle.witness_cycle)))]
        pts += [x for x in periodic_points(system) if x not in pts]
        out.append((name, system, A, cycle.beta, pts))
    return out


def random_instances(seed, count):
    """Transitive systems with 2-3 symbols, depths 1-2, 0/1 or n/d weights."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        system = random_system(rng, rng.choice((2, 3)), require_transitive=True)
        p, q = rng.choice((1, 2)), rng.choice((1, 2))
        binary = rng.random() < 0.5
        table = {
            k: Fraction(rng.randint(0, 1)) if binary else random_fraction(rng, -5, 5, 4)
            for k in allowed_words(system, p + q)
        }
        A = LocallyConstantPotential(system, p, q, table)
        beta = max_mean_cycle(build_prepend_graph(system, A)).beta
        horizon = 6 if system.alphabet_size == 3 else 8
        out.append((system, A, beta, periodic_points(system, limit=4), horizon))
    return out


# ---------------------------------------------------------------------------
# comparisons


def test_omega_matches_reference_on_fixtures():
    answers = []
    for name, system, A, beta, pts in fixture_instances():
        for x in pts:
            for eps in (Fraction(1, 64), Fraction(1, 4)):
                expected = ref_oracle_omega(system, A, beta, x, eps, 8)
                assert oracle_omega(system, A, beta, x, eps, 8) == expected, (name, x, eps)
                answers.append(expected)
    assert answers.count(True) >= 20 and answers.count(False) >= 20


def test_omega_matches_reference_at_the_default_horizon():
    # check's first sample point on every fixture, and f1's 0^inf, which
    # never returns and so walks every path of the 14-step horizon
    cases = [(system, A, beta, pts[0]) for _, system, A, beta, pts in fixture_instances()]
    f1 = fixtures.load("f1")
    cases.append((f1.system, f1.potential, Fraction(1), point("", "0")))
    answers = []
    for system, A, beta, x in cases:
        expected = ref_oracle_omega(system, A, beta, x, Fraction(1, 64))
        assert oracle_omega(system, A, beta, x, Fraction(1, 64)) == expected, x
        answers.append(expected)
    assert answers.count(False) == 1


def test_omega_matches_reference_on_random_instances():
    answers = []
    for system, A, beta, pts, horizon in random_instances(20261018, 20):
        for x in pts:
            for eps in (Fraction(1, 64), Fraction(1, 4), Fraction(1)):
                expected = ref_oracle_omega(system, A, beta, x, eps, horizon)
                assert oracle_omega(system, A, beta, x, eps, horizon) == expected
                answers.append(expected)
    assert answers.count(True) >= 50 and answers.count(False) >= 50


def test_mane_matches_reference_on_fixtures():
    values = []
    for name, system, A, beta, pts in fixture_instances():
        pts = pts[:3]
        for x in pts:
            for xbar in pts:
                for N in (1, 2, 3):
                    args = (system, A, beta, x, xbar, N, 7)
                    expected = mane_outcome(ref_oracle_mane, *args)
                    assert mane_outcome(oracle_mane, *args) == expected
                    values.append(expected)
    assert len(set(values)) >= 4


def test_mane_matches_reference_on_random_instances():
    values = []
    for system, A, beta, pts, horizon in random_instances(7, 12):
        for x in pts[:2]:
            for xbar in pts[:3]:
                for N, h in ((1, horizon), (2, horizon), (3, horizon), (3, 2)):
                    args = (system, A, beta, x, xbar, N, h)
                    expected = mane_outcome(ref_oracle_mane, *args)
                    assert mane_outcome(oracle_mane, *args) == expected
                    values.append(expected)
    assert HorizonTooSmall in values
    assert len(set(values)) >= 10


def test_omega_eps_at_least_one_still_needs_q_symbols():
    # the 2-cycle 0 <-> 1 carries beta = 1: prepending 1 onto 0^inf gains 0
    # and leads to 1 0^inf, which differs from 0^inf in its first symbol.
    # lambda**0 = 1 <= eps = 2, but the agreement depth is raised to q = 1,
    # so that one step does not return; prepending 0 next gains 0 and lands
    # on 0 1 0^inf, which agrees with 0^inf in its first symbol.
    system = full_shift()
    A = LocallyConstantPotential(system, 1, 1, {(0, 1): Fraction(1), (1, 0): Fraction(1)})
    x = point("", "0")
    for eps in (Fraction(2), Fraction(1, 2)):
        for horizon, expected in ((1, False), (2, True)):
            assert oracle_omega(system, A, Fraction(1), x, eps, horizon) is expected
            assert ref_oracle_omega(system, A, Fraction(1), x, eps, horizon) is expected


def test_omega_matches_reference_when_eps_asks_fewer_than_q_symbols():
    # lambda = 1/10 and q = 3: eps = 1/4, 1/64 and 1 ask for 1, 2 and 0 agreeing
    # symbols, fewer than q, so the oracle searches at depth q and the
    # reference accepts within lambda**q
    rng = random.Random(20261019)
    answers = []
    for _ in range(6):
        system = random_system(rng, 2, require_transitive=True)
        system = SubshiftSystem(2, system.transition, Fraction(1, 10))
        table = {k: random_fraction(rng, -3, 3, 2) for k in allowed_words(system, 4)}
        A = LocallyConstantPotential(system, 1, 3, table)
        beta = max_mean_cycle(build_prepend_graph(system, A)).beta
        for x in periodic_points(system):
            for eps in (Fraction(1, 4), Fraction(1, 64), Fraction(1)):
                expected = ref_oracle_omega(system, A, beta, x, eps, 7)
                assert oracle_omega(system, A, beta, x, eps, 7) == expected
                answers.append(expected)
    assert answers.count(True) >= 10 and answers.count(False) >= 10


def test_omega_nonpositive_eps_is_false():
    config = fixtures.load("f3")
    for eps in (Fraction(0), Fraction(-1, 4)):
        assert not oracle_omega(config.system, config.potential, Fraction(5), point("", "0"), eps, 4)
        assert not ref_oracle_omega(config.system, config.potential, Fraction(5), point("", "0"), eps, 4)


# ---------------------------------------------------------------------------
# the state budget


def test_fixtures_stay_within_the_budget():
    for name, system, A, beta, pts in fixture_instances():
        for x in pts:
            for eps in (Fraction(1, 64), Fraction(1, 4)):
                oracle_omega(system, A, beta, x, eps)


def test_budget_exceeded_names_budget_and_states(monkeypatch):
    monkeypatch.setattr(oracle_bruteforce, "OMEGA_STATE_BUDGET", 100)
    config = fixtures.load("f1")
    with pytest.raises(OracleBudgetExceeded, match=r"budget of 100 states.*\d+ expanded"):
        oracle_omega(config.system, config.potential, Fraction(1), point("", "0"), Fraction(1, 64))


def test_check_skips_the_omega_oracle_over_budget(monkeypatch, tmp_path, capsys):
    path = tmp_path / "f1.cfg"
    path.write_text(fixtures.fixture_text("f1"))
    items = {}
    for budget in (100, 0):
        monkeypatch.setattr(oracle_bruteforce, "OMEGA_STATE_BUDGET", budget)
        assert main(["check", "--config", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        items[budget] = {c["name"]: c for c in report["checks"]}["omega_oracle"]
    # of f1's three samples, the witness point and 1^inf finish within 100
    # states and 0^inf does not; within 0 states none does
    assert items[100]["status"] == "pass"
    assert items[100]["note"].startswith("membership matches the oracle on 2 points; 1 over budget")
    assert "budget of 100 states" in items[100]["note"]
    assert items[0]["status"] == "skip"
    assert "budget of 0 states" in items[0]["note"]


# ---------------------------------------------------------------------------
# one state per head, and the repeated frontier


def depth_sizes(system, A, beta, x, eps, monkeypatch):
    """The states oracle_omega expands at each depth, read off its budget error.

    Each budget stops the search one depth further on, until the search
    ends by itself.
    """
    pattern = re.compile(r"(\d+) expanded by depth (\d+) of \d+, (\d+) more at depth")
    sizes = []
    while True:
        monkeypatch.setattr(oracle_bruteforce, "OMEGA_STATE_BUDGET", sum(sizes))
        try:
            oracle_omega(system, A, beta, x, eps)
        except OracleBudgetExceeded as exc:
            expanded, depth, more = map(int, pattern.search(str(exc)).groups())
            assert (expanded, depth) == (sum(sizes), len(sizes))
            sizes.append(more)
        else:
            return sizes


def test_omega_keeps_at_most_one_state_per_head(monkeypatch):
    # eps = 1/64 makes the heads the 6-words. f1's 0^inf never returns, and
    # on a random full 3-shift with q = 2 neither does 0^inf; keeping every
    # (head, gain) pair, these searches held 96 of 64 and 2 106 of 729
    # possible heads at depth 7
    rng = random.Random(3)
    system = full_shift(3)
    table = {k: random_fraction(rng, -5, 5, 4) for k in allowed_words(system, 3)}
    A = LocallyConstantPotential(system, 1, 2, table)
    f1 = fixtures.load("f1")
    cases = [
        (f1.system, f1.potential, Fraction(1), point("", "0")),
        (system, A, max_mean_cycle(build_prepend_graph(system, A)).beta, point("", "0")),
    ]
    for system, A, beta, x in cases:
        sizes = depth_sizes(system, A, beta, x, Fraction(1, 64), monkeypatch)
        assert len(sizes) >= 8
        assert max(sizes) <= len(allowed_words(system, 6))


def test_omega_off_omega_fixed_point_is_false_before_the_horizon(monkeypatch):
    # the best gains per head of f1's 0^inf at depth 8 repeat those at
    # depth 7, so the search stops after expanding 8 depths (191 states):
    # a horizon of 10 000 steps is never reached, nor a budget of 500
    monkeypatch.setattr(oracle_bruteforce, "OMEGA_STATE_BUDGET", 500)
    config = fixtures.load("f1")
    args = (config.system, config.potential, Fraction(1), point("", "0"), Fraction(1, 64))
    assert oracle_omega(*args, 10_000) is False
    assert depth_sizes(*args, monkeypatch) == [1, 2, 4, 8, 16, 32, 64, 64]
