"""Tests of the benchmark's generator, checker, tracer and entry point.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checker
import generator
from ergopt import cli_reports, fixtures
from tracer import Tracer

BENCH = Path(__file__).resolve().parent.parent


def _texts(workload: str, seed: int, k: int) -> list[str]:
    return [i.text for i in generator.pass_instances(workload, seed, k, fixtures.fixture_text)]


@pytest.mark.parametrize("workload", generator.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert _texts(workload, 7, 0) == _texts(workload, 7, 0)
    assert _texts(workload, 7, 1) == _texts(workload, 7, 1)
    assert _texts(workload, 7, 0) != _texts(workload, 7, 1)
    assert _texts(workload, 7, 0) != _texts(workload, 8, 0)


def test_rung_configs_parse_and_record_their_shape():
    for workload in ("optimum_ladder", "excursion_ladder"):
        for rung, inst in zip(generator.rungs(workload), generator.pass_instances(workload, 3, 0)):
            assert inst.text.startswith(
                f"# rung {rung.name}: r={rung.r} p={rung.p} q={rung.q} den<={rung.den} "
                f"constraint={rung.constraint}"
            )
            config = cli_reports.parse_config_text(inst.text)
            assert config.potential.table == inst.table
            assert all(
                abs(v.numerator) <= generator.WEIGHT_NUMERATOR and v.denominator <= rung.den
                for v in inst.table.values()
            )


@pytest.mark.parametrize("name", generator.CORPUS)
def test_fixture_shift_moves_beta_by_the_shift(tmp_path, name):
    shifted = generator.fixture_instance(name, fixtures.fixture_text(name), 5, 0)
    original = fixtures.load(name)
    config = cli_reports.parse_config_text(shifted.text)
    assert config.constraints == original.constraints
    assert config.system == original.system
    shift = {w: v - original.potential.table[w] for w, v in config.potential.table.items()}
    assert len(set(shift.values())) == 1
    betas = []
    for text in (fixtures.fixture_text(name), shifted.text):
        path = tmp_path / "in.cfg"
        path.write_text(text)
        out = tmp_path / "out.json"
        assert cli_reports.main(["beta", "--config", str(path), "--out", str(out)]) == 0
        betas.append(Fraction(json.loads(out.read_text())["beta"]))
    assert betas[1] - betas[0] == shift.popitem()[1]


def _report(tmp_path, inst, op) -> bytes:
    path = tmp_path / "in.cfg"
    path.write_text(inst.text)
    out = tmp_path / "out.txt"
    assert cli_reports.main([*op.argv, "--config", str(path), "--out", str(out)]) == 0
    return out.read_bytes()


def _f5(command: str):
    inst = generator.fixture_instance("f5", fixtures.fixture_text("f5"), 1, 0)
    op = next(op for op in generator.operations("check_corpus")
              if op.input == "f5" and op.command == command)
    return inst, op


def test_checker_accepts_then_rejects_a_flipped_methods_agree(tmp_path):
    inst, op = _f5("beta")
    data = _report(tmp_path, inst, op)
    assert checker.verify(op, inst, 0, data).ok
    report = json.loads(data)
    report["methods_agree"] = False
    verdict = checker.verify(op, inst, 0, json.dumps(report).encode())
    assert not verdict.ok and "methods_agree" in verdict.reason


def test_checker_rejects_a_witness_whose_mean_is_not_beta(tmp_path):
    inst, op = _f5("beta")
    report = json.loads(_report(tmp_path, inst, op))
    report["beta"] = str(Fraction(report["beta"]) + 1)
    assert not checker.verify(op, inst, 0, json.dumps(report).encode()).ok


def test_checker_rejects_a_nonzero_calibration_residual(tmp_path):
    inst, op = _f5("u0")
    data = _report(tmp_path, inst, op)
    assert checker.verify(op, inst, 0, data).ok
    report = json.loads(data)
    report["residuals"]["calibration"] = "1/2"
    verdict = checker.verify(op, inst, 0, json.dumps(report).encode())
    assert not verdict.ok and "calibration" in verdict.reason


def test_checker_rejects_an_unexpected_exit_code():
    inst, op = _f5("u0")
    assert not checker.verify(op, inst, 4, None).ok


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_checker_derives_classes_from_the_matrix(tmp_path, fmt):
    inst, _ = _f5("mane")  # two competing loops: two critical classes
    op = generator.Op(inst.name, "mane", ("mane", "--format", fmt))
    verdict = checker.verify(op, inst, 0, _report(tmp_path, inst, op))
    assert verdict.ok, verdict.reason
    assert verdict.classes == 2


F5_CALLS = {
    "beta": {"graph_engine.max_mean_cycle": 2, "rational_simplex.solve_lp": 1},
    "mane": {"graph_engine.min_cost_all_pairs": 2},
    "check": {
        "graph_engine.max_mean_cycle": 16,
        "graph_engine.min_cost_all_pairs": 11,
        "mane_aubry.omega_set": 5,
        "rational_simplex.solve_lp": 2,
    },
}


@pytest.mark.parametrize("command", sorted(F5_CALLS))
def test_tracer_counts_on_f5(tmp_path, command):
    import ergopt.graph_engine as graph_engine

    original = graph_engine.max_mean_cycle
    path = tmp_path / "f5.cfg"
    path.write_text(fixtures.fixture_text("f5"))
    with Tracer() as tracer:
        rc = cli_reports.main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0
    metrics = tracer.metrics()
    for key, calls in F5_CALLS[command].items():
        assert metrics[f"{key}.calls"] == (calls, "count")
    assert metrics["cli_reports.main.calls"] == (1, "count")
    assert graph_engine.max_mean_cycle is original
    assert cli_reports.max_mean_cycle is original


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "check_corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""



def test_pass_time_is_scaled_by_the_host_speed_probes():
    import hostspeed
    from run import OpResult, PassResult

    assert hostspeed.probe() > 0
    op = generator.operations("check_corpus")[0]
    ops = [OpResult(op, 0, seconds, checker.Verdict(True)) for seconds in (0.3, 0.5)]
    on_a_host_half_as_fast = PassResult(ops=ops, probes=[2 * hostspeed.NOMINAL_S] * 2)
    assert on_a_host_half_as_fast.seconds == pytest.approx(0.8)
    assert on_a_host_half_as_fast.scaled == pytest.approx(0.4)
