"""The ergopt benchmark: CLI workloads timed end to end, plus a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload calls ``ergopt.cli_reports.main(argv)`` in this one process as
a closed loop with one client: the next command starts only when the
previous one returns. Every command reads a generated config (``--config``)
and writes its report to a file (``--out``); the checker then verifies the
report outside the timed region. Pass k of a run uses inputs made from
(seed, k). Whole passes run until the next one would end after ``--seconds``;
the first pass always runs.

``--trace 0`` reports the end-to-end metrics in its result line. Both times
are scaled to a fixed host speed, because on a shared host the speed drifts
by up to 2x within seconds: a speed probe (``hostspeed.py``) runs outside the
timed spans, and each time is multiplied by ``hostspeed.NOMINAL_S`` over the
mean time of the probes taken around it. The probe tracks the host, and the
program's own cost stays in the figure.

- ``setup_s``: median over fresh processes of the time from process start to
  the first timed command: importing ``ergopt``, generating and writing the
  first pass's inputs, and one warm-up pass over a small input. The processes
  run between passes, each with a speed probe just before and after it.
- ``pass_s``: median over passes of the summed command latencies of a pass,
  i.e. the time to solve the whole batch. Speed probes run before the pass
  and after every 0.2 s of commands.
- ``peak_rss_mb``: ``ru_maxrss`` of this process.

Above the result line it prints these and the metrics that are too
unsteady on a shared 2-vCPU host to gate a change: ``setup_wall_s`` and
``pass_wall_s`` (the same medians unscaled), ``op_p50_s``, ``op_p90_s``
(when at least ten samples lie beyond it) and ``<command>_p50_s``, the last
three unscaled and over successful commands (an expected exit 3 on
``reducible`` is a success), and ``failed_ratio``. It also prints the environment, the generated rungs and a
SHA-256 of pass 0's exit codes and report bytes.

``--trace 1`` runs pass 0 untraced, under the tracer, and untraced again,
and reports per-layer calls and self time of the traced pass (see
``tracer.py``), error counts by cause, ``failed_ratio`` and
``trace.overhead_ratio``, the traced pass time over the mean of the two
untraced ones, each scaled as for ``pass_s``. It ignores ``--seconds``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation fails on
an unexpected exit code or a failed report check. ``correct`` is false when
any failure is a wrong answer rather than a documented refusal (exit 4,
non-convergence), or when tracing changed a report byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 5  # fresh processes timed for setup_s
PROBE_EVERY_S = 0.2  # command time between two host speed probes

sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import generator  # noqa: E402
import hostspeed  # noqa: E402


def require_sources() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "ergopt" / "cli_reports.py").is_file():
        raise SystemExit(f"run.py: no ergopt sources under {SRC}")


@dataclass
class OpResult:
    op: generator.Op
    rc: int
    seconds: float
    verdict: checker.Verdict


@dataclass
class PassResult:
    ops: list[OpResult] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)  # hostspeed.probe() times
    digest: str = ""

    @property
    def seconds(self) -> float:
        """Wall time of the pass: its summed command latencies."""
        return sum(r.seconds for r in self.ops)

    @property
    def scaled(self) -> float:
        """The pass time on a host where one speed probe takes NOMINAL_S."""
        return self.seconds * hostspeed.NOMINAL_S / statistics.fmean(self.probes)


class Bench:
    """One workload's inputs, operations and measurements in one process."""

    def __init__(self, workload: str, seed: int) -> None:
        require_sources()
        sys.path.insert(0, str(SRC))
        from ergopt import cli_reports, fixtures

        self.cli = cli_reports
        self.fixture_text = fixtures.fixture_text
        self.workload = workload
        self.seed = seed
        self.ops = generator.operations(workload)
        self.dir = WORK / f"{workload}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    def write_pass(self, k: int) -> dict[str, tuple[generator.Instance, Path]]:
        inputs = {}
        for inst in generator.pass_instances(self.workload, self.seed, k, self.fixture_text):
            path = self.dir / f"p{k}-{inst.name}.cfg"
            path.write_text(inst.text)
            inputs[inst.name] = (inst, path)
        return inputs

    def run_op(self, op, inst, cfg: Path, classes: int | None) -> tuple[OpResult, bytes | None]:
        out = self.dir / "report.out"
        out.unlink(missing_ok=True)
        argv = [*op.argv, "--config", str(cfg), "--out", str(out)]
        if op.command == "classify":
            if classes is None:
                verdict = checker.Verdict(False, "no class count from the preceding mane")
                return OpResult(op, -1, 0.0, verdict), None
            argv += ["--boundary", ",".join(["0"] * classes)]
        crash = ""
        with contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                rc, crash = -1, traceback.format_exc().strip().splitlines()[-1]
            seconds = time.perf_counter() - start
        data = out.read_bytes() if out.exists() else None
        if crash:
            verdict = checker.Verdict(False, f"crash: {crash}")
        else:
            verdict = checker.verify(op, inst, rc, data)
        return OpResult(op, rc, seconds, verdict), data

    def run_pass(self, inputs, ops=None) -> PassResult:
        result = PassResult(probes=[hostspeed.probe()])
        digest = hashlib.sha256()
        classes: dict[str, int | None] = {}
        unprobed = 0.0
        for op in ops or self.ops:
            inst, cfg = inputs[op.input]
            res, data = self.run_op(op, inst, cfg, classes.get(op.input))
            if op.command == "mane":
                classes[op.input] = res.verdict.classes
            digest.update(f"{op.input} {op.command} {res.rc}\n".encode())
            digest.update(data or b"")
            result.ops.append(res)
            unprobed += res.seconds
            if unprobed >= PROBE_EVERY_S:
                result.probes.append(hostspeed.probe())
                unprobed = 0.0
        if unprobed:
            result.probes.append(hostspeed.probe())
        result.digest = digest.hexdigest()
        return result

    def warm_up(self) -> PassResult:
        """Every command of the workload once, on a small input of its own seed."""
        name = generator.WARMUP[self.workload]
        inputs = {
            inst.name: (inst, self.dir / f"warmup-{inst.name}.cfg")
            for inst in generator.pass_instances(self.workload, self.seed, -1, self.fixture_text)
            if inst.name == name
        }
        for inst, path in inputs.values():
            path.write_text(inst.text)
        return self.run_pass(inputs, [op for op in self.ops if op.input == name])


def setup(workload: str, seed: int) -> tuple[Bench, dict]:
    bench = Bench(workload, seed)
    try:
        inputs = bench.write_pass(0)
        warm = bench.warm_up()
        bad = [r for r in warm.ops if not r.verdict.ok and r.rc not in checker.REFUSALS]
        if bad:
            raise SystemExit(f"run.py: warm-up failed: {bad[0].op} {bad[0].verdict.reason}")
    except BaseException:
        bench.close()
        raise
    return bench, inputs


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Wall time of a fresh process that only sets up, from spawn to exit.

    Returns it as measured and scaled like a pass time, by the mean of the
    speed probes just before and after the process.
    """
    before = hostspeed.probe()
    start = time.perf_counter()
    probe = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=150, check=False,
    )
    seconds = time.perf_counter() - start
    if probe.returncode != 0:
        raise SystemExit(f"run.py: setup probe failed: {probe.stderr.decode()[-500:]}")
    speed = (before + hostspeed.probe()) / 2
    return seconds, seconds * hostspeed.NOMINAL_S / speed


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def failures(passes: list[PassResult]) -> tuple[int, int, bool, list[OpResult]]:
    """attempted, failed, whether every failure is a refusal, failed ops."""
    results = [r for p in passes for r in p.ops]
    failed = [r for r in results if not r.verdict.ok]
    refusals_only = all(r.rc in checker.REFUSALS for r in failed)
    return len(results), len(failed), refusals_only, failed


def print_failures(failed: list[OpResult]) -> None:
    seen = set()
    for r in failed:
        key = (r.op.input, r.op.command, r.verdict.reason)
        if key not in seen:
            seen.add(key)
            print(f"failed  {r.op.input} {r.op.command}: {r.verdict.reason}", file=sys.stderr)


def untraced(bench: Bench, inputs, seconds: float, setup_samples: list) -> dict:
    """Whole passes for about ``seconds``, with the setup probes between them.

    Spreading the probes over the run keeps one slow stretch of a shared host
    from moving all of them.
    """
    passes: list[PassResult] = []
    walls: list[float] = []
    start = time.perf_counter()
    k = 0
    while True:
        pass_start = time.perf_counter()
        if k > 0:
            inputs = bench.write_pass(k)
        passes.append(bench.run_pass(inputs))
        walls.append(time.perf_counter() - pass_start)
        k += 1
        if len(setup_samples) < SETUP_PROBES:
            setup_samples.append(setup_probe(bench.workload, bench.seed))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            break
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(setup_probe(bench.workload, bench.seed))

    ok_ops = [r for p in passes for r in p.ops if r.verdict.ok]
    latencies = sorted(r.seconds for r in ok_ops)
    attempted, failed, refusals_only, failed_ops = failures(passes)
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setup_samples), "s"),
        "pass_s": (statistics.median(p.scaled for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    reported = {
        "setup_wall_s": (statistics.median(wall for wall, _ in setup_samples), "s"),
        "pass_wall_s": (statistics.median(p.seconds for p in passes), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "failed_ratio": (failed / attempted, "ratio"),
    }
    if len(latencies) >= 100:  # at least ten samples beyond the p90
        reported["op_p90_s"] = (statistics.quantiles(latencies, n=10)[-1], "s")
    by_command: dict[str, list[float]] = {}
    for r in ok_ops:
        by_command.setdefault(r.op.command, []).append(r.seconds)
    for command, values in sorted(by_command.items()):
        reported[f"{command}_p50_s"] = (statistics.median(values), "s")
    print_failures(failed_ops)
    return {
        "correct": refusals_only,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "reported": reported,
        "info": {
            "passes": len(passes),
            "successful_ops": len(latencies),
            "pass_seconds": [p.seconds for p in passes],
            "pass_probe_mean_s": [statistics.fmean(p.probes) for p in passes],
            "setup_samples_s": [wall for wall, _ in setup_samples],
            "pass0_sha256": passes[0].digest,
        },
    }


def traced(bench: Bench, inputs) -> dict:
    from tracer import Tracer

    before = bench.run_pass(inputs)
    with Tracer() as tracer:
        spanned = bench.run_pass(inputs)
    after = bench.run_pass(inputs)
    attempted, failed, refusals_only, failed_ops = failures([before, spanned, after])
    rcs = [r.rc for r in spanned.ops]
    metrics = tracer.metrics()
    metrics["errors.non_convergence.count"] = (rcs.count(4), "count")
    metrics["errors.hypothesis.count"] = (rcs.count(3), "count")
    metrics["failed_ratio"] = (sum(not r.verdict.ok for r in spanned.ops) / len(rcs), "ratio")
    # the untraced passes bracket the traced one, so that effects of running
    # an input for the first or a later time cancel out of the ratio
    base = (before.scaled + after.scaled) / 2
    metrics["trace.overhead_ratio"] = (spanned.scaled / base, "ratio")
    same_bytes = before.digest == spanned.digest == after.digest
    if not same_bytes:
        print("tracing changed the reports: pass 0 digests differ", file=sys.stderr)
    print_failures(failed_ops)
    return {
        "correct": refusals_only and same_bytes,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": {"pass0_sha256": before.digest, "traced_pass0_sha256": spanned.digest},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=generator.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    require_sources()
    if args.setup_only:
        setup(args.workload, args.seed)[0].close()
        return 0

    setup_samples = [] if args.trace else [setup_probe(args.workload, args.seed)]
    bench, inputs = setup(args.workload, args.seed)
    try:
        if args.trace:
            result = traced(bench, inputs)
        else:
            result = untraced(bench, inputs, args.seconds, setup_samples)
    finally:
        bench.close()

    print("env", json.dumps(environment(), sort_keys=True))
    for rung in generator.rungs(args.workload):
        print("rung", json.dumps(rung.describe(), sort_keys=True))
    for name, value in result["info"].items():
        print(f"info {name} {value}")
    for name, (value, unit) in {**result.get("reported", {}), **result["metrics"]}.items():
        print(f"metric {name} {value} {unit}")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
