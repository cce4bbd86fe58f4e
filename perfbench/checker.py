"""Checks on every report the benchmark gets back from ``ergopt``.

An operation passes when its exit code is the expected one and, for exit 0,
its report passes the checks of its command:

- ``beta``: ``methods_agree`` is true, and the witness cycle is a closed walk
  whose mean, recomputed here from the config's window table (maximum over
  past tails), equals ``beta``; ``constrained_beta`` is present exactly when
  the config has a moment target.
- ``alpha``: the value parses as a rational.
- ``mane``: the matrix (JSON or CSV) parses; the critical classes derived from
  it (zero diagonal, and i ~ j when phi(i, j) + phi(j, i) = 0) match the
  report's own ``critical_nodes`` and ``classes`` where it lists them. Their
  count sizes the zero boundary of the next ``classify``.
- ``classify``: ``round_trip`` is true.
- ``subaction``: ``worst_edge_slack <= 0`` and ``calibration == "0/1"``.
- ``check``: ``ok`` is true.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction

# Exit codes the CLI documents for a refusal that carries no answer (4:
# non-convergence). A failure with one of these is counted in ``failed`` but
# is not a wrong answer; any other failure is.
REFUSALS = frozenset({4})


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    classes: int | None = None  # class count derived from a mane report


def edge_weights(table: dict, p: int) -> dict:
    """Reduced edge weights: each (1+q)-key gets the max over its past tails."""
    weights: dict = {}
    for window, value in table.items():
        key = window[p - 1:]
        if key not in weights or value > weights[key]:
            weights[key] = value
    return weights


def _word(text: str) -> tuple[int, ...]:
    return tuple(int(ch) for ch in text)


def check_beta(report: dict, instance) -> str:
    if report.get("methods_agree") is not True:
        return "methods_agree is not true"
    if ("constrained_beta" in report) != instance.has_target:
        return "constrained_beta present without a target, or missing with one"
    keys = [_word(k) for k in report["witness_cycle"]]
    if not keys:
        return "empty witness cycle"
    for a, b in zip(keys, keys[1:] + keys[:1]):
        if a[: len(a) - 1] != b[1:]:
            return f"witness cycle is not a closed walk at {a} -> {b}"
    weights = edge_weights(instance.table, instance.p)
    try:
        mean = sum(weights[k] for k in keys) / len(keys)
    except KeyError as exc:
        return f"witness edge {exc} is not an allowed window"
    if mean != Fraction(report["beta"]):
        return f"witness mean {mean} != beta {report['beta']}"
    return ""


def _matrix_from_csv(text: str) -> tuple[list[str], list[list[Fraction]]]:
    rows = list(csv.reader(io.StringIO(text)))
    words = rows[0][1:]
    if [r[0] for r in rows[1:]] != words:
        raise ValueError("row labels differ from column labels")
    return words, [[Fraction(v) for v in r[1:]] for r in rows[1:]]


def critical_classes(words: list[str], phi: list[list[Fraction]]) -> list[list[str]]:
    """Critical nodes grouped by phi(i, j) + phi(j, i) == 0."""
    critical = [i for i in range(len(words)) if phi[i][i] == 0]
    classes: list[list[int]] = []
    for i in critical:
        for cls in classes:
            j = cls[0]
            if phi[i][j] + phi[j][i] == 0:
                cls.append(i)
                break
        else:
            classes.append([i])
    return sorted(sorted(words[i] for i in cls) for cls in classes)


def check_mane(data: bytes, fmt: str) -> Verdict:
    text = data.decode()
    if fmt == "csv":
        words, phi = _matrix_from_csv(text)
        report = None
    else:
        report = json.loads(text)
        words = sorted(report["phi"])
        phi = [[Fraction(report["phi"][a][b]) for b in words] for a in words]
    classes = critical_classes(words, phi)
    if not classes:
        return Verdict(False, "no critical node on the diagonal")
    if report is not None:
        if sorted(report["critical_nodes"]) != sorted(w for c in classes for w in c):
            return Verdict(False, "critical_nodes disagree with the matrix diagonal")
        if sorted(sorted(c) for c in report["classes"]) != classes:
            return Verdict(False, "classes disagree with the matrix")
    return Verdict(True, classes=len(classes))


def check_subaction(report: dict) -> str:
    residuals = report["residuals"]
    if Fraction(residuals["worst_edge_slack"]) > 0:
        return f"worst_edge_slack {residuals['worst_edge_slack']} > 0"
    if residuals["calibration"] != "0/1":
        return f"calibration residual {residuals['calibration']} != 0/1"
    return ""


def verify(op, instance, rc: int, data: bytes | None) -> Verdict:
    """Judge one operation from its exit code and report bytes."""
    if rc != op.expect_exit:
        return Verdict(False, f"exit {rc}, expected {op.expect_exit}")
    if rc != 0:
        return Verdict(True)
    if data is None:
        return Verdict(False, "no report written")
    try:
        if op.command == "mane":
            return check_mane(data, "csv" if "csv" in op.argv else "json")
        report = json.loads(data)
        if op.command == "beta":
            reason = check_beta(report, instance)
        elif op.command == "alpha":
            Fraction(report["alpha"])
            reason = ""
        elif op.command == "classify":
            reason = "" if report.get("round_trip") is True else "round_trip is not true"
        elif op.command in ("u0", "calibrated"):
            reason = check_subaction(report)
        elif op.command == "check":
            reason = "" if report.get("ok") is True else "check suite not ok"
        else:
            reason = f"no check for command {op.command!r}"
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        reason = f"unreadable report: {type(exc).__name__}: {exc}"
    return Verdict(not reason, reason)
