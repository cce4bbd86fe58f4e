"""Config ingestion, the command surface, and report emission.

Config files are flat sectioned text: ``[system]``, ``[potential]``, optional
``[constraints]`` and ``[solver]`` blocks of ``key = value`` lines, read as
UTF-8 bytes with a leading byte-order mark dropped. Every weight is an exact
rational string ("3", "-1/2"); floating literals are rejected at parse time
so exactness survives the boundary. A line ends only at CR LF, CR or LF, so
a form feed or U+2028 inside a comment stays in the comment. One reader
takes every line: it cuts off a '#' comment, splits the rest at the first
'=', and reads the symbol tokens of a window, phi or row line with int().
Each distinct weight text is parsed once, and the windows go into the
potential's table in one update. Reports are JSON (default) or CSV, byte-stable for a fixed
config: rationals are emitted as "n/d" strings and floats appear only
inside discount traces. The excursion matrix is turned into text one int
row over D at a time, and both its formats are written from each row's
strings: CSV lines are the fields joined by commas, and the JSON "phi"
block is written row by row as json.dumps(indent=2, sort_keys=True) would
write it, since every field is digits, '-' or '/', which neither csv.writer
quotes nor JSON escapes. The other reports go through json.dumps, and the
flattened key/value CSV, whose notes can hold commas, through csv.writer.

Exit codes: 0 ok, 1 check-suite failure, 2 config error (also an
unwritable --out path), 3 hypothesis not met (reducible system, class
count mismatch, infeasible target, ...), 4 non-convergence.

The command line is read from one table of commands and options
(``_COMMON`` and ``_COMMANDS``). A plain ``COMMAND --OPTION VALUE ...``
argument list is read straight from it; argparse parsers are built from
it only for help, usage errors and other forms, so their output is
argparse's own.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import add
from pathlib import Path
from typing import Callable, Sequence

from .errors import (
    ClassCountMismatch,
    ConfigError,
    ErgoptError,
    NonConvergence,
    NotTransitive,
    OracleBudgetExceeded,
)
from .graph_engine import (
    ManeMatrix,
    PrependGraph,
    build_prepend_graph,
    max_mean_cycle,
    parametric_beta,
)
from .holonomic_opt import alpha, beta_lp, constrained_beta, face_contains, maximizing_face
from .mane_aubry import (
    BoundaryData,
    is_compatible,
    maximal_calibrated,
    mane_family_subaction,
    omega_membership,
    omega_set,
    reconstruct,
    represent,
)
from .oracle_bruteforce import oracle_beta, oracle_omega
from .potential_model import ConstraintSpec, LocallyConstantPotential
from .subaction_lab import (
    SCHEDULE_K_MAX,
    calibrated_via_discount,
    calibration_residual,
    contact_locus,
    contact_sources,
    is_subaction,
    livsic_test,
    maximal_subaction,
    refine_subaction_Uk,
    subaction_residual,
)
from .symbolic_core import SubshiftSystem, classify_transitivity, point

Word = tuple[int, ...]

_SECTIONS = ("system", "potential", "constraints", "solver")


# ---------------------------------------------------------------------------
# configuration parsing


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description: instance, optional constraints, solver."""

    system: SubshiftSystem
    potential: LocallyConstantPotential
    constraints: ConstraintSpec | None = None
    schedule_k_max: int = SCHEDULE_K_MAX


_TOO_LONG = "integer literal has too many digits"

# The longest window p + q, and the most allowed words of one window length:
# every command was measured at 2048 graph nodes, which a full 2-shift
# reaches at 4096 windows. A window past either bound is a config error.
MAX_WINDOW_LENGTH = 64
MAX_WINDOW_WORDS = 2 ** 12


def _parse_rational(text: str, line: int | None, field: str) -> Fraction:
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if not (digits.isdecimal() and (den.isdecimal() or not slash)):
        raise ConfigError(f"expected a rational 'n' or 'n/d', got {text!r}", line, field)
    try:
        if not slash:
            return Fraction(int(num))
        n, d = int(num), int(den)
    except ValueError:  # past the interpreter's digit limit for int()
        raise ConfigError(_TOO_LONG, line, field) from None
    if d == 0:
        raise ConfigError("zero denominator", line, field)
    return Fraction(n, d)


# the literals int() reads in base 10 with no space around them, as in a
# config value; its digits are those \d matches
_INT_LITERAL = re.compile(r"[+-]?\d+(?:_\d+)*")


def _parse_int(text: str, line: int, field: str) -> int:
    try:
        return int(text)
    except ValueError:
        if _INT_LITERAL.fullmatch(text):  # past the interpreter's digit limit for int()
            raise ConfigError(_TOO_LONG, line, field) from None
        raise ConfigError(f"expected an integer, got {text!r}", line, field) from None


def _parse_symbols(tokens: Sequence[str], line: int, field: str) -> Word:
    # isdecimal, not isdigit: int() rejects digits such as '\u00b2'
    if not all(map(str.isdecimal, tokens)):
        bad = next(t for t in tokens if not t.isdecimal())
        raise ConfigError(f"symbols must be nonnegative integers, got {bad!r}", line, field)
    try:
        return tuple(map(int, tokens))
    except ValueError:  # past the interpreter's digit limit for int()
        raise ConfigError(_TOO_LONG, line, field) from None


def parse_config_text(text: str, source: str = "<string>") -> ExperimentConfig:
    """Parse sectioned key-value config text into an ExperimentConfig."""
    section: str | None = None
    section_lines: dict[str, int] = {}
    scalars: dict[tuple[str, str], tuple[str, int]] = {}
    rows: list[tuple[Word, int]] = []
    # each window's value, and its line number in a parallel list
    windows: dict[Word, Fraction] = {}
    window_lines: list[int] = []
    phi_entries: dict[int, tuple[dict[Word, Fraction], list[int]]] = {}
    # each distinct weight text is parsed once; a bad one raises at its first line
    rationals: dict[str, Fraction] = {}

    # a line ends at '\n', '\r\n' or '\r' only; str.splitlines would also end
    # one at '\v', '\f', '\x1c'-'\x1e', U+0085, U+2028 or U+2029 in a comment
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line[0] == "[":
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section {name!r}", lineno)
            if name in section_lines:
                raise ConfigError(f"duplicate section {name!r}", lineno)
            section_lines[name] = lineno
            section = name
            continue
        if section is None:
            raise ConfigError("key before any section header", lineno)
        lhs, eq, rhs = line.partition("=")
        parts = lhs.split()
        if not (eq and parts):
            raise ConfigError("expected 'key = value'", lineno)
        key = parts[0]
        rhs = rhs.strip()
        if key == "window" and section == "potential":
            table, lines = windows, window_lines
        elif key == "row" and section == "system":
            if len(parts) != 1:
                raise ConfigError("row takes its entries on the right of '='", lineno, "row")
            rows.append((_parse_symbols(rhs.split(), lineno, "row"), lineno))
            continue
        elif section == "constraints" and re.fullmatch(r"phi[1-9][0-9]*", key):
            table, lines = phi_entries.setdefault(_parse_int(key[3:], lineno, key), ({}, []))
        else:
            if len(parts) != 1:
                raise ConfigError(f"unexpected tokens after key {key!r}", lineno, key)
            if (section, key) in scalars:
                raise ConfigError(f"duplicate key {key!r}", lineno, key)
            scalars[(section, key)] = (rhs, lineno)
            continue
        symbols = _parse_symbols(parts[1:], lineno, key)
        if symbols in table:
            raise ConfigError(f"duplicate window {symbols}", lineno, key)
        value = rationals.get(rhs)
        if value is None:
            value = rationals[rhs] = _parse_rational(rhs, lineno, key)
        table[symbols] = value
        lines.append(lineno)

    for required in ("system", "potential"):
        if required not in section_lines:
            raise ConfigError(f"missing [{required}] section in {source}")

    allowed_scalars = {
        "system": {"alphabet_size", "lambda"},
        "potential": {"past_depth", "future_depth"},
        "constraints": {"c", "h"},
        "solver": {"schedule_k_max"},
    }
    for (sec, key), (_, lineno) in scalars.items():
        if key not in allowed_scalars[sec]:
            raise ConfigError(f"unknown key {key!r} in [{sec}]", lineno, key)

    system = _build_system(scalars, rows, section_lines["system"])
    potential = _build_potential(system, scalars, windows, window_lines, section_lines["potential"])
    constraints = _build_constraints(
        system, potential.past_depth, scalars, phi_entries, section_lines.get("constraints")
    )

    k_max = SCHEDULE_K_MAX
    if ("solver", "schedule_k_max") in scalars:
        text_value, lineno = scalars[("solver", "schedule_k_max")]
        k_max = _parse_int(text_value, lineno, "schedule_k_max")
        if not 1 <= k_max <= 64:
            raise ConfigError("schedule_k_max must be in [1, 64]", lineno, "schedule_k_max")

    return ExperimentConfig(system, potential, constraints, k_max)


def _build_system(scalars, rows, header_line) -> SubshiftSystem:
    if ("system", "alphabet_size") not in scalars:
        raise ConfigError("missing alphabet_size", header_line, "alphabet_size")
    size_text, size_line = scalars[("system", "alphabet_size")]
    size = _parse_int(size_text, size_line, "alphabet_size")
    if size < 1:
        raise ConfigError("alphabet_size must be >= 1", size_line, "alphabet_size")
    if size > 10:
        # report keys write each symbol as one decimal digit
        raise ConfigError("alphabet_size must be at most 10", size_line, "alphabet_size")
    if len(rows) != size:
        raise ConfigError(
            f"expected {size} row lines, found {len(rows)}", header_line, "row"
        )
    lam = Fraction(1, 2)
    if ("system", "lambda") in scalars:
        lam_text, lam_line = scalars[("system", "lambda")]
        lam = _parse_rational(lam_text, lam_line, "lambda")
        if not 0 < lam < 1:
            raise ConfigError("lambda must lie strictly between 0 and 1", lam_line, "lambda")
    for row, lineno in rows:
        if len(row) != size or any(v not in (0, 1) for v in row):
            raise ConfigError(f"row must hold {size} entries of 0 or 1", lineno, "row")
    try:
        return SubshiftSystem(size, tuple(row for row, _ in rows), lam)
    except ValueError as exc:
        raise ConfigError(str(exc), header_line) from None


def _check_window_size(system: SubshiftSystem, length: int, line: int | None, field: str | None) -> None:
    """Raise ConfigError when the allowed words of this length are too long or too many.

    The count is 1^T A^(length-1) 1 for the transition matrix A. Every
    symbol has a successor, so the count never falls as the length grows,
    and the product stops as soon as it passes the bound.
    """
    if length > MAX_WINDOW_LENGTH:
        raise ConfigError(
            f"window length {length} is above the bound {MAX_WINDOW_LENGTH}", line, field
        )
    columns = list(zip(*system.transition))
    counts = [1] * system.alphabet_size  # allowed words of each length ending in each symbol
    for _ in range(length - 1):
        counts = [sum(compress(counts, column)) for column in columns]
        if sum(counts) > MAX_WINDOW_WORDS:
            raise ConfigError(
                f"window length {length} allows more than {MAX_WINDOW_WORDS} words",
                line,
                field,
            )


def _build_potential(system, scalars, windows, window_lines, header_line) -> LocallyConstantPotential:
    depths = {}
    for field in ("past_depth", "future_depth"):
        if ("potential", field) not in scalars:
            raise ConfigError(f"missing {field}", header_line, field)
        text_value, lineno = scalars[("potential", field)]
        depths[field] = _parse_int(text_value, lineno, field)
        if depths[field] < 1:
            raise ConfigError(f"{field} must be >= 1", lineno, field)
    width = depths["past_depth"] + depths["future_depth"]
    _check_window_size(system, width, header_line, None)
    try:
        return LocallyConstantPotential(
            system, depths["past_depth"], depths["future_depth"], windows
        )
    except ValueError as exc:
        # a window of another length or off the alphabet is no allowed word;
        # the first such window in line order names the error
        for symbols, lineno in zip(windows, window_lines):
            if len(symbols) != width:
                raise ConfigError(
                    f"window needs {width} symbols, got {len(symbols)}", lineno, "window"
                ) from None
            if max(symbols) >= system.alphabet_size:
                raise ConfigError("window symbol outside the alphabet", lineno, "window") from None
        raise ConfigError(str(exc), header_line) from None


def _build_constraints(system, past_depth, scalars, phi_entries, header_line) -> ConstraintSpec | None:
    has_vector = ("constraints", "c") in scalars or ("constraints", "h") in scalars
    if header_line is None or (not phi_entries and not has_vector):
        return None
    if not phi_entries:
        raise ConfigError("constraints block has no phi tables", header_line)
    count = max(phi_entries)
    if sorted(phi_entries) != list(range(1, count + 1)):
        raise ConfigError(
            f"phi indices must run 1..{count} without gaps", header_line
        )
    components = []
    for index in range(1, count + 1):
        table, lines = phi_entries[index]
        widths = {len(symbols) for symbols in table}
        lineno = lines[0]
        if len(widths) != 1:
            raise ConfigError(f"phi{index} windows differ in length", lineno, f"phi{index}")
        width = widths.pop()
        if width < 2:
            raise ConfigError(f"phi{index} windows need >= 2 symbols", lineno, f"phi{index}")
        # constrained_beta pads the potential's windows to this future depth
        _check_window_size(system, past_depth + width - 1, lineno, f"phi{index}")
        for symbols, line in zip(table, lines):
            if any(s >= system.alphabet_size for s in symbols):
                raise ConfigError("window symbol outside the alphabet", line, f"phi{index}")
        try:
            components.append(LocallyConstantPotential(system, 1, width - 1, table))
        except ValueError as exc:
            raise ConfigError(str(exc), lineno, f"phi{index}") from None

    if ("constraints", "c") in scalars and ("constraints", "h") in scalars:
        _, lineno = scalars[("constraints", "h")]
        raise ConfigError("give c or h, not both", lineno, "h")
    target = multiplier = None
    for field, slot in (("c", "multiplier"), ("h", "target")):
        if ("constraints", field) in scalars:
            text_value, lineno = scalars[("constraints", field)]
            vector = tuple(
                _parse_rational(tok, lineno, field) for tok in text_value.split()
            )
            if len(vector) != count:
                raise ConfigError(
                    f"{field} needs {count} entries, got {len(vector)}", lineno, field
                )
            if slot == "target":
                target = vector
            else:
                multiplier = vector
    try:
        return ConstraintSpec(tuple(components), target=target, multiplier=multiplier)
    except ValueError as exc:
        raise ConfigError(str(exc), header_line) from None


_BOM = b"\xef\xbb\xbf"


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse the UTF-8 config file at path; a leading byte-order mark is dropped."""
    try:
        data = Path(path).read_bytes()
        # as the utf-8-sig stream decoder, drop a byte-order mark, or the
        # start of one that ends the file
        text = (data[3:] if _BOM.startswith(data[:3]) else data).decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    return parse_config_text(text, source=str(path))


# ---------------------------------------------------------------------------
# report helpers


def _too_many_digits() -> ConfigError:
    """The error for a result that str() refuses past the interpreter's digit limit."""
    limit = sys.get_int_max_str_digits()
    return ConfigError(
        f"a result has more digits than the interpreter's limit of {limit} for printing an integer"
    )


def _rat(x: Fraction) -> str:
    """x as "n/d"; a Fraction is already in lowest terms."""
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # past the interpreter's digit limit for str()
        raise _too_many_digits() from None


def _rat_note(x: Fraction) -> str:
    """_rat of x for a check note, or words in its place past the digit limit."""
    try:
        return _rat(x)
    except ConfigError:
        return "(too long to print)"


def _word_str(word: Word) -> str:
    return "".join(map(str, word))


def _node_values(u, graph: PrependGraph) -> dict[str, str]:
    return {_word_str(w): _rat(u[i]) for i, w in enumerate(graph.nodes)}


def _edge_keys(indices, graph: PrependGraph) -> list[str]:
    return sorted(_word_str(graph.edges[i].key) for i in indices)


def _graph_of(config: ExperimentConfig) -> PrependGraph:
    return build_prepend_graph(config.system, config.potential)


def _require_transitive(config: ExperimentConfig) -> None:
    if classify_transitivity(config.system).kind == "reducible":
        raise NotTransitive("command requires a transitive system")


# ---------------------------------------------------------------------------
# commands


def cmd_beta(config: ExperimentConfig) -> dict:
    """Optimal average by three routes plus a dual certificate."""
    graph = _graph_of(config)
    cycle = max_mean_cycle(graph)
    parametric = parametric_beta(graph)
    lp_value, _ = beta_lp(graph)
    report = {
        "beta": _rat(cycle.beta),
        "methods_agree": cycle.beta == parametric == lp_value,
        "witness_cycle": [_word_str(e.key) for e in cycle.witness_cycle],
        "certificate_subaction": {
            _word_str(w): _rat(-h) for w, h in zip(graph.nodes, cycle.potential)
        },
    }
    if config.constraints is not None and config.constraints.target is not None:
        report["constrained_beta"] = _rat(constrained_beta(graph, config.constraints))
    return report


def cmd_subaction(config: ExperimentConfig, kind: str = "maximal") -> dict:
    """Sub-action of the requested kind with residuals and contact locus."""
    graph = _graph_of(config)
    beta = max_mean_cycle(graph).beta
    report: dict = {"kind": kind, "beta": _rat(beta)}
    if kind == "maximal":
        u = maximal_subaction(graph, beta)
    elif kind == "u0":
        _require_transitive(config)
        u = maximal_calibrated(graph)
    elif kind == "calibrated":
        _require_transitive(config)
        steps: list = []
        u, _ = calibrated_via_discount(graph, config.schedule_k_max, steps)
        report["discount_trace"] = [
            {"k": k, "rho": _rat(rho), "a_float": float(a_est)}
            for k, (rho, a_est) in enumerate(steps, 1)
        ]
    else:
        raise ConfigError(f"unknown sub-action kind {kind!r}")
    worst, _ = subaction_residual(u, graph, beta)
    report["values"] = _node_values(u, graph)
    report["residuals"] = {
        "worst_edge_slack": _rat(worst),
        "calibration": _rat(calibration_residual(u, graph, beta)),
    }
    report["contact_locus"] = _edge_keys(contact_locus(u, graph, beta).edges, graph)
    return report


def cmd_mane(config: ExperimentConfig) -> dict:
    """Excursion-cost matrix, critical classes, and non-wandering summary."""
    _require_transitive(config)
    graph = _graph_of(config)
    omega = omega_set(graph)
    words = [_word_str(w) for w in graph.nodes]
    D = omega.mane.D
    try:
        # each entry c / D in lowest terms, one row of strings at a time
        matrix = {
            src: dict(zip(words, [f"{c // (g := math.gcd(c, D))}/{D // g}" for c in row]))
            for src, row in zip(words, omega.mane.cost)
        }
    except ValueError:  # past the interpreter's digit limit for str()
        raise _too_many_digits() from None
    return {
        "beta": _rat(omega.beta),
        "phi": matrix,
        "critical_nodes": sorted(words[i] for i in omega.critical.critical_nodes),
        "critical_edges": _edge_keys(omega.critical.critical_edges, graph),
        "classes": [
            sorted(words[i] for i in cls) for cls in omega.critical.classes
        ],
    }


def cmd_classify(config: ExperimentConfig, boundary: Sequence[Fraction]) -> dict:
    """Reconstruct a calibrated sub-action from one value per critical class."""
    _require_transitive(config)
    graph = _graph_of(config)
    omega = omega_set(graph)
    classes = omega.critical.classes
    if len(boundary) != len(classes):
        raise ClassCountMismatch(
            f"{len(classes)} critical classes need {len(classes)} values, got {len(boundary)}"
        )
    data = BoundaryData(omega, tuple(boundary))
    compatible = is_compatible(data)
    u = reconstruct(data)
    back = represent(u, omega)
    round_trip = reconstruct(back).values == u.values
    return {
        "boundary_in": [_rat(v) for v in data.values],
        "compatible": compatible,
        "values": _node_values(u, graph),
        "boundary_out": [_rat(v) for v in back.values],
        "round_trip": round_trip,
    }


def cmd_alpha(config: ExperimentConfig) -> dict:
    """Legendre value of the constrained family at the config's multiplier."""
    if config.constraints is None or config.constraints.multiplier is None:
        raise ConfigError("alpha needs a [constraints] block with a c vector")
    graph = _graph_of(config)
    value = alpha(graph, config.constraints)
    return {
        "multiplier": [_rat(c) for c in config.constraints.multiplier],
        "alpha": _rat(value),
    }


def _check_items(
    config: ExperimentConfig,
) -> list[tuple[str, bool, Callable[[], tuple[str, str]]]]:
    """(name, needs a transitive system, run) for each invariant check."""
    graph = _graph_of(config)
    beta = max_mean_cycle(graph).beta

    def beta_methods() -> tuple[str, str]:
        parametric = parametric_beta(graph)
        lp_value, _ = beta_lp(graph)
        ok = beta == parametric == lp_value
        return ("pass" if ok else "fail", f"beta {_rat_note(beta)} by three methods")

    def beta_oracle() -> tuple[str, str]:
        try:
            value = oracle_beta(config.system, config.potential, len(graph.nodes) + 1)
        except OracleBudgetExceeded as exc:
            return ("skip", str(exc))
        return ("pass" if value == beta else "fail", f"oracle beta {_rat_note(value)}")

    def maximal_valid() -> tuple[str, str]:
        u = maximal_subaction(graph, beta)
        ok = is_subaction(u, graph, beta) and all(v <= 0 for v in u.values)
        return ("pass" if ok else "fail", "maximal sub-action nonpositive and feasible")

    def refinement() -> tuple[str, str]:
        u = maximal_subaction(graph, beta)
        refined = refine_subaction_Uk(u, graph, 2)
        base_sources = {
            graph.nodes[s]
            for s in _contact_source_indices(u, graph, beta)
        }
        fine = refined.graph
        fine_beta = max_mean_cycle(fine).beta
        for s in _contact_source_indices(refined, fine, fine_beta):
            word = fine.nodes[s]
            if any(word[j : j + graph.q] not in base_sources for j in range(2)):
                return ("fail", f"refined contact source {word} escapes the base locus")
        return ("pass", "k=2 contact sources project into the base locus")

    def face_support() -> tuple[str, str]:
        _, measure = beta_lp(graph)
        ok = face_contains(maximizing_face(graph), measure)
        return ("pass" if ok else "fail", "optimal circulation sits on critical edges")

    def calibrated_discount() -> tuple[str, str]:
        # calibrated_via_discount checks the policy's gain against beta
        u, _ = calibrated_via_discount(graph, config.schedule_k_max)
        ok = calibration_residual(u, graph, beta) == 0
        return ("pass" if ok else "fail", "discount limit exactly calibrated")

    def mane_triangle() -> tuple[str, str]:
        defect = _excursion_cost_defect(graph, beta, omega_set(graph).mane)
        if defect is not None:
            return ("fail", defect)
        return ("pass", "excursion costs satisfy the triangle inequality")

    def mane_diagonal() -> tuple[str, str]:
        omega = omega_set(graph)
        for i in range(len(graph.nodes)):
            zero = omega.mane.row(i)[i] == 0
            if zero != (i in omega.critical.critical_nodes):
                return ("fail", f"diagonal mismatch at node {i}")
        return ("pass", "zero diagonal exactly on critical nodes")

    def representation() -> tuple[str, str]:
        omega = omega_set(graph)
        u = maximal_calibrated(graph, omega)
        ok = reconstruct(represent(u, omega)).values == u.values
        return ("pass" if ok else "fail", "boundary-data round trip is exact")

    def family_calibrated() -> tuple[str, str]:
        omega = omega_set(graph)
        cycle = max_mean_cycle(graph).witness_cycle
        x = point("", tuple(e.symbol for e in reversed(cycle)))
        u = mane_family_subaction(omega, x)
        ok = calibration_residual(u, graph, beta) == 0
        return ("pass" if ok else "fail", "excursion-cost family member calibrated")

    def omega_oracle() -> tuple[str, str]:
        omega = omega_set(graph)
        cycle = max_mean_cycle(graph).witness_cycle
        samples = [point("", tuple(e.symbol for e in reversed(cycle)))]
        samples += [
            point("", (s,)) for s in config.system.symbols() if config.system.allows(s, s)
        ]
        # a zero-gain return that agrees with x on q + 1 symbols ends on the
        # window edge at x's front, so at that distance the oracle's answer
        # on a fixed point is its membership; a coarser eps only asks for a
        # zero-gain closed walk through x's first window
        eps = min(Fraction(1, 64), config.system.metric_lambda ** (graph.q + 1))
        over: list[str] = []
        for x in samples:
            try:
                expected = oracle_omega(config.system, config.potential, beta, x, eps)
            except OracleBudgetExceeded as exc:
                over.append(str(exc))
                continue
            if omega_membership(omega, x) != expected:
                return ("fail", f"membership disagrees on {x.symbols(4)}")
        if len(over) == len(samples):
            return ("skip", over[0])
        note = f"membership matches the oracle on {len(samples) - len(over)} points"
        if over:
            note += f"; {len(over)} over budget, first: {over[0]}"
        return ("pass", note)

    def livsic_sign() -> tuple[str, str]:
        # livsic_test raises when beta(A) + beta(-A) is negative
        livsic_test(graph)
        return ("pass", "cohomology defect is nonnegative")

    return [
        ("beta_methods_agree", False, beta_methods),
        ("beta_oracle", False, beta_oracle),
        ("calibrated_discount", True, calibrated_discount),
        ("face_support", False, face_support),
        ("family_calibrated", True, family_calibrated),
        ("livsic_sign", True, livsic_sign),
        ("mane_diagonal", True, mane_diagonal),
        ("mane_triangle", True, mane_triangle),
        ("maximal_subaction", False, maximal_valid),
        ("omega_oracle", True, omega_oracle),
        ("refinement_inclusion", False, refinement),
        ("representation_roundtrip", True, representation),
    ]


def _excursion_cost_defect(
    graph: PrependGraph, beta: Fraction, mane: ManeMatrix
) -> str | None:
    """Where the excursion matrix differs from the least path costs, or None.

    A certificate that shares no code with the solver. The arcs are
    c = D * (beta - weight), read off ``graph.edges``, and row i of the
    matrix (ints over D, None where no path leads) must satisfy:

    (a) M[i][t] <= c on every out-arc (i, t, c);
    (b) M[i][b] <= M[i][a] + c on every arc (a, b, c) with M[i][a] finite,
        and M[i][b] is then finite too;
    (c) every finite M[i][v] is reached from i along arcs tight in row i,
        the first of them an out-arc (i, t, c) with M[i][t] = c.

    (a) and (b) put the row at or below the least costs of nonempty paths
    from i, and (c) exhibits a path of each finite cost, so the row is
    exactly those costs, None exactly where no path leads, and the triangle
    inequality follows. Each row costs O(n + m).
    """
    D = mane.D
    out: list[list[tuple[int, int]]] = [[] for _ in graph.nodes]
    for e in graph.edges:
        c = D * (beta - e.weight)
        if c.denominator != 1:
            return f"the arc {e.src} -> {e.tgt} costs no int over D = {D}"
        out[e.src].append((e.tgt, c.numerator))
    for i, out_i in enumerate(out):
        row = mane.row(i)
        for t, c in out_i:
            if row[t] is None or row[t] > c:
                return f"row {i} exceeds the arc {i} -> {t}"
        for a, ra in enumerate(row):
            if ra is not None:
                for b, c in out[a]:
                    rb = row[b]
                    if rb is None or rb > ra + c:
                        return f"row {i} exceeds the path through the arc {a} -> {b}"
        reached = [False] * len(row)
        stack = []
        for t, c in out_i:
            if row[t] == c and not reached[t]:
                reached[t] = True
                stack.append(t)
        while stack:
            a = stack.pop()
            ra = row[a]
            for b, c in out[a]:
                if not reached[b] and row[b] == ra + c:
                    reached[b] = True
                    stack.append(b)
        for v, rv in enumerate(row):
            if rv is not None and not reached[v]:
                return f"row {i} at {v} is attained by no path"
    return None


def _contact_source_indices(u, graph: PrependGraph, beta: Fraction) -> frozenset[int]:
    return contact_sources(contact_locus(u, graph, beta), graph)


def cmd_check(config: ExperimentConfig) -> dict:
    """Run the invariant suite (oracles included) against one config.

    A check that raises an ErgoptError, or an AssertionError from a guard
    on an internal result, reports status "error" with the message as its
    note; the suite goes on with the next check. The omega oracle check
    compares every sample whose search stays within the state budget and
    names the others in its note; it reports "skip" only when every sample
    passes the budget, which leaves "ok" as it is. The beta oracle check
    reports "skip" when its word budget is passed.
    """
    items = _check_items(config)
    transitive = classify_transitivity(config.system).kind != "reducible"
    checks = []
    for name, needs_transitive, run in items:
        if needs_transitive and not transitive:
            status, note = "skip", "system not transitive; calibrated checks skipped"
        else:
            try:
                status, note = run()
            except (ErgoptError, AssertionError) as exc:
                status, note = "error", str(exc)
        checks.append({"name": name, "status": status, "note": note})
    return {
        "checks": checks,
        "ok": all(c["status"] not in ("fail", "error") for c in checks),
    }


# ---------------------------------------------------------------------------
# emission


def _flatten(prefix: str, obj, rows: list[tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], rows)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _flatten(f"{prefix}[{i}]", item, rows)
    else:
        rows.append((prefix, "" if obj is None else str(obj)))


def _mane_json(report: dict) -> str:
    """json.dumps(report, indent=2, sort_keys=True) of a mane report, phi row by row.

    Every other key sorts before "phi", so json.dumps writes the rest and
    phi's block closes the object. Its rows and each row's entries come in
    word order, which is sorted order, and every string is digits, '-' or
    '/', which JSON never escapes.
    """
    phi = report["phi"]
    head = json.dumps({k: v for k, v in report.items() if k != "phi"}, indent=2, sort_keys=True)
    prefixes = [f'      "{word}": "' for word in phi]
    rows = [
        f'    "{src}": {{\n' + '",\n'.join(map(add, prefixes, row.values())) + '"\n    }'
        for src, row in phi.items()
    ]
    return head[:-2] + ',\n  "phi": {\n' + ",\n".join(rows) + "\n  }\n}\n"


def render_report(report: dict, fmt: str, command: str) -> str:
    """The report as text: JSON with sorted keys and an indent of 2, or CSV.

    The mane report is written row by row from its strings (``_mane_json``,
    and CSV lines of fields joined by commas: every field is digits, '-' or
    '/', which csv.writer never quotes). The key/value CSV of the other
    reports, whose notes can hold commas, goes through csv.writer.
    """
    if command == "mane":
        if fmt == "json":
            return _mane_json(report)
        phi = report["phi"]
        lines = [",".join(["src", *phi])]
        lines += [",".join([src, *row.values()]) for src, row in phi.items()]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["key", "value"])
    rows: list[tuple[str, str]] = []
    _flatten("", report, rows)
    writer.writerows(rows)
    return buffer.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_bytes(text.encode())
        except OSError as exc:
            raise ConfigError(f"cannot write report: {exc}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# entry point


def _parse_boundary(text: str) -> tuple[Fraction, ...]:
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    if not tokens:
        raise ConfigError("boundary vector is empty", field="boundary")
    return tuple(_parse_rational(tok, None, "boundary") for tok in tokens)


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "schedule", None) is None:
        return config
    if not 1 <= args.schedule <= 64:
        raise ConfigError("schedule k_max must be in [1, 64]", field="schedule")
    return dataclasses.replace(config, schedule_k_max=args.schedule)


_COMMON = (
    ("--config", {"required": True, "help": "config file path"}),
    ("--out", {"help": "write the report here instead of stdout"}),
    ("--format", {"choices": ("json", "csv"), "default": "json"}),
)
_SCHEDULE = ("--schedule", {"type": int, "help": "override discount schedule k_max"})

# command -> (help, the options it adds after the common ones)
_COMMANDS = {
    "beta": ("optimal average with certificate", ()),
    "subaction": (
        "maximal, calibrated, or u0 sub-action",
        (_SCHEDULE, ("--kind", {"choices": ("maximal", "calibrated", "u0"), "default": "maximal"})),
    ),
    "mane": ("excursion costs and critical classes", ()),
    "classify": (
        "calibrated sub-action from boundary data",
        (("--boundary", {"required": True, "help": "one rational per critical class"}),),
    ),
    "alpha": ("Legendre value at the config's multiplier", ()),
    "check": ("invariant suite including oracles", (_SCHEDULE,)),
}


def _build_parser() -> argparse.ArgumentParser:
    """The ergopt parser, every command's subparser built from the table."""
    parser = argparse.ArgumentParser(
        prog="ergopt",
        description="Exact reports for optimal averages on subshifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in _COMMON + options:
            p.add_argument(flag, **kwargs)
    return parser


def _plain_args(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace of a plain ``COMMAND (--OPTION VALUE)*`` argv, or None.

    Plain means a known command, then each of its options by full name, at
    most once, with a value that does not start with '-', is among the
    option's choices and, for an int option, is ASCII digits within int()'s
    digit limit; every required option is given. Such an argv parses the
    same with argparse, so it is read straight from the option table; any
    other argv returns None.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    given = dict(zip(argv[1::2], argv[2::2]))
    if 2 * len(given) + 1 != len(argv):  # a repeated option or a missing value
        return None
    args = argparse.Namespace(command=argv[0])
    for flag, kwargs in _COMMON + _COMMANDS[argv[0]][1]:
        value = given.pop(flag, None)
        if value is None:
            if kwargs.get("required"):
                return None
            value = kwargs.get("default")
        elif value.startswith("-") or value not in kwargs.get("choices", (value,)):
            return None
        elif kwargs.get("type") is int:
            if not (value.isascii() and value.isdecimal()):
                return None
            try:
                value = int(value)
            except ValueError:  # past the digit limit: argparse reports it
                return None
        setattr(args, flag[2:], value)
    return None if given else args


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or _build_parser().parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
        if args.command == "beta":
            report = cmd_beta(config)
        elif args.command == "subaction":
            report = cmd_subaction(config, args.kind)
        elif args.command == "mane":
            report = cmd_mane(config)
        elif args.command == "classify":
            report = cmd_classify(config, _parse_boundary(args.boundary))
        elif args.command == "alpha":
            report = cmd_alpha(config)
        else:
            report = cmd_check(config)
        _emit(render_report(report, args.format, args.command), args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 4
    except ErgoptError as exc:
        print(f"hypothesis not met: {exc}", file=sys.stderr)
        return 3
    if args.command == "check" and not report["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
