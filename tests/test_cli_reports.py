"""Config parsing, command reports, exit codes, and byte stability."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import random
import sys
import time
import types
from fractions import Fraction
from functools import cached_property

import pytest

import ergopt.cli_reports as cli_reports
import ergopt.graph_engine as graph_engine
import ergopt.subaction_lab as subaction_lab
from ergopt import fixtures
from ergopt.cli_reports import (
    ExperimentConfig,
    _check_items,
    cmd_alpha,
    cmd_beta,
    cmd_check,
    cmd_classify,
    cmd_mane,
    cmd_subaction,
    load_config,
    main,
    parse_config_text,
    render_report,
)
from ergopt.errors import ConfigError
from ergopt.graph_engine import BetaResult, build_prepend_graph, critical_structure
from ergopt.mane_aubry import omega_set
from ergopt.oracle_bruteforce import BETA_WORD_BUDGET
from ergopt.subaction_lab import SCHEDULE_K_MAX
from ergopt.symbolic_core import allowed_words

from conftest import random_fraction, random_system, two_class_config_text, with_rows
from test_command_gate import random_config

MINIMAL = """
[system]
alphabet_size = 2
row = 1 1
row = 1 1

[potential]
past_depth = 1
future_depth = 1
window 1 1 = 1
"""


def write_fixture(tmp_path, name):
    path = tmp_path / f"{name}.cfg"
    path.write_text(fixtures.fixture_text(name))
    return str(path)


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal():
    config = parse_config_text(MINIMAL)
    assert config.system.alphabet_size == 2
    assert config.potential.value((1, 1)) == 1
    assert config.potential.value((0, 1)) == 0  # unspecified defaults to zero
    assert config.constraints is None


def test_parse_all_fixtures():
    for name in fixtures.available():
        config = fixtures.load(name)
        assert isinstance(config, ExperimentConfig)


def test_parse_constraints_and_solver():
    config = fixtures.load("f5")
    assert config.constraints is not None
    assert config.constraints.multiplier == (Fraction(1, 2),)
    assert config.constraints.components[0].value((1, 0)) == 1


def test_schedule_override():
    assert parse_config_text(MINIMAL).schedule_k_max == SCHEDULE_K_MAX
    config = parse_config_text(MINIMAL + "\n[solver]\nschedule_k_max = 5\n")
    assert config.schedule_k_max == 5


def after(*lines: str) -> str:
    """MINIMAL with the given lines after a blank line; the first one is line 12."""
    return MINIMAL + "\n" + "\n".join(lines) + "\n"


# past the interpreter's default limit of 4300 digits for int() of a string
LONG = "1" * 5000

# the golden-mean shift, which forbids the word 1 1, with its weight moved off it
GOLDEN_MINIMAL = MINIMAL.replace("row = 1 1\n\n", "row = 1 0\n\n").replace(
    "window 1 1 = 1", "window 1 0 = 1"
)

# the characters besides CR and LF at which str.splitlines ends a line; in a
# config they are whitespace, and a comment holding one goes on to the line end
LINE_BREAKS = {
    "\v": "vt", "\f": "ff", "\x1c": "fs", "\x1d": "gs", "\x1e": "rs",
    "\x85": "nel", "\u2028": "ls", "\u2029": "ps",
}


# each config line's outcome: (message, line, field) of the ConfigError, or
# the (word, value) it adds to the potential
@pytest.mark.parametrize(
    "text, expected",
    [
        (after("[system]", "alphabet_size = 2"), ("duplicate section 'system'", 12, None)),
        (after("stray = 1"), ("unknown key 'stray' in [potential]", 12, "stray")),
        (after("window 0 1 = 1.5"), ("expected a rational 'n' or 'n/d', got '1.5'", 12, "window")),
        (after("window 0 1 = 1/0"), ("zero denominator", 12, "window")),
        (after(f"window 0 1 = {LONG}"), ("integer literal has too many digits", 12, "window")),
        (after("window 1 0 = 1_0"), ("expected a rational 'n' or 'n/d', got '1_0'", 12, "window")),
        (after("window 1 1 = 2"), ("duplicate window (1, 1)", 12, "window")),
        (after("window 1 1 1 = 2"), ("window needs 2 symbols, got 3", 12, "window")),
        (after("window = 1"), ("window needs 2 symbols, got 0", 12, "window")),
        (after("window 1 3 = 2"), ("window symbol outside the alphabet", 12, "window")),
        (after("window 10 0 = 2"), ("window symbol outside the alphabet", 12, "window")),
        (after("window 0 \u0663 = 1"), ("window symbol outside the alphabet", 12, "window")),
        (after("window 0 \u00b2 = 1"), ("symbols must be nonnegative integers, got '\u00b2'", 12, "window")),
        (after("window +1 0 = 2"), ("symbols must be nonnegative integers, got '+1'", 12, "window")),
        (after("window 1_0 0 = 2"), ("symbols must be nonnegative integers, got '1_0'", 12, "window")),
        (after("window 0 0 1"), ("expected 'key = value'", 12, None)),
        (after("= 3"), ("expected 'key = value'", 12, None)),
        (
            MINIMAL.replace("row = 1 1\n\n", "row = 1 1\nwindow 0 0 = 1\n\n"),
            ("unexpected tokens after key 'window'", 6, "window"),
        ),
        (
            MINIMAL.replace("row = 1 1\n\n", "row = 1 0\n\n"),
            ("windows not allowed by the transition matrix: [(1, 1)]", 7, None),
        ),
        (after("window 01 0 = 2"), ((1, 0), Fraction(2))),
        (after("window\t0\t1\t=\t3/4"), ((0, 1), Fraction(3, 4))),
        (after("window 0 1 = 3 # note"), ((0, 1), Fraction(3))),
        (after("window 0 1 = -3#note"), ((0, 1), Fraction(-3))),
        (after("[constraints]", "c = 1"), ("constraints block has no phi tables", 12, None)),
        (after("[constraints]", "phi2 0 0 = 1", "c = 1"), ("phi indices must run 1..2 without gaps", 12, None)),
        (after("[constraints]", "phi1 0 0 = 1", "c = 1", "h = 1"), ("give c or h, not both", 15, "h")),
        (after("[constraints]", "phi1 0 0 = 1", "c = 1 2"), ("c needs 1 entries, got 2", 14, "c")),
        (after("[solver]", "schedule_k_max = 0"), ("schedule_k_max must be in [1, 64]", 13, "schedule_k_max")),
        (after("[solver]", "schedule_k_max = x"), ("expected an integer, got 'x'", 13, "schedule_k_max")),
        (after("[solver]", "seed = 0"), ("unknown key 'seed' in [solver]", 13, "seed")),
        *[(after(f"# note{c}more", "window 0 1 = 2"), ((0, 1), Fraction(2))) for c in LINE_BREAKS],
        (
            MINIMAL.replace("past_depth = 1", f"past_depth = {LONG}"),
            ("integer literal has too many digits", 8, "past_depth"),
        ),
        (
            after("[solver]", f"schedule_k_max = {LONG}"),
            ("integer literal has too many digits", 13, "schedule_k_max"),
        ),
        (
            MINIMAL.replace("alphabet_size = 2", "alphabet_size = -1"),
            ("alphabet_size must be >= 1", 3, "alphabet_size"),
        ),
        (
            after("[constraints]", f"phi1{LONG} 0 0 = 1", "c = 1"),
            ("integer literal has too many digits", 13, f"phi1{LONG}"),
        ),
        (
            after("[constraints]", "phi1\u0660 0 0 = 1", "c = 1"),
            ("unexpected tokens after key 'phi1\u0660'", 13, "phi1\u0660"),
        ),
        (after("[solver"), ("unterminated section header", 12, None)),
        (after("[extra]"), ("unknown section 'extra'", 12, None)),
        (
            MINIMAL.replace("row = 1 1", "row 1 = 1", 1),
            ("row takes its entries on the right of '='", 4, "row"),
        ),
        (
            MINIMAL.replace("future_depth = 1", "future_depth = 1\nfuture_depth = 1"),
            ("duplicate key 'future_depth'", 10, "future_depth"),
        ),
        (
            MINIMAL[: MINIMAL.index("[potential]")],
            ("missing [potential] section in <string>", None, None),
        ),
        (
            MINIMAL.replace("alphabet_size = 2\n", ""),
            ("missing alphabet_size", 2, "alphabet_size"),
        ),
        (
            MINIMAL.replace("alphabet_size = 2", "alphabet_size = 2\nlambda = 1"),
            ("lambda must lie strictly between 0 and 1", 4, "lambda"),
        ),
        (MINIMAL.replace("row = 1 1\n\n", "row = 1\n\n"), ("row must hold 2 entries of 0 or 1", 5, "row")),
        (
            MINIMAL.replace("row = 1 1\n\n", "row = 0 0\n\n"),
            ("every transition row needs at least one 1", 5, "row"),
        ),
        (
            MINIMAL.replace("row = 1 1\nrow = 1 1", "row = 1 0\nrow = 1 0"),
            ("every transition column needs at least one 1", 2, None),
        ),
        (MINIMAL.replace("past_depth = 1\n", ""), ("missing past_depth", 7, "past_depth")),
        (
            MINIMAL.replace("future_depth = 1", "future_depth = 0"),
            ("future_depth must be >= 1", 9, "future_depth"),
        ),
        (
            after("[constraints]", "phi1 0 0 = 1", "phi1 0 0 1 = 1", "c = 1"),
            ("phi1 windows differ in length", 13, "phi1"),
        ),
        (after("[constraints]", "phi1 0 = 1", "c = 1"), ("phi1 windows need >= 2 symbols", 13, "phi1")),
        (
            after("[constraints]", "phi1 0 2 = 1", "c = 1"),
            ("window symbol outside the alphabet", 13, "phi1"),
        ),
        (
            GOLDEN_MINIMAL + "\n[constraints]\nphi1 1 1 = 1\nc = 1\n",
            ("windows not allowed by the transition matrix: [(1, 1)]", 13, "phi1"),
        ),
    ],
    ids=[
        "duplicate-section", "unknown-key", "decimal-weight", "zero-denominator", "long-weight",
        "underscore-weight", "duplicate-window", "wrong-length", "no-symbols", "outside-alphabet",
        "two-digit-symbol", "arabic-indic-digit", "superscript-digit", "plus-sign", "underscore-symbol",
        "no-equals", "no-key", "window-in-system", "disallowed-word", "leading-zero", "tabs",
        "comment-after-value", "comment-touching-value", "no-phi", "phi-gap", "c-and-h", "c-length",
        "k-max-range", "k-max-text", "solver-key",
        *[f"comment-holds-{name}" for name in LINE_BREAKS.values()],
        "long-past-depth", "long-k-max", "alphabet-below-one", "long-phi-index", "arabic-indic-phi-index",
        "unterminated-section", "unknown-section", "row-tokens-left-of-equals", "duplicate-key",
        "no-potential-section", "no-alphabet-size", "lambda-range", "short-row", "empty-row",
        "empty-column", "no-past-depth", "future-depth-zero", "phi-widths-differ", "phi-width-one",
        "phi-outside-alphabet", "phi-forbidden-window",
    ],
)
def test_parse_pins(text, expected):
    if isinstance(expected[0], tuple):
        word, value = expected
        assert parse_config_text(text).potential.table == {(1, 1): 1, word: value} | {
            w: 0 for w in itertools.product((0, 1), repeat=2) if w not in ((1, 1), word)
        }
        return
    message, line, field = expected
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert (str(err.value), err.value.line, err.value.field) == (
        str(ConfigError(message, line, field)), line, field
    )


def test_error_carries_line_number():
    bad = MINIMAL + "\nwindow 0 1 = 1/0\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad)
    assert err.value.line == len(bad.splitlines())
    assert err.value.field == "window"


def test_each_distinct_weight_text_is_parsed_once(monkeypatch):
    parsed = []
    parse = cli_reports._parse_rational

    def counting_parse(text, line, field):
        parsed.append(text)
        return parse(text, line, field)

    monkeypatch.setattr(cli_reports, "_parse_rational", counting_parse)
    text = MINIMAL.replace("window 1 1 = 1", "window 0 0 = 1/2\nwindow 0 1 = 1/2\nwindow 1 1 = 1")
    text += "\n[constraints]\nphi1 0 0 = 1/2\nphi1 1 1 = 3\nc = 1/2\n"
    config = parse_config_text(text)
    assert config.potential.value((0, 0)) == config.potential.value((0, 1)) == Fraction(1, 2)
    assert config.constraints.components[0].value((0, 0)) == Fraction(1, 2)
    # the c vector is not a weight table and is read on its own
    assert sorted(parsed) == ["1", "1/2", "1/2", "3"]


@pytest.mark.parametrize(
    "rows, p, q",
    [(((1, 1), (1, 0)), 1, 4), (((1, 1, 1),) * 3, 1, 2), (((1, 1), (1, 1)), 2, 3)],
    ids=["golden-q4", "full3-q2", "full2-p2-q3"],
)
def test_the_windows_are_enumerated_once_per_parse(monkeypatch, rows, p, q):
    text = _config_text(random.Random(3), rows, q, 10)
    if p == 2:
        text = text.replace("past_depth = 1", "past_depth = 2").replace("window ", "window 0 ")
    lengths = []
    enumerate_words = allowed_words

    def spy(system, length):
        lengths.append(length)
        return enumerate_words(system, length)

    for name, module in list(sys.modules.items()):
        if name.startswith("ergopt") and getattr(module, "allowed_words", None) is enumerate_words:
            monkeypatch.setattr(module, "allowed_words", spy)
    config = parse_config_text(text)
    assert len(config.potential.table) == len(enumerate_words(config.system, p + q))
    assert lengths.count(p + q) == 1


@pytest.mark.parametrize("field", ["window", "phi1"])
def test_a_repeated_bad_weight_text_fails_at_its_first_line(field):
    prefix = MINIMAL if field == "window" else MINIMAL + "\n[constraints]\n"
    bad = prefix + f"\n{field} 0 0 = 1/0\n{field} 1 0 = 1/0\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad)
    assert err.value.line == len(bad.splitlines()) - 1
    assert err.value.field == field
    assert "zero denominator" in str(err.value)


def respell(rng: random.Random, text: str) -> str:
    """The config text with its window, phi and row lines spelt another way.

    Tokens are parted by tabs or runs of spaces, '=' may touch either side,
    a symbol may have leading zeros, a weight may carry '+', a comment may
    touch the value, and the lines end in LF, CR LF or CR.
    """

    def gap() -> str:
        return rng.choice((" ", "  ", "\t", " \t "))

    lines = []
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        words = key.split()
        if not words or not (words[0] in ("row", "window") or words[0].startswith("phi")):
            lines.append(line)
            continue
        entries = value.split() if words[0] == "row" else words[1:]
        symbols = [rng.choice(("", "", "", "0", "00")) + s for s in entries]
        if words[0] == "row":
            lhs, rhs = "row", symbols[0] + "".join(gap() + s for s in symbols[1:])
        else:
            lhs = words[0] + "".join(gap() + s for s in symbols)
            rhs = value if value.startswith("-") or rng.random() < 0.5 else "+" + value
        eq = rng.choice(("", " ", "\t")) + "=" + rng.choice(("", " ", "\t"))
        comment = rng.choice(("", "#", "# note", " #x", "\t# = 1"))
        lines.append(rng.choice(("", " ", "\t")) + lhs + eq + rhs + comment)
    end = rng.choice(("\n", "\r\n", "\r"))
    return end.join(lines) + end


@pytest.mark.parametrize("seed", range(4))
def test_equivalent_spellings_parse_to_an_equal_config(seed):
    rng = random.Random(seed)
    for i in range(25):
        text = random_config(rng, i)
        variant = respell(rng, text)
        assert variant != text
        assert parse_config_text(variant) == parse_config_text(text), variant


def test_key_before_section():
    with pytest.raises(ConfigError):
        parse_config_text("alphabet_size = 2\n")


def test_row_count_mismatch():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINIMAL.replace("row = 1 1\nrow = 1 1", "row = 1 1"))
    assert "row lines" in str(err.value)


def cycle_config(r: int, extra: tuple[tuple[int, int], ...] = ()) -> str:
    """r symbols, arcs i -> i + 1 mod r and extra, past depth 1, future depth 3."""
    arcs = {(i, (i + 1) % r) for i in range(r)} | set(extra)
    rows = [" ".join("1" if (a, b) in arcs else "0" for b in range(r)) for a in range(r)]
    return "\n".join(
        ["[system]", f"alphabet_size = {r}", *(f"row = {row}" for row in rows),
         "[potential]", "past_depth = 1", "future_depth = 3", ""]
    )


@pytest.mark.parametrize("command", ["subaction", "mane"])
def test_an_alphabet_past_ten_symbols_is_a_config_error(tmp_path, capsys, command):
    # report keys write a symbol as one digit: on these 20 nodes the windows
    # (10, 1, 0) and (1, 0, 10) would both print as "1010"
    path = tmp_path / "eleven.cfg"
    path.write_text(cycle_config(11, ((0, 10), (10, 1), (1, 0))))
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: alphabet_size must be at most 10 [line 2, field 'alphabet_size']\n"
    )
    path.write_text(cycle_config(10, ((0, 9), (9, 1), (1, 0))))
    assert main([command, "--config", str(path)]) == 0
    config = load_config(path)
    keys = json.loads(capsys.readouterr().out)["values" if command == "subaction" else "phi"]
    assert len(keys) == len(build_prepend_graph(config.system, config.potential).nodes)


def shift_config(rows: list[str], future_depth: int, windows: tuple[str, ...] = ()) -> str:
    """Rows of a 0/1 matrix, past depth 1, the given future depth and window lines."""
    return "\n".join(
        ["[system]", f"alphabet_size = {len(rows)}", *(f"row = {row}" for row in rows),
         "[potential]", "past_depth = 1", f"future_depth = {future_depth}", *windows, ""]
    )


SIX_COMMANDS = (
    ["beta"], ["subaction", "--kind", "u0"], ["mane"], ["classify", "--boundary=0"], ["alpha"], ["check"],
)


@pytest.mark.parametrize(
    "text, message",
    [
        (shift_config(["1 1", "1 1"], 40), "window length 41 allows more than 4096 words"),
        (
            shift_config(["1 " * 9 + "1"] * 10, 4, ("window 0 0 0 0 0 = 1",)),
            "window length 5 allows more than 4096 words",
        ),
        (shift_config(["0 1", "1 0"], 10**9), "window length 1000000001 is above the bound 64"),
        # 1 + 2**12 words of length 12: one past the word bound
        (shift_config(["1 0 0", "0 1 1", "0 1 1"], 11), "window length 12 allows more than 4096 words"),
        (
            MINIMAL + "[constraints]\nphi1 " + " ".join(["0"] * 13) + " = 1\n",
            "window length 13 allows more than 4096 words",
        ),
    ],
    ids=["full2-q40", "full10-q4", "periodic-q1e9", "one-word-past", "phi-width-13"],
)
def test_a_window_past_the_size_bounds_is_a_config_error(tmp_path, capsys, text, message):
    path = tmp_path / "big.cfg"
    path.write_text(text)
    for command in SIX_COMMANDS:
        start = time.perf_counter()
        assert main(command + ["--config", str(path)]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {message} [line ")
        assert "Traceback" not in captured.err


def test_a_window_at_the_size_bounds_runs(tmp_path, capsys, monkeypatch):
    path = tmp_path / "edge.cfg"
    # two words of every length: 1 + 63 is the longest window allowed
    path.write_text(shift_config(["0 1", "1 0"], 63))
    assert main(["beta", "--config", str(path)]) == 0
    # eight words of length 3
    path.write_text(shift_config(["1 1", "1 1"], 2))
    monkeypatch.setattr(cli_reports, "MAX_WINDOW_WORDS", 8)
    assert main(["beta", "--config", str(path)]) == 0
    monkeypatch.setattr(cli_reports, "MAX_WINDOW_WORDS", 7)
    assert main(["beta", "--config", str(path)]) == 2
    assert capsys.readouterr().err.endswith(
        "config error: window length 3 allows more than 7 words [line 5]\n"
    )


def test_the_window_word_count_matches_the_allowed_words(rng, monkeypatch):
    # the bound passes at exactly the number of allowed words and fails one below it
    for _ in range(30):
        system = random_system(rng, rng.randint(2, 4))
        length = rng.randint(2, 6)
        words = len(allowed_words(system, length))
        monkeypatch.setattr(cli_reports, "MAX_WINDOW_WORDS", words)
        cli_reports._check_window_size(system, length, None, None)
        monkeypatch.setattr(cli_reports, "MAX_WINDOW_WORDS", words - 1)
        with pytest.raises(ConfigError, match=f"window length {length} allows more than {words - 1} words"):
            cli_reports._check_window_size(system, length, None, None)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(MINIMAL.encode() + b"# caf\xe9\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value).startswith("cannot read config: 'utf-8' codec can't decode byte 0xe9")
    assert main(["beta", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot read config: ")


@pytest.mark.parametrize("name", fixtures.available())
def test_a_config_with_a_byte_order_mark_reads_as_without(tmp_path, name):
    text = fixtures.fixture_text(name)
    plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    reports = []
    for path in (plain, marked):
        out = tmp_path / f"{path.stem}.json"
        assert main(["beta", "--config", str(path), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "old, new, field",
    [
        ("window 1 1 = 1", f"window 1 1 = {LONG}", "window"),
        ("window 1 1 = 1", f"window 1 1 = -1/{LONG}", "window"),
        ("window 1 1 = 1", f"window 1 {LONG} = 1", "window"),
        ("row = 1 1\nrow", f"row = 1 {LONG}\nrow", "row"),
        ("alphabet_size = 2", f"alphabet_size = 2\nlambda = 1/{LONG}", "lambda"),
        ("window 1 1 = 1", f"window 1 1 = 1\n[constraints]\nphi1 0 {LONG} = 1", "phi1"),
        ("window 1 1 = 1", f"window 1 1 = 1\n[constraints]\nphi1 0 0 = 1\nc = {LONG}", "c"),
        ("window 1 1 = 1", f"window 1 1 = 1\n[constraints]\nphi1 0 0 = 1\nh = -{LONG}", "h"),
    ],
    ids=["weight", "denominator", "window-symbol", "row", "lambda", "phi-symbol", "c", "h"],
)
def test_an_integer_past_the_digit_limit_is_a_config_error(old, new, field):
    text = MINIMAL.replace(old, new)
    assert text != MINIMAL
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert str(err.value).startswith("integer literal has too many digits")
    assert err.value.field == field
    assert LONG in text.splitlines()[err.value.line - 1]


def test_a_long_literal_exits_2_from_a_config_and_a_boundary(tmp_path, capsys):
    path = tmp_path / "long.cfg"
    path.write_text(MINIMAL + f"window 0 0 = {LONG}\n")
    assert main(["beta", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: integer literal has too many digits")
    f5 = write_fixture(tmp_path, "f5")
    assert main(["classify", "--config", f5, "--boundary", f"0,{LONG}"]) == 2
    assert capsys.readouterr().err == (
        "config error: integer literal has too many digits [field 'boundary']\n"
    )


# two weights of 2201 digits each, whose sums and products pass the limit
HUGE_RESULTS = MINIMAL.replace(
    "window 1 1 = 1",
    f"window 0 0 = 1/{10**2200 + 1}\nwindow 0 1 = 1/{10**2200 + 3}",
)


@pytest.mark.parametrize(
    "command, rc",
    [
        (["beta"], 0),
        (["check"], 0),
        (["mane"], 2),
        (["mane", "--format", "csv"], 2),
        (["classify", "--boundary", "0"], 2),
        (["subaction", "--kind", "u0"], 2),
        (["subaction", "--kind", "calibrated"], 2),
        (["subaction", "--kind", "maximal"], 2),
    ],
    ids=lambda c: c[-1] if isinstance(c, list) else str(c),
)
def test_a_result_past_the_digit_limit_is_a_config_error(tmp_path, capsys, command, rc):
    path = tmp_path / "huge.cfg"
    path.write_text(HUGE_RESULTS)
    assert main(command + ["--config", str(path)]) == rc
    out, err = capsys.readouterr()
    if rc == 2:
        assert out == ""
        assert err == (
            "config error: a result has more digits than the interpreter's limit of "
            f"{sys.get_int_max_str_digits()} for printing an integer\n"
        )
    else:
        assert err == "" and json.loads(out)


# the 2-cycle 0 1 0 attains beta, whose denominator passes the digit limit
HUGE_BETA = MINIMAL.replace(
    "window 1 1 = 1",
    f"window 0 1 = 1/{10**2200 + 1}\nwindow 1 0 = 1/{10**2200 + 3}",
)


def test_check_passes_on_a_beta_past_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "huge.cfg"
    path.write_text(HUGE_BETA)
    assert main(["check", "--config", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    checks = {c["name"]: (c["status"], c["note"]) for c in json.loads(out)["checks"]}
    assert checks["beta_methods_agree"] == ("pass", "beta (too long to print) by three methods")
    assert checks["beta_oracle"] == ("pass", "oracle beta (too long to print)")
    assert {status for status, _ in checks.values()} == {"pass"}


# ---------------------------------------------------------------------------
# command reports


def test_beta_reports():
    assert cmd_beta(fixtures.load("f1"))["beta"] == "1/1"
    assert cmd_beta(fixtures.load("f1"))["methods_agree"] is True
    assert cmd_beta(fixtures.load("f3"))["beta"] == "5/1"
    assert cmd_beta(fixtures.load("counterexample_tails"))["beta"] == "1/1"


def test_subaction_reports():
    calibrated = cmd_subaction(fixtures.load("f1"), "calibrated")
    assert calibrated["values"] == {"0": "0/1", "1": "-1/1"}
    assert calibrated["residuals"]["calibration"] == "0/1"
    assert calibrated["discount_trace"][0]["rho"] == "1/2"
    maximal = cmd_subaction(fixtures.load("f6"), "maximal")
    assert maximal["values"] == {"0": "-1/1", "1": "0/1"}
    u0 = cmd_subaction(fixtures.load("f3"), "u0")
    assert set(u0["values"].values()) == {"0/1"}


def test_mane_report():
    report = cmd_mane(fixtures.load("f5"))
    assert report["phi"] == {
        "0": {"0": "0/1", "1": "1/1"},
        "1": {"0": "1/1", "1": "0/1"},
    }
    assert report["classes"] == [["0"], ["1"]]
    assert cmd_mane(fixtures.load("f3"))["phi"]["0"]["1"] == "0/1"


def test_classify_reports():
    compatible = cmd_classify(fixtures.load("f5"), (Fraction(0), Fraction(1)))
    assert compatible["compatible"] is True
    assert compatible["values"] == {"0": "0/1", "1": "1/1"}
    clipped = cmd_classify(fixtures.load("f5"), (Fraction(0), Fraction(2)))
    assert clipped["compatible"] is False
    assert clipped["values"] == {"0": "0/1", "1": "1/1"}
    assert clipped["round_trip"] is True
    single = cmd_classify(fixtures.load("f1"), (Fraction(0),))
    assert single["values"] == {"0": "1/1", "1": "0/1"}


def test_alpha_report():
    assert cmd_alpha(fixtures.load("f5"))["alpha"] == "-1/1"
    with pytest.raises(ConfigError):
        cmd_alpha(fixtures.load("f1"))


def test_check_all_fixtures_pass():
    for name in fixtures.available():
        report = cmd_check(fixtures.load(name))
        assert report["ok"], (name, report)


def test_check_reducible_skips():
    report = cmd_check(fixtures.load("reducible"))
    skipped = {c["name"] for c in report["checks"] if c["status"] == "skip"}
    assert "calibrated_discount" in skipped
    assert "mane_triangle" in skipped
    assert report["ok"]


def test_check_reports_a_raising_item_and_goes_on(tmp_path, capsys):
    path = tmp_path / "slow.cfg"
    path.write_text(two_class_config_text() + "\n[solver]\nschedule_k_max = 1\n")
    assert main(["check", "--config", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for c in report["checks"]}
    assert len(checks) == 12
    raised = checks.pop("calibrated_discount")
    assert raised["status"] == "error" and "schedule exhausted" in raised["note"]
    assert {c["status"] for c in checks.values()} == {"pass"}
    assert report["ok"] is False


# the f5 loops at depth 2: nodes 00, 01, 10, 11, classes {00} and {11}
F5_DEPTH_TWO = MINIMAL.replace("future_depth = 1", "future_depth = 2").replace(
    "window 1 1 = 1", "window 0 0 0 = 1\nwindow 1 1 1 = 1"
)


def tamper_rows(monkeypatch, text, rows_of):
    """Make the graph of config text read the excursion rows rows_of(graph, result) gives.

    Patches the beta solve, whose result holds the rows; every other graph,
    such as check's refined and negated ones, keeps its own rows.
    """
    potential = parse_config_text(text).potential
    solve = graph_engine._solve_max_mean_cycle

    def tampered(graph):
        result = solve(graph)
        if graph.potential != potential:
            return result
        return with_rows(result, rows_of(graph, result))

    monkeypatch.setattr(graph_engine, "_solve_max_mean_cycle", tampered)


def test_check_fails_a_zero_diagonal_off_the_critical_nodes(tmp_path, capsys, monkeypatch):
    # the f5 loops at depth 2: the 2-cycle 01 <-> 10 weighs 0, so neither
    # node is critical, and neither has a loop, so no critical-edge test
    # reads its diagonal entry
    path = tmp_path / "f5q2.cfg"
    path.write_text(F5_DEPTH_TWO)

    def zero_diagonal_at_01(graph, mane):
        v = graph.node_index[(0, 1)]
        if any(e.src == v == e.tgt for e in graph.edges) or mane.cost[v][v] == 0:
            raise AssertionError("node 01 must be off the critical nodes and carry no loop")
        row = list(mane.row(v))
        row[v] = 0
        return {v: row}

    tamper_rows(monkeypatch, F5_DEPTH_TWO, zero_diagonal_at_01)
    assert main(["check", "--config", str(path)]) == 1
    items = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert items["mane_diagonal"]["status"] == "fail"


def test_check_reports_a_raising_guard_as_error_and_goes_on(tmp_path, capsys, monkeypatch):
    # f5: every search into a set of targets leaves node 0 unreached, so the
    # guard of mane_aubry._least_into raises in each item that builds a
    # family member or reconstructs a sub-action
    path = write_fixture(tmp_path, "f5")
    least_into = BetaResult.least_into

    def unreached_at_0(self, seeds, m):
        return [None] + least_into(self, seeds, m)[1:]

    monkeypatch.setattr(BetaResult, "least_into", unreached_at_0)
    assert main(["check", "--config", path]) == 1
    report = json.loads(capsys.readouterr().out)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    raised = {"family_calibrated", "representation_roundtrip"}
    assert {name for name, status in statuses.items() if status == "error"} == raised
    assert {status for name, status in statuses.items() if name not in raised} == {"pass"}
    assert len(statuses) == 12
    notes = {c["note"] for c in report["checks"] if c["status"] == "error"}
    assert notes == {"excursion costs on a transitive system are all finite"}
    assert report["ok"] is False


# the zero potential at depth 2: every arc is critical, and the four nodes
# form one class with anchor 00
ZERO_DEPTH_TWO = MINIMAL.replace("future_depth = 1", "future_depth = 2").replace(
    "window 1 1 = 1", "window 0 0 0 = 0"
)


def _round_trip_to_zero(graph, mane):
    # 00 -> 11 set to minus the cost back: classes {00} and {11} of the f5
    # loops at depth 2 now share a zero-cost cycle
    a, b = graph.node_index[(0, 0)], graph.node_index[(1, 1)]
    row = list(mane.row(a))
    row[b] = -mane.row(b)[a]
    return {a: row}


def _round_trip_above_zero(graph, mane):
    # 00 -> 11 raised by 1: 11 leaves the zero-cost cycles of its anchor 00
    a, v = graph.node_index[(0, 0)], graph.node_index[(1, 1)]
    row = list(mane.row(a))
    row[v] += 1
    return {a: row}


@pytest.mark.parametrize(
    "text, rows_of, note",
    [
        (F5_DEPTH_TWO, _round_trip_to_zero, "anchors 0 and 3 share a zero-cost cycle"),
        (ZERO_DEPTH_TWO, _round_trip_above_zero, "node 3 is off the zero-cost cycles of anchor 0"),
    ],
    ids=["two_anchors_on_a_zero_cost_cycle", "a_member_off_its_anchors_zero_cost_cycles"],
)
def test_check_fails_a_round_trip_that_splits_or_joins_the_classes(
    tmp_path, capsys, monkeypatch, text, rows_of, note
):
    # the classes come from the tight arcs, so only mane_diagonal's round
    # trips see the tampered entry; 00 and 11 share no arc either way, and
    # the diagonal stays as it was
    path = tmp_path / "c.cfg"
    path.write_text(text)

    def checked(graph, mane):
        a, b = graph.node_index[(0, 0)], graph.node_index[(1, 1)]
        if any({e.src, e.tgt} == {a, b} for e in graph.edges):
            raise AssertionError("00 and 11 must share no arc")
        return rows_of(graph, mane)

    tamper_rows(monkeypatch, text, checked)
    assert main(["check", "--config", str(path)]) == 1
    items = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert (items["mane_diagonal"]["status"], items["mane_diagonal"]["note"]) == ("fail", note)


def random_full_shift_config(rng: random.Random, r: int, q: int, binary: bool) -> str:
    """Config text: full r-shift, past depth 1, future depth q, seeded weights."""
    lines = ["[system]", f"alphabet_size = {r}"] + [f"row = {' '.join(['1'] * r)}"] * r
    lines += ["", "[potential]", "past_depth = 1", f"future_depth = {q}"]
    for word in itertools.product(range(r), repeat=1 + q):
        n, d = (rng.randint(0, 1), 1) if binary else (rng.randint(-20, 20), rng.randint(1, 10))
        lines.append(f"window {' '.join(map(str, word))} = {n}/{d}")
    return "\n".join(lines) + "\n"


# Seconds one check may take on an 8- or 9-node window graph: the omega
# oracle stops at its state budget, and the whole command measured 0.1-1.1 s
# on a 2-vCPU host.
RANDOM_CHECK_SECONDS = 10


@pytest.mark.parametrize("r, q", [(2, 3), (3, 2)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_check_finishes_on_random_configs(tmp_path, capsys, r, q, seed):
    rng = random.Random(seed)
    path = tmp_path / "random.cfg"
    path.write_text(random_full_shift_config(rng, r, q, binary=seed == 3))
    start = time.perf_counter()
    rc = main(["check", "--config", str(path)])
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert rc in (0, 1)
    assert len(statuses) == 12
    assert statuses["omega_oracle"] == "pass"
    assert elapsed < RANDOM_CHECK_SECONDS


def test_check_skips_the_beta_oracle_on_sixteen_nodes(tmp_path, capsys):
    # a full 2-shift with q=4 has 2 + 4 + ... + 2^17 = 262 142 allowed words
    # up to the oracle's length 17, past BETA_WORD_BUDGET
    path = tmp_path / "random.cfg"
    path.write_text(random_full_shift_config(random.Random(4), 2, 4, binary=False))
    start = time.perf_counter()
    rc = main(["check", "--config", str(path)])
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    items = {c["name"]: c for c in report["checks"]}
    assert rc in (0, 1)
    assert len(items) == 12
    assert items["beta_oracle"]["status"] == "skip"
    assert items["beta_oracle"]["note"] == (
        f"beta oracle budget reached: more than {BETA_WORD_BUDGET} "
        "allowed words up to length 17"
    )
    assert elapsed < RANDOM_CHECK_SECONDS


def triangle_holds(cost) -> bool:
    """The triangle inequality over every (i, j, k), as the item once tested it."""
    n = len(cost)
    return all(
        cost[i][k] <= cost[i][j] + cost[j][k]
        for i in range(n) for j in range(n) for k in range(n)
    )


def triangle_item(monkeypatch, config):
    """The mane_triangle item of config's check, run on any rows in place of the matrix's."""
    base = omega_set(build_prepend_graph(config.system, config.potential))
    shown = {}
    monkeypatch.setattr(cli_reports, "omega_set", lambda graph: shown["omega"])
    run = {name: run for name, _, run in _check_items(config)}["mane_triangle"]

    def on(cost) -> tuple[str, str]:
        mane = with_rows(base.mane, dict(enumerate(cost)))
        shown["omega"] = dataclasses.replace(base, mane=mane)
        return run()

    return base.mane, on


PASS = ("pass", "excursion costs satisfy the triangle inequality")


@pytest.mark.parametrize("r, q, binary", [(2, 3, False), (3, 2, False), (2, 3, True)])
@pytest.mark.parametrize("seed", [1, 2])
def test_mane_triangle_passes_only_the_true_matrix(monkeypatch, r, q, binary, seed):
    # one entry moved either way by 1 to 2 * D, or made None: the
    # certificate rejects each, at the row moved, though some of them
    # still satisfy the triangle inequality
    rng = random.Random(seed)
    config = parse_config_text(random_full_shift_config(rng, r, q, binary))
    mane, triangle = triangle_item(monkeypatch, config)
    true = [list(row) for row in mane.cost]
    n = len(true)
    assert triangle(true) == PASS
    triangle_passes = 0
    for _ in range(40):
        cost = [list(row) for row in true]
        i, j = rng.randrange(n), rng.randrange(n)
        if rng.random() < 0.2:
            cost[i][j] = None
        else:
            cost[i][j] += rng.choice((-1, 1)) * rng.randint(1, 2 * mane.D)
            triangle_passes += triangle_holds(cost)
        status, note = triangle(cost)
        assert status == "fail" and note.startswith(f"row {i} ")
    assert triangle_passes > 0


def test_mane_triangle_on_extreme_entries(monkeypatch):
    # f5 has 2 nodes; entries drawn from +-M, 0, None and the true entries:
    # only the true matrix passes, and every matrix that passes satisfies
    # the triangle inequality, which many rejected ones also do
    rng = random.Random(5)
    mane, triangle = triangle_item(monkeypatch, fixtures.load("f5"))
    true = [list(row) for row in mane.cost]
    verdicts = {"pass": 0, "fail": 0, "fail, triangle holds": 0}
    for _ in range(300):
        M = rng.choice([1, 3, 5, 1000])
        cost = [
            [rng.choice([-M, M, 0, None, true[i][j], true[i][j]]) for j in range(2)]
            for i in range(2)
        ]
        status, _ = triangle(cost)
        assert (status == "pass") == (cost == true)
        finite = None not in cost[0] + cost[1]
        if status == "fail" and finite and triangle_holds(cost):
            status = "fail, triangle holds"
        verdicts[status] += 1
    assert min(verdicts.values()) > 0


def test_mane_triangle_rejects_an_entry_above_its_arc(monkeypatch):
    # f1, beta = 1: the arcs 0 -> 0 and 0 -> 1 cost 1 each, so row 0 reads
    # 1 at both. Raised to 2 at node 1, the entry is still the cost of the
    # path 0 -> 0 -> 1 along arcs tight in its row, and no arc into node 1
    # undercuts it; only the direct arc 0 -> 1 does
    mane, triangle = triangle_item(monkeypatch, fixtures.load("f1"))
    assert mane.D == 1 and list(mane.row(0)) == [1, 1]
    cost = [list(row) for row in mane.cost]
    cost[0][1] = 2
    assert triangle(cost) == ("fail", "row 0 exceeds the arc 0 -> 1")


# transitions 0 -> 0, 0 -> 1 and 1 -> 1: prepending leads from node 1 to
# node 0 but never back, so row 0 holds None at 1
REDUCIBLE = MINIMAL.replace("row = 1 1\nrow = 1 1", "row = 1 1\nrow = 0 1").replace(
    "window 1 1 = 1", "window 0 0 = 2\nwindow 0 1 = -1\nwindow 1 1 = 1"
)


def test_mane_certificate_rejects_a_finite_entry_on_an_unreachable_pair():
    config = parse_config_text(REDUCIBLE)
    graph = build_prepend_graph(config.system, config.potential)
    mane = graph_engine.min_cost_all_pairs(graph)
    beta = mane.beta
    a, b = graph.node_index[(0,)], graph.node_index[(1,)]
    assert mane.row(a)[b] is None
    assert cli_reports._excursion_cost_defect(graph, beta, mane) is None
    for value in (-5, 0, 5 * mane.D):
        row = list(mane.row(a))
        row[b] = value
        tampered = with_rows(mane, {a: row})
        assert cli_reports._excursion_cost_defect(graph, beta, tampered) is not None


@pytest.mark.parametrize(
    "mutation", ["uniform_shift", "entry_plus_one", "entry_minus_one", "none_on_a_reachable_pair"]
)
def test_check_fails_a_tampered_excursion_matrix(tmp_path, capsys, monkeypatch, mutation):
    # every entry + 1 keeps the triangle inequality; the single entries are
    # 01 -> 10 of the f5 loops at depth 2, which no round trip of
    # mane_diagonal reads, as 01 and 10 are off the critical nodes
    path = tmp_path / "f5q2.cfg"
    path.write_text(F5_DEPTH_TWO)

    def tampered(graph, mane):
        if mutation == "uniform_shift":
            return {i: [c + 1 for c in mane.row(i)] for i in range(len(graph.nodes))}
        v, w = graph.node_index[(0, 1)], graph.node_index[(1, 0)]
        row = list(mane.row(v))
        row[w] = {
            "entry_plus_one": row[w] + 1,
            "entry_minus_one": row[w] - 1,
            "none_on_a_reachable_pair": None,
        }[mutation]
        return {v: row}

    tamper_rows(monkeypatch, F5_DEPTH_TWO, tampered)
    assert main(["check", "--config", str(path)]) == 1
    items = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert items["mane_triangle"]["status"] == "fail"


def test_check_compares_three_omega_samples_on_sixty_four_nodes():
    # full 2-shift, q = 6: the witness point, 0^inf and 1^inf
    config = parse_config_text(random_full_shift_config(random.Random(5), 2, 6, binary=False))
    run = {name: run for name, _, run in _check_items(config)}["omega_oracle"]
    assert run() == ("pass", "membership matches the oracle on 3 points")


@pytest.mark.parametrize("name", ["f1", "f6"])
def test_discount_trace_ends_where_the_exact_stop_fired(name):
    # the optimal policy at rho = 1/2 is already shown bias-optimal
    report = cmd_subaction(fixtures.load(name), "calibrated")
    trace = report["discount_trace"]
    assert [entry["k"] for entry in trace] == [1]
    assert [entry["rho"] for entry in trace] == ["1/2"]
    assert all(set(entry) == {"k", "rho", "a_float"} for entry in trace)
    assert report["residuals"]["calibration"] == "0/1"


# ---------------------------------------------------------------------------
# CLI surface


def test_main_json_roundtrip(tmp_path, capsys):
    path = write_fixture(tmp_path, "f1")
    assert main(["beta", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["beta"] == "1/1"


def test_main_out_file(tmp_path):
    path = write_fixture(tmp_path, "f5")
    out = tmp_path / "report.json"
    assert main(["mane", "--config", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["beta"] == "1/1"


def test_main_csv_format(tmp_path, capsys):
    path = write_fixture(tmp_path, "f5")
    assert main(["mane", "--config", path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "src,0,1"
    assert lines[1] == "0,0/1,1/1"


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL + "\nwindow = oops\n")
    assert main(["beta", "--config", str(bad)]) == 2
    reducible = write_fixture(tmp_path, "reducible")
    assert main(["subaction", "--config", reducible, "--kind", "calibrated"]) == 3
    assert main(["mane", "--config", reducible]) == 3
    f5 = write_fixture(tmp_path, "f5")
    assert main(["classify", "--config", f5, "--boundary", "0"]) == 3
    capsys.readouterr()


def test_main_zero_denominator_boundary_is_a_config_error(tmp_path, capsys):
    f5 = write_fixture(tmp_path, "f5")
    assert main(["classify", "--config", f5, "--boundary", "0,1/0"]) == 2
    assert capsys.readouterr().err == "config error: zero denominator [field 'boundary']\n"
    assert main(["classify", "--config", f5, "--boundary", "0,x"]) == 2
    assert "expected a rational" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, err",
    [
        (["classify", "--boundary", " , "], "boundary vector is empty [field 'boundary']"),
        (
            ["subaction", "--kind", "calibrated", "--schedule", "0"],
            "schedule k_max must be in [1, 64] [field 'schedule']",
        ),
    ],
    ids=["empty-boundary", "schedule-zero"],
)
def test_main_rejects_a_bad_option_value(tmp_path, capsys, argv, err):
    f5 = write_fixture(tmp_path, "f5")
    assert main(argv + ["--config", f5]) == 2
    assert capsys.readouterr() == ("", f"config error: {err}\n")


def test_main_nonconvergence_exit(tmp_path, capsys):
    path = tmp_path / "slow.cfg"
    path.write_text(two_class_config_text() + "\n[solver]\nschedule_k_max = 2\n")
    assert main(["subaction", "--config", str(path), "--kind", "calibrated"]) == 4
    assert capsys.readouterr().err.startswith("non-convergence: ")


def test_main_schedule_flag_overrides(tmp_path, capsys):
    path = tmp_path / "two_class.cfg"
    path.write_text(two_class_config_text() + "\n[solver]\nschedule_k_max = 2\n")
    argv = ["subaction", "--config", str(path), "--kind", "calibrated", "--schedule"]
    assert main(argv + ["3"]) == 0
    assert main(argv + ["1"]) == 4
    capsys.readouterr()


SUBCOMMANDS = ("beta", "subaction", "mane", "classify", "alpha", "check")


def test_bench_command_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_lists_only_options_that_change_behaviour(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    assert "--seed" not in text
    assert "--jobs" not in text
    assert "--timings" not in text
    assert ("--schedule" in text) == (command in ("subaction", "check"))



def test_a_plain_argv_builds_no_parser_and_any_other_builds_all_six_anew(
    tmp_path, monkeypatch, capsys
):
    # a plain argv is read from the option table and builds no parser at all;
    # an abbreviated option goes to argparse, which builds every subparser
    path = write_fixture(tmp_path, "f1")
    added, parsers = [], []
    add_parser = argparse._SubParsersAction.add_parser
    parse_args = argparse.ArgumentParser.parse_args

    def counting_add_parser(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    def recording_parse_args(self, args=None, namespace=None):
        parsers.append(self)  # kept alive, so no id is reused
        return parse_args(self, args, namespace)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording_parse_args)
    assert main(["beta", "--config", path]) == 0
    assert added == parsers == []
    # a second call builds its own parser again: nothing is kept across calls
    for run in (1, 2):
        assert main(["beta", "--conf", path]) == 0
        assert added == list(SUBCOMMANDS) * run
        assert len(parsers) == run
    assert parsers[0] is not parsers[1]
    capsys.readouterr()


def test_unwritable_out_is_a_config_error(tmp_path, capsys):
    path = write_fixture(tmp_path, "f1")
    out = tmp_path / "no" / "such" / "dir" / "x.json"
    assert main(["beta", "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot write report: ")
    assert "No such file or directory" in captured.err
    assert not out.exists()


def test_schedule_flag_rejected_where_no_schedule_is_read(tmp_path, capsys):
    path = write_fixture(tmp_path, "f1")
    with pytest.raises(SystemExit) as exit_info:
        main(["beta", "--config", path, "--schedule", "3"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --schedule 3" in capsys.readouterr().err


def test_reports_byte_stable(tmp_path):
    path = write_fixture(tmp_path, "f6")
    for command in (["beta"], ["subaction", "--kind", "calibrated"], ["mane"], ["check"]):
        outs = []
        for i in range(2):
            out = tmp_path / f"{command[0]}{i}.txt"
            assert main(command + ["--config", path, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# full 2-shift at depth 2 whose tight arcs enter nodes 01, 10 and 11, and
# whose only critical node is 11
ONE_CORE_NODE = MINIMAL.replace("future_depth = 1", "future_depth = 2").replace(
    "window 1 1 = 1",
    "\n".join(
        f"window {' '.join(w)} = {v}"
        for w, v in zip(
            ("000", "001", "010", "011", "100", "101", "110", "111"),
            (-4, 1, -13, 15, 4, 16, -18, 9),
        )
    ),
)


@pytest.mark.parametrize("command", ["u0", "calibrated", "maximal", "classify", "mane"])
@pytest.mark.parametrize(
    "text, anchors",
    [
        (two_class_config_text(), [0, 3]),
        (F5_DEPTH_TWO, [0, 3]),
        (ONE_CORE_NODE, [3]),
        (ZERO_DEPTH_TWO, [0]),
    ],
    ids=["two_class", "f5q2", "one_core_node", "zero"],
)
def test_excursion_rows_built_per_command(tmp_path, monkeypatch, command, text, anchors):
    # the critical classes read no row, and neither do the sub-actions;
    # classify reads the anchors' rows to test the boundary data when there
    # are two classes or more, and the mane report searches every row
    path = tmp_path / "c.cfg"
    path.write_text(text)
    config = parse_config_text(text)
    assert critical_structure(build_prepend_graph(config.system, config.potential)).anchors() == (
        tuple(anchors)
    )
    argv = {
        "u0": ["subaction", "--kind", "u0"],
        "calibrated": ["subaction", "--kind", "calibrated"],
        "maximal": ["subaction", "--kind", "maximal"],
        "classify": ["classify", "--boundary", ",".join(["0"] * len(anchors))],
        "mane": ["mane"],
    }[command]
    built = []
    build = BetaResult._build_row

    def counting_build(self, src):
        built.append(src)
        return build(self, src)

    monkeypatch.setattr(BetaResult, "_build_row", counting_build)
    assert main(argv + ["--config", str(path), "--out", str(tmp_path / "o")]) == 0
    expected = {"mane": list(range(4)), "classify": anchors if len(anchors) > 1 else []}
    assert sorted(built) == expected.get(command, [])


@pytest.mark.parametrize(
    "command, graphs",
    [
        (["beta"], 1),
        (["mane"], 1),
        (["classify", "--boundary", "0,0"], 1),
        (["subaction", "--kind", "u0"], 1),
        (["subaction", "--kind", "calibrated"], 1),
        (["check"], 3),
    ],
    ids=lambda c: (c[-1] if c[0] == "subaction" else c[0]) if isinstance(c, list) else str(c),
)
def test_one_beta_solve_per_graph(tmp_path, monkeypatch, command, graphs):
    path = write_fixture(tmp_path, "f5")
    solved = []
    solve = graph_engine._solve_max_mean_cycle

    def counting_solve(graph):
        solved.append(graph)  # kept alive, so no id is reused
        return solve(graph)

    monkeypatch.setattr(graph_engine, "_solve_max_mean_cycle", counting_solve)
    assert main(command + ["--config", path, "--out", str(tmp_path / "o")]) == 0
    assert len(solved) == graphs
    assert len({id(g) for g in solved}) == graphs


@pytest.mark.parametrize(
    "command, tight, whole",
    [(["mane"], 1, 1), (["subaction", "--kind", "u0"], 1, 1), (["check"], 3, 1)],
    ids=lambda c: c[-1] if isinstance(c, list) else str(c),
)
def test_one_tight_component_search_per_graph(tmp_path, monkeypatch, command, tight, whole):
    # the components of the tight arcs are found with beta and kept on its
    # result, which the critical structure and the witness search read;
    # check builds the base, negated and refined graphs. Whether the whole
    # graph is one component is kept on the same result, which check's
    # five omega_set calls on the base graph read. A search is named by the
    # BetaResult member that runs it
    path = write_fixture(tmp_path, "f5")
    runs = {"tight": 0, "whole": 0}
    kinds = {"__init__": "tight", "strongly_connected": "whole"}
    components = graph_engine._strong_components

    def count(n, arcs):
        runs[kinds[sys._getframe(1).f_code.co_name]] += 1
        return components(n, arcs)

    monkeypatch.setattr(graph_engine, "_strong_components", count)
    assert main(command + ["--config", path, "--out", str(tmp_path / "o")]) == 0
    assert runs == {"tight": tight, "whole": whole}


@pytest.mark.parametrize(
    "command",
    [["mane"], ["classify", "--boundary", "0,0"], ["subaction", "--kind", "u0"], ["check"]],
    ids=lambda c: c[-1] if c[0] == "subaction" else c[0],
)
def test_critical_classes_built_once_per_graph(tmp_path, monkeypatch, command):
    # the classes are kept on the graph's BetaResult, so check's five
    # omega_set calls on the base graph build them once; its negated and
    # refined graphs read no class
    path = write_fixture(tmp_path, "f5")
    built = []
    build = BetaResult.classes.func

    def counting_build(self):
        built.append(self)
        return build(self)

    counting = cached_property(counting_build)
    counting.__set_name__(BetaResult, "classes")
    monkeypatch.setattr(BetaResult, "classes", counting)
    assert main(command + ["--config", path, "--out", str(tmp_path / "o")]) == 0
    assert len(built) == 1


@pytest.mark.parametrize(
    "command, graphs",
    [(["beta"], 1), (["subaction", "--kind", "calibrated"], 1), (["check"], 3)],
    ids=lambda c: c[-1] if isinstance(c, list) else str(c),
)
def test_one_int_out_arc_table_per_graph(tmp_path, monkeypatch, command, graphs):
    # policy iteration for beta and the discounted route read one table
    path = write_fixture(tmp_path, "f5")
    built = []
    scale = graph_engine._scale_out_arcs

    def counting_scale(graph):
        built.append(graph)  # kept alive, so no id is reused
        return scale(graph)

    monkeypatch.setattr(graph_engine, "_scale_out_arcs", counting_scale)
    assert main(command + ["--config", path, "--out", str(tmp_path / "o")]) == 0
    assert len({id(g) for g in built}) == len(built) == graphs


@pytest.mark.parametrize(
    "command, tables",
    [
        (["subaction", "--kind", "u0"], 1),
        (["subaction", "--kind", "calibrated"], 1),
        (["subaction", "--kind", "maximal"], 1),
        (["classify", "--boundary", "1/2,-2"], 2),
    ],
    ids=lambda c: c[-1] if isinstance(c, list) else str(c),
)
def test_one_slack_table_per_subaction(tmp_path, monkeypatch, command, tables):
    # the residuals and the contact locus of one sub-action at one beta read
    # one table; classify checks u and the reconstruction of its boundary data
    path = write_fixture(tmp_path, "f5")
    built = []
    scaled = subaction_lab._scaled_slacks

    def counting_slacks(u, graph, beta):
        built.append(u)
        return scaled(u, graph, beta)

    monkeypatch.setattr(subaction_lab, "_scaled_slacks", counting_slacks)
    assert main(command + ["--config", path, "--out", str(tmp_path / "o")]) == 0
    assert len(built) == tables
    assert len({id(u) for u in built}) == tables


def _config_text(rng: random.Random, rows, q: int, den: int) -> str:
    """Past depth 1, future depth q, a random weight n/d (d <= den) per window."""
    lines = ["[system]", f"alphabet_size = {len(rows)}"]
    lines += ["row = " + " ".join(map(str, row)) for row in rows]
    lines += ["", "[potential]", "past_depth = 1", f"future_depth = {q}"]
    for w in itertools.product(range(len(rows)), repeat=q + 1):
        if all(rows[a][b] for a, b in zip(w, w[1:])):
            x = random_fraction(rng, max_den=den)
            lines.append(f"window {' '.join(map(str, w))} = {x.numerator}/{x.denominator}")
    return "\n".join(lines) + "\n"


def _csv_writer_mane(report: dict) -> str:
    """The mane CSV as csv.writer writes it, the reference for render_report."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    words = sorted(report["phi"])
    writer.writerow(["src"] + words)
    for src in words:
        writer.writerow([src] + [report["phi"][src][tgt] for tgt in words])
    return buffer.getvalue()


def _json_dumps_report(report: dict) -> str:
    """The JSON report as json.dumps writes it, the reference for render_report."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", [n for n in fixtures.available() if n != "reducible"])
def test_mane_text_matches_the_reference_writers_on_fixtures(name):
    report = cmd_mane(fixtures.load(name))
    assert render_report(report, "csv", "mane") == _csv_writer_mane(report)
    assert render_report(report, "json", "mane") == _json_dumps_report(report)


@pytest.mark.parametrize("den", [10, 1000])
@pytest.mark.parametrize("rows", [((1, 1), (1, 1)), ((1, 1), (1, 0))], ids=["full", "golden"])
def test_mane_text_matches_the_reference_writers_on_random_configs(rows, den):
    negative = 0
    for seed in (1, 2, 3):
        report = cmd_mane(parse_config_text(_config_text(random.Random(seed), rows, 3, den)))
        assert render_report(report, "csv", "mane") == _csv_writer_mane(report)
        assert render_report(report, "json", "mane") == _json_dumps_report(report)
        negative += sum(v.startswith("-") for row in report["phi"].values() for v in row.values())
    assert negative > 0


def test_mane_formats_its_matrix_without_a_call_per_entry(tmp_path):
    # the 64 x 64 matrix is turned into text one row at a time: the Python
    # calls into this module grow with the nodes, not with the 4096 entries
    config = parse_config_text(_config_text(random.Random(5), ((1, 1), (1, 1)), 6, 10))
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == cli_reports.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        report = cmd_mane(config)
    finally:
        sys.setprofile(None)
    assert len(report["phi"]) == 64
    assert {len(row) for row in report["phi"].values()} == {64}
    assert len(calls) < 8 * 64
    assert calls.count("_rat") == 1  # beta


def _check_statuses(tmp_path, capsys) -> tuple[int, dict]:
    path = write_fixture(tmp_path, "f5")
    capsys.readouterr()
    rc = main(["check", "--config", path])
    report = json.loads(capsys.readouterr().out)
    return rc, {c["name"]: (c["status"], c["note"]) for c in report["checks"]}


def test_check_fails_a_discount_gain_off_beta(tmp_path, capsys, monkeypatch):
    import ergopt.subaction_lab as lab

    certify = lab._certified_bias

    def gain_off_by_one(arcs, policy):
        bias = certify(arcs, policy)
        return None if bias is None else (bias[0], bias[1], bias[2] + 1)

    monkeypatch.setattr(lab, "_certified_bias", gain_off_by_one)
    rc, statuses = _check_statuses(tmp_path, capsys)
    assert rc == 1
    assert statuses.pop("calibrated_discount") == (
        "error", "the bias-optimal policy's gain differs from beta"
    )
    assert {status for status, _ in statuses.values()} == {"pass"}


def test_check_fails_a_negative_cohomology_defect(tmp_path, capsys, monkeypatch):
    import ergopt.subaction_lab as lab

    A = parse_config_text(fixtures.fixture_text("f5")).potential
    negated = {k: -v for k, v in A.table.items()}
    solve = lab.max_mean_cycle

    def below(graph):
        # beta(-A) one below -beta(A)
        if graph.potential.table == negated:
            beta = solve(build_prepend_graph(A.system, A)).beta
            return types.SimpleNamespace(beta=-beta - 1)
        return solve(graph)

    monkeypatch.setattr(lab, "max_mean_cycle", below)
    rc, statuses = _check_statuses(tmp_path, capsys)
    assert rc == 1
    assert statuses.pop("livsic_sign") == ("error", "beta(A) + beta(-A) is negative")
    assert {status for status, _ in statuses.values()} == {"pass"}


@pytest.mark.parametrize(
    "command, searches",
    [
        (["beta"], 1),
        (["mane"], 0),
        (["classify", "--boundary", "0,0"], 0),
        (["subaction", "--kind", "u0"], 0),
        (["subaction", "--kind", "calibrated"], 0),
    ],
    ids=lambda c: c[-1] if isinstance(c, list) else str(c),
)
def test_witness_search_only_where_reported(tmp_path, monkeypatch, command, searches):
    # the canonical witness cycle is searched only by the commands that
    # report it; the others read beta and the Bellman potential alone
    path = write_fixture(tmp_path, "f5")
    calls = []
    search = graph_engine._minimal_cycle

    def counting_search(n, pool):
        calls.append(n)
        return search(n, pool)

    monkeypatch.setattr(graph_engine, "_minimal_cycle", counting_search)
    assert main(command + ["--config", path, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == searches


# A 3-symbol system with p = 2, q = 1 and a component on 3-words: the
# component reads one symbol past the prepend graph's windows.
WIDE_COMPONENT = """
[system]
alphabet_size = 3
row = 1 1 1
row = 1 1 1
row = 1 1 1

[potential]
past_depth = 2
future_depth = 1
window 0 1 2 = 2
window 1 2 0 = 1
window 2 0 1 = 3
window 1 1 1 = 1

[constraints]
phi1 0 1 2 = 1
phi1 1 2 0 = 1
"""


def test_beta_meets_a_component_wider_than_the_window(tmp_path, capsys):
    path = tmp_path / "wide.cfg"
    out = tmp_path / "wide.json"
    # the component's averages over circulations fill [0, 2/3]
    path.write_text(WIDE_COMPONENT + "h = -2\n")
    assert main(["beta", "--config", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("hypothesis not met: no circulation")
    assert not out.exists()
    # 9/5 agrees with a search over pairs of cycles of length <= 9
    path.write_text(WIDE_COMPONENT + "h = 1/3\n")
    assert main(["beta", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["beta"] == "2/1"
    assert report["constrained_beta"] == "9/5"


def test_render_report_csv_flattens():
    text = render_report({"a": ["x", "y"], "b": {"c": 1}}, "csv", "beta")
    assert text.splitlines() == ["key,value", "a[0],x", "a[1],y", "b.c,1"]


def test_fixture_names_guarded():
    with pytest.raises(KeyError):
        fixtures.fixture_text("nonexistent")
