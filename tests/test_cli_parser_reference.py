"""The command line against the full parser it replaced.

The reference below writes every subparser out by hand, where
``_build_parser`` builds them from the option table. Help and usage errors
are the whole surface a parser shows, so exit code, stdout and stderr must
match byte for byte, at a wide and a narrow terminal: for no arguments,
top-level help, unknown commands, each command's help, missing and
malformed options, extra arguments, options placed before the command and
an int option past the interpreter's digit limit for int(). Argument lists
that parse must give the same namespace, and where the plain-argv path reads an
argument list without argparse, it must give argparse's namespace.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergopt.cli_reports import _build_parser, _plain_args, main


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergopt",
        description="Exact reports for optimal averages on subshifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, schedule: bool = False) -> None:
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if schedule:
            p.add_argument("--schedule", type=int, help="override discount schedule k_max")

    common(sub.add_parser("beta", help="optimal average with certificate"))
    p_sub = sub.add_parser("subaction", help="maximal, calibrated, or u0 sub-action")
    common(p_sub, schedule=True)
    p_sub.add_argument("--kind", choices=("maximal", "calibrated", "u0"), default="maximal")
    common(sub.add_parser("mane", help="excursion costs and critical classes"))
    p_cls = sub.add_parser("classify", help="calibrated sub-action from boundary data")
    common(p_cls)
    p_cls.add_argument("--boundary", required=True, help="one rational per critical class")
    common(sub.add_parser("alpha", help="Legendre value at the config's multiplier"))
    p_chk = sub.add_parser("check", help="invariant suite including oracles")
    common(p_chk, schedule=True)
    return parser


COMMANDS = ("beta", "subaction", "mane", "classify", "alpha", "check")

# argument lists that end in help (exit 0) or a usage error (exit 2)
EXITING = [
    [],
    ["-h"],
    ["--help"],
    ["bench"],
    ["betaa", "--config", "f.cfg"],
    ["-h", "beta"],
    *([command, "--help"] for command in COMMANDS),
    ["beta", "-h", "--config"],
    ["beta"],
    ["mane", "--out", "o.json"],
    ["classify", "--config", "f.cfg"],
    ["beta", "--config"],
    ["subaction", "--config", "f.cfg", "--kind", "bogus"],
    ["mane", "--config", "f.cfg", "--format", "xml"],
    ["check", "--config", "f.cfg", "--schedule", "x"],
    ["beta", "--config", "f.cfg", "--schedule", "3"],
    ["alpha", "--config", "f.cfg", "--kind", "u0"],
    ["beta", "--config", "f.cfg", "extra"],
    ["beta", "mane", "--config", "f.cfg"],
    ["beta", "--config", "f.cfg", "--", "extra"],
    ["--config", "f.cfg", "beta"],
    ["--format", "csv", "mane", "--config", "f.cfg"],
    ["--", "beta", "--config", "f.cfg"],
    ["check", "--config", "f.cfg", "--schedule", "1" * 5000],
]


def argv_id(argv) -> str:
    return " ".join(t if len(t) < 40 else f"<{len(t)} chars>" for t in argv) or "<none>"

PARSING = [
    ["beta", "--config", "f.cfg"],
    ["beta", "--conf", "f.cfg", "--out", "o.json"],
    ["subaction", "--config", "f.cfg", "--kind", "u0", "--schedule", "5"],
    ["subaction", "--config=f.cfg", "--k", "calibrated"],
    ["mane", "--format", "csv", "--config", "f.cfg"],
    ["classify", "--config", "f.cfg", "--boundary", "0,1/2"],
    ["alpha", "--config", "f.cfg"],
    ["check", "--config", "f.cfg", "--schedule", "3", "--format", "csv"],
]


def run(call, argv):
    """(exit code or None, namespace dict or None, stdout, stderr) of call(argv)."""
    out, err = io.StringIO(), io.StringIO()
    code = namespace = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as exc:
            code = exc.code
        else:
            namespace = vars(result)
    return code, namespace, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("columns", ["80", "40"])
@pytest.mark.parametrize("argv", EXITING, ids=argv_id)
def test_help_and_usage_errors_match_the_full_parser(argv, columns, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    expected = run(lambda a: reference_parser().parse_args(a), list(argv))
    got = run(main, list(argv))
    assert expected[0] in (0, 2)
    assert got == expected


@pytest.mark.parametrize("argv", PARSING, ids=" ".join)
def test_parsed_namespaces_match_the_full_parser(argv):
    expected = run(lambda a: reference_parser().parse_args(a), argv)
    got = run(lambda a: _build_parser().parse_args(a), argv)
    assert expected[0] is None
    assert got == expected


def test_main_without_argv_reads_the_command_line(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", ["ergopt", "subaction", "--help"])
    expected = run(lambda a: reference_parser().parse_args(a), ["subaction", "--help"])
    assert run(main, None) == expected


# ---------------------------------------------------------------------------
# the plain-argv path against argparse

# values each option accepts, then abbreviations, '=' forms, help, stray
# and option-like tokens, and values argparse reads its own way or rejects
GOOD = {
    "--config": ("f.cfg", "beta", ""),
    "--out": ("o.json", "a=b"),
    "--format": ("json", "csv"),
    "--kind": ("maximal", "calibrated", "u0"),
    "--schedule": ("3", "64", "007"),
    "--boundary": ("0,1/2", "1"),
}
ODD_FLAGS = (
    "--conf", "--k", "--form", "--sched", "--b", "--o", "--config=f.cfg",
    "--format=csv", "--schedule=3", "--kind=u0", "-h", "--help", "--", "-x",
    "--bogus", "extra",
)
ODD_VALUES = (
    "xml", "bogus", "", " 3", "3 ", "+3", "\u0663", "-1", "-x", "--", "--config", "-",
)


@st.composite
def argvs(draw):
    """A command and options with accepted values, then up to two near misses.

    A near miss replaces a value or an option, repeats an option, inserts a
    stray token or drops one, so each check of the plain path meets argvs
    that only it turns away.
    """
    command = draw(st.sampled_from(COMMANDS + ("bench",)))
    flags = draw(st.lists(st.sampled_from(tuple(GOOD)), unique=True, max_size=4))
    pairs = [(flag, draw(st.sampled_from(GOOD[flag]))) for flag in ["--config", *flags]]
    argv = [command, *(token for pair in draw(st.permutations(pairs)) for token in pair)]
    any_value = st.sampled_from(ODD_VALUES + sum(GOOD.values(), ()))
    for _ in range(draw(st.integers(0, 2))):
        miss = draw(st.sampled_from(("value", "option", "repeat", "insert", "drop")))
        pair = draw(st.integers(0, (len(argv) - 1) // 2))
        if miss == "value" and pair:
            argv[2 * pair] = draw(any_value)
        elif miss == "option" and pair:
            argv[2 * pair - 1] = draw(st.sampled_from(ODD_FLAGS))
        elif miss == "repeat":
            flag = draw(st.sampled_from(argv[1::2] or ["--config"]))
            argv[2 * pair + 1 : 2 * pair + 1] = [flag, draw(any_value)]
        elif miss == "insert":
            stray = draw(st.sampled_from(ODD_FLAGS + ODD_VALUES))
            argv.insert(draw(st.integers(0, len(argv))), stray)
        elif miss == "drop" and len(argv) > 1:
            del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argvs())
def test_the_plain_path_agrees_with_argparse_where_it_answers(argv):
    plain = _plain_args(argv)
    if plain is not None:
        expected = run(lambda a: _build_parser().parse_args(a), argv)
        assert expected == (None, vars(plain), "", "")


def load_generator():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "generator.py"
    spec = importlib.util.spec_from_file_location("perfbench_generator", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_benchmark_argv_takes_the_plain_path():
    generator = load_generator()
    shapes = set()
    for workload in generator.WORKLOADS:
        for op in generator.operations(workload):
            argv = [*op.argv, "--config", "in.cfg", "--out", "report.out"]
            if op.command == "classify":
                argv += ["--boundary", "0,0"]
            shapes.add(tuple(argv))
    # every command, csv reports, the u0 and calibrated kinds and a boundary
    assert {argv[0] for argv in shapes} == set(COMMANDS)
    assert {"csv", "u0", "calibrated", "0,0"} <= {token for argv in shapes for token in argv}
    for argv in sorted(shapes):
        assert _plain_args(argv) == reference_parser().parse_args(list(argv))
