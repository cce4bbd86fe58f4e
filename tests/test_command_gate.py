"""Every command ends with its documented exit code on random configs that parse.

A seeded generator writes configs over random 0/1 matrices (r <= 4, no zero
row or column, about 45% reducible), past and future depths up to 3 with at
most 400 windows, generic, {0, 1} or sparse weights, a metric lambda of 1/2,
1/4 or 1/10, and a constraint block of width 2 or 3 with a ``c`` or ``h``
vector in 40% of them. Each config goes
through every command variant in process, ``classify`` with one boundary
value per critical class, and one variant a config again with
``--format csv``. Any exception that escapes ``main`` fails the test, and so
does a ``check`` item that raised (status "error") or failed.

A second generator writes configs of a few lines that name a large implicit
table: deep windows over 2 or 3 symbols, or up to 10 symbols, with at most
three windows listed (unlisted windows are 0). One past ``MAX_WINDOW_LENGTH``
or ``MAX_WINDOW_WORDS`` must exit 2 from every command within 1 s; one under
them, drawn with at most 1024 windows, goes through every command as above.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time

from ergopt.cli_reports import MAX_WINDOW_LENGTH, MAX_WINDOW_WORDS, main, parse_config_text
from ergopt.symbolic_core import SubshiftSystem, allowed_words, classify_transitivity

CONFIGS = 40
SECONDS = 10
LARGE_CONFIGS = 16
LARGE_UNDER_CAP = 1024

VARIANTS = (
    ("beta",),
    ("subaction", "--kind", "maximal"),
    ("subaction", "--kind", "u0"),
    ("subaction", "--kind", "calibrated"),
    ("mane",),
    ("classify",),
    ("alpha",),
    ("check",),
)

# exit codes each command documents on a config that parses: 1 a check
# failed, 2 a config error found by the command (alpha without c), 3 a
# hypothesis not met, 4 the discount schedule ran out
EXIT_CODES = {
    "beta": {0, 3},
    "subaction": {0, 3, 4},
    "mane": {0, 3},
    "classify": {0, 3},
    "alpha": {0, 2, 3},
    "check": {0, 1},
}
STDERR_PREFIX = {2: "config error: ", 3: "hypothesis not met: ", 4: "non-convergence: "}
# the (item, status) pairs a check report may hold besides pass and skip:
# none, so every failing or raising item fails the gate
KNOWN_CHECK_FAILURES: set[tuple[str, str]] = set()


def _random_rows(rng: random.Random, r: int, reducible: bool) -> tuple[tuple[int, ...], ...]:
    while True:
        rows = tuple(tuple(int(rng.random() < 0.6) for _ in range(r)) for _ in range(r))
        if any(not any(row) for row in rows) or any(not any(col) for col in zip(*rows)):
            continue
        kind = classify_transitivity(SubshiftSystem(r, rows)).kind
        if (kind == "reducible") == reducible:
            return rows


def _rational(rng: random.Random, den: int) -> str:
    return f"{rng.randint(-20, 20)}/{rng.randint(1, den)}"


# the metric lambdas drawn: below 1/2, check's eps = 1/64 asks fewer than q
# leading symbols to agree, which the omega oracle raises to q
LAMBDAS = ("1/2", "1/4", "1/10")


def random_config(rng: random.Random, i: int) -> str:
    """Config text from rng; config i's lambda comes from its own Random(i).

    Drawing lambda apart leaves every draw from rng as it was before lambda
    was drawn.
    """
    while True:
        r = rng.randint(2, 4)
        rows = _random_rows(rng, r, reducible=rng.random() < 0.45)
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        system = SubshiftSystem(r, rows)
        words = allowed_words(system, p + q)
        if len(words) <= 400:
            break
    lines = ["[system]", f"alphabet_size = {r}", f"lambda = {random.Random(i).choice(LAMBDAS)}"]
    lines += [f"row = {' '.join(map(str, row))}" for row in rows]
    lines += ["", "[potential]", f"past_depth = {p}", f"future_depth = {q}"]
    kind = rng.choice(("generic", "binary", "sparse"))
    den = rng.choice((10, 1000))
    for word in words:
        if kind == "binary":
            value = str(rng.randint(0, 1))
        elif kind == "sparse" and rng.random() > 0.15:
            continue  # unlisted windows are 0
        else:
            value = _rational(rng, den)
        lines.append(f"window {' '.join(map(str, word))} = {value}")
    if rng.random() < 0.4:
        lines += ["", "[constraints]"]
        for word in allowed_words(system, rng.randint(2, 3)):
            lines.append(f"phi1 {' '.join(map(str, word))} = {rng.randint(0, 1)}")
        if rng.random() < 0.5:
            lines.append(f"c = {_rational(rng, 10)}")
        else:
            lines.append(f"h = {rng.randint(0, 4)}/4")
    return "\n".join(lines) + "\n"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_every_command_exits_with_a_documented_code(tmp_path):
    rng = random.Random(2026)
    path = tmp_path / "random.cfg"
    codes: dict[str, set[int]] = {}
    start = time.perf_counter()
    for i in range(CONFIGS):
        text = random_config(rng, i)
        parse_config_text(text)
        path.write_text(text)
        classes = 1
        runs = [list(v) for v in VARIANTS]
        runs.append(runs[i % len(runs)] + ["--format", "csv"])
        for variant in runs:
            argv = variant + ["--config", str(path)]
            if variant[0] == "classify":
                argv.append("--boundary=" + ",".join(["0"] * classes))
            rc, out, err = _run(argv)
            context = f"{variant} on config {i}:\n{text}"
            assert rc in EXIT_CODES[variant[0]], context
            if rc in STDERR_PREFIX:
                assert err.startswith(STDERR_PREFIX[rc]), context
            else:
                assert err == "", context
            if variant == ["check"] and rc == 1:
                # an exception inside an item is reported with status "error"
                items = json.loads(out)["checks"]
                bad = [c for c in items if c["status"] in ("fail", "error")]
                failed = {(c["name"], c["status"]) for c in bad}
                assert failed <= KNOWN_CHECK_FAILURES, context
            if variant == ["mane"] and rc == 0:
                classes = len(json.loads(out)["classes"])
            codes.setdefault(" ".join(variant[:3]), set()).add(rc)
    elapsed = time.perf_counter() - start
    # the default schedule reaches the discount limit on every config
    assert 4 not in codes["subaction --kind calibrated"]
    # the generator reaches both sides of the transitivity guards
    assert codes["subaction --kind u0"] == {0, 3}
    assert elapsed <= SECONDS


def _word_count(rows, length: int, cap: int) -> int:
    """The allowed words of this length, or cap + 1 once the count passes cap."""
    counts = [1] * len(rows)
    for _ in range(length - 1):
        counts = [sum(c for a, c in enumerate(counts) if rows[a][b]) for b in range(len(rows))]
        if sum(counts) > cap:
            return cap + 1
    return sum(counts)


def large_table_config(rng: random.Random) -> tuple[str, bool]:
    """Config text of a few lines, and whether its windows pass a size bound."""
    while True:
        if rng.random() < 0.5:
            r, p, q = rng.randint(2, 3), rng.randint(1, 3), rng.randint(1, 80)
        else:
            r, p, q = rng.randint(5, 10), 1, rng.randint(1, 5)
        rows = _random_rows(rng, r, reducible=rng.random() < 0.3)
        words = _word_count(rows, p + q, MAX_WINDOW_WORDS)
        past = p + q > MAX_WINDOW_LENGTH or words > MAX_WINDOW_WORDS
        if past or words <= LARGE_UNDER_CAP:
            break
    lines = ["[system]", f"alphabet_size = {r}"]
    lines += [f"row = {' '.join(map(str, row))}" for row in rows]
    lines += ["[potential]", f"past_depth = {p}", f"future_depth = {q}"]
    listed = {}
    for _ in range(rng.randint(0, 3)):
        # a walk on allowed transitions; a word drawn twice keeps its last value
        word = [rng.randrange(r)]
        while len(word) < p + q:
            word.append(rng.choice([b for b in range(r) if rows[word[-1]][b]]))
        listed[" ".join(map(str, word))] = _rational(rng, 10)
    lines += [f"window {word} = {value}" for word, value in listed.items()]
    return "\n".join(lines) + "\n", past


def test_a_large_implicit_table_exits_2_or_runs(tmp_path):
    rng = random.Random(2027)
    path = tmp_path / "large.cfg"
    seen = set()
    for i in range(LARGE_CONFIGS):
        text, past = large_table_config(rng)
        path.write_text(text)
        classes = 1
        for variant in VARIANTS:
            argv = list(variant) + ["--config", str(path)]
            if variant[0] == "classify":
                argv.append("--boundary=" + ",".join(["0"] * classes))
            start = time.perf_counter()
            rc, out, err = _run(argv)
            elapsed = time.perf_counter() - start
            context = f"{variant} on large config {i}:\n{text}"
            if past:
                assert (rc, out) == (2, ""), context
                assert err.startswith("config error: window length "), context
                assert elapsed < 1, context
                seen.add("length" if "is above the bound" in err else "words")
                continue
            seen.add("under")
            assert rc in EXIT_CODES[variant[0]], context
            if rc in STDERR_PREFIX:
                assert err.startswith(STDERR_PREFIX[rc]), context
            else:
                assert err == "", context
            if variant == ("check",) and rc == 1:
                bad = [c for c in json.loads(out)["checks"] if c["status"] in ("fail", "error")]
                assert {(c["name"], c["status"]) for c in bad} <= KNOWN_CHECK_FAILURES, context
            if variant == ("mane",) and rc == 0:
                classes = len(json.loads(out)["classes"])
    # the generator passes the length bound, the word bound, and neither
    assert seen == {"length", "words", "under"}
