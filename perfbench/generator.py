"""Seeded inputs for the ergopt benchmark: config files and operation lists.

Every input is a function of (seed, pass index, input name) only, so the same
seed gives the same config bytes on every machine, and pass k of one run sees
the same inputs as pass k of any other run with that seed. No input repeats
inside one pass list of a run, so a cache kept across invocations cannot show
up as a gain: real users start one process per command.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

Word = tuple[int, ...]

WEIGHT_NUMERATOR = 20  # weights are n/d with n in [-20, 20]


@dataclass(frozen=True)
class Rung:
    """One generated instance shape: shift, window depths, weight denominators.

    ``constraint`` is None, ``"c"`` (multiplier 1/2, so ``alpha`` applies) or
    ``"h"`` (target 1/3, so ``beta`` also solves the constrained LP). Both use
    the indicator of a 0 in the first future position.
    """

    name: str
    r: int
    rows: tuple[tuple[int, ...], ...]
    p: int
    q: int
    den: int
    constraint: str | None = None

    def describe(self) -> dict:
        return {
            "name": self.name,
            "r": self.r,
            "rows": [list(row) for row in self.rows],
            "p": self.p,
            "q": self.q,
            "den_max": self.den,
            "constraint": self.constraint,
            "nodes": len(allowed_words(self.rows, self.q)),
        }


def full(r: int) -> tuple[tuple[int, ...], ...]:
    return tuple((1,) * r for _ in range(r))


GOLDEN = ((1, 1), (1, 0))


def _rung(kind: str, r: int, q: int, p: int = 1, den: int = 10, constraint=None) -> Rung:
    rows = GOLDEN if kind == "golden" else full(r)
    name = f"{kind}{r if kind == 'full' else ''}_q{q}" + (f"_p{p}" if p > 1 else "")
    return Rung(name, r, rows, p, q, den, constraint)


# The exact LP dominates beta here; no command builds the excursion matrix.
# The full 2-shift at q=6 (64 nodes) is left out: its beta took 1.2 to 3.2 s
# depending on the weights, 60% of a pass, so with the about ten passes a run
# holds, the median pass time moved 16% between seeds.
OPTIMUM_RUNGS = (
    _rung("full", 2, 3, constraint="c"),
    _rung("full", 2, 4, constraint="h"),
    _rung("full", 2, 5),
    _rung("golden", 2, 5, constraint="c"),
    _rung("golden", 2, 7, den=1000),
    _rung("full", 3, 2),
    _rung("full", 3, 3),
    _rung("full", 4, 2),
    _rung("full", 2, 4, p=3),
)

# Floyd-Warshall dominates mane, classify and u0 here; there is no LP. The
# full 2-shift at q=7 (128 nodes) is left out: with it a pass took about 16 s,
# so a run held two passes, too few for a median that holds on a shared
# 2-vCPU host.
EXCURSION_RUNGS = (
    _rung("full", 2, 4),
    _rung("full", 2, 6),
    _rung("golden", 2, 6),
    _rung("golden", 2, 8, den=1000),
    _rung("full", 3, 3),
    _rung("full", 4, 3),
    _rung("full", 2, 5, p=2),
)

# Bundled fixtures; check runs its brute-force oracles only on these, because
# it does not finish in bounded time on 8 or more nodes.
CORPUS = (
    "f1",
    "f3",
    "f5",
    "f6",
    "golden_q1",
    "golden_q2",
    "counterexample_tails",
    "reducible",
)

NEEDS_TRANSITIVE = {"mane", "classify", "u0", "calibrated"}


@dataclass(frozen=True)
class Op:
    """One CLI command on one input; ``argv`` excludes --config and --out."""

    input: str
    command: str  # beta, alpha, mane, classify, u0, calibrated, check
    argv: tuple[str, ...]
    expect_exit: int = 0


def _argv(command: str, fmt: str = "json") -> tuple[str, ...]:
    if command in ("u0", "calibrated"):
        return ("subaction", "--kind", command)
    if command == "mane":
        return ("mane", "--format", fmt)
    return (command,)


def operations(workload: str) -> list[Op]:
    """The fixed operation list of one pass; inputs vary by pass, not ops."""
    ops: list[Op] = []
    if workload == "optimum_ladder":
        for rung in OPTIMUM_RUNGS:
            ops.append(Op(rung.name, "beta", _argv("beta")))
            if rung.constraint == "c":
                ops.append(Op(rung.name, "alpha", _argv("alpha")))
    elif workload == "excursion_ladder":
        for i, rung in enumerate(EXCURSION_RUNGS):
            fmt = "json" if i % 2 == 0 else "csv"
            for command in ("mane", "classify", "u0", "calibrated"):
                ops.append(Op(rung.name, command, _argv(command, fmt)))
    elif workload == "check_corpus":
        for name in CORPUS:
            commands = ["check", "beta", "mane", "u0", "calibrated"]
            if name == "f5":
                commands.append("alpha")
            for command in commands:
                expect = 3 if name == "reducible" and command in NEEDS_TRANSITIVE else 0
                ops.append(Op(name, command, _argv(command), expect))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


WORKLOADS = ("optimum_ladder", "excursion_ladder", "check_corpus")

# The small input whose operations warm up each command before timing starts.
WARMUP = {"optimum_ladder": "full2_q3", "excursion_ladder": "full2_q4", "check_corpus": "f5"}


def rungs(workload: str) -> tuple[Rung, ...]:
    return {"optimum_ladder": OPTIMUM_RUNGS, "excursion_ladder": EXCURSION_RUNGS}.get(workload, ())


def allowed_words(rows, length: int) -> list[Word]:
    """Allowed words in lexicographic order (same order as the program uses)."""
    words: list[Word] = [(s,) for s in range(len(rows))]
    for _ in range(length - 1):
        words = [w + (s,) for w in words for s in range(len(rows)) if rows[w[-1]][s]]
    return words


def _rng(seed: int, k: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{k}:{name}")


def _weight(rng: random.Random, den: int) -> Fraction:
    return Fraction(rng.randint(-WEIGHT_NUMERATOR, WEIGHT_NUMERATOR), rng.randint(1, den))


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _symbols(word: Word) -> str:
    return " ".join(str(s) for s in word)


@dataclass(frozen=True)
class Instance:
    """A config's text plus what the checker needs to verify reports of it."""

    name: str
    text: str
    p: int
    table: dict  # every allowed (p+q)-window -> Fraction
    has_target: bool = False  # the config sets a moment target h


def _config_text(header: str, rows, p: int, q: int, table: dict, constraints: list[str]) -> str:
    lines = [f"# {header}", "[system]", f"alphabet_size = {len(rows)}"]
    lines += [f"row = {_symbols(row)}" for row in rows]
    lines += ["", "[potential]", f"past_depth = {p}", f"future_depth = {q}"]
    lines += [f"window {_symbols(w)} = {_rat(v)}" for w, v in table.items()]
    if constraints:
        lines += ["", "[constraints]"] + constraints
    return "\n".join(lines) + "\n"


def _indicator_block(rows, vector_line: str) -> list[str]:
    """phi1 = indicator of a 0 in the first future position."""
    return [f"phi1 {a} 0 = 1" for a in range(len(rows)) if rows[a][0]] + [vector_line]


def rung_instance(rung: Rung, seed: int, k: int) -> Instance:
    rng = _rng(seed, k, rung.name)
    table = {w: _weight(rng, rung.den) for w in allowed_words(rung.rows, rung.p + rung.q)}
    constraints = []
    if rung.constraint == "c":
        constraints = _indicator_block(rung.rows, "c = 1/2")
    elif rung.constraint == "h":
        constraints = _indicator_block(rung.rows, "h = 1/3")
    header = (
        f"rung {rung.name}: r={rung.r} p={rung.p} q={rung.q} den<={rung.den} "
        f"constraint={rung.constraint} seed={seed} pass={k}"
    )
    text = _config_text(header, rung.rows, rung.p, rung.q, table, constraints)
    return Instance(rung.name, text, rung.p, table, rung.constraint == "h")


def parse_fixture(text: str) -> dict:
    """Split a bundled fixture into rows, depths, window table and other lines."""
    section = None
    out: dict = {"rows": [], "windows": {}, "system": [], "constraints": [], "solver": []}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line[1:-1].strip()
            continue
        lhs, rhs = (part.strip() for part in line.split("=", 1))
        parts = lhs.split()
        if section == "system" and parts[0] == "row":
            out["rows"].append(tuple(int(t) for t in rhs.split()))
        elif section == "system" and parts[0] == "alphabet_size":
            continue
        elif section == "potential" and parts[0] == "window":
            out["windows"][tuple(int(t) for t in parts[1:])] = Fraction(rhs)
        elif section == "potential":
            out[parts[0]] = int(rhs)
        else:
            out[section].append(f"{lhs} = {rhs}")
    return out


def fixture_instance(name: str, fixture_text: str, seed: int, k: int) -> Instance:
    """A bundled fixture with every window shifted by one seeded constant.

    Adding a constant to every window moves beta and alpha by that constant
    and leaves every cost beta - weight unchanged, so each check keeps its
    verdict while the config bytes differ from pass to pass.
    """
    parsed = parse_fixture(fixture_text)
    rows = tuple(parsed["rows"])
    p, q = parsed["past_depth"], parsed["future_depth"]
    shift = _weight(_rng(seed, k, name), 10)
    table = {
        w: parsed["windows"].get(w, Fraction(0)) + shift for w in allowed_words(rows, p + q)
    }
    header = f"fixture {name} shifted by {_rat(shift)}: seed={seed} pass={k}"
    lines = list(_config_text(header, rows, p, q, table, parsed["constraints"]).splitlines())
    system_extra = parsed["system"]
    if system_extra:
        at = lines.index("[potential]") - 1
        lines[at:at] = system_extra
    if parsed["solver"]:
        lines += ["", "[solver]"] + parsed["solver"]
    has_target = any(line.startswith("h =") for line in parsed["constraints"])
    return Instance(name, "\n".join(lines) + "\n", p, table, has_target)


def pass_instances(workload: str, seed: int, k: int, fixture_text=None) -> list[Instance]:
    """All inputs of pass k, in operation order.

    ``fixture_text`` maps a fixture name to its bundled text; only the
    check_corpus workload needs it.
    """
    if workload == "check_corpus":
        return [fixture_instance(n, fixture_text(n), seed, k) for n in CORPUS]
    return [rung_instance(rung, seed, k) for rung in rungs(workload)]
