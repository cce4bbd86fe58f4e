"""Report bytes of the CLI pinned by SHA-256 digests.

Each digest covers the exit code, standard output and standard error of one
``main`` call on a bundled fixture, for mane (JSON and CSV), classify,
subaction --kind u0 and calibrated, beta and check. The digests were taken
from the code that held the excursion matrix as Fractions, so any change to
a report byte fails here; ``test_reports_byte_stable`` only compares two runs
of the same code. The calibrated digests were re-recorded when the discount
route began to accept the exact bias of the first optimal policy shown
bias-optimal: only their ``discount_trace`` changed, which now ends at k = 1
with no ``delta_float``.

The last test runs the same corpus under python3.10, python3.12 and
python3.13 (``requires-python = ">=3.10"``). It takes the interpreter on the
path or, when that one does not start (a pyenv shim exits 127 unless
``PYENV_VERSION`` names its version), one that pyenv installs, and skips a
version only when none of them starts.

Four seeded configs at the size of the excursion benchmark rungs go through
every command but ``check`` (whose oracles are unbounded at 8 or more
nodes): the full 2-shift at q = 6, the golden-mean shift at q = 8 with
weight denominators up to 1000, the full 4-shift at q = 3 and the full
2-shift at p = 2, q = 5. They are generated here from ``random.Random`` so
that their bytes do not depend on the benchmark's own generator.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import shutil
import subprocess
from pathlib import Path

import pytest

from ergopt import fixtures
from ergopt.cli_reports import main

COMMANDS = {
    "beta": ["beta"],
    "mane_json": ["mane"],
    "mane_csv": ["mane", "--format", "csv"],
    "classify": ["classify"],
    "u0": ["subaction", "--kind", "u0"],
    "calibrated": ["subaction", "--kind", "calibrated"],
    "check": ["check"],
}

# f5 has two critical classes; "1/2,-2" is incompatible there, so the
# reconstruction clips it
BOUNDARY = {"f5": "1/2,-2"}

GOLDEN = {
    "f1/beta": "1ed52a7f20ea5b199f19ac169cb40f8f053b0d342d41628293a90ae68d5c48ba",
    "f1/mane_json": "182cfb73abc8c96603c7ab998315b2d20c274dd9b080f1fff78f5153d204497e",
    "f1/mane_csv": "3ed9ad2c98144126880b09863af11e159b3ae27c9e1677289dacb10ceaa7f584",
    "f1/classify": "b8ee8a40dcb0309510592f2b00a1d7b873492b4cee6a161d6e2b8c79c3aed8ac",
    "f1/u0": "2702f83bd421472be289638ccdf367ec845cfd81129f9a73860696db18d96901",
    "f1/calibrated": "3a0bd174e77af877f4b26ac469c52bd6ab6d04315c2164945ded681060fa7f1a",
    "f1/check": "2821888b2692f57e3b2647a97f8c565028caebb3e7bc5ea9a290029c5a00a580",
    "f3/beta": "d684520ebeaa0fe0976193876ff3617b44b838d4df9a5d4d40b471d4e5cb6b3c",
    "f3/mane_json": "2e53cd63dab30a9b3c2a08a2563aaa71d6c0257d1c27732c058565eaecae2525",
    "f3/mane_csv": "d3d045d351a5412fcae134f31352984953e3b3b2e50d8639aa6cf60bd9602d28",
    "f3/classify": "be3e1cd35ef5f6c424b79a61cfd54c0c8a3078b126a7ea75424851607e9f2cb4",
    "f3/u0": "a59c71b5b9c94eb1bf6eafd904674c030fb95d4b24021a1e5a093206a81f6cf1",
    "f3/calibrated": "75434a4614cdf8a9921a4c29c62f44422ab87272d0c2564dd2b30d74c0f8dcaa",
    "f3/check": "977bb48757e5f9bdc71d252c8431f6c61c936d224bc9ea72158b41beb0c297ce",
    "f5/beta": "cfeeaaa67ac09832278f6e52b64538dce0f83767aae78cc69feaf39bdb970d75",
    "f5/mane_json": "911cdf6525d9fa726c58dd4c9e03e5956757c522b67e5fa969f6270f2fbb5af5",
    "f5/mane_csv": "761eaddcad10202da906760feba2de19b1cbfe471c6100b5d0d5743f5198989e",
    "f5/classify": "4c602305911e474240a82e132cda81e1d53278796e13575c58a132b3683dffa7",
    "f5/u0": "f42eacc9658b380a363f8949ce8617ddc29beaea6f0bf8d33da23ca400c64126",
    "f5/calibrated": "9bd91acd092f2c2683bb1e242c779a9c640951b5a1ec4bf754847a6745d72951",
    "f5/check": "2821888b2692f57e3b2647a97f8c565028caebb3e7bc5ea9a290029c5a00a580",
    "f6/beta": "d5d2d4345c73708d14c6fdbd02dc2abb2631932b10805ccfccd85f63b6942066",
    "f6/mane_json": "ac9b299cf9826a27ee6cdc3585ee35a947062be7be8449f2955656446963c4c3",
    "f6/mane_csv": "89f3ef3a3f8264d467d90d089b768ce429457340914f6f84fb2b107d5e839417",
    "f6/classify": "cc3b3c7a4d913a1f16745b5c19ef0f77b8b053875cb69b2fcfed4144eaec4e09",
    "f6/u0": "f882a6437cd3a622d6280ace467dd588b61beab469cc667c8fadb4becbc8fc0e",
    "f6/calibrated": "f84740bb1a7ce7486d288f6a6ec86ed1cd002da7b9a6dc4f9ddc31139f60a315",
    "f6/check": "2821888b2692f57e3b2647a97f8c565028caebb3e7bc5ea9a290029c5a00a580",
    "golden_q1/beta": "fd7e6f987db5432b40cb32f6e353f8c9311651641c82b9f35a16ea4b68f43145",
    "golden_q1/mane_json": "0317ce49ee7fb983c82728a295658fd50e7e0a002a42e8eee6d92ab211232142",
    "golden_q1/mane_csv": "ed08c2acb913197e0cf9a29d278ebb78e011d650b7f1064248df7011a960d1f0",
    "golden_q1/classify": "46e52b8f4f77852224506110aa460e8b7a4c717ce76c6861aa76e28d009d32e6",
    "golden_q1/u0": "fda22e002fd5b3eae655d3793633d6291b313ec3418a19ddf9b2faa918625418",
    "golden_q1/calibrated": "d70518664000d58233096e65f409329d418b9fd88abe880e10d4fb48699babe9",
    "golden_q1/check": "51e69323fdfc9e654ec456339d1ba72d9beda2e595e03d16bb0079934d1beb1d",
    "golden_q2/beta": "1a0880c5c73a144df081a1cf9a6332258a4531071c09d0111d6f8a31cc7fb980",
    "golden_q2/mane_json": "d53e0a86250345e65646e10eadd751685a48d8908bfe88a268892b54ad5d1737",
    "golden_q2/mane_csv": "0f441c95a3fad5852ef3693fb361acb1fd42ac7bce77f3ccdc17eed3dac5e9f8",
    "golden_q2/classify": "f842f2292741094249845a23f2c7051abef45fd9e55a99ebb93afca07f16a0c0",
    "golden_q2/u0": "383757d074c2fe5a74b9ecc5dde359781a76131e25555b80bd2f7019690d75c0",
    "golden_q2/calibrated": "22ab691885525c55e4349437f4b6149b0afce3e29465ff8e788c2a69362b7d25",
    "golden_q2/check": "acb0101f66b03a14a3cac4738ac75ff9c916a46c6c3fa76bef3350011e63deb0",
    "counterexample_tails/beta": "1ed52a7f20ea5b199f19ac169cb40f8f053b0d342d41628293a90ae68d5c48ba",
    "counterexample_tails/mane_json": "182cfb73abc8c96603c7ab998315b2d20c274dd9b080f1fff78f5153d204497e",
    "counterexample_tails/mane_csv": "3ed9ad2c98144126880b09863af11e159b3ae27c9e1677289dacb10ceaa7f584",
    "counterexample_tails/classify": "b8ee8a40dcb0309510592f2b00a1d7b873492b4cee6a161d6e2b8c79c3aed8ac",
    "counterexample_tails/u0": "2702f83bd421472be289638ccdf367ec845cfd81129f9a73860696db18d96901",
    "counterexample_tails/calibrated": "3a0bd174e77af877f4b26ac469c52bd6ab6d04315c2164945ded681060fa7f1a",
    "counterexample_tails/check": "2821888b2692f57e3b2647a97f8c565028caebb3e7bc5ea9a290029c5a00a580",
    "reducible/beta": "cfeeaaa67ac09832278f6e52b64538dce0f83767aae78cc69feaf39bdb970d75",
    "reducible/mane_json": "2ba59684254875a84298d05a39f765de9a2e7dfd4d95f550a490d6eff0c76150",
    "reducible/mane_csv": "2ba59684254875a84298d05a39f765de9a2e7dfd4d95f550a490d6eff0c76150",
    "reducible/classify": "2ba59684254875a84298d05a39f765de9a2e7dfd4d95f550a490d6eff0c76150",
    "reducible/u0": "2ba59684254875a84298d05a39f765de9a2e7dfd4d95f550a490d6eff0c76150",
    "reducible/calibrated": "2ba59684254875a84298d05a39f765de9a2e7dfd4d95f550a490d6eff0c76150",
    "reducible/check": "e2044466653c520eef7c75ed80167b927fb6621a569ad0b37c7050eed3826a06",
}


FULL2 = ((1, 1), (1, 1))
GOLDEN_MEAN = ((1, 1), (1, 0))
FULL4 = ((1, 1, 1, 1),) * 4

# name -> (seed, rows, past depth, future depth, largest weight denominator)
GENERATED = {
    "full2_q6": (1, FULL2, 1, 6, 10),
    "golden_q8": (2, GOLDEN_MEAN, 1, 8, 1000),
    "full4_q3": (3, FULL4, 1, 3, 10),
    "full2_q5_p2": (4, FULL2, 2, 5, 10),
}

GENERATED_GOLDEN = {
    "full2_q5_p2/beta": "7a741ceb145c9b1c3b7a9937abe8f37c96667916d96ab4c17cb23dc191fef79d",
    "full2_q5_p2/calibrated": "e49ef5669c9ca2121b8ac8521811513caf7606d395f24887638c7d3dd64b64ea",
    "full2_q5_p2/classify": "15871a5d89ae299072ae75f94227f53dfc1eb2641be320f1ea957e85bbbd342e",
    "full2_q5_p2/mane_csv": "8b98c84bb0eceeefae173536e3a90947f0b51abeb550873cfe3541ca4926ebcf",
    "full2_q5_p2/mane_json": "b49df08873bbbad82eff7cefe6784a46dc1f31fc2368136fe5252eed8b785aa2",
    "full2_q5_p2/u0": "d25345a262fcb0316990c6ff255428d3aeeddec6d15e46b7ae7c2bb07bd42229",
    "full2_q6/beta": "78f16f003c5f01abc2521f7a36f631f80a8b707b6089bbde1f4fed9c541ba283",
    "full2_q6/calibrated": "37891df34a892f90aa841ee2c5c80a95d172a9715d1747bb258c6ec18361322d",
    "full2_q6/classify": "3deca1683a39d8ac434fa5f77a11977cde78e06abefc8db3b27061cc87d04cd3",
    "full2_q6/mane_csv": "4e4761fb882acba26eb183839254070fe7f41a142082c2d5f193769aabf92fdb",
    "full2_q6/mane_json": "60efc537d1d1903d54ecf961388fe3e341b6cd354fc097175886bd7ae3baf8cf",
    "full2_q6/u0": "49c1f3b9b31db6bc5f8a2daae0e50e5f05ec3e00034374d07df87dfa01e3e072",
    "full4_q3/beta": "82cfb6794f416705872736ee78c60bb0abdf291808f73c8a2fc3db5a76bf47ba",
    "full4_q3/calibrated": "67fd4d1347cd18740a2e3d344c7f891659e57cdbd31a660b6805d4fde778f0c5",
    "full4_q3/classify": "13ce1a10cc43c7ad9a600d037ac8cc2297bd5a783e7e17ac4abf0fa53e740f6f",
    "full4_q3/mane_csv": "3c794126f21c28681bf33a2cff65702ba23d80ca4ad26cf0561aa8d5e6c19f19",
    "full4_q3/mane_json": "6da76a46ec588bd355be1359e7ca722fe61e1a1ac0801ee88f8258be11b182e5",
    "full4_q3/u0": "1f05c367858ce187ac123d06dd2e1172726f2a793501bfd6858267d49078b20b",
    "golden_q8/beta": "035ed1bd01bf750890364d2c579f3d926e3fef8bc613300197320aa57d5075ed",
    "golden_q8/calibrated": "57f11c517f63ff5e9522a086176bafd939cba8c66d95ca97c33b9db1c15d2d14",
    "golden_q8/classify": "3c8ea0987f39e3450c856fa8d5aa4ec99c60674a3a60270936b473d91afe7777",
    "golden_q8/mane_csv": "22653c45a0afd72a1ca512b02104f30daee378ccbaa9f0a4e091b9f91c8af295",
    "golden_q8/mane_json": "04b67e5b053aa3fb53e80f751c6da22c8b65079af8844b14a11213b2e898338c",
    "golden_q8/u0": "b81d211c2dd11948f42508ba5484a1242cdd7f1a92542e21c0c34e774c6b4cbb",
}


def generated_config(seed: int, rows, p: int, q: int, den: int) -> str:
    """A weight n/d, |n| <= 20 and 1 <= d <= den, on every allowed window in word order."""
    rng = random.Random(seed)
    lines = ["[system]", f"alphabet_size = {len(rows)}"]
    lines += ["row = " + " ".join(map(str, row)) for row in rows]
    lines += ["", "[potential]", f"past_depth = {p}", f"future_depth = {q}"]
    for w in itertools.product(range(len(rows)), repeat=p + q):
        if all(rows[a][b] for a, b in zip(w, w[1:])):
            lines.append(f"window {' '.join(map(str, w))} = {rng.randint(-20, 20)}/{rng.randint(1, den)}")
    return "\n".join(lines) + "\n"


def _job(name: str, text: str, label: str) -> tuple[str, str, list[str]]:
    """(digest key, config text, argv after --config) of one recorded report."""
    extra = [f"--boundary={BOUNDARY.get(name, '-3/2')}"] if label == "classify" else []
    return f"{name}/{label}", text, extra


def _digest(tmp_path, capsys, job) -> str:
    key, text, extra = job
    name, label = key.split("/")
    path = tmp_path / f"{name}.cfg"
    path.write_text(text)
    capsys.readouterr()
    rc = main(COMMANDS[label] + ["--config", str(path)] + extra)
    out, err = capsys.readouterr()
    return hashlib.sha256(json.dumps([rc, out, err]).encode()).hexdigest()


def _jobs() -> list[tuple[str, str, list[str]]]:
    jobs = [
        _job(fixture, fixtures.fixture_text(fixture), label)
        for fixture in fixtures.available()
        for label in COMMANDS
    ]
    for name, args in GENERATED.items():
        text = generated_config(*args)
        jobs += [_job(name, text, label) for label in COMMANDS if label != "check"]
    return jobs


@pytest.mark.parametrize("fixture", fixtures.available())
@pytest.mark.parametrize("label", sorted(COMMANDS))
def test_report_bytes_match_the_recorded_digest(tmp_path, capsys, fixture, label):
    job = _job(fixture, fixtures.fixture_text(fixture), label)
    assert _digest(tmp_path, capsys, job) == GOLDEN[f"{fixture}/{label}"]


@pytest.mark.parametrize("name", sorted(GENERATED))
@pytest.mark.parametrize("label", sorted(set(COMMANDS) - {"check"}))
def test_generated_report_bytes_match_the_recorded_digest(tmp_path, capsys, name, label):
    job = _job(name, generated_config(*GENERATED[name]), label)
    assert _digest(tmp_path, capsys, job) == GENERATED_GOLDEN[f"{name}/{label}"]


def test_every_digest_is_used():
    assert set(GOLDEN) == {f"{f}/{c}" for f in fixtures.available() for c in COMMANDS}
    assert set(GOLDEN) | set(GENERATED_GOLDEN) == {key for key, _, _ in _jobs()}


# the corpus above, standard library only, for an interpreter without pytest:
# argv is the source directory and COMMANDS as JSON, standard input the jobs
# as JSON; prints the digests as JSON
CORPUS = """
import contextlib, hashlib, io, json, sys, tempfile
from pathlib import Path

src, commands = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, src)
from ergopt.cli_reports import main

digests = {}
with tempfile.TemporaryDirectory() as tmp:
    for key, text, extra in json.load(sys.stdin):
        name, label = key.split("/")
        path = Path(tmp) / f"{name}.cfg"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(commands[label] + ["--config", str(path)] + extra)
        blob = json.dumps([rc, out.getvalue(), err.getvalue()]).encode()
        digests[key] = hashlib.sha256(blob).hexdigest()
print(json.dumps(digests))
"""

SRC = Path(__file__).resolve().parents[1] / "src"


def _interpreters(python: str) -> list[str]:
    """The named interpreter on the path, then each one pyenv installs for its version."""
    found = [shutil.which(python)]
    pyenv = shutil.which("pyenv")
    if pyenv:
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True, timeout=60).stdout.strip()
        if root:
            version = python.removeprefix("python")
            found += sorted(Path(root).glob(f"versions/{version}.*/bin/{python}"))
    return [str(exe) for exe in found if exe]


def _starts(exe: str) -> bool:
    return subprocess.run([exe, "-I", "-c", "pass"], capture_output=True, timeout=60).returncode == 0


@pytest.mark.parametrize("python", ["python3.10", "python3.12", "python3.13"])
def test_other_interpreters_reproduce_every_digest(python):
    exe = next(filter(_starts, _interpreters(python)), None)
    if exe is None:
        pytest.skip(f"no {python} starts")
    argv = [exe, "-I", "-c", CORPUS, str(SRC), json.dumps(COMMANDS)]
    proc = subprocess.run(argv, input=json.dumps(_jobs()), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == GOLDEN | GENERATED_GOLDEN
