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
"""

from __future__ import annotations

import hashlib
import json
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


@pytest.mark.parametrize("fixture", fixtures.available())
@pytest.mark.parametrize("label", sorted(COMMANDS))
def test_report_bytes_match_the_recorded_digest(tmp_path, capsys, fixture, label):
    path = tmp_path / f"{fixture}.cfg"
    path.write_text(fixtures.fixture_text(fixture))
    argv = COMMANDS[label] + ["--config", str(path)]
    if label == "classify":
        argv.append(f"--boundary={BOUNDARY.get(fixture, '-3/2')}")
    capsys.readouterr()
    rc = main(argv)
    out, err = capsys.readouterr()
    blob = json.dumps([rc, out, err]).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[f"{fixture}/{label}"]


def test_every_digest_is_used():
    assert set(GOLDEN) == {f"{f}/{c}" for f in fixtures.available() for c in COMMANDS}


# the corpus above, standard library only, for an interpreter without pytest:
# argv is the source directory, COMMANDS and BOUNDARY as JSON; prints the
# digests as JSON
CORPUS = """
import contextlib, hashlib, io, json, sys, tempfile
from pathlib import Path

src, commands, boundary = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
sys.path.insert(0, src)
from ergopt import fixtures
from ergopt.cli_reports import main

digests = {}
with tempfile.TemporaryDirectory() as tmp:
    for fixture in fixtures.available():
        path = Path(tmp) / f"{fixture}.cfg"
        path.write_text(fixtures.fixture_text(fixture))
        for label, argv in commands.items():
            argv = argv + ["--config", str(path)]
            if label == "classify":
                argv.append(f"--boundary={boundary.get(fixture, '-3/2')}")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
            blob = json.dumps([rc, out.getvalue(), err.getvalue()]).encode()
            digests[f"{fixture}/{label}"] = hashlib.sha256(blob).hexdigest()
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
    argv = [exe, "-I", "-c", CORPUS, str(SRC), json.dumps(COMMANDS), json.dumps(BOUNDARY)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == GOLDEN
