"""The benchmark's own tests pass: its pinned call counts and its checker.

``perfbench/tests`` has a ``conftest.py`` of its own that clashes with this
suite's when both are collected in one session, so it runs in a separate
pytest process from the root of the checkout.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_suite_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
