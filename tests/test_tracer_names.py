"""Every function the benchmark's tracer wraps still exists in ergopt.

The tracer in ``perfbench/tracer.py`` looks its names up only when a traced
run starts, so a removed or renamed function would otherwise surface there
and not in this suite. The tables are read from the file's syntax tree; the
tracer module itself is never imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tables() -> dict[str, dict[str, tuple[str, ...]]]:
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANNED", "COUNTED")
    }


def _names() -> list:
    tables = _tables()
    return [
        pytest.param(module, name, id=f"{module}.{name}")
        for table in ("SPANNED", "COUNTED")
        for module, names in tables[table].items()
        for name in names
    ]


def test_the_tracer_tables_are_found():
    assert set(_tables()) == {"SPANNED", "COUNTED"}


@pytest.mark.parametrize("module, name", _names())
def test_tracer_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"ergopt.{module}"), name, None))
