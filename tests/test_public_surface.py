"""Every public function and class of ergopt is reached by something.

A public module-level ``def`` or ``class`` in ``src/ergopt`` must be
referenced by name somewhere in the package (as a name, an attribute or an
import alias; text in docstrings does not count), be imported by the
acceptance gate, be wrapped by the benchmark's tracer, or be one of the
brute-force oracles that tests compare against. A name that only its own unit
tests call is surface without a user. The sources are read as syntax trees;
no perfbench module is imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ergopt"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
TRACER = ROOT / "perfbench" / "tracer.py"
ORACLES = "oracle_bruteforce"


def _trees() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _referenced(trees: dict[str, ast.Module]) -> set[str]:
    names: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def _acceptance_imports() -> set[str]:
    tree = ast.parse(ACCEPTANCE.read_text(), filename=str(ACCEPTANCE))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ergopt")
        for alias in node.names
    }


def _traced() -> set[str]:
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    return {
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANNED", "COUNTED")
        for names in ast.literal_eval(node.value).values()
        for name in names
    }


def unreached(trees: dict[str, ast.Module]) -> list[str]:
    """``module.name`` for each public top-level def or class nothing reaches."""
    reached = _referenced(trees) | _acceptance_imports() | _traced()
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        if module != ORACLES
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in reached
    ]


def test_every_public_name_is_reached():
    assert unreached(_trees()) == []


def test_a_name_only_tests_call_is_caught():
    trees = _trees()
    source = (PACKAGE / "graph_engine.py").read_text() + "\n\ndef unused_helper():\n    return 0\n"
    trees["graph_engine"] = ast.parse(source)
    assert unreached(trees) == ["graph_engine.unused_helper"]


@pytest.mark.parametrize("table", [_acceptance_imports, _traced], ids=["acceptance", "tracer"])
def test_the_reaching_tables_are_found(table):
    assert table()
