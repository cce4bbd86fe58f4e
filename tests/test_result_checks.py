"""Checks that guard an accepted result must survive ``python -O``.

A plain ``assert`` is compiled away under -O, so these functions raise
AssertionError explicitly instead.
"""

from __future__ import annotations

import ast
import inspect

import pytest

from ergopt import graph_engine, holonomic_opt, mane_aubry, subaction_lab

GUARDED = {
    mane_aubry: ("omega_set", "reconstruct", "represent"),
    holonomic_opt: ("beta_lp",),
    subaction_lab: ("_policy_values",),
}


def _functions(module) -> dict[str, ast.AST]:
    tree = ast.parse(inspect.getsource(module))
    return {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _asserts(node: ast.AST) -> list[int]:
    return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Assert)]


def test_graph_engine_has_no_assert():
    assert _asserts(ast.parse(inspect.getsource(graph_engine))) == []


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in GUARDED.items() for name in names],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_guarded_function_has_no_assert(module, name):
    assert _asserts(_functions(module)[name]) == []
