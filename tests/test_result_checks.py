"""Checks that guard an accepted result must survive ``python -O``, and
results stay exact.

A plain ``assert`` is compiled away under -O, so no module of the package
uses one; its checks raise AssertionError explicitly instead. The functions
that accept a result are also checked one by one, so a failure names them.

Results are exact rationals: no module calls ``float`` or writes a float
literal, except where ``cmd_subaction`` formats the discount trace.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil

import pytest

import ergopt
from ergopt import cli_reports, graph_engine, holonomic_opt, mane_aubry, subaction_lab

GUARDED = {
    graph_engine: ("critical_structure", "_tight_core_arcs", "row", "least_into"),
    mane_aubry: ("omega_set", "_least_into", "reconstruct", "represent"),
    holonomic_opt: ("beta_lp",),
    subaction_lab: ("_policy_values", "_exact_discounted", "calibrated_via_discount", "livsic_test"),
}

# the one function allowed floats: it formats the discount trace
FLOAT_ALLOWED = {"ergopt.cli_reports": "cmd_subaction"}

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(ergopt.__path__, prefix="ergopt.")
)


def test_scan_sees_the_whole_package():
    assert {"ergopt.cli_reports", "ergopt.graph_engine", "ergopt.subaction_lab"} <= set(MODULES)


@pytest.mark.parametrize("name", ["ergopt", *MODULES])
def test_module_has_no_assert(name):
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)] == []


def _functions(module) -> dict[str, ast.AST]:
    tree = ast.parse(inspect.getsource(module))
    return {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in GUARDED.items() for name in names],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_guarded_function_has_no_assert(module, name):
    node = _functions(module)[name]
    assert [n.lineno for n in ast.walk(node) if isinstance(n, ast.Assert)] == []


def _is_float(node: ast.AST) -> bool:
    """A float(...) call or a float literal."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "float"
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _float_uses(tree: ast.AST, exempt: str | None = None) -> list[int]:
    """Lines of float uses outside the function named exempt."""
    skipped = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name == exempt
        for node in ast.walk(func)
    }
    return [n.lineno for n in ast.walk(tree) if id(n) not in skipped and _is_float(n)]


@pytest.mark.parametrize("name", ["ergopt", *MODULES])
def test_module_has_no_float(name):
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    assert _float_uses(tree, FLOAT_ALLOWED.get(name)) == []


def test_float_scan_sees_the_discount_trace():
    assert len(_float_uses(_functions(cli_reports)["cmd_subaction"])) == 1
