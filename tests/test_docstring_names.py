"""Every identifier in double backticks in a docstring of ergopt names something.

A name such as ``_scaled_costs`` or ``PrependGraph._out_arcs`` resolves when
its first part is an attribute of the docstring's module, of the ``ergopt``
package (which holds the submodules) or of the enclosing class, and each
further part is an attribute of the one before. A parameter of the
documented function (``graph.edges``) and a command of the CLI (``check``)
also resolve; their further parts are not checked. Text in double backticks
that is not a dotted identifier, such as a config line, is not a name.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
from types import ModuleType

import pytest

import ergopt
from ergopt.cli_reports import _COMMANDS

MODULES = [
    importlib.import_module(info.name)
    for info in pkgutil.walk_packages(ergopt.__path__, "ergopt.")
]
QUOTED = re.compile(r"``([^`]+)``")
NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
MISSING = object()


def _docstrings(tree: ast.Module):
    """(docstring, enclosing class name or None, parameter names) per documented node."""

    def walk(node: ast.AST, cls: str | None):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            params: set[str] = set()
            if isinstance(node, ast.ClassDef):
                cls = node.name  # a class docstring names the class's own members
            elif not isinstance(node, ast.Module):
                params = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
            if doc:
                yield doc, cls, params
            inner = node.name if isinstance(node, ast.ClassDef) else None
        else:
            inner = cls
        for child in ast.iter_child_nodes(node):
            yield from walk(child, inner)

    yield from walk(tree, None)


def _resolves(name: str, module: ModuleType, cls: str | None, params: set[str]) -> bool:
    first, *rest = name.split(".")
    if first in params or (not rest and first in _COMMANDS):
        return True
    scopes = [module, ergopt] + ([getattr(module, cls)] if cls else [])
    for scope in scopes:
        obj = scope
        for part in [first] + rest:
            obj = getattr(obj, part, MISSING)
            if obj is MISSING:
                break
        else:
            return True
    return False


def unresolved(module: ModuleType, source: str) -> list[str]:
    """The names in double backticks in the source's docstrings that name nothing."""
    return [
        name
        for doc, cls, params in _docstrings(ast.parse(source))
        for name in QUOTED.findall(doc)
        if NAME.fullmatch(name) and not _resolves(name, module, cls, params)
    ]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_double_backticks_resolves(module):
    assert unresolved(module, inspect.getsource(module)) == []


def test_a_stale_name_in_the_module_docstring_fails():
    from ergopt import graph_engine

    source = inspect.getsource(graph_engine)
    stale = source.replace('"""The prepend graph', '"""``_bellman_ford`` and the prepend graph', 1)
    assert stale != source
    assert unresolved(graph_engine, stale) == ["_bellman_ford"]
