import ast
import glob
import importlib
import os
import pkgutil

import pytest

import conemodes

MODULES = ["conemodes"] + [f"conemodes.{m.name}"
                           for m in pkgutil.iter_modules(conemodes.__path__)]
# the package's modules, and SOURCES: those and these tests
PACKAGE_SOURCES = sorted(glob.glob(os.path.join(conemodes.__path__[0], "*.py")))
SOURCES = sorted(PACKAGE_SOURCES + glob.glob(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "*.py")))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [item for item in exported if not hasattr(module, item)] == []


def unused_imports(source: str) -> list:
    """(line, name) of each name a module imports and never references.

    A reference is a load of the name anywhere, an entry of `__all__`, or a
    name inside a string annotation; `__future__` imports count as used.
    """
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [node.returns] + [
                arg.annotation for arg in (args.posonlyargs + args.args + args.kwonlyargs
                                           + [args.vararg, args.kwarg]) if arg]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used.update(sub.id for sub in ast.walk(ast.parse(part.value, mode="eval"))
                                if isinstance(sub, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_unused_import_scan_rules():
    source = '''
from __future__ import annotations
import os.path
import numpy as np
from typing import Iterable, Union, Sequence, Mapping
from .modes import exported
__all__ = ["exported"]
def f(x: "Sequence[int]") -> Union[int, None]:
    y: "Mapping" = {}
    return np.sum(x) + len(os.sep)
'''
    assert unused_imports(source) == [(5, "Iterable")]


def mode_and_kind_defs(source: str) -> list:
    """(line, name) of each function taking both a `mode` and a `kind`
    parameter.  A mode fixes its block kind (`reduction.mode_kind`), so such
    a signature only adds a way for the two to disagree."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            if {"mode", "kind"} <= {arg.arg for arg in
                                    args.posonlyargs + args.args + args.kwonlyargs}:
                out.append((node.lineno, node.name))
    return sorted(out)


@pytest.mark.parametrize("path", PACKAGE_SOURCES, ids=os.path.basename)
def test_no_function_takes_a_mode_and_its_kind(path):
    with open(path, encoding="utf-8") as fh:
        assert mode_and_kind_defs(fh.read()) == []


def test_mode_and_kind_scan_rules():
    source = '''
def built(model, mode, kind): ...
def derived(model, mode): ...
class Block:
    def check(self, *, kind, mode=None): ...
def table(kind):
    def row(mode): ...
'''
    assert mode_and_kind_defs(source) == [(2, "built"), (5, "check")]
