"""The only runtime dependency is numpy: every import in the package, at
module level or inside a function, is relative, numpy or the standard
library's. And autodiff's public functions are exactly what the rest of the
package calls."""

import ast
import inspect
import pathlib
import sys

import pytest

import ctxnmt
import ctxnmt.autodiff as ad

PACKAGE = pathlib.Path(ctxnmt.__file__).parent


def _absolute_imports(path: pathlib.Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    for name in _absolute_imports(path):
        top = name.split(".")[0]
        assert top == "numpy" or top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_function_level_imports_are_seen():
    assert {"ctypes", "concurrent"} <= set(_absolute_imports(PACKAGE / "trainer.py"))


def _ad_calls(path: pathlib.Path) -> set[str]:
    """Names called as ``ad.<name>(...)`` in one module."""
    return {node.func.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "ad"}


def test_every_public_autodiff_function_has_a_caller_in_the_package():
    """autodiff carries only the ops the package calls: an op with no caller
    outside autodiff.py is dead weight and fails here."""
    public = {name for name, obj in vars(ad).items() if inspect.isfunction(obj)
              and obj.__module__ == ad.__name__ and not name.startswith("_")}
    called = set().union(*(_ad_calls(p) for p in PACKAGE.glob("*.py") if p.name != "autodiff.py"))
    assert public and sorted(public - called) == []
