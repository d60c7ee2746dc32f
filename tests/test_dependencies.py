"""The only runtime dependency is numpy: every import in the package, at
module level or inside a function, is relative, numpy or the standard
library's."""

import ast
import pathlib
import sys

import pytest

import ctxnmt

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
