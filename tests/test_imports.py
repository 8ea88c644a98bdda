"""Every top-level import of the package's modules is used, and no module
holds an ``assert`` statement.

A name counts as used where the module reads it (an ``ast.Name`` anywhere
in its tree) or lists it in ``__all__``; ``from __future__`` imports are
directives, not names. An ``assert`` vanishes under ``python -O`` and
fails as a bare AssertionError, so src raises a PathRecError instead.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "pathrec"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def assert_lines(source: str) -> list[int]:
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


def test_scanner_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\nimport os, sys as system\n"
              "from json import dumps, loads\n__all__ = ['loads']\nprint(os.sep)\n")
    assert unused_imports(source) == ["line 2: system", "line 3: dumps"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_assert_scanner_flags_nested_asserts():
    source = "assert x\ndef f(y):\n    if y:\n        assert y, 'msg'\n    return y\n"
    assert assert_lines(source) == [1, 4]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_asserts(module):
    assert assert_lines((PACKAGE / module).read_text()) == []
