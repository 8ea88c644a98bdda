"""Every top-level import of the package's modules is used, no module
holds an ``assert`` statement, and every config checks itself as it is
built.

A name counts as used where the module reads it (an ``ast.Name`` anywhere
in its tree) or lists it in ``__all__``; ``from __future__`` imports are
directives, not names. An ``assert`` vanishes under ``python -O`` and
fails as a bare AssertionError, so src raises a PathRecError instead.

A config is a ``*Config`` or ``*Spec`` dataclass. It checks its values in
``__post_init__`` and defines no ``validate``, so no caller needs to check
it again and no config exists unchecked.
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


# dataclasses named like configs that are not: neither is read from a config file
NOT_CONFIGS = {
    "RelationSpec",  # a schema record; KGSchema checks its relations
    "RewardSpec",    # a reward bound to a graph, built by its classmethods
}
CONFIGS = {"SyntheticSpec", "SplitConfig", "EmbedTrainConfig", "AgentConfig", "InferenceConfig",
           "RunConfig"}


def config_classes(source: str) -> dict[str, set[str]]:
    """The method names of each ``*Config`` or ``*Spec`` dataclass of a
    module, but those of ``NOT_CONFIGS``."""
    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"

    return {node.name: {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and node.name.endswith(("Config", "Spec"))
            and node.name not in NOT_CONFIGS and any(map(is_dataclass, node.decorator_list))}


def unchecked_configs(source: str) -> list[str]:
    return [f"{name} {problem}" for name, methods in config_classes(source).items()
            for problem, bad in (("defines validate", "validate" in methods),
                                 ("lacks __post_init__", "__post_init__" not in methods))
            if bad]


def test_config_scanner_flags_validate_and_missing_post_init():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass AConfig:\n    def validate(self): pass\n"
              "@dataclasses.dataclass\nclass BSpec:\n    def __post_init__(self): pass\n"
              "class CConfig:\n    pass\n"
              "@dataclass\nclass RelationSpec:\n    pass\n")
    assert config_classes(source) == {"AConfig": {"validate"}, "BSpec": {"__post_init__"}}
    assert unchecked_configs(source) == ["AConfig defines validate",
                                         "AConfig lacks __post_init__"]


def test_every_config_checks_itself_when_built():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        assert unchecked_configs(source) == [], path.name
        found.update(config_classes(source))
    assert set(found) == CONFIGS
