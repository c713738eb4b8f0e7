"""Every function, class and method in src/labelforge has a caller outside
the tests: something in src/ names it (as a Name or an Attribute), or a word
of perfbench/*.py or pyproject.toml does. Dunder methods are exempt. Helpers
only tests call belong in tests/ (see tests/oracles.py)."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "labelforge").glob("*.py"))


def definitions(tree):
    """(name, line) of every function, class and method, nested ones too."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(node.name, node.lineno) for node in ast.walk(tree) if isinstance(node, kinds)]


def references(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_definition_in_src_has_a_non_test_caller():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    used = set().union(*(references(tree) for tree in trees.values()))
    for path in [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "pyproject.toml"]:
        used.update(re.findall(r"\w+", path.read_text()))
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path, tree in trees.items()
        for name, line in definitions(tree)
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]
    assert not unused, "defined in src/ but called only by tests, if at all:\n" + "\n".join(unused)
