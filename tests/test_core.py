"""The package holds only what its commands and its library API use.

A module-level function or class of `src/ttlab` must be referenced
somewhere else in the package or be exported by `ttlab/__init__.py`.
Code that only the tests reach belongs in `tests/oracles.py`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ttlab"


def package_trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def exported_names(init):
    return {
        alias.asname or alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def unreferenced_definitions(trees):
    """(module, name) of each module-level def or class that no other
    node of the package names and `ttlab/__init__.py` does not export."""
    exported = exported_names(trees["__init__"])
    uses = {}
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.asname or node.name
            else:
                continue
            uses[name] = uses.get(name, 0) + 1
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name not in exported and not uses.get(node.name):
                    found.append((module, node.name))
    return found


def test_every_definition_is_used_or_exported():
    assert unreferenced_definitions(package_trees()) == []


def test_the_scan_sees_an_unused_definition():
    trees = package_trees()
    trees["linalg"].body.append(ast.parse("def only_for_tests():\n    pass\n").body[0])
    assert ("linalg", "only_for_tests") in unreferenced_definitions(trees)
