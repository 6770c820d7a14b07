"""Every name a library module imports is used there or re-exported."""

import ast
from pathlib import Path

import pytest

import islab

SOURCES = sorted(Path(islab.__file__).resolve().parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(
        (line, name) for name, line in imported.items() if name not in used | exported
    )


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_unused_import(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
