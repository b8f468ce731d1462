"""Every name the package exports is one its own modules use."""

import ast
from pathlib import Path

import entspec

PACKAGE = Path(entspec.__file__).parent


def test_every_export_is_loaded_inside_the_package():
    loaded = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert sorted(set(entspec.__all__) - loaded) == []
