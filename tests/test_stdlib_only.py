"""The package imports nothing outside the standard library."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "hhglab"
SOURCES = sorted(PACKAGE.glob("*.py"))


def test_package_sources_found():
    assert "groups.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [] if node.level else [node.module]
        else:
            continue
        outside += [f"line {node.lineno}: {name}" for name in names
                    if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
