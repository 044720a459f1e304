"""The package imports nothing outside the standard library."""

import ast
import pathlib
import subprocess
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


def test_cli_import_loads_no_dataclass_machinery():
    # records are namedtuples: a CLI process never pays for dataclasses,
    # nor for the inspect/ast/dis/tokenize imports it pulls in
    probe = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import hhglab.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", probe],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
