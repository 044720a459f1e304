"""The package imports nothing outside the standard library."""

import ast
import pathlib
import shutil
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


# every standard-library module the package imports, by its top-level
# name: a new import-time dependency is an edit here, made on purpose
STDLIB_IMPORTS = {"argparse", "bisect", "collections", "hashlib", "itertools", "json", "math",
                  "operator", "random", "sys"}


def test_stdlib_imports_are_the_listed_set():
    imported = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.partition(".")[0])
    assert imported == STDLIB_IMPORTS


def cli_import_probe(root):
    """Import hhglab.cli from the directory root in an isolated child
    process and list the dataclass machinery it loaded.  -I ignores
    PYTHONDONTWRITEBYTECODE, so -B keeps the child from writing bytecode
    next to the sources."""
    probe = (f"import sys; sys.path.insert(0, {str(root)!r}); import hhglab.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    return subprocess.run([sys.executable, "-B", "-I", "-S", "-c", probe],
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_no_dataclass_machinery():
    # records are namedtuples: a CLI process never pays for dataclasses,
    # nor for the inspect/ast/dis/tokenize imports it pulls in
    assert cli_import_probe(PACKAGE.parent) == "[]\n"


def test_cli_import_probe_writes_no_bytecode(tmp_path):
    # compiled modules left in src/hhglab would spare every later process
    # of this checkout its compile time, a benchmark's setup probes too.  A
    # copy of the package with no __pycache__ shows a write even where the
    # checkout's bytecode is already there and current.
    cache = PACKAGE / "__pycache__"
    before = sorted(cache.glob("*"))
    shutil.copytree(PACKAGE, tmp_path / "hhglab", ignore=shutil.ignore_patterns("__pycache__"))
    for root in (tmp_path, PACKAGE.parent):
        assert cli_import_probe(root) == "[]\n"
    assert not (tmp_path / "hhglab" / "__pycache__").exists()
    assert sorted(cache.glob("*")) == before
