"""Fixtures shared by the test modules."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def reachability():
    """scripts/reachability.py as a module: its structure list, certify sets,
    geometry jobs and parameter census."""
    spec = importlib.util.spec_from_file_location(
        "reachability", ROOT / "scripts" / "reachability.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
