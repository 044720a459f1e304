"""Fixtures shared by the test modules."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def reachability():
    """scripts/reachability.py as a module: its structure list, certify sets,
    geometry jobs and parameter census."""
    return _load("reachability", "scripts/reachability.py")


@pytest.fixture(scope="session")
def tracing():
    """benchmark/tracing.py as a module: the benchmark's per-layer tracer,
    which wraps hhglab functions by name."""
    return _load("tracing", "benchmark/tracing.py")
