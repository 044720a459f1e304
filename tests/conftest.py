"""Fixtures shared by the test modules."""

import importlib.util
import pathlib
from itertools import groupby

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


def _syllables(model, w):
    """Alternating factor syllables of the free reduction of w, a word
    with in-range letters, in a free product: (factor index, local word)
    for each maximal one-factor run."""
    return [(fi, model.to_local(fi, run))
            for fi, run in groupby(model._reduce(w), model._part_of.__getitem__)]


@pytest.fixture(scope="session")
def syllables():
    """The syllable split the coset tree and the coset projections are
    tested against."""
    return _syllables
