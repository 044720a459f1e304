"""Fixtures shared by the test modules."""

import importlib.util
import pathlib
from itertools import groupby

import pytest

from hhglab import balls
from hhglab.groups import FreeAbelianGroup, FreeGroup
from hhglab.spaces import CayleyTreeSpace, LineSpace, PointSpace, Space
from hhglab.structures import ConstantLedger, Domain, TableHHG

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


@pytest.fixture
def built_layers(monkeypatch):
    """The size of each BFS layer built during the test, in build order:
    every Cayley ball comes from balls._layers."""
    built = []
    layers = balls._layers

    def counted(model, gens):
        for layer in layers(model, gens):
            built.append(len(layer))
            yield layer

    monkeypatch.setattr(balls, "_layers", counted)
    return built


class GraphSpace(Space):
    """A finite connected graph on vertices 0..n-1 under its edge-path
    metric, with a BFS from every vertex: the test input for cycles, random
    graphs and ladders, and the reference for the path space."""

    bounded = True

    def __init__(self, n, edges):
        adj = [set() for _ in range(n)]
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        self.n = n
        self.bfs = []  # (distances, parents) from each vertex
        for src in range(n):
            dist, parent, frontier = {src: 0}, {src: None}, [src]
            while frontier:
                nxt = []
                for v in frontier:
                    for w in sorted(adj[v] - dist.keys()):
                        dist[w], parent[w] = dist[v] + 1, v
                        nxt.append(w)
                frontier = nxt
            assert len(dist) == n, "graph is not connected"
            self.bfs.append((dist, parent))

    def dist(self, x, y):
        return self.bfs[x][0][y]

    def basepoint(self):
        return 0

    def geodesic(self, x, y):
        parent = self.bfs[x][1]
        path = [y]
        while path[-1] != x:
            path.append(parent[path[-1]])
        return path[::-1]

    def sample_points(self, radius):
        return [v for v in range(self.n) if self.bfs[0][0][v] <= radius]


@pytest.fixture(scope="session")
def graph_space():
    """The finite-graph test space, a class: graph_space(n, edges)."""
    return GraphSpace


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


def _line_tree_structure():
    model = FreeAbelianGroup(2, "ab")
    tm = FreeGroup(2, "xy")
    tree = CayleyTreeSpace(tm)

    def tree_pi(g):
        n = model.exponents(g)[0]
        return tm.normal_form(((0,) if n >= 0 else (1,)) * abs(n))

    domains = [
        Domain("S", PointSpace(), lambda g: 0, lift=lambda p: ()),
        Domain("P", LineSpace(), lambda g: model.exponents(g)[1],
               lift=lambda p: model.from_exponents([0, p])),
        Domain("W", tree, tree_pi,
               lift=lambda p: model.from_exponents([p.count(0) - p.count(1), 0])),
    ]
    return TableHHG(
        "line-tree", model, ConstantLedger(n_complexity=2, N_rank=2), domains,
        nesting=[("P", "S"), ("W", "S")],
        orthogonal=[("P", "W")],
    )


@pytest.fixture(scope="session")
def line_tree():
    """Builds a rank-2 abelian table with a line domain and a tree domain
    whose image is a single axis: all endpoints are preserved but the tree
    block is not a quasi-line, so the stabilizer route must refuse the
    abelian verdict."""
    return _line_tree_structure
