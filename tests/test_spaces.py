"""Space metrics, geodesics, four-point checks, translation lengths."""

import math
import random
from itertools import combinations

import pytest

from hhglab.errors import InputError, WrongKindError
from hhglab.groups import FreeAbelianGroup, FreeGroup, FreeProduct
from hhglab.spaces import (
    CayleyTreeSpace,
    CosetTreeSpace,
    GraphSpace,
    LineSpace,
    PointSpace,
    distance_table,
    max_four_point_defect,
    sample_diameter,
    translation_length,
)

# quadruple budget of the four-point checks here
QUADS = 60000


def verify_geodesic(space, path):
    """Consecutive steps of size one and total length equal to the metric."""
    assert path
    if any(space.dist(a, b) != 1 for a, b in zip(path, path[1:])):
        return False
    return space.dist(path[0], path[-1]) == len(path) - 1


def two_rank_one_factors():
    return FreeProduct([FreeGroup(1, ["a"]), FreeGroup(1, ["b"])])


def f2_star_z():
    return FreeProduct([FreeGroup(2, ["a", "b"]), FreeAbelianGroup(1, ["c"])])


class TestElementarySpaces:
    def test_point(self):
        P = PointSpace()
        assert P.dist(0, 0) == 0
        assert P.bounded and P.sample_points(5) == [0]

    def test_line(self):
        L = LineSpace()
        assert L.dist(-3, 4) == 7
        assert L.geodesic(2, -1) == [2, 1, 0, -1]
        assert verify_geodesic(L, L.geodesic(-5, 9))

    def test_path_graph(self):
        P = GraphSpace(9, [(i, i + 1) for i in range(8)], label="path")
        assert P.dist(0, 8) == 8
        assert sample_diameter(P.dist, P.sample_points(8), 0) == 8
        with pytest.raises(InputError):
            P.dist(0, 9)

    def test_graph_space(self):
        # 4-cycle
        C4 = GraphSpace(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert C4.dist(0, 2) == 2
        assert sample_diameter(C4.dist, C4.sample_points(2), 0) == 2
        assert verify_geodesic(C4, C4.geodesic(0, 2))

    def test_one_vertex_graph_has_float_zero_diameter(self):
        G = GraphSpace(1, [])
        assert G.sample_points(3) == [0]
        diameter = sample_diameter(G.dist, G.sample_points(3), 0.0)
        assert diameter == 0.0 and isinstance(diameter, float)

    def test_unconnected_graph_rejected(self):
        with pytest.raises(InputError):
            GraphSpace(4, [(0, 1), (2, 3)])


class TestCayleyTree:
    def setup_method(self):
        self.T = CayleyTreeSpace(FreeGroup(2))
        self.F = self.T.model

    def test_dist_and_geodesic(self):
        x = self.F.parse("ab")
        y = self.F.parse("aB")
        assert self.T.dist(x, y) == 2  # differ by b^2 after the shared prefix a
        geo = self.T.geodesic(x, y)
        assert geo[0] == x and geo[-1] == y
        assert verify_geodesic(self.T, geo)

    def test_random_geodesics(self):
        rng = random.Random(3)
        pts = self.T.sample_points(4)
        for _ in range(50):
            x, y = rng.choice(pts), rng.choice(pts)
            geo = self.T.geodesic(x, y)
            assert len(geo) - 1 == self.T.dist(x, y)
            assert verify_geodesic(self.T, geo)

    def test_membership(self):
        assert self.T.contains(self.F.parse("ab"))
        assert not self.T.contains((0, 1))  # unreduced a a^-1

    def test_membership_rejects_non_words(self):
        for x in (5, None, 2.0, (True,), (0, False), (0, 9), (-1,), (0.0,)):
            assert not self.T.contains(x)


class TestCosetTree:
    def test_frozen_distances_rank_one_factors(self):
        S = CosetTreeSpace(two_rank_one_factors())
        m = S.model
        A = S.vertex(0, ())
        B = S.vertex(1, ())
        aB = S.vertex(1, m.parse("a"))
        bA = S.vertex(0, m.parse("b"))
        abA = S.vertex(0, m.parse("ab"))
        abaB = S.vertex(1, m.parse("aba"))
        assert S.dist(A, B) == 1
        assert S.dist(A, aB) == 1
        assert S.dist(A, bA) == 2
        assert S.dist(A, abA) == 2
        assert S.dist(A, abaB) == 3
        assert S.dist(aB, A) == 1
        assert S.dist(abA, B) == 3

    def test_vertex_normalization(self):
        S = CosetTreeSpace(two_rank_one_factors())
        m = S.model
        assert S.vertex(0, m.parse("a")) == S.vertex(0, ())
        assert S.vertex(1, m.parse("ab")) == S.vertex(1, m.parse("a"))
        assert S.contains(S.vertex(0, m.parse("ab")))

    def test_membership_rejects_non_words(self):
        S = CosetTreeSpace(two_rank_one_factors())
        for x in ((0, 5), (1, None), (0, (True,)), (1, (0, 9)), (0, (1,)), 5, (2, ())):
            assert not S.contains(x)

    def test_geodesics_match_distance(self):
        S = CosetTreeSpace(f2_star_z())
        m = S.model
        rng = random.Random(17)
        pts = S.sample_points(3)
        assert len(pts) > 20
        for _ in range(60):
            x, y = rng.choice(pts), rng.choice(pts)
            geo = S.geodesic(x, y)
            assert geo[0] == x and geo[-1] == y
            assert len(geo) - 1 == S.dist(x, y)
            assert verify_geodesic(S, geo)

    def test_dist_and_geodesic_normalise_nothing(self):
        S = CosetTreeSpace(f2_star_z())
        pts = S.sample_points(3)
        calls = []
        normal_form = S.model.normal_form
        S.model.normal_form = lambda w: calls.append(w) or normal_form(w)
        rng = random.Random(23)
        for _ in range(20):
            x, y = rng.choice(pts), rng.choice(pts)
            S.dist(x, y)
            S.geodesic(x, y)
        assert calls == []

    def test_translation_action(self):
        S = CosetTreeSpace(f2_star_z())
        m = S.model
        g = m.parse("ac")
        tau = translation_length(S, lambda v: S.translate(g, v), S.basepoint())
        assert tau == 2
        # a fixes the base vertex: elliptic
        a = m.parse("a")
        assert translation_length(S, lambda v: S.translate(a, v), S.basepoint()) == 0

    def test_wrong_model_rejected(self):
        with pytest.raises(WrongKindError):
            CosetTreeSpace(FreeGroup(2))


class TestFourPoint:
    def test_trees_have_zero_defect(self):
        T = CayleyTreeSpace(FreeGroup(2))
        assert max_four_point_defect(T, T.sample_points(3), QUADS) == 0
        S = CosetTreeSpace(f2_star_z())
        assert max_four_point_defect(S, S.sample_points(2), QUADS) == 0

    def test_line_is_zero_hyperbolic(self):
        L = LineSpace()
        assert max_four_point_defect(L, L.sample_points(6), QUADS) == 0

    def test_four_cycle_defect_is_one(self):
        C4 = GraphSpace(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert max_four_point_defect(C4, [0, 1, 2, 3], QUADS) == 1


def reference_four_point(space, points, quad_budget):
    """The four-point check with every distance of every quadruple asked of
    the space afresh."""
    worst = 0.0
    for count, (w, x, y, z) in enumerate(combinations(points, 4), 1):
        if count > quad_budget:
            break
        sums = sorted([space.dist(w, x) + space.dist(y, z),
                       space.dist(w, y) + space.dist(x, z),
                       space.dist(w, z) + space.dist(x, y)])
        worst = max(worst, (sums[2] - sums[1]) / 2)
    return worst


def random_connected_graph(seed, n=10, extra=6):
    """A random spanning tree on n vertices plus extra random chords."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    return GraphSpace(n, sorted(edges))


class CountingLine(LineSpace):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def dist(self, x, y):
        self.calls += 1
        return super().dist(x, y)


class TestDistanceTable:
    def samples(self):
        C4 = GraphSpace(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        G = random_connected_graph(5)
        T = CayleyTreeSpace(FreeGroup(2))
        S = CosetTreeSpace(f2_star_z())
        L = LineSpace()
        return [(C4, [0, 1, 2, 3]), (G, G.sample_points(9)), (T, T.sample_points(2)),
                (S, S.sample_points(2)), (L, L.sample_points(6))]

    def test_random_graph_has_positive_defect(self):
        G = random_connected_graph(5)
        assert max_four_point_defect(G, G.sample_points(9), QUADS) > 0

    # None: a budget that covers every quadruple of the sample
    @pytest.mark.parametrize("budget", [1, 5, None])
    def test_four_point_matches_per_quadruple_reference(self, budget):
        for space, pts in self.samples():
            quads = math.comb(len(pts), 4) if budget is None else budget
            got = max_four_point_defect(space, pts, quads)
            want = reference_four_point(space, pts, quads)
            assert got == want
            assert type(got) is type(want)

    def test_table_entries(self):
        G = random_connected_graph(5)
        pts = G.sample_points(9)
        table = distance_table(G.dist, pts)
        for i, p in enumerate(pts):
            assert table[i][i] == 0
            for j, q in enumerate(pts):
                assert table[i][j] == G.dist(p, q)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 25])
    def test_each_pair_computed_once(self, n):
        L = CountingLine()
        table = distance_table(L.dist, list(range(n)))
        assert L.calls == n * (n - 1) // 2
        assert table == [[abs(i - j) for j in range(n)] for i in range(n)]

    def test_four_point_check_computes_each_pair_once(self):
        L = CountingLine()
        assert max_four_point_defect(L, list(range(25)), QUADS) == 0.0
        assert L.calls == 300

    def test_diameter_keeps_value_type_and_default(self):
        assert sample_diameter(lambda x, y: 0.5, [1, 2, 3], 0) == 0.5
        assert sample_diameter(lambda x, y: 0.0, [1, 2], 0) == 0.0
        assert isinstance(sample_diameter(lambda x, y: 0.0, [1, 2], 0), float)
        assert isinstance(sample_diameter(lambda x, y: 1.0, [1], 0.0), float)
        assert sample_diameter(lambda x, y: abs(x - y), [4, -3, 1], 0) == 7


class TestTranslationLength:
    def test_line_shift(self):
        L = LineSpace()
        assert translation_length(L, lambda x: x + 3, 0) == 3
        assert translation_length(L, lambda x: -x, 0) == 0  # flip is elliptic

    def test_tree_loxodromic(self):
        T = CayleyTreeSpace(FreeGroup(2))
        g = T.model.parse("ab")
        act = lambda x: T.model.multiply(g, x)
        assert translation_length(T, act, ()) == 2
