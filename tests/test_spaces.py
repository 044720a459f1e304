"""Space metrics, geodesics, four-point checks, translation lengths."""

import math
import random
from itertools import combinations, groupby, product

import pytest

from hhglab.errors import WrongKindError
from hhglab.balls import standard_ball
from hhglab.groups import FreeAbelianGroup, FreeGroup, FreeProduct, invert_word
from hhglab.spaces import (
    CayleyTreeSpace,
    CosetTreeSpace,
    LineSpace,
    PathSpace,
    PointSpace,
    Space,
    distance_table,
    max_four_point_defect,
    sample_diameter,
    translation_length,
)


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
        P = PathSpace(9)
        assert P.dist(0, 8) == 8
        assert sample_diameter(P.dist, P.sample_points(8), 0) == 8
        assert P.contains(9) is False
        assert (P.label, P.bounded) == ("path", True)

    def test_path_matches_the_graph_reference(self, graph_space):
        P = PathSpace(9)
        G = graph_space(9, [(i, i + 1) for i in range(8)])
        assert P.basepoint() == G.basepoint()
        for x, y in product(range(9), repeat=2):
            assert (P.dist(x, y), type(P.dist(x, y))) == (G.dist(x, y), int)
            assert P.geodesic(x, y) == G.geodesic(x, y)
            assert verify_geodesic(P, P.geodesic(x, y))
        for radius in range(11):
            assert P.sample_points(radius) == G.sample_points(radius)
        assert [x for x in range(-3, 13) if P.contains(x)] == list(range(9))
        assert not any(P.contains(x) for x in (True, 1.0, "1", None, (1,)))

    def test_graph_space(self, graph_space):
        # 4-cycle
        C4 = graph_space(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert C4.dist(0, 2) == 2
        assert sample_diameter(C4.dist, C4.sample_points(2), 0) == 2
        assert verify_geodesic(C4, C4.geodesic(0, 2))

    def test_one_vertex_graph_has_float_zero_diameter(self):
        P = PathSpace(1)
        assert P.sample_points(3) == [0]
        diameter = sample_diameter(P.dist, P.sample_points(3), 0.0)
        assert diameter == 0.0 and isinstance(diameter, float)


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

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_dist_is_the_length_of_the_quotient(self, rank):
        # dist reads the common prefix of two reduced words; the reference
        # reduces x^-1 y
        T = CayleyTreeSpace(FreeGroup(rank))
        F = T.model
        rng = random.Random(rank)

        def word(n):
            return F.normal_form([rng.randrange(2 * rank) for _ in range(n)])

        pairs = [((), ()), ((), word(5)), (word(5), ())]
        for _ in range(200):
            x, y = word(rng.randrange(9)), word(rng.randrange(9))
            pairs += [(x, y), (x, x), (x[:len(x) // 2], x), (x, x[:1])]  # prefixes
        a, b = F.parse("a"), F.parse("A")  # differ in the first letter
        pairs += [(F.multiply(a, w), F.multiply(b, w)) for w in (word(4), word(6))
                  if w[:1] not in (a, b)]
        for x, y in pairs:
            assert T.dist(x, y) == len(F.multiply(F.inverse(x), y)), (x, y)

    def test_membership(self):
        assert self.T.contains(self.F.parse("ab"))
        assert not self.T.contains((0, 1))  # unreduced a a^-1

    def test_membership_rejects_non_words(self):
        for x in (5, None, 2.0, (True,), (0, False), (0, 9), (-1,), (0.0,), [0], []):
            assert not self.T.contains(x)


# The coset tree's distance and syllable path as they were computed from the
# product h^-1 k before they were read off the two normal forms.

def _reference_dist(space, x, y):
    if x == y:
        return 0
    (i, h), (j, k) = x, y
    # the factor of each syllable of h^-1 k (h^-1 is reduced, as h is)
    runs = [fi for fi, _ in groupby(map(space.model._part_of.__getitem__,
                                        space.model.multiply(invert_word(h), k)))]
    if runs and runs[0] == i:
        runs = runs[1:]
    if runs and runs[-1] == j:
        runs = runs[:-1]
    return len(runs) + 1


def _reference_cosets(space, h, k):
    out = []
    g = h
    for fi, run in groupby(space.model.multiply(invert_word(h), k),
                           space.model._part_of.__getitem__):
        out.append((fi, space._rep(fi, g)))
        g = space.model.multiply(g, tuple(run))
    return out


# Z*F2 puts a line at offset 0; F2*F2 has free factors on both sides
COSET_TREE_MODELS = {
    "f2*z": f2_star_z,
    "z*f2": lambda: FreeProduct([FreeAbelianGroup(1, ["c"]), FreeGroup(2, ["a", "b"])]),
    "f2*f2": lambda: FreeProduct([FreeGroup(2, ["a", "b"]), FreeGroup(2, ["c", "d"])]),
    "z*z": lambda: FreeProduct([FreeAbelianGroup(1, ["s"]), FreeAbelianGroup(1, ["t"])]),
}


class TestCosetTree:
    @pytest.mark.parametrize("name", sorted(COSET_TREE_MODELS))
    def test_syllable_walk_matches_the_product_reference(self, name):
        # every vertex pair of the radius-3 sample, and seeded element pairs
        # of the radius-4 ball; the pairs whose tails start in one factor
        # have a syllable across the junction of the two tails
        S = CosetTreeSpace(COSET_TREE_MODELS[name]())
        pts = S.sample_points(3)
        for x in pts:
            for y in pts:
                assert S.dist(x, y) == _reference_dist(S, x, y), (x, y)
        ball = standard_ball(S.model, 4)
        rng = random.Random(7)
        pairs = [(rng.choice(ball), rng.choice(ball)) for _ in range(3000)]
        pairs += [(h, S.model.multiply(h, g)) for h, g in pairs[:1000]]
        part_of = S.model._part_of
        merged = 0
        for h, k in pairs:
            assert S.cosets(h, k) == _reference_cosets(S, h, k), (h, k)
            c = next((n for n, (a, b) in enumerate(zip(h, k)) if a != b), None)
            merged += c is not None and part_of[h[c]] == part_of[k[c]]
        assert merged > 100

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

    @staticmethod
    def syllable_rep(syllables, model, factor, word):
        """Reference representative: the syllables of the word, less a
        trailing one in the given factor, joined again."""
        syls = syllables(model, word)
        if syls and syls[-1][0] == factor:
            syls = syls[:-1]
        return tuple(x for fi, local in syls for x in model.to_global(fi, local))

    def test_rep_matches_the_syllable_reference(self, syllables):
        rng = random.Random(31)
        for model in (f2_star_z(), two_rank_one_factors()):
            S = CosetTreeSpace(model)
            p = model.parse
            words = [(), p("a"), p("c" if "c" in model.labels else "b")]
            if "c" in model.labels:  # long c/C runs, alone, inside and at the end
                words += [p("c" * 9), p("C" * 7), p("ab" + "c" * 6),
                          p("C" * 5 + "ba"), p("a" + "C" * 8 + "b" + "c" * 4)]
            words += [model.normal_form([rng.randrange(2 * model.ngens)
                                         for _ in range(rng.randrange(12))])
                      for _ in range(300)]
            ends = {syllables(model, w)[-1][0] for w in words if w}
            assert ends == {0, 1}
            for w in words:
                for factor in (0, 1):
                    assert S._rep(factor, w) == self.syllable_rep(syllables, model, factor, w), \
                        (w, factor)

    def test_membership_rejects_non_words(self):
        S = CosetTreeSpace(two_rank_one_factors())
        for x in ((0, 5), (1, None), (0, (True,)), (1, (0, 9)), (0, (1,)), 5, (2, ()),
                  (1, [0]), (0, [])):
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
        x = S.basepoint()
        g = m.parse("ac")
        tau = translation_length(S, x, S.translate(g, x), S.translate(m.power(g, 2), x))
        assert tau == 2
        # a fixes the base vertex: elliptic
        a = m.parse("a")
        assert translation_length(S, x, S.translate(a, x), S.translate(m.power(a, 2), x)) == 0

    def test_wrong_model_rejected(self):
        with pytest.raises(WrongKindError):
            CosetTreeSpace(FreeGroup(2))


class TestFourPoint:
    def test_trees_have_zero_defect(self):
        T = CayleyTreeSpace(FreeGroup(2))
        assert max_four_point_defect(T, T.sample_points(3)) == 0
        S = CosetTreeSpace(f2_star_z())
        assert max_four_point_defect(S, S.sample_points(2)) == 0

    def test_line_is_zero_hyperbolic(self):
        L = LineSpace()
        assert max_four_point_defect(L, L.sample_points(6)) == 0

    def test_four_cycle_defect_is_one(self, graph_space):
        C4 = graph_space(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert max_four_point_defect(C4, [0, 1, 2, 3]) == 1


def reference_four_point(space, points):
    """The four-point check with every distance of every quadruple asked of
    the space afresh."""
    worst = 0.0
    for w, x, y, z in combinations(points, 4):
        sums = sorted([space.dist(w, x) + space.dist(y, z),
                       space.dist(w, y) + space.dist(x, z),
                       space.dist(w, z) + space.dist(x, y)])
        worst = max(worst, (sums[2] - sums[1]) / 2)
    return worst


def random_connected_graph(graph_space, seed, n=10, extra=6):
    """A random spanning tree on n vertices plus extra random chords."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    return graph_space(n, sorted(edges))


class CountingLine(LineSpace):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def dist(self, x, y):
        self.calls += 1
        return super().dist(x, y)


class TableSpace(Space):
    """Points 0..n-1 under a table the test fills in, all 0 at first."""

    def __init__(self, n):
        self.table = [[0] * n for _ in range(n)]

    def dist(self, x, y):
        return self.table[x][y]


class MatrixSpace(TableSpace):
    """Points 0..n-1 under a seeded random symmetric table, not always a
    metric, whose entries mix ints, halves and other floats, so that
    pairing sums tie across types."""

    def __init__(self, n, rng):
        super().__init__(n)
        for i in range(n):
            for j in range(i + 1, n):
                kind = rng.randrange(3)
                if kind == 0:
                    d = rng.randint(0, 6)
                elif kind == 1:
                    d = rng.randint(0, 12) / 2
                else:
                    d = rng.uniform(0, 6)
                self.table[i][j] = self.table[j][i] = d


class TestDistanceTable:
    def samples(self, graph_space):
        C4 = graph_space(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        G = random_connected_graph(graph_space, 5)
        T = CayleyTreeSpace(FreeGroup(2))
        S = CosetTreeSpace(f2_star_z())
        L = LineSpace()
        return [(C4, [0, 1, 2, 3]), (G, G.sample_points(9)), (T, T.sample_points(2)),
                (S, S.sample_points(2)), (L, L.sample_points(6))]

    def test_random_graph_has_positive_defect(self, graph_space):
        G = random_connected_graph(graph_space, 5)
        assert max_four_point_defect(G, G.sample_points(9)) > 0

    def test_four_point_matches_per_quadruple_reference(self, graph_space):
        rng = random.Random(4)
        samples = self.samples(graph_space) + [(MatrixSpace(n, rng), list(range(n)))
                                               for n in range(12) for _ in range(3)]
        for space, pts in samples:
            got = max_four_point_defect(space, pts)
            want = reference_four_point(space, pts)
            assert got == want
            assert type(got) is type(want)

    def test_every_small_table_matches_the_reference(self):
        # each symmetric 5-point table with a zero diagonal and entries in
        # {0, 1, 2}, metric or not: the base-point pass answers exactly
        pairs = list(combinations(range(5), 2))
        for entries in product((0, 1, 2), repeat=len(pairs)):
            space = TableSpace(5)
            for (i, j), d in zip(pairs, entries):
                space.table[i][j] = space.table[j][i] = d
            got = max_four_point_defect(space, range(5))
            want = reference_four_point(space, range(5))
            assert (got, type(got)) == (want, type(want)), space.table

    def test_a_float_table_takes_the_whole_walk(self):
        # d(0, x) = 1e17 swallows every other entry in a float sum, so the
        # quadruples through 0 all tie; the other four points form a
        # 4-cycle, whose quadruple has a gap of 2
        space = TableSpace(5)
        for x in range(1, 5):
            space.table[0][x] = space.table[x][0] = 1e17
            for y in range(x + 1, 5):
                space.table[x][y] = space.table[y][x] = 2 if y - x == 2 else 1
        assert all(reference_four_point(space, (0,) + q) == 0
                   for q in combinations(range(1, 5), 3))
        assert max_four_point_defect(space, range(5)) == 1.0
        assert reference_four_point(space, range(5)) == 1.0

    def test_a_cycle_takes_the_whole_walk(self, graph_space):
        C5 = graph_space(5, [(v, (v + 1) % 5) for v in range(5)])
        got = max_four_point_defect(C5, range(5))
        assert got == reference_four_point(C5, range(5)) == 0.5

    def test_table_entries(self, graph_space):
        G = random_connected_graph(graph_space, 5)
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
        assert max_four_point_defect(L, list(range(25))) == 0.0
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
        assert translation_length(L, 0, 3, 6) == 3
        assert translation_length(L, 1, -1, 1) == 0  # flip is elliptic

    def test_tree_loxodromic(self):
        T = CayleyTreeSpace(FreeGroup(2))
        g = T.model.parse("ab")
        assert translation_length(T, (), g, T.model.power(g, 2)) == 2
