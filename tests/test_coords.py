import math
import pathlib
import random

import pytest

from hhglab.balls import standard_ball
from hhglab.builders import build_named, load_structure
from hhglab.classify import tau0_floor_check
from hhglab.coords import (
    ConsistentTuple,
    closest_elements,
    consistency_inequality,
    distance_formula_sum,
    fit_distance_formula,
    is_consistent,
    product_decomposition,
    project_tuple,
    quasi_line_detect,
    realize,
)
from hhglab.errors import IndexMismatchError, InputError, PreconditionError
from hhglab.groups import FreeAbelianGroup, FreeGroup
from hhglab.spaces import CayleyTreeSpace, LineSpace
from hhglab.structures import (NEST_IN, ORTHOGONAL, TRANSVERSE, ConstantLedger, Domain,
                               TableHHG)


def random_words(model, count, length, seed):
    rnd = random.Random(seed)
    letters = [w[0] for w in model.generators()]
    letters = letters + [x ^ 1 for x in letters]
    out = []
    for _ in range(count):
        raw = tuple(rnd.choice(letters) for _ in range(rnd.randint(0, length)))
        out.append(model.normal_form(raw))
    return out


class TestProjectionTuples:
    def setup_method(self):
        self.hh = build_named("f2xz")
        self.model = self.hh.group

    def test_identity_projects_to_basepoints(self):
        tup = project_tuple(self.hh, ())
        assert tup.entries == {"S": 0, "T": (), "L": 0}
        assert tup.kappa == 1.0

    def test_element_projects_per_factor(self):
        g = self.model.parse("attt")
        tup = project_tuple(self.hh, g)
        assert tup.entries["T"] == (0,)
        assert tup.entries["L"] == 3

    def test_projected_tuples_are_consistent(self):
        for st in (self.hh, build_named("f2freez")):
            for g in random_words(st.group, 25, 4, seed=11):
                report = is_consistent(st, project_tuple(st, g))
                assert report.ok, (st.label, g, report)
                assert report.worst_margin >= 0

    def test_infinite_kappa_always_passes(self):
        tup = project_tuple(self.hh, self.model.parse("abt"))
        assert is_consistent(self.hh, ConsistentTuple(tup.entries, math.inf)).ok

    def test_missing_entry_raises(self):
        # a partial tuple is checked on its own domains; an entry for a
        # label that is no domain raises
        tup = project_tuple(self.hh, ())
        full = is_consistent(self.hh, tup)
        del tup.entries["S"]
        report = is_consistent(self.hh, tup)
        assert report.ok and report.checks < full.checks
        tup.entries["X"] = 0
        with pytest.raises(IndexMismatchError):
            is_consistent(self.hh, tup)

    def test_non_word_entry_is_not_a_point(self):
        for hh, u, bad in ((self.hh, "T", 5), (self.hh, "T", (True,)),
                           (self.hh, "L", True), (self.hh, "S", False),
                           (self.hh, "S", 0.0),
                           (build_named("f2freez"), "S", (0, 5)),
                           (build_named("f2freez"), "S", (0, (False,))),
                           (build_named("f2freez"), "S", (True, ()))):
            tup = project_tuple(hh, ())
            tup.entries[u] = bad
            with pytest.raises(InputError, match="not a point of its space"):
                is_consistent(hh, tup)

    def test_transverse_violation_detected(self):
        hh = build_named("f2freez")
        tup = project_tuple(hh, ())
        tup.entries["ab@1"] = (0, 0, 0)
        tup.entries["ab@c"] = (2, 2, 2)
        report = is_consistent(hh, tup)
        assert not report.ok
        assert report.condition == "transverse"
        assert set(report.pair) == {"ab@1", "ab@c"}

    def test_inequality_distances_per_relation(self):
        hh = build_named("f2freez")
        u, v = "ab@1", "ab@c"
        distances = consistency_inequality(hh, TRANSVERSE, u, v)
        p_u, p_v = (0, 0), (2,)
        assert distances(p_u, p_v) == (
            hh.space(u).dist(p_u, hh.rho_point(v, u)),
            hh.space(v).dist(p_v, hh.rho_point(u, v)))
        rho = build_named("f2xz-corrupt-rho")
        outer, inner = consistency_inequality(rho, NEST_IN, "T", "S")((0,), 3)
        assert (outer, inner) == (5, 1)
        with pytest.raises(PreconditionError):
            consistency_inequality(self.hh, ORTHOGONAL, "T", "L")


class TestRawLibraryInputs:
    """project_tuple, fit_distance_formula and tau0_floor_check normalise the
    words a caller hands them, so a raw word or a list of letters gives the
    result of its normal form."""

    @pytest.mark.parametrize("name", ["free2", "f2xz", "f2freez"])
    def test_raw_word_or_list_gives_the_normal_form_result(self, name):
        hh = build_named(name)
        nf = hh.group.normal_form
        rnd = random.Random(11)
        raws = [tuple(rnd.randrange(2 * hh.group.ngens) for _ in range(7))
                for _ in range(5)]
        assert any(nf(w) != w for w in raws)
        forms = [nf(w) for w in raws]
        for raw, g in zip(raws, forms):
            assert project_tuple(hh, raw) == project_tuple(hh, g)
            assert project_tuple(hh, list(raw)) == project_tuple(hh, g)
        expected = fit_distance_formula(hh, zip(forms, forms[1:]), s=0).to_json()
        assert fit_distance_formula(hh, zip(raws, raws[1:]), s=0).to_json() == expected
        assert fit_distance_formula(
            hh, [(list(x), list(y)) for x, y in zip(raws, raws[1:])], s=0).to_json() == expected
        expected = tau0_floor_check(hh, forms)
        assert tau0_floor_check(hh, raws) == expected
        assert tau0_floor_check(hh, [list(w) for w in raws]) == expected


def reference_closest_elements(structure, radius, targets):
    """The full scoring: every ball element scored on every target."""
    ball = standard_ball(structure.group, radius)
    spaces = {u: structure.space(u) for u, _ in targets}
    scores = [(max(spaces[u].dist(p, structure.pi(u, g)) for u, p in targets), g)
              for g in ball]
    theta_e = min(s for s, _ in scores)
    return theta_e, [g for s, g in scores if s == theta_e]


CATALOG = ["free2", "z1", "z2", "f2xz", "f2xf2", "f2freez"]
STRUCTURES = pathlib.Path(__file__).resolve().parents[1] / "structures"


def search_case(structure, radius, targets, theta_e):
    """Where the search of closest_elements ends up: "stop" when the lead
    target's own point is in its column and scores 0, "positive" when it
    is there with a least score above 0, "absent" when the column lacks
    it.  The lead is the first unbounded target in domain order."""
    rank = structure.domains().index
    lead_u, lead_p = min(targets, key=lambda t: (structure.is_bounded_domain(t[0]),
                                                  rank(t[0])))
    if lead_p not in structure.projection_column(lead_u, radius):
        return "absent"
    return "positive" if theta_e > 0 else "stop"


class TestClosestElementsPruning:
    @pytest.mark.parametrize("name", CATALOG)
    def test_pruned_search_matches_the_full_scoring(self, name):
        hh = build_named(name)
        domains = hh.domains()
        types = set()
        # each kind of target must reach its own case of the search
        cases = {kind: set() for kind in range(3)}
        for radius in (2, 3, 4):
            rng = random.Random(19 + radius)
            ball = standard_ball(hh.group, radius)
            far = standard_ball(hh.group, radius + 2)
            positive = ties = 0
            for trial in range(30):
                # a sample of the domains in a random order: the lead is not
                # always the first target, and a bounded domain (distance
                # 0.0) may come before an unbounded one (distance 0)
                us = rng.sample(domains, rng.randint(1, min(len(domains), 6)))
                if trial % 2 and domains[0] not in us:
                    # f2freez has 39 domains: S must come up often enough
                    us.insert(rng.randrange(len(us) + 1), domains[0])
                kind = trial % 3
                if kind == 0:
                    # a projected tuple of a ball element
                    g = rng.choice(ball)
                    targets = [(u, hh.pi(u, g)) for u in us]
                elif kind == 1:
                    # each entry projected from its own ball element
                    targets = [(u, hh.pi(u, rng.choice(ball))) for u in us]
                else:
                    # entries projected from outside the ball
                    targets = [(u, hh.pi(u, rng.choice(far))) for u in us]
                want = reference_closest_elements(hh, radius, targets)
                got = closest_elements(hh, targets, radius)
                assert got == want
                assert type(got[0]) is type(want[0])
                positive += want[0] > 0
                ties += len(want[1]) > 1
                types.add(type(want[0]))
                cases[kind].add(search_case(hh, radius, targets, want[0]))
            assert positive > 0
            if len(domains) > 1:  # one tree or line domain separates the ball
                assert ties > 0
        if name in ("z2", "f2xz", "f2xf2"):  # S is a point: its distance is 0.0
            assert types == {int, float}
        assert "stop" in cases[0]
        if len(domains) > 1:  # one target alone scores 0 at its own point
            assert "positive" in cases[1]
        assert "absent" in cases[2]

    def test_an_exact_tuple_measures_only_its_own_point(self, monkeypatch):
        # a projected tuple is fitted exactly at its lead's own point: the
        # search measures that point and stops, before measuring the 1,456
        # other points of T's column or sorting them
        hh = build_named("f2xz")
        g = hh.group.parse("abAtt")
        targets = sorted(project_tuple(hh, g).entries.items())
        space = hh.space("T")
        assert len(hh.projection_column("T", 6)) == 1457
        measured = []
        dist = space.dist
        monkeypatch.setattr(space, "dist",
                            lambda x, y: measured.append((x, y)) or dist(x, y))
        assert closest_elements(hh, targets, 6) == (0, [g])
        assert measured == [(hh.pi("T", g), hh.pi("T", g))]


class FloatLine(LineSpace):
    """The integer line with float distances."""

    def dist(self, x, y):
        return float(abs(x - y))


def z2_with_a_float_line():
    """Z^2 with two orthogonal lines, the second measured in floats."""
    Z2 = FreeAbelianGroup(2)
    domains = [Domain("L1", LineSpace(), lambda g: Z2.exponents(g)[0], lambda p: ()),
               Domain("L2", FloatLine(), lambda g: Z2.exponents(g)[1], lambda p: ())]
    return TableHHG("z2-float", Z2, ConstantLedger(), domains, orthogonal=[("L1", "L2")])


class TestRealizationCache:
    """The search reads one projection column per structure, domain and
    radius; a repeated search builds nothing."""

    def test_a_second_call_builds_no_ball_and_no_column(self, built_layers):
        hh = build_named("f2xz")
        projected = []

        def counted(u, pi):
            def count(g):
                projected.append(u)
                return pi(g)
            return count

        hh._domains = {u: d._replace(pi=counted(u, d.pi)) for u, d in hh._domains.items()}
        g, h = hh.group.parse("abtt"), hh.group.parse("BBt")
        tup = project_tuple(hh, g)
        # realize checks the tuple's consistency first, which projects
        # lifts; every other projection to T is the search's
        projected.clear()
        assert is_consistent(hh, tup).ok
        consistency = projected.count("T")
        projected.clear()
        first = realize(hh, tup, search_radius=4)
        assert built_layers
        assert projected.count("T") == consistency + len(standard_ball(hh.group, 4))
        assert list(hh._columns) == [("T", 4)]
        built_layers.clear()
        projected.clear()
        assert realize(hh, tup, search_radius=4) == first
        assert built_layers == [] and projected.count("T") == consistency
        assert list(hh._columns) == [("T", 4)]
        # the search for another tuple reads the same column of T; only
        # its other domains are projected
        targets = sorted(project_tuple(hh, h).entries.items())
        projected.clear()
        assert closest_elements(hh, targets, 4) == (0, [h])
        assert built_layers == [] and "T" not in projected
        assert list(hh._columns) == [("T", 4)]

    def test_one_call_builds_at_most_one_column(self):
        hh = build_named("f2freez")
        assert len(hh.domains()) == 39
        g = hh.group.parse("acbC")
        res = realize(hh, project_tuple(hh, g), search_radius=4)
        assert res.elements == [g]
        assert list(hh._columns) == [("S", 4)]

    def test_empty_tuple_refused(self):
        with pytest.raises(InputError):
            realize(build_named("f2xz"), ConsistentTuple({}, 1.0), search_radius=2)


class TestRealization:
    def setup_method(self):
        self.hh = build_named("f2xz")
        self.model = self.hh.group

    def test_a_target_off_the_domain_list(self):
        # a coset past the generation radius names a domain that domains()
        # does not list; it can still be the only unbounded target
        hh = build_named("f2freez")
        u = "ab@cccc"
        assert u not in hh.domains()
        g = hh.group.parse("ccca")
        for targets in ([(u, hh.pi(u, g))], [(u, hh.pi(u, g)), ("c@1", 5)]):
            want = reference_closest_elements(hh, 3, targets)
            assert closest_elements(hh, targets, 3) == want

    def test_closest_elements_keep_ball_order(self):
        ball = standard_ball(self.model, 2)
        theta_e, closest = closest_elements(self.hh, [("L", 1), ("T", ())], 2)
        assert theta_e == 0
        assert closest == [g for g in ball
                           if self.hh.pi("L", g) == 1 and self.hh.pi("T", g) == ()]
        theta_e, closest = closest_elements(self.hh, [("L", 5)], 2)
        assert theta_e == 3
        assert closest == [self.model.parse("tt")]

    def test_closest_elements_report_the_first_closest_element(self):
        # z1 is one line domain with a declared lift; the target point is -3
        # and the ball has radius 1: the identity, t and T in that order,
        # of which T is closest, 2 away
        hh = build_named("z1")
        assert closest_elements(hh, [("S", -3)], 1) == (2, [hh.group.parse("T")])

    def test_theta_e_takes_the_type_of_the_first_largest_distance(self):
        # S is a point (distance 0.0), T a tree (distance 0): the first of
        # the equal largest distances, in target order, is the score
        hh = build_named("f2xz")
        g = hh.group.parse("abt")
        theta_e, _ = closest_elements(hh, [("S", 0), ("T", hh.pi("T", g))], 3)
        assert theta_e == 0 and type(theta_e) is float
        theta_e, _ = closest_elements(hh, [("T", hh.pi("T", g)), ("S", 0)], 3)
        assert theta_e == 0 and type(theta_e) is int

    def test_theta_e_is_the_score_of_the_first_closest_element(self):
        # the ball of radius 1 is 1, a, A, b, B; against (2, 2) they score
        # 2, 2.0, 3, 2 and 3.0.  The lead L1 reaches a first (distance 1),
        # but the identity comes first in the ball, so theta_e is its int 2
        hh = z2_with_a_float_line()
        targets = [("L1", 2), ("L2", 2)]
        theta_e, closest = closest_elements(hh, targets, 1)
        assert (theta_e, closest) == reference_closest_elements(hh, 1, targets)
        assert type(theta_e) is int
        assert closest == [(), hh.group.parse("a"), hh.group.parse("b")]

    def test_exact_tuple_realizes_to_singleton(self):
        for g in random_words(self.model, 30, 4, seed=5):
            res = realize(self.hh, project_tuple(self.hh, g), search_radius=4)
            assert res.elements == [g]
            assert res.theta_e == 0
            assert res.diameter == 0
            assert res.diameter <= self.hh.constants.theta_of(self.hh.constants.kappa1)

    def test_spec_coordinates_realize(self):
        tup = ConsistentTuple({"S": 0, "T": (0, 2), "L": 2}, self.hh.constants.kappa1)
        res = realize(self.hh, tup, search_radius=4)
        assert res.elements == [self.model.parse("abtt")]
        # a ball too small to reach the tuple realizes it with slack
        far = project_tuple(self.hh, self.model.parse("aaaaaa"))
        assert realize(self.hh, far, search_radius=3).theta_e == 3

    def test_inconsistent_tuple_refused(self):
        hh = build_named("f2freez")
        tup = project_tuple(hh, ())
        tup.entries["ab@1"] = (0, 0, 0)
        tup.entries["ab@c"] = (2, 2, 2)
        with pytest.raises(PreconditionError):
            realize(hh, tup, search_radius=2)


class TestDistanceFormula:
    def setup_method(self):
        self.hh = build_named("f2xz")
        self.model = self.hh.group

    def test_thresholded_contributions(self):
        y = self.model.parse("aaaaattttttt")
        ts = distance_formula_sum(self.hh, (), y, s=3)
        assert ts.contributions == {"T": 5, "L": 7}
        assert ts.total == 12

    def test_threshold_is_strict(self):
        y = self.model.parse("aaa")
        assert distance_formula_sum(self.hh, (), y, s=3).total == 0
        assert distance_formula_sum(self.hh, (), y, s=2).total == 3

    def test_equal_points_sum_to_zero(self):
        g = self.model.parse("abt")
        assert distance_formula_sum(self.hh, g, g, s=0).total == 0

    def test_big_threshold_kills_everything(self):
        y = self.model.parse("aaaaattttttt")
        assert distance_formula_sum(self.hh, (), y, s=10).total == 0

    def test_negative_threshold_rejected(self):
        with pytest.raises(InputError):
            distance_formula_sum(self.hh, (), (), s=-1)

    def test_sum_monotone_in_threshold(self):
        words = random_words(self.model, 12, 5, seed=23)
        pairs = list(zip(words[:6], words[6:]))
        for x, y in pairs:
            totals = [distance_formula_sum(self.hh, x, y, s).total for s in (0, 1, 2, 3, 5)]
            assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_fit_single_domain_is_exact(self):
        hh = build_named("free2")
        words = random_words(hh.group, 20, 5, seed=7)
        pairs = list(zip(words[:10], words[10:]))
        fit = fit_distance_formula(hh, pairs, s=0)
        assert (fit.K, fit.C) == (1.0, 0.0)

    def test_fit_product_is_exact(self):
        words = random_words(self.model, 40, 5, seed=13)
        pairs = list(zip(words[:20], words[20:]))
        fit = fit_distance_formula(self.hh, pairs, s=0)
        assert fit.ok
        assert (fit.K, fit.C) == (1.0, 0.0)
        assert fit.binding["slack"] >= 0

    def test_fit_constant_never_grows_with_threshold(self):
        words = random_words(self.model, 40, 5, seed=29)
        pairs = list(zip(words[:20], words[20:]))
        ks = [fit_distance_formula(self.hh, pairs, s).K for s in (0, 1, 2, 3)]
        assert all(a >= b for a, b in zip(ks, ks[1:]))

    def test_fit_degenerate_samples(self):
        x = self.model.parse("ab")
        y = self.model.parse("t")
        fit = fit_distance_formula(self.hh, [(x, x), (y, y)], s=0)
        assert (fit.K, fit.C) == (1.0, 0.0)

    def test_fit_needs_two_samples(self):
        with pytest.raises(PreconditionError):
            fit_distance_formula(self.hh, [((), ())], s=0)

    def test_fit_failure_reported(self):
        # without the line domain t^200 has sum 0, so even K_MAX = 16 needs
        # C = 200 / 16 = 12.5, above the additive cap 8
        hh = build_named("f2xz-corrupt-uniqueness")
        t = hh.group.parse("t")
        pairs = [((), hh.group.power(t, 200)), ((), hh.group.power(t, 199))]
        fit = fit_distance_formula(hh, pairs, s=0)
        assert not fit.ok
        assert fit.K is None
        assert fit.failure["k_max"] == 16.0 and fit.failure["c_max"] == 8.0
        assert fit.failure["worst"]["needed_c"] == 12.5

    def test_fit_free_product(self):
        hh = build_named("f2freez")
        words = random_words(hh.group, 30, 4, seed=3)
        pairs = list(zip(words[:15], words[15:]))
        fit = fit_distance_formula(hh, pairs, s=0)
        assert fit.ok
        assert fit.K == 1.0


class TestDecomposition:
    def test_product_blocks(self):
        assert product_decomposition(build_named("f2xz")).blocks == [["L"], ["T"]]
        assert product_decomposition(build_named("z2")).blocks == [["L1"], ["L2"]]
        assert product_decomposition(build_named("f2xf2")).blocks == [["T1"], ["T2"]]
        assert product_decomposition(build_named("free2")).blocks == [["S"]]

    def test_block_kinds(self):
        dec = product_decomposition(build_named("f2xz"))
        assert [d["kind"] for d in dec.descriptors] == ["line", "tree"]
        # on every structure file: a block of two or more domains is mixed,
        # and a single domain is named by its space, a line or a tree
        kinds = {"line": "line", "tree": "tree", "coset tree": "tree"}
        blocks = {}
        for path in sorted(STRUCTURES.glob("*.json")):
            dec = product_decomposition(load_structure(str(path)))
            for d in dec.descriptors:
                assert d["kind"] == ("mixed" if len(d["domains"]) > 1
                                     else kinds[d["spaces"][0]])
            blocks[path.stem] = [(d["kind"], len(d["domains"])) for d in dec.descriptors]
        assert blocks["f2freez"] == [("mixed", 39)]
        assert blocks["swapline"] == [("line", 1), ("line", 1)]
        assert blocks["f2xz-corrupt-rho"] == [("line", 1), ("tree", 1)]
        # its top is a bounded path, a LineSpace that no block holds
        rho = load_structure(str(STRUCTURES / "f2xz-corrupt-rho.json"))
        assert rho.space("S").label == "path" and rho.is_bounded_domain("S")
        assert "S" not in sum(product_decomposition(rho).blocks, [])

    def test_free_product_is_one_block(self):
        dec = product_decomposition(build_named("f2freez"))
        assert len(dec.blocks) == 1
        assert "S" in dec.blocks[0] and "ab@1" in dec.blocks[0]
        assert dec.descriptors[0]["kind"] == "mixed"

    def test_all_bounded_is_degenerate(self):
        dec = product_decomposition(build_named("bad-orth-closure"))
        assert dec.degenerate
        assert dec.blocks == []

    def test_blocks_pairwise_orthogonal_and_exhaustive(self):
        for name in ("free2", "z1", "z2", "f2xz", "f2xf2", "f2freez"):
            hh = build_named(name)
            dec = product_decomposition(hh)
            unbounded = sorted(u for u in hh.domains() if not hh.is_bounded_domain(u))
            assert sorted(u for block in dec.blocks for u in block) == unbounded
            for i, bi in enumerate(dec.blocks):
                for bj in dec.blocks[i + 1:]:
                    for u in bi:
                        for v in bj:
                            assert hh.relation(u, v) == "perp"


def zigzag_chord_graph(graph_space, m):
    """Integers -m..m with steps 1 and 2, indexed so vertex 0 is central."""

    def idx(pos):
        return 2 * pos - 1 if pos > 0 else -2 * pos

    edges = []
    for p in range(-m, m + 1):
        for step in (1, 2):
            if p + step <= m:
                edges.append((idx(p), idx(p + step)))
    return graph_space(2 * m + 1, edges)


class TestQuasiLine:
    def test_line_needs_no_slack(self):
        assert quasi_line_detect(LineSpace(), radius=5) == 0

    def test_tree_is_never_a_quasi_line(self):
        tree = CayleyTreeSpace(FreeGroup(2))
        assert quasi_line_detect(tree, radius=3) is None
        assert quasi_line_detect(tree, radius=4) is None

    def test_chord_graph_is_a_coarse_line(self, graph_space):
        assert quasi_line_detect(zigzag_chord_graph(graph_space, 6), radius=3) == 1

    def test_coset_tree_is_not_a_line(self):
        hh = build_named("f2freez")
        assert quasi_line_detect(hh.space("S"), radius=2) is None

    def test_structure_line_domain(self):
        hh = build_named("z1")
        assert quasi_line_detect(hh.space("S"), radius=4) == 0

    def test_radius_precondition(self):
        with pytest.raises(InputError):
            quasi_line_detect(LineSpace(), radius=1)
