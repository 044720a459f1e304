import math
import random

import pytest

from hhglab.balls import standard_ball
from hhglab.builders import build_named
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
from hhglab.groups import FreeGroup
from hhglab.spaces import CayleyTreeSpace, GraphSpace, LineSpace
from hhglab.structures import NEST_IN, ORTHOGONAL, TRANSVERSE


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


class TestRealization:
    def setup_method(self):
        self.hh = build_named("f2xz")
        self.model = self.hh.group

    def test_closest_elements_keep_candidate_order(self):
        ball = standard_ball(self.model, 2)
        theta_e, closest = closest_elements(self.hh, ball, [("L", 1), ("T", ())])
        assert theta_e == 0
        assert closest == [g for g in ball
                           if self.hh.pi("L", g) == 1 and self.hh.pi("T", g) == ()]
        theta_e, closest = closest_elements(self.hh, ball, [("L", 5)])
        assert theta_e == 3
        assert closest == [self.model.parse("tt")]

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


def zigzag_chord_graph(m):
    """Integers -m..m with steps 1 and 2, indexed so vertex 0 is central."""

    def idx(pos):
        return 2 * pos - 1 if pos > 0 else -2 * pos

    edges = []
    for p in range(-m, m + 1):
        for step in (1, 2):
            if p + step <= m:
                edges.append((idx(p), idx(p + step)))
    return GraphSpace(2 * m + 1, edges)


class TestQuasiLine:
    def test_line_needs_no_slack(self):
        assert quasi_line_detect(LineSpace(), radius=5) == 0

    def test_tree_is_never_a_quasi_line(self):
        tree = CayleyTreeSpace(FreeGroup(2))
        assert quasi_line_detect(tree, radius=3) is None
        assert quasi_line_detect(tree, radius=4) is None

    def test_chord_graph_is_a_coarse_line(self):
        assert quasi_line_detect(zigzag_chord_graph(6), radius=3) == 1

    def test_coset_tree_is_not_a_line(self):
        hh = build_named("f2freez")
        assert quasi_line_detect(hh.space("S"), radius=2) is None

    def test_structure_line_domain(self):
        hh = build_named("z1")
        assert quasi_line_detect(hh.space("S"), radius=4) == 0

    def test_radius_precondition(self):
        with pytest.raises(InputError):
            quasi_line_detect(LineSpace(), radius=1)
