"""Axiom checker: clean structures pass, corrupted ones fail where intended."""

from collections import Counter

import pytest

from hhglab import axioms
from hhglab.axioms import AXIOM_NAMES, _Env, check_structure
from hhglab.builders import build_named, structure_from_json
from hhglab.errors import InputError
from hhglab.spaces import Space

STANDARD = ("free2", "z1", "z2", "f2xz", "f2xf2", "f2freez")


class TestStandardStructuresPass:
    @pytest.mark.parametrize("name", STANDARD)
    def test_all_axioms_hold(self, name):
        report = check_structure(build_named(name))
        assert report.passed, report.to_json()
        assert report.failed_axioms() == []
        assert len(report.axioms) == 9

    def test_margins_are_nonnegative(self):
        report = check_structure(build_named("f2xz"))
        for a in report.axioms:
            assert a.margin >= 0

    def test_large_links_bound_is_tight_on_product(self):
        # both factors move at once, so the link count meets the declared
        # bound exactly somewhere in the sample
        report = check_structure(build_named("f2xz"))
        a6 = [a for a in report.axioms if a.index == 6][0]
        assert a6.passed and a6.margin == 0


class TestCorruptedFixturesFail:
    def test_relocated_rho_breaks_only_consistency(self):
        report = check_structure(build_named("f2xz-corrupt-rho"))
        assert report.failed_axioms() == [4]
        a4 = [a for a in report.axioms if a.index == 4][0]
        assert a4.margin < 0
        assert a4.witness["clause"] == "nested"

    def test_fast_projection_breaks_only_lipschitz(self):
        report = check_structure(build_named("f2xz-corrupt-lipschitz"))
        assert report.failed_axioms() == [1]
        a1 = [a for a in report.axioms if a.index == 1][0]
        assert a1.witness["clause"] == "lipschitz"
        assert a1.witness["domain"] == "L"

    def test_dropped_domain_breaks_only_uniqueness(self):
        report = check_structure(build_named("f2xz-corrupt-uniqueness"))
        assert report.failed_axioms() == [9]

    def test_swapline_fails_realization(self):
        # the two line coordinates are locked together, so arbitrary pairs
        # cannot be realized; everything else about the table is fine
        report = check_structure(build_named("swapline"))
        assert report.failed_axioms() == [8]

    def test_orthogonality_closure_violation(self):
        report = check_structure(build_named("bad-orth-closure"))
        assert 3 in report.failed_axioms()
        a3 = [a for a in report.axioms if a.index == 3][0]
        assert a3.witness["clause"] == "closure"


class TestVacuousMargins:
    """A check that runs nothing passes with its bound as the margin."""

    def test_single_domain_product(self):
        # one tree domain: no pairs of domains for axioms 4, 6 and 7, and
        # theta is 1000, above every sampled distance, for axiom 9
        st = structure_from_json({
            "builder": "product", "label": "free2",
            "group": {"family": "free", "rank": 2, "labels": ["a", "b"]},
            "constants": {"kappa0": 3.0, "lam": 5.0, "E": 7.0, "theta_coeffs": [1000.0]}})
        axioms = {a.index: a for a in check_structure(st).axioms}
        for index, margin in ((4, 3.0), (6, 5.0), (7, 7.0), (9, 0.0)):
            a = axioms[index]
            assert (a.checks, a.passed, a.margin, a.witness) == (0, True, margin, {}), index

    def test_partial_realization_without_unbounded_domains(self):
        a8 = check_structure(build_named("bad-orth-closure")).axioms[7]
        assert (a8.index, a8.checks, a8.passed, a8.margin) == (8, 0, True, 1.0)


class TestCheckerApi:
    @pytest.mark.parametrize("option", [{"radius": 0}, {"radius": -1},
                                        {"max_pairs": 0}, {"max_pairs": -3}])
    def test_empty_sample_rejected(self, option):
        with pytest.raises(InputError):
            check_structure(build_named("f2xz-corrupt-uniqueness"), **option)

    def test_deterministic_for_fixed_seed(self):
        r1 = check_structure(build_named("f2xz"), seed=7)
        r2 = check_structure(build_named("f2xz"), seed=7)
        assert r1.to_json() == r2.to_json()

    def test_seed_does_not_change_verdicts(self):
        for seed in (0, 1, 2):
            assert check_structure(build_named("f2xz"), seed=seed).passed
            failed = check_structure(build_named("f2xz-corrupt-rho"), seed=seed).failed_axioms()
            assert failed == [4]

    def test_report_shape(self):
        report = check_structure(build_named("z1"))
        data = report.to_json()
        assert data["structure"] == "z1"
        assert data["passed"] is True
        assert len(data["axioms"]) == 9
        for a in data["axioms"]:
            assert set(a) == {"index", "name", "passed", "margin", "checks", "witness"}
            assert a["name"] == AXIOM_NAMES[a["index"]]

    def test_every_axiom_exercised_somewhere(self):
        # on the free product, no axiom check should be vacuous except
        # orthogonality (it has no orthogonal pairs)
        report = check_structure(build_named("f2freez"))
        for a in report.axioms:
            assert a.checks > 0, a.name


def space_classes():
    """Space and every subclass of it loaded so far."""
    out, stack = [], [Space]
    while stack:
        cls = stack.pop()
        out.append(cls)
        stack.extend(cls.__subclasses__())
    return out


class TestSharedSamples:
    """One checker run computes each sampled quantity once."""

    def test_each_space_is_sampled_once(self, monkeypatch):
        st = build_named("f2freez")
        sampled = []
        for cls in space_classes():
            if "sample_points" in cls.__dict__:
                def counting(self, radius, original=cls.__dict__["sample_points"]):
                    sampled.append(self)
                    return original(self, radius)
                monkeypatch.setattr(cls, "sample_points", counting)
        check_structure(st, radius=3, seed=0, max_pairs=500)
        assert any(space is st.tree for space in sampled)
        assert max(Counter(map(id, sampled)).values()) == 1

    def test_four_point_check_once_per_space(self, monkeypatch):
        # the 12 sampled domains of f2freez share fewer spaces than that
        st = build_named("f2freez")
        checked = []
        original = axioms.max_four_point_defect

        def counting(space, points, quad_budget):
            checked.append(space)
            return original(space, points, quad_budget=quad_budget)

        monkeypatch.setattr(axioms, "max_four_point_defect", counting)
        report = check_structure(st, radius=3, seed=0, max_pairs=500)
        assert report.axioms[0].passed
        assert 1 < len(checked) < 12
        assert max(Counter(map(id, checked)).values()) == 1

    def test_points_hands_out_a_fresh_list(self):
        env = _Env(build_named("f2freez"), 3, 0, 5)
        pts = env.points("S")
        assert len(pts) == 25
        pts.clear()
        assert env.points("S") is not env.points("S")
        assert len(env.points("S")) == 25

    def test_word_metric_once_per_sampled_pair(self, monkeypatch):
        st = build_named("f2freez")
        env = _Env(st, 3, 0, 500)
        assert len(env.pairs) == 500
        assert all(dg == st.word_metric(x, y) for x, y, dg in env.pairs)
        calls = []
        original = st.word_metric

        def counting(x, y):
            calls.append((x, y))
            return original(x, y)

        monkeypatch.setattr(st, "word_metric", counting)
        check_structure(st, radius=3, seed=0, max_pairs=500)
        assert Counter(calls) == Counter((x, y) for x, y, _ in env.pairs)
        assert len(calls) == len(env.pairs)
