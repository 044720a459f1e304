import random

import pytest

from hhglab import classify as classify_module
from hhglab.axioms import structural_validators
from hhglab.balls import symmetrize
from hhglab.builders import build_named
from hhglab.certify import dichotomy
from hhglab.classify import big_set, domain_period, tau0_floor_check, tau_on_domain
from hhglab.errors import PreconditionError, StructureInvalidError
from hhglab.structures import ConstantLedger


def random_words(model, count, length, seed):
    rnd = random.Random(seed)
    letters = [w[0] for w in model.generators()]
    letters = letters + [x ^ 1 for x in letters]
    out = []
    for _ in range(count):
        raw = tuple(rnd.choice(letters) for _ in range(rnd.randint(1, length)))
        out.append(model.normal_form(raw))
    return out


class TestBigSets:
    def setup_method(self):
        self.hh = build_named("f2xz")
        self.model = self.hh.group

    def test_tree_factor(self):
        big = big_set(self.hh, self.model.parse("a"))
        assert big.domains == ["T"]
        ev = big.evidence["T"]
        assert ev["via"] == "translation"
        assert ev["tau"] == 1.0
        assert ev["power"] == 1

    def test_line_factor(self):
        assert big_set(self.hh, self.model.parse("t")).domains == ["L"]

    def test_both_factors(self):
        assert big_set(self.hh, self.model.parse("at")).domains == ["L", "T"]

    def test_identity_is_empty(self):
        assert big_set(self.hh, ()).domains == []

    def test_free_product_domains(self):
        hh = build_named("f2freez")
        m = hh.group
        assert big_set(hh, m.parse("a")).domains == ["ab@1"]
        assert big_set(hh, m.parse("c")).domains == ["c@1"]
        assert big_set(hh, m.parse("caC")).domains == ["ab@c"]
        big = big_set(hh, m.parse("ac"))
        assert big.domains == ["S"]
        assert big.evidence["S"]["tau"] == 2.0

    def test_swapped_lines_need_the_square(self):
        hh = build_named("swapline")
        big = big_set(hh, hh.group.parse("t"))
        assert big.domains == ["P", "Q"]
        assert big.evidence["P"] == {"via": "translation", "tau": 0.5, "power": 2}

    def test_free_product_big_sets_follow_the_element(self):
        hh = build_named("f2freez")
        m = hh.group
        # loxodromic on the coset tree: its powers fix no coset
        assert big_set(hh, m.parse("ccccca")).domains == ["S"]
        # elliptic: fixes the coset aaa<c>, outside the radius-2 window
        big = big_set(hh, m.parse("aaacAAA"))
        assert big.domains == ["c@aaa"]
        assert big.evidence["c@aaa"] == {"via": "translation", "tau": 1.0, "power": 1}

    def test_conjugation_equivariance(self):
        for name in ("f2xz", "f2freez"):
            hh = build_named(name)
            m = hh.group
            letters = [w for w in m.generators()] + [m.inverse(w) for w in m.generators()]
            for g in random_words(m, 12, 3, seed=37):
                for h in letters:
                    conj = m.multiply(m.multiply(h, g), m.inverse(h))
                    left = big_set(hh, conj).domains
                    right = sorted(hh.act_on_domain(h, u) for u in big_set(hh, g).domains)
                    assert left == right, (name, m.format(g), m.format(h))

    def test_powers_share_the_big_set(self):
        for name in ("f2xz", "f2freez"):
            hh = build_named(name)
            for g in random_words(hh.group, 10, 3, seed=41):
                base = big_set(hh, g).domains
                for n in (2, 3, 4):
                    assert big_set(hh, hh.group.power(g, n)).domains == base

    def test_members_pairwise_orthogonal_and_small(self):
        for name, count, length in (("f2xz", 10, 3), ("z2", 10, 3), ("f2freez", 40, 8),
                                    ("swapline", 10, 3)):
            hh = build_named(name)
            for g in random_words(hh.group, count, length, seed=43):
                big = big_set(hh, g)
                assert big.domains or g == ()
                assert len(big.domains) <= hh.constants.N_rank
                for i, u in enumerate(big.domains):
                    for v in big.domains[i + 1:]:
                        assert hh.relation(u, v) == "perp"


class TestStabilization:
    def test_invariant_factors_need_no_power(self):
        hh = build_named("f2xz")
        a = hh.group.parse("a")
        assert [domain_period(hh, a, u, 1) for u in big_set(hh, a).domains] == [1]

    def test_identity_power_is_one(self):
        hh = build_named("f2xz")
        assert [domain_period(hh, (), u, 1) for u in hh.domains()] == [1, 1, 1]

    def test_swapped_lines_need_two(self):
        hh = build_named("swapline")
        t = hh.group.parse("t")
        assert [domain_period(hh, t, u, 2) for u in ("P", "Q")] == [2, 2]
        assert tau_on_domain(hh, t, "P") == (0.5, 2)

    def test_conjugate_fixes_its_coset(self):
        # caC fixes the coset c F_0 and moves its points by a; no power of a
        # up to 2! fixes that coset
        hh = build_named("f2freez")
        assert tau_on_domain(hh, hh.group.parse("caC"), "ab@c") == (1.0, 1)
        assert tau_on_domain(hh, hh.group.parse("a"), "ab@c") == (None, None)

    @pytest.mark.parametrize("name", ["f2xz", "f2xf2", "f2freez"])
    def test_tau_is_each_step_of_the_projected_orbit(self, name):
        # on a tree, with h = g^m fixing u and x = pi_u(1), every step
        # d(x, h^(n+1) x) - d(x, h^n x) with n >= 1 is the translation length
        # of h; the orbit points are read off pi as pi_u(h^n)
        hh = build_named(name)
        m = hh.group
        for g in random_words(m, 70, 6, seed=31):
            for u in hh.domains_between((), g):
                tau, period = tau_on_domain(hh, g, u)
                if tau is None:
                    continue
                h, space, x = m.power(g, period), hh.space(u), hh.pi(u, ())
                orbit = [space.dist(x, hh.pi(u, m.power(h, n))) for n in range(1, 6)]
                steps = [b - a for a, b in zip(orbit, orbit[1:])]
                assert steps == [tau * period] * 4, (g, u, steps)

    def test_missing_power_is_structure_invalid(self):
        # with N_rank = 1 no power up to N_rank! fixes the swapped lines,
        # and the certifier refuses the declared rank
        hh = build_named("swapline")
        hh.constants = ConstantLedger(
            delta=0.0, xi=0.0, kappa0=1.0, E=2.0, lam=2.0, alpha=2.0,
            K_proj=1.0, n_complexity=2, theta_coeffs=(0.0, 2.0),
            C_norm=0.0, tau0=0.5, N_rank=1,
        )
        t = hh.group.parse("t")
        assert domain_period(hh, t, "P", hh.constants.N_rank) is None
        with pytest.raises(StructureInvalidError):
            dichotomy(hh, [t])


class TestTauFloor:
    def test_standard_structures_meet_the_floor(self):
        for name in ("free2", "z1", "z2", "f2xz", "f2xf2", "f2freez"):
            hh = build_named(name)
            assert tau0_floor_check(hh, hh.group.generators()) == 1.0

    def test_half_speed_lines(self):
        hh = build_named("swapline")
        assert tau0_floor_check(hh, hh.group.generators()) == 0.5

    def test_floor_violation_raises(self):
        hh = build_named("swapline")
        hh.constants = ConstantLedger(
            delta=0.0, xi=0.0, kappa0=1.0, E=2.0, lam=2.0, alpha=2.0,
            K_proj=1.0, n_complexity=2, theta_coeffs=(0.0, 2.0),
            C_norm=0.0, tau0=0.75, N_rank=2,
        )
        with pytest.raises(StructureInvalidError):
            tau0_floor_check(hh, hh.group.generators())

    def test_reads_tau_from_the_big_set(self, monkeypatch):
        hh = build_named("f2xz")
        gens = symmetrize(hh.group, hh.group.generators())
        calls = []
        measure = classify_module.tau_on_domain
        monkeypatch.setattr(classify_module, "tau_on_domain",
                            lambda *args: calls.append(args) or measure(*args))
        for g in gens:
            big_set(hh, g)
        alone = len(calls)
        calls.clear()
        assert tau0_floor_check(hh, gens) == 1.0
        assert len(calls) == alone

    def test_empty_sample_rejected(self):
        with pytest.raises(PreconditionError):
            tau0_floor_check(build_named("f2xz"), [])

    def test_all_bounded_structure_is_vacuous(self):
        hh = build_named("bad-orth-closure")
        assert tau0_floor_check(hh, hh.group.generators()) is None


def orthogonal_rank(structure):
    """Largest pairwise-orthogonal family of unbounded domains (max clique)."""
    unbounded = [u for u in structure.domains() if not structure.is_bounded_domain(u)]
    best = 0

    def grow(clique, candidates):
        nonlocal best
        best = max(best, len(clique))
        for i, u in enumerate(candidates):
            if len(clique) + len(candidates) - i <= best:
                return
            grow(clique + [u], [v for v in candidates[i + 1:]
                                if structure.relation(u, v) == "perp"])

    grow([], unbounded)
    return best


class TestOrthogonalRank:
    def test_matches_declared_rank(self):
        for name in ("free2", "z1", "z2", "f2xz", "f2xf2", "f2freez", "swapline"):
            hh = build_named(name)
            assert orthogonal_rank(hh) == hh.constants.N_rank, name

    def test_all_bounded_has_rank_zero(self):
        assert orthogonal_rank(build_named("bad-orth-closure")) == 0


def failed_rules(report):
    return sorted({f["rule"] for f in report.failures})


class TestStructuralValidators:
    def test_sound_structures_pass(self):
        for name in ("free2", "z1", "z2", "f2xz", "f2xf2", "f2freez", "swapline",
                      "f2xz-corrupt-rho", "f2xz-corrupt-lipschitz",
                      "f2xz-corrupt-uniqueness"):
            report = structural_validators(build_named(name))
            assert report.ok, (name, report.failures)

    def test_nested_in_quasi_line(self):
        report = structural_validators(build_named("bad-nest-in-line"))
        assert failed_rules(report) == [2]

    def test_orthogonal_family_nesting(self):
        report = structural_validators(build_named("bad-orth-in-line"))
        assert 1 in failed_rules(report)

    def test_transverse_to_invariant(self):
        report = structural_validators(build_named("bad-transverse-invariant"))
        assert failed_rules(report) == [3]

    def test_report_shape(self):
        data = structural_validators(build_named("bad-nest-in-line")).to_json()
        assert data["ok"] is False
        assert data["failures"][0]["pair"] == ["T", "S"]
        assert data["checks"] > 0
