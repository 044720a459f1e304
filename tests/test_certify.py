import itertools
import json
import math
import random

import pytest

from hhglab.balls import (enumerate_generating_sets, generates_at_radius,
                          growth_function, standard_ball, symmetrize)
from hhglab.builders import build_named, structure_from_json
from hhglab.certify import (CaseOutcome, certifier_ledger, certify,
                            case2_branch, collect_big_domains, dichotomy,
                            nested_to_transverse, pingpong_transverse,
                            preserves_endpoint_pair, semigroup_growth_check,
                            scan_generating_sets, top_level_certify,
                            ueg_lower_bound, verify_free_semigroup,
                            verify_free_subgroup)
from hhglab.errors import (CertifierRefutedError, ClassificationAnomalyError,
                           InputError, PreconditionError, StructureInvalidError)
from hhglab.groups import IDENTITY, FreeAbelianGroup, FreeGroup, GroupModel
from hhglab.spaces import CayleyTreeSpace, LineSpace, PointSpace
from hhglab.structures import ConstantLedger, Domain, TableHHG

STANDARD = ("free2", "z1", "z2", "f2xz", "f2xf2", "f2freez")


def routed(st):
    """The standard generators, already normalised, their dichotomy outcome
    and the certifier ledger, as `certify` hands them to the routes."""
    words = st.group.generators()
    return words, dichotomy(st, words), certifier_ledger(st.constants)


def line_tree_structure():
    """Rank-2 abelian model with a line domain and a tree domain whose image
    is a single axis: all endpoints are preserved but the tree block is not a
    quasi-line, so the stabilizer route must refuse the abelian verdict."""
    model = FreeAbelianGroup(2, "ab")
    tm = FreeGroup(2, "xy")
    tree = CayleyTreeSpace(tm)

    def tree_pi(g):
        n = model.exponents(g)[0]
        return tm.normal_form(((0,) if n >= 0 else (1,)) * abs(n))

    domains = [
        Domain("S", PointSpace(), lambda g: 0, act=lambda g, p: 0, lift=lambda p: ()),
        Domain("P", LineSpace(), lambda g: model.exponents(g)[1],
               act=lambda g, p: p + model.exponents(g)[1],
               lift=lambda p: model.from_exponents([0, p])),
        Domain("W", tree, tree_pi, act=lambda g, p: tm.multiply(tree_pi(g), p),
               lift=lambda p: model.from_exponents([p.count(0) - p.count(1), 0])),
    ]
    return TableHHG(
        "line-tree", model, ConstantLedger(n_complexity=2, N_rank=2), domains,
        nesting=[("P", "S"), ("W", "S")],
        orthogonal=[("P", "W")],
        rho_points={("P", "S"): 0, ("W", "S"): 0},
        rho_maps={("S", "P"): lambda p: 0, ("S", "W"): lambda p: tm.normal_form(())},
    )


class TestLedger:
    def test_free2_schedule(self):
        st = build_named("free2")
        led = certifier_ledger(st.constants)
        assert led.k1 == 6
        assert led.n0 == 10
        assert led.k2 == math.factorial(21)
        assert led.k4 == 1
        assert led.M == 2 * 10 + math.factorial(21)

    def test_f2freez_schedule(self):
        led = certifier_ledger(build_named("f2freez").constants)
        assert led.k1 == 24
        assert led.n0 == 20
        assert led.k2 == 4 * math.factorial(41)

    def test_f2xz_schedule(self):
        led = certifier_ledger(build_named("f2xz").constants)
        assert led.k1 == 2 * math.factorial(5)
        assert led.n0 == 20

    @pytest.mark.parametrize("name", STANDARD + ("swapline",))
    def test_invariants(self, name):
        st = build_named(name)
        led = certifier_ledger(st.constants, k3=3)
        n = st.constants.N_rank
        assert led.k1 % math.factorial(2 * n + 1) == 0
        assert led.M >= 3 * (led.k4 + 2) * math.factorial(n + 1)
        assert led.M >= 2 * led.n0 + led.k2
        for value in (led.k1, led.n0, led.k2, led.k3, led.k4, led.M):
            assert value >= 1

    def test_k3_recorded(self):
        led = certifier_ledger(build_named("free2").constants, k3=5)
        assert led.k3 == 5
        assert led.to_json()["k3"] == 5

    def test_zero_tau0_rejected(self):
        with pytest.raises(StructureInvalidError):
            certifier_ledger(ConstantLedger(tau0=0.0))


class TestOracles:
    def test_power_pair_rejected(self):
        z1 = build_named("z1")
        assert verify_free_semigroup(z1.group, (0,), (0, 0), 2) is False

    def test_free_semigroup_accepts_basis(self):
        f2 = build_named("free2")
        assert verify_free_semigroup(f2.group, (0,), (2,), 5) is True

    def test_inverse_pair_rejected(self):
        f2 = build_named("free2")
        assert verify_free_semigroup(f2.group, (0,), (1,), 2) is False

    def test_commuting_pair_rejected(self):
        fx = build_named("f2xz")
        m = fx.group
        assert verify_free_subgroup(m, m.parse("a"), m.parse("t"), 3) is False

    def test_conjugate_basis_accepted(self):
        f2 = build_named("free2")
        m = f2.group
        assert verify_free_subgroup(m, m.parse("a"), m.parse("baB"), 6) is True

    def test_repeated_letter_rejected(self):
        f2 = build_named("free2")
        assert verify_free_subgroup(f2.group, (0,), (0,), 2) is False

    def test_depth_zero_rejected(self):
        f2 = build_named("free2")
        with pytest.raises(PreconditionError):
            verify_free_semigroup(f2.group, (0,), (2,), 0)
        with pytest.raises(PreconditionError):
            verify_free_subgroup(f2.group, (0,), (2,), 0)

    def test_semigroup_counts_cross_level(self):
        # collision between words of different lengths must be caught
        z1 = build_named("z1")
        assert verify_free_semigroup(z1.group, (0, 0), (0, 0, 0), 4) is False

    @pytest.mark.parametrize("name", ["free2", "z2", "f2xz", "f2freez"])
    def test_matches_brute_force_enumeration(self, name):
        # every letter-index sequence of length 1..d, multiplied out from the
        # identity; the subgroup keeps the freely reduced ones (no i, i ^ 1)
        m = build_named(name).group
        ball = standard_ball(m, 2)
        rng = random.Random(11)
        pairs = [tuple(rng.sample(ball, 2)) for _ in range(6)]
        pairs += [(u, m.power(u, 2)) for u in rng.sample(ball[1:], 2)]
        pairs += [(u, m.inverse(u)) for u in rng.sample(ball[1:], 1)]
        verdicts = set()
        for (u, w), d in itertools.product(pairs, range(1, 5)):
            for oracle, letters, reduced in (
                    (verify_free_semigroup, [u, w], False),
                    (verify_free_subgroup, [u, m.inverse(u), w, m.inverse(w)], True)):
                products = []
                for n in range(1, d + 1):
                    for seq in itertools.product(range(len(letters)), repeat=n):
                        if reduced and any(b == a ^ 1 for a, b in zip(seq, seq[1:])):
                            continue
                        g = IDENTITY
                        for i in seq:
                            g = m.multiply(g, letters[i])
                        products.append(g)
                expected = len(set(products)) == len(products)
                assert oracle(m, u, w, d) is expected, (m.format(u), m.format(w), d)
                verdicts.add(expected)
        assert verdicts == {True, False}

    def test_endpoint_self_and_inverse(self):
        f2 = build_named("free2")
        m = f2.group
        assert preserves_endpoint_pair(m, m.parse("a"), m.parse("a"))
        assert preserves_endpoint_pair(m, m.parse("a"), m.parse("A"))

    def test_endpoint_free_conjugator_fails(self):
        f2 = build_named("free2")
        m = f2.group
        assert not preserves_endpoint_pair(m, m.parse("a"), m.parse("b"))

    def test_endpoint_central_passes(self):
        fx = build_named("f2xz")
        m = fx.group
        assert preserves_endpoint_pair(m, m.parse("a"), m.parse("t"))
        assert preserves_endpoint_pair(m, m.parse("t"), m.parse("b"))


class TestCollect:
    def test_f2xz_catalog(self):
        st = build_named("f2xz")
        doms = collect_big_domains(st, st.group.generators())
        assert doms.big == ["L", "T"]
        assert doms.closure == ["L", "T"]
        sym = symmetrize(st.group, st.group.generators())
        assert all(st.act_on_domain(x, u) in doms.closure
                   for u in doms.closure for x in sym)
        assert doms.provenance["T"]["seed"] == st.group.parse("a")
        assert doms.provenance["L"]["seed"] == st.group.parse("t")
        assert doms.provenance["L"]["xlen"] == 0

    def test_f2freez_orbit_closure(self):
        st = build_named("f2freez")
        doms = collect_big_domains(st, st.group.generators())
        assert doms.big == ["ab@1", "c@1"]
        assert len(doms.closure) == 8
        assert "ab@c" in doms.closure and "c@a" in doms.closure
        assert doms.provenance["ab@c"]["xlen"] == 1

    def test_anomaly_propagates(self):
        st = build_named("bad-orth-closure")
        with pytest.raises(ClassificationAnomalyError):
            collect_big_domains(st, [st.group.parse("t")])


class TestDichotomy:
    def test_orthogonal_product_case(self):
        st = build_named("f2xz")
        out = dichotomy(st, st.group.generators())
        assert out.case == 2
        assert out.index == 1
        assert out.transversal == [()]
        assert len(out.schreier) == 6

    def test_swapping_line_pair(self):
        st = build_named("swapline")
        out = dichotomy(st, st.group.generators())
        assert out.case == 2
        assert out.index == 2
        assert out.transversal == [(), (0,)]
        assert out.schreier[0][0] == (0, 0)
        assert all(xlen <= 3 for _, xlen in out.schreier)

    def test_free_product_transverse_pair(self):
        st = build_named("f2freez")
        m = st.group
        out = dichotomy(st, m.generators())
        assert out.case == 1
        assert out.kind == "transverse"
        assert (m.format(out.s), m.format(out.t)) == ("a", "c")
        assert (out.u, out.v) == ("ab@1", "c@1")
        assert (out.s_xlen, out.t_xlen) == (1, 1)

    def test_conjugated_witness_from_translate(self):
        st = build_named("f2freez")
        m = st.group
        out = dichotomy(st, [m.parse("a"), m.parse("caC")])
        assert out.case == 1
        assert (m.format(out.s), m.format(out.t)) == ("a", "caC")
        assert (out.u, out.v) == ("ab@1", "ab@c")

    def test_each_witness_is_conjugated_once(self, monkeypatch):
        # the dichotomy conjugates each closure domain's seed once, not once
        # per candidate pair it appears in
        st = build_named("f2freez")
        words = st.group.generators()
        calls = []
        conjugate = GroupModel.conjugate

        def counted(self, t, g):
            calls.append((t, g))
            return conjugate(self, t, g)

        monkeypatch.setattr(GroupModel, "conjugate", counted)
        closure = collect_big_domains(st, words).closure
        collect_calls = len(calls)
        calls.clear()
        dichotomy(st, words)
        assert len(closure) > 2
        assert len(calls) == collect_calls + len(closure)

    def test_deterministic(self):
        st = build_named("f2freez")
        a = dichotomy(st, st.group.generators()).to_json(st.group)
        b = dichotomy(st, st.group.generators()).to_json(st.group)
        assert a == b


class TestPingpong:
    def test_free_product_pair_at_declared_power(self):
        st = build_named("f2freez")
        m = st.group
        cert = pingpong_transverse(st, m.parse("a"), m.parse("caC"),
                                   "ab@1", "ab@c", (1, 3),
                                   certifier_ledger(st.constants), depth=4)
        assert cert.variant == "free-subgroup"
        assert cert.evidence["power"] == 24
        assert cert.evidence["declared_power"] == 24
        assert cert.lengths == [24, 26]
        assert cert.verified_depth == 4
        assert cert.x_length_bound == 24 * 3
        assert cert.caveats == []
        assert cert.evidence["sampling"]["y_s"] > 0

    def test_emitted_pair_reverifies_deeper(self):
        st = build_named("f2freez")
        m = st.group
        cert = pingpong_transverse(st, m.parse("a"), m.parse("caC"),
                                   "ab@1", "ab@c", (1, 3),
                                   certifier_ledger(st.constants), depth=4)
        assert verify_free_subgroup(m, tuple(cert.words["u"]),
                                    tuple(cert.words["w"]),
                                    cert.verified_depth + 1)

    def test_shallow_depth_rejected(self):
        st = build_named("f2freez")
        m = st.group
        with pytest.raises(PreconditionError):
            pingpong_transverse(st, m.parse("a"), m.parse("caC"),
                                "ab@1", "ab@c", (1, 3),
                                certifier_ledger(st.constants), depth=0)

    def test_equal_domains_rejected(self):
        # the route trusts the dichotomy's pair; the structure still has no
        # relative projection between equal domains
        st = build_named("f2freez")
        m = st.group
        with pytest.raises(PreconditionError, match="no point projection"):
            pingpong_transverse(st, m.parse("a"), m.parse("a"),
                                "ab@1", "ab@1", (1, 1),
                                certifier_ledger(st.constants), depth=4)

    def test_nested_pair_rejected(self):
        # nor from the outer domain of a nested pair to the inner one
        st = build_named("f2freez")
        m = st.group
        with pytest.raises(PreconditionError, match="no point projection"):
            pingpong_transverse(st, m.parse("a"), m.parse("ac"),
                                "ab@1", "S", (1, 2),
                                certifier_ledger(st.constants), depth=4)

    def test_insufficient_power_refuted(self):
        # power 1 cannot push projections past kappa0 = 2 on this structure
        st = build_named("f2freez")
        m = st.group
        with pytest.raises(CertifierRefutedError):
            pingpong_transverse(st, m.parse("a"), m.parse("c"),
                                "ab@1", "c@1", (1, 1),
                                certifier_ledger(st.constants), depth=4,
                                declared_power=1)


def equal_powers_structure():
    """f2freez with constants making k1 == k2 == 120 and M == 124."""
    recipe = build_named("f2freez").to_json()
    recipe["constants"].update(tau0=5, N_rank=2, kappa0=0, E=1, n_complexity=1)
    return structure_from_json(recipe)


class TestNested:
    def test_reduction_to_transverse(self):
        st = build_named("f2freez")
        m = st.group
        cert = nested_to_transverse(st, m.parse("a"), m.parse("ac"),
                                    "ab@1", "S", (1, 1),
                                    certifier_ledger(st.constants), depth=4)
        assert cert.variant == "free-subgroup"
        assert cert.evidence["case"] == "nested"
        assert cert.evidence["parent_domain"] == "S"
        assert cert.evidence["escape_power"] == 20
        assert cert.evidence["separation"] >= 20.0
        assert cert.evidence["power"] == 3
        assert cert.evidence["declared_power"] == 4 * math.factorial(41)
        assert any("materialized" in c for c in cert.caveats)
        assert verify_free_subgroup(m, tuple(cert.words["u"]),
                                    tuple(cert.words["w"]), 5)

    def test_equal_powers_record_the_master_bound(self):
        # N_rank == n0 makes k1 == k2; the nested route still records M
        st = equal_powers_structure()
        cert = certify(st, [st.group.parse(w) for w in ("a", "b", "ac")])
        assert cert.evidence["case"] == "nested"
        assert cert.ledger.k1 == cert.ledger.k2 == 120
        assert cert.x_length_bound == cert.ledger.M == 124

    def test_pair_checked_against_the_master_bound(self):
        # power 1 and escape power 6: with ac 11 letters of the generating
        # set, (ac)^6 a (ac)^-6 is 2 * 6 * 11 + 1 = 133 > M = 124 letters
        st = equal_powers_structure()
        m = st.group
        cert = nested_to_transverse(st, m.parse("a"), m.parse("ac"),
                                    "ab@1", "S", (1, 1),
                                    certifier_ledger(st.constants))
        assert (cert.evidence["power"], cert.evidence["escape_power"]) == (1, 6)
        with pytest.raises(CertifierRefutedError, match="letter-length bound"):
            nested_to_transverse(st, m.parse("a"), m.parse("ac"),
                                 "ab@1", "S", (1, 11),
                                 certifier_ledger(st.constants))



class TestTopLevel:
    def test_free_pair_on_top_domain(self):
        st = build_named("free2")
        m = st.group
        cert = top_level_certify(st, *routed(st), depth=5)
        assert cert.variant == "free-subgroup"
        assert [m.format(tuple(w)) for w in
                (cert.words["u"], cert.words["w"])] == ["a", "baB"]
        assert cert.ledger.k3 == 1
        assert cert.lengths == [1, 3]
        assert cert.evidence["fallback_semigroup_pair"] == ["a", "baB"]
        assert cert.x_length_bound == cert.ledger.M

    def test_single_axis_virtually_cyclic(self):
        st = build_named("z1")
        cert = top_level_certify(st, *routed(st), depth=5)
        assert cert.variant == "virtually-cyclic"
        assert cert.words is None
        assert cert.evidence["axis_word"] == "t"



class TestCase2:
    def test_product_with_line_emits_semigroup(self):
        st = build_named("f2xz")
        m = st.group
        cert = case2_branch(st, *routed(st), depth=5)
        assert cert.variant == "free-semigroup"
        assert [m.format(tuple(w)) for w in
                (cert.words["u"], cert.words["w"])] == ["a", "baB"]
        assert cert.evidence["domain"] == "T"
        assert cert.evidence["axis"] == "a"
        assert cert.evidence["mover"] == "b"
        assert cert.subgroup_index == 1

    def test_two_tree_product(self):
        st = build_named("f2xf2")
        m = st.group
        cert = case2_branch(st, *routed(st), depth=5)
        assert cert.variant == "free-semigroup"
        assert cert.lengths == [1, 3]

    def test_rank_two_abelian(self):
        st = build_named("z2")
        cert = case2_branch(st, *routed(st), depth=5)
        assert cert.variant == "virtually-abelian"
        assert cert.evidence["blocks"] == [["L1"], ["L2"]]
        assert cert.evidence["line_constants"] == {"L1": 0, "L2": 0}
        assert cert.evidence["polynomial"] is True

    def test_swapped_lines_index_two(self):
        st = build_named("swapline")
        cert = case2_branch(st, *routed(st), depth=5)
        assert cert.variant == "virtually-abelian"
        assert cert.subgroup_index == 2

    def test_line_times_tree_block(self):
        st = line_tree_structure()
        cert = case2_branch(st, *routed(st), depth=5)
        assert cert.variant == "product-z-e"
        assert cert.evidence["z_blocks"] == [["P"]]
        assert cert.evidence["other_blocks"] == [["W"]]
        assert cert.evidence["line_constants"]["W"] is None

    def test_missing_loxodromic_is_structural(self, monkeypatch):
        st = line_tree_structure()
        routes = routed(st)
        monkeypatch.setattr("hhglab.certify.big_set_member", lambda *args: None)
        with pytest.raises(StructureInvalidError):
            case2_branch(st, *routes, depth=5)



class TestCertify:
    @pytest.mark.parametrize("name,variant", [
        ("free2", "free-subgroup"),
        ("z1", "virtually-cyclic"),
        ("z2", "virtually-abelian"),
        ("f2xz", "free-semigroup"),
        ("f2xf2", "free-semigroup"),
        ("f2freez", "free-subgroup"),
        ("swapline", "virtually-abelian"),
    ])
    def test_standard_variants(self, name, variant):
        st = build_named(name)
        cert = certify(st, st.group.generators(), depth=4)
        assert cert.variant == variant
        assert cert.evidence["route"]["case"] in (1, 2)
        assert cert.generating_set

    def test_free_pairs_reverify_deeper(self):
        for name in ("free2", "f2xz", "f2freez"):
            st = build_named(name)
            m = st.group
            cert = certify(st, m.generators(), depth=4)
            u, w = tuple(cert.words["u"]), tuple(cert.words["w"])
            if cert.variant == "free-subgroup":
                assert verify_free_subgroup(m, u, w, cert.verified_depth + 1)
            else:
                assert verify_free_semigroup(m, u, w, cert.verified_depth + 1)

    def test_semigroup_growth_check_attached(self):
        st = build_named("f2xz")
        cert = certify(st, st.group.generators(), depth=4)
        check = cert.evidence["growth_check"]
        assert check["ok"] is True
        assert check["length"] == 3
        assert check["rows"][0]["beta"] >= check["rows"][0]["bound"]

    def test_lower_bounds(self):
        f2 = build_named("free2")
        cert = certify(f2, f2.group.generators(), depth=4)
        assert ueg_lower_bound(cert) == pytest.approx(math.log(2) / 3)
        z2 = build_named("z2")
        assert ueg_lower_bound(certify(z2, z2.group.generators(), depth=4)) is None

    def test_index_discount(self):
        st = build_named("f2xz")
        cert = certify(st, st.group.generators(), depth=4)
        cert.subgroup_index = 2
        assert ueg_lower_bound(cert) == pytest.approx(math.log(2) / 9)

    def test_non_generating_rejected(self):
        f2 = build_named("free2")
        with pytest.raises(InputError):
            certify(f2, [f2.group.parse("a")], depth=4)

    @pytest.mark.parametrize("name, genset", [("z1", "t"), ("z2", "a,b"), ("free2", "a,b")])
    def test_depth_below_one_rejected_on_every_route(self, name, genset):
        st = build_named(name)
        words = [st.group.parse(w) for w in genset.split(",")]
        for depth in (0, -1):
            with pytest.raises(InputError, match="depth must be at least 1"):
                certify(st, words, depth=depth)

    def test_identity_rejected(self):
        z1 = build_named("z1")
        with pytest.raises(InputError):
            certify(z1, [z1.group.parse("1")], depth=4)

    def test_doubled_generator_rejected(self):
        z1 = build_named("z1")
        with pytest.raises(InputError):
            certify(z1, [z1.group.parse("tt")], depth=4)

    def test_report_deterministic(self):
        st = build_named("f2freez")
        a = json.dumps(certify(st, st.group.generators(), depth=4).to_json(),
                       sort_keys=True)
        b = json.dumps(certify(st, st.group.generators(), depth=4).to_json(),
                       sort_keys=True)
        assert a == b

    def test_json_shape(self):
        st = build_named("free2")
        data = certify(st, st.group.generators(), depth=4).to_json()
        assert data["schema_version"] == 1
        assert data["variant"] == "free-subgroup"
        assert data["words"]["u"] == [0]
        assert data["lengths"] == [1, 3]
        assert data["ledger"]["constants"]["tau0"] == 1.0
        assert data["ledger"]["k3"] == 1
        assert json.dumps(data, sort_keys=True)


class TestGeneratingSets:
    def test_single_letter_survives(self):
        z1 = build_named("z1")
        m = z1.group
        sets = [[m.format(w) for w in g]
                for g in enumerate_generating_sets(m, 1, 2, 3)]
        assert sets == [["t"]]

    def test_square_fails_reach(self):
        z1 = build_named("z1")
        assert not generates_at_radius(z1.group, [z1.group.parse("tt")], 3)

    def test_size_zero_is_empty(self):
        z1 = build_named("z1")
        assert list(enumerate_generating_sets(z1.group, 0, 2, 3)) == []

    def test_length_one_pairs(self):
        f2 = build_named("free2")
        m = f2.group
        sets = [[m.format(w) for w in g]
                for g in enumerate_generating_sets(m, 2, 1, 4)]
        assert sets == [["a", "b"]]

    def test_bad_bounds_rejected(self):
        f2 = build_named("free2")
        with pytest.raises(InputError):
            list(enumerate_generating_sets(f2.group, 1, 0, 4))


class TestScan:
    def test_free_group_scan(self):
        st = build_named("free2")
        report = scan_generating_sets(st, 2, 2, 6, depth=5, growth_n=8)
        rows = report["rows"]
        assert [r["generating_set"] for r in rows] == [
            ["a", "b"], ["a", "ab"], ["a", "aB"], ["a", "Ab"], ["a", "AB"],
            ["b", "ab"], ["b", "aB"], ["b", "Ab"], ["b", "AB"]]
        assert all(r["variant"] == "free-subgroup" for r in rows)
        assert all(r["meets_master_bound"] for r in rows)
        assert report["summary"]["errors"] == 0
        assert report["summary"]["min_rate"] > 0.5
        assert report["summary"]["all_meet_master_bound"] is True

    @pytest.mark.parametrize("growth_n", [0, -2])
    def test_growth_n_below_one_rejected_before_enumerating(self, growth_n):
        with pytest.raises(InputError):
            scan_generating_sets(build_named("free2"), 0, 0, 6, growth_n=growth_n)

    def test_cyclic_scan_row(self):
        st = build_named("z1")
        report = scan_generating_sets(st, 1, 2, 3, depth=5, growth_n=6)
        assert len(report["rows"]) == 1
        row = report["rows"][0]
        assert row["variant"] == "virtually-cyclic"
        assert row["lower_bound"] is None
        assert row["meets_master_bound"]

    def test_scan_deterministic(self):
        st = build_named("z2")
        a = json.dumps(scan_generating_sets(st, 1, 1, 3, depth=5, growth_n=6),
                       sort_keys=True)
        b = json.dumps(scan_generating_sets(st, 1, 1, 3, depth=5, growth_n=6),
                       sort_keys=True)
        assert a == b


class TestGrowthCheckHelper:
    def test_truncation_flag(self, monkeypatch):
        monkeypatch.setattr("hhglab.certify.GROWTH_CHECK_CAP", 5)
        st = build_named("f2xz")
        cert = certify(st, st.group.generators(), depth=4)
        check = semigroup_growth_check(st.group, cert)
        assert check["truncated"] is True
        assert check["n_max"] == 5

