"""Axiom checker: clean structures pass, corrupted ones fail where intended."""

import hashlib
import json
import pathlib
from collections import Counter

import pytest

from hhglab import axioms
from hhglab.axioms import AXIOM_NAMES, _Env, _Worst, check_structure
from hhglab.builders import build_named, load_structure, structure_from_json
from hhglab.coords import consistency_inequality, distance_formula_sum
from hhglab.errors import InputError, PreconditionError
from hhglab.groups import FreeAbelianGroup
from hhglab.spaces import CayleyTreeSpace, LineSpace, PointSpace, Space, sample_diameter
from hhglab.structures import (NEST_IN, ORTHOGONAL, TRANSVERSE, ConstantLedger, Domain,
                               FreeProductHHG, TableHHG)

STRUCTURE_DIR = pathlib.Path(__file__).resolve().parents[1] / "structures"
STRUCTURE_FILES = sorted(STRUCTURE_DIR.glob("*.json"))

STANDARD = ("free2", "z1", "z2", "f2xz", "f2xf2", "f2freez")


class TestStandardStructuresPass:
    @pytest.mark.parametrize("name", STANDARD)
    def test_all_axioms_hold(self, name):
        report = check_structure(build_named(name), radius=3, seed=0, max_pairs=60)
        assert report.passed, report.to_json()
        assert report.failed_axioms() == []
        assert len(report.axioms) == 9

    def test_margins_are_nonnegative(self):
        report = check_structure(build_named("f2xz"), radius=3, seed=0, max_pairs=60)
        for a in report.axioms:
            assert a.margin >= 0

    def test_large_links_bound_is_tight_on_product(self):
        # both factors move at once, so the link count meets the declared
        # bound exactly somewhere in the sample
        report = check_structure(build_named("f2xz"), radius=3, seed=0, max_pairs=60)
        a6 = [a for a in report.axioms if a.index == 6][0]
        assert a6.passed and a6.margin == 0


class TestCorruptedFixturesFail:
    def test_relocated_rho_breaks_only_consistency(self):
        report = check_structure(build_named("f2xz-corrupt-rho"), radius=3, seed=0, max_pairs=60)
        assert report.failed_axioms() == [4]
        a4 = [a for a in report.axioms if a.index == 4][0]
        assert a4.margin < 0
        assert a4.witness["clause"] == "nested"

    def test_fast_projection_breaks_only_lipschitz(self):
        report = check_structure(build_named("f2xz-corrupt-lipschitz"), radius=3, seed=0,
                                 max_pairs=60)
        assert report.failed_axioms() == [1]
        a1 = [a for a in report.axioms if a.index == 1][0]
        assert a1.witness["clause"] == "lipschitz"
        assert a1.witness["domain"] == "L"

    def test_dropped_domain_breaks_only_uniqueness(self):
        report = check_structure(build_named("f2xz-corrupt-uniqueness"), radius=3, seed=0,
                                 max_pairs=60)
        assert report.failed_axioms() == [9]

    def test_swapline_fails_realization(self):
        # the two line coordinates are locked together, so arbitrary pairs
        # cannot be realized; everything else about the table is fine
        report = check_structure(build_named("swapline"), radius=3, seed=0, max_pairs=60)
        assert report.failed_axioms() == [8]

    def test_orthogonality_closure_violation(self):
        report = check_structure(build_named("bad-orth-closure"), radius=3, seed=0, max_pairs=60)
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
        axioms = {a.index: a for a in check_structure(st, radius=3, seed=0, max_pairs=60).axioms}
        for index, margin in ((4, 3.0), (6, 5.0), (7, 7.0), (9, 0.0)):
            a = axioms[index]
            assert (a.checks, a.passed, a.margin, a.witness) == (0, True, margin, {}), index

    def test_partial_realization_without_unbounded_domains(self):
        a8 = check_structure(build_named("bad-orth-closure"), radius=3, seed=0,
                             max_pairs=60).axioms[7]
        assert (a8.index, a8.checks, a8.passed, a8.margin) == (8, 0, True, 1.0)


class TestCheckerApi:
    @pytest.mark.parametrize("option", [{"radius": 0}, {"radius": -1},
                                        {"max_pairs": 0}, {"max_pairs": -3}])
    def test_empty_sample_rejected(self, option):
        with pytest.raises(InputError):
            check_structure(build_named("f2xz-corrupt-uniqueness"),
                            **{"radius": 3, "seed": 0, "max_pairs": 60} | option)

    def test_deterministic_for_fixed_seed(self):
        r1 = check_structure(build_named("f2xz"), radius=3, seed=7, max_pairs=60)
        r2 = check_structure(build_named("f2xz"), radius=3, seed=7, max_pairs=60)
        assert r1.to_json() == r2.to_json()

    def test_seed_does_not_change_verdicts(self):
        for seed in (0, 1, 2):
            assert check_structure(build_named("f2xz"), radius=3, seed=seed,
                                   max_pairs=60).passed
            failed = check_structure(build_named("f2xz-corrupt-rho"), radius=3, seed=seed,
                                     max_pairs=60).failed_axioms()
            assert failed == [4]

    def test_report_shape(self):
        report = check_structure(build_named("z1"), radius=3, seed=0, max_pairs=60)
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
        report = check_structure(build_named("f2freez"), radius=3, seed=0, max_pairs=60)
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
            if "sample_prefix" in cls.__dict__:
                def counting(self, radius, count, original=cls.__dict__["sample_prefix"]):
                    sampled.append(self)
                    return original(self, radius, count)
                monkeypatch.setattr(cls, "sample_prefix", counting)
        check_structure(st, radius=3, seed=0, max_pairs=500)
        assert any(space is st.tree for space in sampled)
        assert any(isinstance(space, CayleyTreeSpace) for space in sampled)
        assert max(Counter(map(id, sampled)).values()) == 1

    def test_four_point_check_once_per_space(self, monkeypatch):
        # the 12 sampled domains of f2freez share fewer spaces than that
        st = build_named("f2freez")
        checked = []
        original = axioms.max_four_point_defect

        def counting(space, points):
            checked.append(space)
            return original(space, points)

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

    def test_nesting_asked_once_per_label(self, monkeypatch):
        # axiom 6 asks each (label, domain) relation once, however many
        # sampled pairs share the label, and nothing once the map is full
        st = build_named("f2freez")
        env = _Env(st, 3, 0, 500)
        calls = []
        original = st.relation

        def counting(u, v):
            calls.append((u, v))
            return original(u, v)

        monkeypatch.setattr(st, "relation", counting)
        axioms._check_large_links(env)
        assert calls and max(Counter(calls).values()) == 1
        calls.clear()
        axioms._check_large_links(env)
        assert calls == []


@pytest.mark.parametrize("source", ["f2freez", "f2freez-radius-3"])
def test_large_links_plans_each_path_once(monkeypatch, source):
    # check 6 asks rho_point once per (v, w) in a run, and once every
    # label's nesting is known, no pair walks the whole domain list: only
    # the run's one map of domain places does
    st = build_named("f2freez") if source == "f2freez" else _f2freez_radius_3()
    env = _Env(st, 3, 0, 500 if source == "f2freez" else 300)
    want = axioms._check_large_links(env)
    paths = {tuple(env.between(k)) for k in range(len(env.pairs))}
    assert 1 < len(paths) < len(env.pairs)
    asked, walks = [], []
    original = st.rho_point

    def counting(v, w):
        asked.append((v, w))
        return original(v, w)

    class CountingDomains(list):
        def __iter__(self):
            walks.append(1)
            return super().__iter__()

    monkeypatch.setattr(st, "rho_point", counting)
    env.domains = CountingDomains(env.domains)
    assert axioms._check_large_links(env) == want
    assert asked and max(Counter(asked).values()) == 1
    assert len(walks) == 1


def _f2freez_radius_3():
    """f2freez with generation_radius 3: 189 domains, so check 1 samples 40
    of them per pair and leaves each row of distances partly filled."""
    data = json.loads((STRUCTURE_DIR / "f2freez.json").read_text())
    data["generation_radius"] = 3
    return structure_from_json(data)


PAIR_SOURCES = {"f2xz": lambda: build_named("f2xz"), "f2freez-radius-3": _f2freez_radius_3}


class TestPairRows:
    """Checks 1, 6 and 9 measure each (pair, domain) distance once."""

    # sha256 of each sorted-key report, recorded from the checker that
    # measured every distance where it was used
    DIGESTS = {0: "9a4d6ba59bab55cc4cfb8201632620953cb2754f75275dbe935f658565834c21",
               1: "7071de9a1a244af1bc577f70d3ead28ff56bf27f7d9951f5d8939356ce7e9b2a",
               2: "e25e3ed6b92057f43c8f0ebed5e866c1a28bc2b35c5e63b784848baaeafddc48"}

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_reports_match_the_recorded_digests(self, seed):
        st = _f2freez_radius_3()
        assert len(st.domains()) == 189
        report = check_structure(st, radius=3, seed=seed, max_pairs=300).to_json()
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == self.DIGESTS[seed]

    @pytest.mark.parametrize("source", sorted(PAIR_SOURCES))
    def test_each_distance_and_path_measured_once(self, monkeypatch, source):
        # counted where the work is done: a (pair, domain) distance when
        # st.dsub measures it or a row gets it, keyed (u, x, y), a path when
        # the structure is asked for it, and a (domain, element) projection
        # below the pi memo.  A row that stores what st.dsub has just
        # measured holds the same measurement, so it is not counted again.
        st = PAIR_SOURCES[source]()
        distances, paths, projections = [], [], []
        just_measured = []  # key of the last st.dsub call until a row stores it
        dsub, between, domain = st.dsub, st.domains_between, st._domain

        def counting_dsub(u, x, y):
            distances.append((u, x, y))
            just_measured[:] = [(u, x, y)]
            return dsub(u, x, y)

        class CountingRow(dict):
            def __init__(self, x, y):
                super().__init__()
                self.pair = (x, y)

            def __setitem__(self, u, d):
                key = (u, *self.pair)
                if just_measured != [key]:
                    distances.append(key)
                just_measured.clear()
                super().__setitem__(u, d)

        class CountingEnv(_Env):
            def __init__(self, *args):
                super().__init__(*args)
                self.rows = [CountingRow(x, y) for x, y, _ in self.pairs]

        def counting_between(x, y):
            paths.append((x, y))
            return between(x, y)

        def counting_domain(u):
            record = domain(u)

            def pi(g):
                projections.append((u, g))
                return record.pi(g)

            return record._replace(pi=pi)

        monkeypatch.setattr(axioms, "_Env", CountingEnv)
        monkeypatch.setattr(st, "dsub", counting_dsub)
        monkeypatch.setattr(st, "domains_between", counting_between)
        monkeypatch.setattr(st, "_domain", counting_domain)
        check_structure(st, radius=3, seed=0, max_pairs=300)
        for counted in (distances, paths, projections):
            assert counted and max(Counter(counted).values()) == 1


# Check 1 as it was before it read projection columns: one dsub, and one
# margin seen, per sampled (pair, domain).
# The per-pair loops of checks 4, 6 and 7 as they were before _Env kept a
# nesting map: each asks relation for every pair of domains it meets.
# Check 4 also projects, and sees a margin, per (domain pair, element).
# Check 9 as it was before the pairs kept rows: the largest term of the
# distance formula, summed afresh for each pair.

def _reference_projections(env):
    st = env.st
    K = st.constants.K_proj
    delta = st.constants.delta
    worst = _Worst()
    for (x, y, dg), row in zip(env.pairs, env.rows):
        for u in env.sample(env.domains, 40):
            du = row[u] = st.dsub(u, x, y)
            worst.see(K * dg + K - du, lambda: {"clause": "lipschitz", "domain": u, "x": env.show(x),
                                                "y": env.show(y), "d_domain": du, "d_group": dg})
    for u in env.sample(env.domains, 12):
        defect = env.four_point_defect(u)
        worst.see(delta - defect, lambda: {"clause": "hyperbolicity", "domain": u, "defect": defect})
    return worst.report(1)


def _reference_consistency(env):
    st = env.st
    kappa0 = st.constants.kappa0
    worst = _Worst()
    trans_pairs = [(u, v) for i, u in enumerate(env.domains) for v in env.domains[i + 1:]
                   if st.relation(u, v) == TRANSVERSE]
    nest_pairs = [(u, v) for u in env.domains for v in env.domains
                  if st.relation(u, v) == NEST_IN]
    xs = env.sample(env.elements, 40)
    for u, v in env.sample(trans_pairs, 60):
        distances = consistency_inequality(st, TRANSVERSE, u, v)
        for x in xs:
            du, dv = distances(st.pi(u, x), st.pi(v, x))
            worst.see(kappa0 - min(du, dv), lambda: {
                "clause": "transverse", "u": u, "v": v, "x": env.show(x), "d_u": du, "d_v": dv})
    for v, w in env.sample(nest_pairs, 60):
        distances = consistency_inequality(st, NEST_IN, v, w)
        for x in xs:
            outer, inner = distances(st.pi(v, x), st.pi(w, x))
            worst.see(kappa0 - min(outer, inner), lambda: {
                "clause": "nested", "v": v, "w": w, "x": env.show(x), "d_outer": outer, "d_inner": inner})
    return worst.report(4, kappa0)


def _reference_large_links(env):
    st = env.st
    E = st.constants.E
    lam = st.constants.lam
    worst = _Worst()
    for x, y, _ in env.pairs:
        between = st.domains_between(x, y)
        for w in env.domains:
            candidates = [v for v in between if st.relation(v, w) == NEST_IN]
            if not candidates:
                continue
            dw = st.dsub(w, x, y)
            bound = lam * dw + lam
            links = [v for v in candidates if st.dsub(v, x, y) >= E]
            worst.see(bound - len(links), lambda: {"clause": "count", "w": w, "x": env.show(x),
                                                   "y": env.show(y), "links": len(links), "bound": bound})
            pw = st.pi(w, x)
            for v in links:
                d = st.space(w).dist(pw, st.rho_point(v, w))
                worst.see(bound - d, lambda: {
                    "clause": "rho distance", "w": w, "v": v, "x": env.show(x), "y": env.show(y), "d": d})
    return worst.report(6, lam)


def _reference_uniqueness(env):
    st = env.st
    worst = _Worst()
    thresholds = [(kappa, st.constants.theta_of(kappa))
                  for kappa in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
    for x, y, dg in env.pairs:
        best = None
        for kappa, theta in thresholds:
            if dg <= theta:
                continue
            if best is None:
                best = max(distance_formula_sum(st, x, y, 0).contributions.values(),
                           default=0.0)
            worst.see(best - kappa, lambda: {"x": env.show(x), "y": env.show(y), "d_group": dg,
                                             "kappa": kappa, "best_domain_distance": best})
    return worst.report(9, 0.0)


def _reference_geodesic_image(env):
    st = env.st
    E = st.constants.E
    worst = _Worst()
    nest_pairs = [(v, w) for v in env.domains for w in env.domains
                  if st.relation(v, w) == NEST_IN]
    for v, w in env.sample(nest_pairs, 25):
        space_w = st.space(w)
        space_v = st.space(v)
        rho = st.rho_point(v, w)
        pts = env.points(w)
        point_pairs = [(p, q) for i, p in enumerate(pts) for q in pts[i + 1:]]
        for p, q in env.sample(point_pairs, 20):
            geo = space_w.geodesic(p, q)
            if min(space_w.dist(z, rho) for z in geo) <= E:
                continue
            diam = sample_diameter(space_v.dist, [st.rho_map_point(w, v, z) for z in geo], 0.0)
            worst.see(E - diam, lambda: {"v": v, "w": w, "p": p, "q": q, "image_diameter": diam})
    return worst.report(7, E)


# Check 8 as it was before each family kept its list of related domains:
# the list, and each member's relation to it, asked afresh per target tuple.

def _reference_partial_realization(env):
    st = env.st
    alpha = st.constants.alpha
    worst = _Worst()
    unbounded = [u for u in env.domains if not st.is_bounded_domain(u)]
    families = [(u,) for u in unbounded]
    for i, u in enumerate(unbounded):
        for v in unbounded[i + 1:]:
            if st.relation(u, v) == ORTHOGONAL:
                families.append((u, v))
    for w in unbounded:
        fam = [w]
        for v in unbounded:
            if all(st.relation(v, z) == ORTHOGONAL for z in fam):
                fam.append(v)
        if len(fam) >= 3:
            families.append(tuple(sorted(fam)))
    families = sorted(set(families))
    for family in env.sample(families, 12):
        pts_per = [env.sample(env.points(u), 4) for u in family]
        tuples = [[]]
        for opts in pts_per:
            tuples = [t + [p] for t in tuples for p in opts]
        for targets in env.sample(tuples, 8):
            g = ()
            for u, p in zip(family, targets):
                g = st.group.multiply(g, st.lift(u, p))
            for u, p in zip(family, targets):
                d = st.space(u).dist(st.pi(u, g), p)
                worst.see(alpha - d, lambda: {"clause": "realization", "family": ",".join(family),
                                              "domain": u, "target": p, "got": d, "g": env.show(g)})
            related = [w for w in env.domains
                       if any(st.relation(u, w) in (NEST_IN, TRANSVERSE) for u in family)
                       and w not in family]
            for w in env.sample(related, 10):
                us = [u for u in family if st.relation(u, w) in (NEST_IN, TRANSVERSE)]
                for u in us:
                    d = st.space(w).dist(st.pi(w, g), st.rho_point(u, w))
                    worst.see(alpha - d, lambda: {"clause": "ambient control", "family": ",".join(family),
                                                  "ambient": w, "of": u, "got": d})
    return worst.report(8, alpha)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("source, failing", [
    ("f2freez", None), ("f2xz-corrupt-rho", 4), ("bad-orth-in-line", 8)])
def test_columns_and_family_lists_match_the_per_element_reference(source, failing, seed):
    # check 4 reads projection columns and sees one margin per pair, check
    # 8 lists each family's related domains once; from the same rng draws
    # margin, witness and check count agree, with their types
    for index, reference in ((4, _reference_consistency), (8, _reference_partial_realization)):
        want_env, got_env = (_Env(build_named(source), 3, seed, 500) for _ in range(2))
        want = reference(want_env)
        got = axioms._CHECKERS[index](got_env)
        assert repr(got) == repr(want)
        assert got.passed == (index != failing)
        assert want_env.rng.getstate() == got_env.rng.getstate()


def _crossing_nesting():
    """Point-space table whose nesting order crosses its listing order: W1
    is listed first but holds only Y, listed after X < W2.  Read in the
    order the domains between two elements name them, the parents are S,
    W2, W1; axiom 6 must visit them in listing order, W1, W2, S, and every
    margin ties, so its witness names the first parent visited."""
    names = ["W1", "W2", "X", "Y", "S"]
    nesting = [("X", "W2"), ("Y", "W1")] + [(u, "S") for u in names[:-1]]
    related = {frozenset(pair) for pair in nesting}
    orthogonal = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]
                  if frozenset((u, v)) not in related]
    return TableHHG(
        "crossing-nesting", FreeAbelianGroup(1), ConstantLedger(n_complexity=2),
        [Domain(u, PointSpace(), lambda g: 0, lambda p: ()) for u in names],
        nesting=nesting, orthogonal=orthogonal)


NESTING_SOURCES = {p.stem: lambda p=p: load_structure(str(p)) for p in STRUCTURE_FILES}
NESTING_SOURCES["crossing-nesting"] = _crossing_nesting


def _declared_rho_map(st, v, p):
    """The downward map each structure once declared by hand: the basepoint
    of v under a table's point or line top, and on the free product pi_v of
    the coset representative p[1] of the tree vertex p."""
    if isinstance(st, FreeProductHHG):
        return st.pi(v, p[1])
    return st.space(v).basepoint()


@pytest.mark.parametrize("source", sorted(NESTING_SOURCES) + ["line-tree"])
def test_derived_relative_projections_match_the_declared_ones(source, line_tree):
    st = line_tree() if source == "line-tree" else NESTING_SOURCES[source]()
    env = _Env(st, 3, 0, 60)
    for w in st.domains():
        for v in st.domains():
            code = st.relation(v, w)
            if code == NEST_IN:
                for p in env.points(w):
                    assert st.rho_map_point(w, v, p) == _declared_rho_map(st, v, p), (v, w, p)
            if isinstance(st, TableHHG) and code in (NEST_IN, TRANSVERSE):
                moved = source == "f2xz-corrupt-rho" and (v, w) == ("T", "S")
                assert st.rho_point(v, w) == (8 if moved else st.space(w).basepoint()), (v, w)


@pytest.mark.parametrize("name, w, v", [
    ("f2xz", "S", "S"), ("f2xz", "T", "S"), ("f2xz", "T", "L"),
    ("bad-transverse-invariant", "S", "T"),
    ("f2freez", "S", "S"), ("f2freez", "ab@1", "S"), ("f2freez", "c@1", "ab@1"),
])
def test_downward_projection_needs_a_nested_pair(name, w, v):
    st = build_named(name)
    with pytest.raises(PreconditionError):
        st.rho_map_point(w, v, st.space(w).basepoint())


# the free product is the one family whose pairs have domains_between lists
# of their own, so the radius-3 copy gives check 6 the most plans
NESTING_RUNS = {**{name: (build, 60) for name, build in NESTING_SOURCES.items()},
                "f2freez-radius-3": (_f2freez_radius_3, 300)}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("source", sorted(NESTING_RUNS))
def test_nesting_map_matches_the_per_pair_reference(source, seed):
    # the same draws from the same rng, so every report agrees, witnesses too
    reference = {4: _reference_consistency, 6: _reference_large_links,
                 7: _reference_geodesic_image, 8: _reference_partial_realization,
                 9: _reference_uniqueness}
    build, max_pairs = NESTING_RUNS[source]
    env = _Env(build(), 3, seed, max_pairs)
    expected = [reference.get(i, check)(env) for i, check in axioms._CHECKERS.items()]
    got = check_structure(build(), radius=3, seed=seed, max_pairs=max_pairs)
    assert [a.to_json() for a in got.axioms] == [a.to_json() for a in expected]


def _tied_lines():
    """Z with two orthogonal line domains that project alike: each pair's
    Lipschitz margin is 1 on both, below the hyperbolicity margin 5, so the
    report's witness names the first of two tied domains."""
    Z = FreeAbelianGroup(1)
    lines = [Domain(u, LineSpace(), lambda g: Z.exponents(g)[0],
                    lambda p: Z.from_exponents([p])) for u in ("L1", "L2")]
    return TableHHG("tied-lines", Z, ConstantLedger(delta=5.0), lines,
                    orthogonal=[("L1", "L2")])


# the radius-3 copy has 189 domains, so each pair draws 40 of them
PROJECTION_SOURCES = {**{name: (build, 60) for name, build in NESTING_SOURCES.items()},
                      "f2freez-radius-3": (_f2freez_radius_3, 300),
                      "tied-lines": (_tied_lines, 60)}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("source", sorted(PROJECTION_SOURCES))
def test_projection_columns_match_the_per_pair_reference(source, seed):
    # the same draws from the same rng: margin, witness and check count
    # agree with their types, and every pair's row holds the same distances
    build, max_pairs = PROJECTION_SOURCES[source]
    want_env, got_env = (_Env(build(), 3, seed, max_pairs) for _ in range(2))
    want = _reference_projections(want_env)
    got = axioms._check_projections(got_env)
    assert repr(got) == repr(want)
    assert repr(got_env.rows) == repr(want_env.rows)
