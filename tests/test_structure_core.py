"""Domain tables, projections, relative projections, group actions."""

import gc
import json
import pathlib
import random
import weakref

import pytest

from hhglab import balls
from hhglab.axioms import check_structure
from hhglab.builders import (
    FIXTURE_BUILDERS,
    STANDARD_BUILDERS,
    build_named,
    load_structure,
    structure_from_json,
)
from hhglab.errors import IndexMismatchError, InputError
from hhglab.groups import IDENTITY, invert_word
from hhglab.structures import (
    CONTAINS,
    EQUAL,
    NEST_IN,
    ORTHOGONAL,
    TRANSVERSE,
    ConstantLedger,
    FreeProductHHG,
    TableHHG,
)


class TestConstantLedger:
    def test_theta_polynomial(self):
        c = ConstantLedger(theta_coeffs=(4.0, 4.0, 1.0))
        assert c.theta_of(0) == 4
        assert c.theta_of(3) == 4 + 12 + 9

    def test_derived_constants(self):
        c = ConstantLedger(delta=0, xi=0, kappa0=2, E=2, n_complexity=2, C_norm=1)
        assert c.D == 2
        assert c.kappa1 == 2

    def test_json_roundtrip(self):
        c = ConstantLedger(kappa0=2.0, lam=9.0, theta_coeffs=(0.0, 2.0))
        assert ConstantLedger.from_json(c.to_json()) == c
        with pytest.raises(InputError):
            ConstantLedger.from_json({"kappa_zero": 2})


class TestSinglePieceStructures:
    def test_free2(self):
        hh = build_named("free2")
        assert hh.domains() == ["S"]
        assert hh.top_domain() == "S"
        g = hh.group.parse("abA")
        assert hh.pi("S", g) == g
        assert hh.dsub("S", (), g) == hh.word_metric((), g) == 3

    def test_z1(self):
        hh = build_named("z1")
        assert hh.domains() == ["S"]
        g = hh.group.parse("ttt")
        assert hh.pi("S", g) == 3
        assert hh.dsub("S", (), g) == 3


class TestProductStructures:
    def test_f2xz_table(self):
        hh = build_named("f2xz")
        assert hh.domains() == ["S", "T", "L"]
        assert hh.relation("T", "S") == NEST_IN
        assert hh.relation("S", "L") == CONTAINS
        assert hh.relation("T", "L") == ORTHOGONAL
        assert hh.top_domain() == "S"

    def test_f2xz_projections_split_the_metric(self):
        hh = build_named("f2xz")
        g = hh.group.parse("abt")
        assert hh.dsub("T", (), g) == 2
        assert hh.dsub("L", (), g) == 1
        assert hh.word_metric((), g) == 3

    def test_f2xz_rho_and_action(self):
        hh = build_named("f2xz")
        assert hh.rho_point("T", "S") == 0
        assert hh.rho_map_point("S", "T", 0) == ()
        g = hh.group.parse("at")
        assert hh.act_on_domain(g, "T") == "T"

    def test_z2_two_lines(self):
        hh = build_named("z2")
        assert hh.domains() == ["S", "L1", "L2"]
        g = hh.group.parse("aabbb")
        assert hh.pi("L1", g) == 2
        assert hh.pi("L2", g) == 3
        assert hh.relation("L1", "L2") == ORTHOGONAL

    def test_f2xf2_two_trees(self):
        hh = build_named("f2xf2")
        assert hh.domains() == ["S", "T1", "T2"]
        g = hh.group.parse("acd")
        assert hh.pi("T1", g) == (0,)
        assert hh.space("T2").dist(hh.pi("T2", ()), hh.pi("T2", g)) == 2

    def test_lift_realizes_points(self):
        hh = build_named("f2xz")
        p = hh.group.parts[0].parse("ab")
        g = hh.lift("T", p)
        assert hh.pi("T", g) == p
        g = hh.lift("L", -4)
        assert hh.pi("L", g) == -4


class TestFreeProductStructure:
    def setup_method(self):
        self.hh = build_named("f2freez")
        self.m = self.hh.group

    def test_domain_catalog(self):
        doms = self.hh.domains()
        assert doms[0] == "S"
        for lab in ("ab@1", "c@1", "ab@c", "c@a"):
            assert lab in doms
        assert self.hh.top_domain() == "S"

    def test_relations(self):
        assert self.hh.relation("S", "ab@1") == CONTAINS
        assert self.hh.relation("c@a", "S") == NEST_IN
        assert self.hh.relation("ab@1", "c@a") == TRANSVERSE
        assert self.hh.relation("ab@1", "ab@1") == EQUAL

    def test_bad_domain_label(self):
        with pytest.raises(IndexMismatchError):
            self.hh.space("ab@A")  # not a canonical coset name: aA = A

    @pytest.mark.parametrize("label", ["ab@A", "xy@1", "ab@xz", "ab", "", 5,
                                       None, ("ab", "1"), ["ab@1"], {"u": 1},
                                       "ab@", "ab@aA", "ab@ 1", "c@aA"])
    def test_bad_label_raises_on_every_call(self, label):
        free_product, table = build_named("f2freez"), build_named("f2xz")
        for hh in (free_product, table):
            for _ in range(2):
                for call in (lambda: hh.space(label), lambda: hh.pi(label, ()),
                             lambda: hh.relation("S", label),
                             lambda: hh.act_on_domain((0,), label),
                             lambda: hh.lift(label, 0)):
                    with pytest.raises(IndexMismatchError):
                        call()
        assert set(free_product._decoded) <= {"S"}

    def test_decoded_labels_are_reused(self):
        hh = build_named("f2freez")
        first = [hh._entry(u)[0] for u in hh.domains()]
        assert [hh._entry(u)[0] for u in hh.domains()] == first
        assert first[0] is None and first[1:] == hh.tree.sample_points(hh.generation_radius)
        assert sorted(hh._decoded) == sorted(hh.domains())

    def test_first_syllable_projection(self):
        m = self.m
        assert self.hh.pi("ab@1", m.parse("ab")) == m.parts[0].parse("ab")
        assert self.hh.pi("ab@1", m.parse("ca")) == ()
        assert self.hh.pi("c@1", m.parse("cca")) == 2
        assert self.hh.pi("c@a", m.parse("ac")) == 1

    def test_top_projection(self):
        v = self.hh.pi("S", self.m.parse("ab"))
        assert v == (0, ())  # ab lies in the base coset of the free factor

    def test_rho_points(self):
        assert self.hh.rho_point("ab@c", "S") == (0, self.m.parse("c"))
        assert self.hh.rho_point("ab@1", "c@1") == 0
        assert self.hh.rho_point("c@a", "ab@1") == self.m.parts[0].parse("a")

    def test_rho_down_map(self):
        v = self.hh.pi("S", self.m.parse("ab"))
        assert self.hh.rho_map_point("S", "ab@1", v) == ()
        w = (1, self.m.parse("ab"))
        assert self.hh.rho_map_point("S", "ab@1", w) == self.m.parts[0].parse("ab")

    def test_domains_between_walks_the_syllable_path(self):
        x = ()
        y = self.m.parse("acaC")
        between = self.hh.domains_between(x, y)
        assert between == ["S", "ab@1", "c@a", "ab@ac", "c@aca"]
        # projections on the listed cosets add up to the word metric exactly
        total = sum(self.hh.dsub(u, x, y) for u in between if u != "S")
        assert total == self.hh.word_metric(x, y) == 4

    def test_domains_build_no_ball_after_construction(self, monkeypatch):
        hh = build_named("f2freez")
        built = []
        layers = balls.cayley_ball_layers
        monkeypatch.setattr(balls, "cayley_ball_layers",
                            lambda *args: built.append(args) or layers(*args))
        first = hh.domains()
        first.append("mutated")
        assert hh.domains() == first[:-1]
        assert built == []

    def test_domains_between_is_the_coset_walk(self):
        rng = random.Random(11)
        letters = range(2 * self.m.ngens)
        for _ in range(40):
            x, y = (self.m.normal_form(tuple(rng.choice(letters)
                                             for _ in range(rng.randrange(0, 7))))
                    for _ in range(2))
            between = self.hh.domains_between(x, y)
            assert len(set(between)) == len(between), (x, y)
            assert between == ["S"] + [self.hh.vertex_label(v)
                                       for v in self.hh.tree.cosets(x, y)]

    def test_remembered_labels_are_the_fresh_spelling(self):
        # domains_between spells each coset once, then reads it back; asked
        # twice, each pair gets its fresh spelling.  Radius-3 pairs meet
        # only the materialized cosets, radius-4 ones add new cosets.
        hh = build_named("f2freez")
        rng = random.Random(12)
        pairs = []
        for radius, count in ((3, 300), (4, 60)):
            ball = balls.standard_ball(hh.group, radius)
            pairs += [(rng.choice(ball), rng.choice(ball)) for _ in range(count)]
        for x, y in pairs + pairs:
            fresh = ["S"] + [hh.vertex_label(v) for v in hh.tree.cosets(x, y)]
            assert hh.domains_between(x, y) == fresh, (x, y)
        assert len(hh._vertex_labels) > len(hh.domains()) - 1
        assert all(hh.vertex_label(v) == label for v, label in hh._vertex_labels.items())

    def test_action_on_domains(self):
        c = self.m.parse("c")
        assert self.hh.act_on_domain(c, "ab@1") == "ab@c"
        assert self.hh.act_on_domain(c, "S") == "S"
        caC = self.m.parse("caC")
        assert self.hh.act_on_domain(caC, "ab@c") == "ab@c"

    def test_lift(self):
        local_b = self.m.parts[0].parse("b")
        g = self.hh.lift("ab@c", local_b)
        assert self.m.format(g) == "cb"
        assert self.hh.pi("ab@c", g) == local_b
        assert self.hh.lift("c@1", -2) == self.m.parse("CC")

    RECORD_LABELS = ("S", "ab@1", "c@1", "c@a", "ab@c")

    def seeded_word(self, rng, model, length):
        return model.normal_form(tuple(rng.randrange(2 * model.ngens)
                                       for _ in range(rng.randrange(length + 1))))

    def record_labels(self, rng):
        """RECORD_LABELS and three translates of each by seeded words."""
        labels = list(self.RECORD_LABELS)
        for u in self.RECORD_LABELS:
            labels += [self.hh.act_on_domain(self.seeded_word(rng, self.m, 6), u)
                       for _ in range(3)]
        assert set(labels) - set(self.hh.domains())
        return labels

    def test_lift_is_a_section_of_pi(self):
        rng = random.Random(21)
        for u in self.record_labels(rng):
            for _ in range(5):
                p = self.hh.pi(u, self.seeded_word(rng, self.m, 6))
                assert self.hh.pi(u, self.hh.lift(u, p)) == p, (u, p)


    def near_misses(self, rep):
        """Words, each to follow rep, that make rep times it miss rep by a
        letter: rep less its last letter plus a different one, rep with
        more letters of its last factor, and rep with its last c or C
        doubled or cancelled."""
        m = self.m
        inv = invert_word
        out = []
        if rep:
            last = rep[-1:]
            out += [inv(last) + (x,) for x in range(2 * m.ngens) if (x,) != last]
            out += [m.parse(t) for t in ("a", "ab", "bA", "c", "C", "cc")
                    if m._part_of[m.parse(t)[0]] == m._part_of[rep[-1]]]
        cs = [k for k, x in enumerate(rep) if m.format((x,)) in "cC"]
        if cs:
            tail = rep[cs[-1]:]
            # rep tail^-1 c^+-1 tail: the c doubled, and then cancelled
            out += [m.normal_form(inv(tail) + rep[cs[-1]:cs[-1] + 1] + tail),
                    m.normal_form(inv(tail) + inv(rep[cs[-1]:cs[-1] + 1]) + tail)]
        return [m.normal_form(w) for w in out]

    def test_coset_projection_matches_the_syllable_reference(self, syllables):
        # reference: the first syllable of the raw word rep^-1 g, split by
        # the free-product reducer, when it lies in the coset's factor
        rng = random.Random(31)
        m = self.m
        runs = [m.parse(text) for text in ("c" * 9, "C" * 9, "c" * 7 + "ab", "C" * 6 + "bA",
                                           "ab" + "c" * 8, "a")]
        words = [IDENTITY] + runs + [self.seeded_word(rng, m, 10) for _ in range(40)]
        labels = [u for u in self.hh.domains() if u != "S"]
        labels += [self.hh.act_on_domain(self.seeded_word(rng, m, 6), u) for u in labels]
        assert {self.hh._entry(u)[0][0] for u in labels} == {0, 1}
        assert sum(len(self.hh._entry(u)[0][1]) >= 3 for u in labels) >= 10
        moved = set()  # factors with a projection off the coset's base point
        for u in labels:
            i, rep = self.hh._entry(u)[0]
            point = self.hh._factors[i][1]
            # words read from the coset's own representative as well, and
            # near misses of it
            tests = words + [m.multiply(rep, g) for g in words + self.near_misses(rep)]
            assert {m._part_of[g[-1]] for g in tests if g} == {0, 1}
            for g in tests:
                syls = syllables(m, invert_word(rep) + g)
                expected = point(m.to_global(i, syls[0][1])
                                 if syls and syls[0][0] == i else ())
                assert self.hh._domain(u).pi(g) == expected, (u, m.format(g))
                if expected != point(()):
                    moved.add(i)
        assert moved == {0, 1}

FREE = {"family": "free", "rank": 2}
LINE = {"family": "free_abelian", "rank": 1, "labels": ["t"]}
# Z*F2 puts a line at offset 0 and a free factor at a nonzero offset
FREE_PRODUCTS = {
    "zfreef2": [LINE, {**FREE, "labels": ["a", "b"]}],
    "f2freef2": [{**FREE, "labels": ["a", "b"]}, {**FREE, "labels": ["c", "d"]}],
}


@pytest.mark.parametrize("name", ["f2freez", *FREE_PRODUCTS])
def test_coset_read_matches_the_local_reference(name):
    # reference: the leading factor-i run of rep^-1 g, as a product, taken
    # to the factor's letters and read there: the local word on a free
    # factor, the exponent on a line
    if name in FREE_PRODUCTS:
        hh = structure_from_json({"builder": "free_product", "label": name, "group": {
            "family": "free_product", "factors": FREE_PRODUCTS[name]}})
    else:
        hh = build_named(name)
    m = hh.group
    moved = set()  # factors with a point off the base point
    line_points = set()
    for u in hh.domains()[1:]:
        i, rep = hh._entry(u)[0]
        free = m.parts[i].family == "free"
        rep_inverse = m.inverse(rep)
        for g in balls.standard_ball(m, 4):
            h = m.multiply(rep_inverse, g)
            end = 0
            while end < len(h) and m._part_of[h[end]] == i:
                end += 1
            local = m.to_local(i, h[:end])
            expected = local if free else m.parts[i].exponents(local)[0]
            assert hh.pi(u, g) == expected, (u, m.format(g))
            if local:
                moved.add(i)
            if not free:
                line_points.add(expected)
    assert moved == {0, 1}
    assert not line_points or min(line_points) < 0 < max(line_points)


def test_domain_records_are_read_on_the_base_class():
    for cls in (TableHHG, FreeProductHHG):
        for name in ("space", "pi", "lift"):
            assert name not in cls.__dict__, (cls.__name__, name)


@pytest.mark.parametrize("name", ["f2xz", "f2freez"])
def test_pi_agrees_with_the_domain_records(name):
    # pi keeps each projection on its structure; the f2freez translates of
    # its first domains are coset labels that get their records on first use
    hh = build_named(name)
    m = hh.group
    rng = random.Random(24)
    words = [m.normal_form([rng.randrange(2 * m.ngens) for _ in range(rng.randrange(7))])
             for _ in range(20)]
    labels = hh.domains() + sorted({hh.act_on_domain(g, u)
                                    for g in words for u in hh.domains()[:3]})
    if name == "f2freez":
        assert set(labels) - set(hh._decoded)
    for u in labels:
        for x in words:
            got = hh.pi(u, x)
            assert got == hh._domain(u).pi(x) == hh.pi(u, x), (u, x)


@pytest.mark.parametrize("name", sorted(STANDARD_BUILDERS))
def test_equal_relation_means_equal_labels(name):
    # axiom 2: u = v exactly when u == v; every other spelling of a coset
    # label (a blank, a cancelling pair, an empty representative) is no label
    hh = build_named(name)
    m = hh.group
    rng = random.Random(27)
    words = [m.normal_form([rng.randrange(2 * m.ngens) for _ in range(rng.randrange(7))])
             for _ in range(12)]
    labels = sorted(set(hh.domains()) | {hh.act_on_domain(g, u)
                                         for g in words for u in hh.domains()})
    for u in [u for u in labels if "@" in u]:
        factor, rep = u.split("@")
        word = "" if rep == "1" else rep
        for other in (f"{factor}@ {rep}", f"{factor}@{word}aA", f"{factor}@{word} "):
            with pytest.raises(IndexMismatchError):
                hh.relation(other, u)
    for u in labels:
        for v in labels:
            assert (hh.relation(u, v) == EQUAL) == (u == v), (u, v)


@pytest.mark.parametrize("name", sorted(STANDARD_BUILDERS))
def test_a_structure_dies_with_its_last_reference(name):
    # no record refers back to its structure, and a check leaves no cycle
    # that holds it, so the structure and its pi memo go at once, not at
    # the next full garbage collection
    hh = build_named(name)
    gone = weakref.ref(hh)
    gc.disable()
    try:
        check_structure(hh, radius=3, seed=0, max_pairs=60)
        for u in hh.domains():
            hh.pi(u, hh.group.parse("1"))
        del hh
        assert gone() is None
    finally:
        gc.enable()


class TestFixturesConstruct:
    def test_all_named_structures_build(self):
        for name in (
            "free2", "z1", "z2", "f2xz", "f2xf2", "f2freez",
            "f2xz-corrupt-rho", "f2xz-corrupt-lipschitz", "f2xz-corrupt-uniqueness",
            "swapline", "bad-orth-closure", "bad-nest-in-line",
            "bad-orth-in-line", "bad-transverse-invariant",
        ):
            hh = build_named(name)
            assert hh.domains()

    def test_unknown_name(self):
        with pytest.raises(InputError):
            build_named("nope")

    def test_swapline_action(self):
        hh = build_named("swapline")
        t = hh.group.parse("t")
        assert hh.act_on_domain(t, "P") == "Q"
        assert hh.act_on_domain(hh.group.parse("tt"), "P") == "P"

    def test_corrupt_rho_moved(self):
        hh = build_named("f2xz-corrupt-rho")
        assert hh.rho_point("T", "S") == 8
        assert hh.rho_point("L", "S") == 0


class TestSerialization:
    def test_recipe_roundtrip(self):
        for name in ("free2", "f2xz", "f2freez", "f2xz-corrupt-rho"):
            hh = build_named(name)
            clone = structure_from_json(hh.to_json())
            assert clone.label == hh.label
            assert clone.domains() == hh.domains()

    def test_load_structure_from_file(self, tmp_path):
        hh = build_named("f2freez")
        path = tmp_path / "s.json"
        path.write_text(json.dumps(hh.to_json()))
        clone = load_structure(str(path))
        assert clone.label == "f2freez"
        assert load_structure("z2").label == "z2"


class TestCatalogFiles:
    def test_files_are_what_the_builders_write(self):
        # the same text scripts/gen_structures.py writes for each name
        folder = pathlib.Path(__file__).resolve().parents[1] / "structures"
        names = set(STANDARD_BUILDERS) | set(FIXTURE_BUILDERS)
        assert {path.stem for path in folder.glob("*.json")} == names
        for name in sorted(names):
            recipe = build_named(name).to_json()
            text = json.dumps(recipe, sort_keys=True, indent=2) + "\n"
            assert (folder / f"{name}.json").read_text() == text, name
