"""Normal forms and word arithmetic for the group families."""

import importlib.util
import pathlib
import random

import pytest

from hhglab.balls import cayley_ball_layers, symmetrize
from hhglab.cli import main
from hhglab.errors import InputError
from hhglab.groups import (
    IDENTITY,
    DirectProduct,
    FreeAbelianGroup,
    FreeGroup,
    FreeProduct,
    GroupModel,
    invert_word,
    model_from_json,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]


def models_under_test():
    return [
        FreeGroup(2),
        FreeGroup(3),
        FreeAbelianGroup(1),
        FreeAbelianGroup(2),
        DirectProduct([FreeGroup(2), FreeAbelianGroup(1, ["t"])]),
        DirectProduct([FreeGroup(2), FreeGroup(2, ["c", "d"])]),
        FreeProduct([FreeGroup(2), FreeAbelianGroup(1, ["c"])]),
    ]


def random_word(rng, model, length):
    return tuple(rng.randrange(2 * model.ngens) for _ in range(length))


class TestFreeGroup:
    def setup_method(self):
        self.F = FreeGroup(2)

    def test_reduction(self):
        assert self.F.parse("abBA") == IDENTITY
        assert self.F.parse("abA") == self.F.normal_form((0, 2, 1))
        assert self.F.format(self.F.parse("aBab")) == "aBab"

    def test_boundary_multiply(self):
        u = self.F.parse("abA")
        v = self.F.parse("aB")
        assert self.F.format(self.F.multiply(u, v)) == "a"
        assert self.F.multiply(u, self.F.inverse(u)) == IDENTITY

    def test_power(self):
        a = self.F.parse("a")
        assert self.F.power(a, 5) == (0,) * 5
        assert self.F.power(a, -3) == (1,) * 3
        w = self.F.parse("ab")
        assert self.F.power(w, 4) == self.F.parse("abababab")

    def test_conjugate(self):
        t = self.F.parse("b")
        g = self.F.parse("a")
        assert self.F.format(self.F.conjugate(t, g)) == "baB"


class TestFreeAbelian:
    def test_sorting(self):
        Z2 = FreeAbelianGroup(2)
        assert Z2.format(Z2.parse("ba")) == "ab"
        assert Z2.format(Z2.parse("abAAb")) == "Abb"
        assert Z2.exponents(Z2.parse("abAAb")) == [-1, 2]

    def test_rank_one_label(self):
        Z = FreeAbelianGroup(1)
        assert Z.labels == ["t"]
        assert len(Z.normal_form(Z.parse("ttT"))) == 1

    def test_from_exponents_roundtrip(self):
        Z2 = FreeAbelianGroup(2)
        for e in ([0, 0], [3, -2], [-1, 5]):
            assert Z2.exponents(Z2.from_exponents(e)) == e


class TestDirectProduct:
    def setup_method(self):
        self.G = DirectProduct([FreeGroup(2), FreeAbelianGroup(1, ["t"])])

    def test_commuting_factors(self):
        assert self.G.normal_form(self.G.parse("ta")) == self.G.normal_form(self.G.parse("at"))
        assert self.G.format(self.G.parse("tabt")) == "abtt"

    def test_factor_extraction(self):
        w = self.G.parse("atbT")
        free_part = self.G.factor_word(w, 0)
        line_part = self.G.factor_word(w, 1)
        assert FreeGroup(2).format(free_part) == "ab"
        assert line_part == ()

    def test_length_adds(self):
        w = self.G.parse("abtt")
        assert len(self.G.normal_form(w)) == 4


class TestFreeProduct:
    def setup_method(self):
        self.G = FreeProduct([FreeGroup(2), FreeAbelianGroup(1, ["c"])])

    def test_alternating_form(self):
        assert self.G.format(self.G.parse("acCa")) == "aa"
        w = self.G.parse("acaC")
        assert self.G.format(w) == "acaC"
        assert [fi for fi, _ in self.G.syllables(w)] == [0, 1, 0, 1]

    def test_no_cross_factor_cancellation(self):
        # a c A is already in normal form: syllables live in different factors
        w = self.G.parse("acA")
        assert len(self.G.normal_form(w)) == 3

    def test_syllable_merge_cascade(self):
        # b . (B c) collapses the b-syllable, then c stands alone
        u = self.G.parse("b")
        v = self.G.parse("Bc")
        assert self.G.format(self.G.multiply(u, v)) == "c"


class TestAlgebraicLaws:
    def test_group_laws_random(self):
        rng = random.Random(2024)
        for model in models_under_test():
            nf = model.normal_form
            for _ in range(30):
                u, v, w = (nf(random_word(rng, model, rng.randrange(0, 8)))
                           for _ in range(3))
                assert nf(u) == u
                assert model.multiply(u, v) == nf(u + v)
                assert model.multiply(u, model.inverse(u)) == IDENTITY
                left = model.multiply(model.multiply(u, v), w)
                right = model.multiply(u, model.multiply(v, w))
                assert left == right
                assert len(model.multiply(u, v)) <= len(u) + len(v)

    def test_parse_format_roundtrip(self):
        rng = random.Random(5)
        for model in models_under_test():
            for _ in range(15):
                w = model.normal_form(random_word(rng, model, rng.randrange(0, 8)))
                assert model.parse(model.format(w)) == w


class TestTrustBoundary:
    """normal_form checks every letter; the operations on the normal forms
    of raw words agree with the normal form of the raw word they stand for."""

    def test_normal_form_rejects_bad_letters(self):
        for model in models_under_test():
            top = 2 * model.ngens
            for bad in [(top,), (0, top + 3), (-1,), (0.0,), (1.5,), (True,),
                        (0, False), ("a",), None, 5, 2.0]:
                with pytest.raises(InputError):
                    model.normal_form(bad)

    def test_operations_agree_with_normal_form_on_raw_words(self):
        rng = random.Random(77)
        for model in models_under_test():
            nf = model.normal_form
            for _ in range(30):
                u = random_word(rng, model, rng.randrange(0, 9))
                v = random_word(rng, model, rng.randrange(0, 9))
                assert model.multiply(nf(u), nf(v)) == nf(u + v)
                assert model.inverse(nf(u)) == nf(invert_word(u))
                assert model.conjugate(nf(u), nf(v)) == nf(u + v + invert_word(u))
                for n in range(-3, 4):
                    assert model.power(nf(u), n) == \
                        nf(u * n if n >= 0 else invert_word(u) * -n)

    def test_factor_word_and_syllables_on_raw_words(self):
        rng = random.Random(78)
        for model in models_under_test():
            for _ in range(30):
                w = random_word(rng, model, rng.randrange(0, 12))
                nf = model.normal_form(w)
                if isinstance(model, DirectProduct):
                    # factor i's block of nf is the normal form of w's
                    # factor-i letters
                    for i, part in enumerate(model.parts):
                        off = model.to_global(i, (0,))[0]
                        local = tuple(x - off for x in w if off <= x < off + 2 * part.ngens)
                        assert model.factor_word(nf, i) == part.normal_form(local)
                if isinstance(model, FreeProduct):
                    assert model.syllables(w) == model.syllables(nf)


def junction_models():
    """models_under_test plus offsets and factors that stress the kernels:
    a Z^2 factor away from offset 0, a three-factor free product with a Z^2
    factor, and products nested inside products."""
    return models_under_test() + [
        DirectProduct([FreeGroup(2), FreeAbelianGroup(2, ["c", "d"]),
                       FreeAbelianGroup(1, ["t"])]),
        FreeProduct([FreeGroup(1, ["a"]), FreeAbelianGroup(2, ["b", "c"]),
                     FreeGroup(1, ["d"])]),
        FreeProduct([DirectProduct([FreeGroup(1, ["a"]), FreeAbelianGroup(1, ["t"])]),
                     FreeGroup(2, ["b", "c"])]),
        DirectProduct([FreeAbelianGroup(1, ["t"]),
                       FreeProduct([FreeGroup(1, ["a"]), FreeAbelianGroup(2, ["b", "c"])])]),
    ]


def multiply_bfs_layers(model, gens, radius):
    """Sorted spheres of the Cayley ball, stepping with the normal form of
    the concatenation w + s."""
    seen = {IDENTITY}
    layers = [[IDENTITY]]
    for _ in range(radius):
        nxt = {model.normal_form(w + s) for w in layers[-1] for s in gens}
        layers.append(sorted(nxt - seen))
        seen |= nxt
    return layers


class TestJunctionProduct:
    """_product (which multiply is) on normal forms agrees with the normal
    form of the concatenation."""

    def test_matches_multiply_on_random_pairs(self):
        rng = random.Random(404)
        for model in junction_models():
            nf = model.normal_form
            for _ in range(300):
                u = nf(random_word(rng, model, rng.randrange(0, 10)))
                v = nf(random_word(rng, model, rng.randrange(0, 10)))
                assert model._product(u, v) == model.multiply(u, v) == nf(u + v)

    def test_identity_and_cancelling_pairs(self):
        rng = random.Random(405)
        for model in junction_models():
            nf = model.normal_form
            for _ in range(60):
                u = random_word(rng, model, rng.randrange(0, 10))
                v = random_word(rng, model, rng.randrange(0, 6))
                w = random_word(rng, model, rng.randrange(0, 6))
                assert model._product(IDENTITY, nf(u)) == nf(u)
                assert model._product(nf(u), IDENTITY) == nf(u)
                assert model._product(nf(u), model.inverse(nf(u))) == IDENTITY
                assert model._product(model.inverse(nf(u)), nf(u)) == IDENTITY
                # u w . w^-1 v cancels across the whole of w
                left, right = u + w, invert_word(w) + v
                assert model._product(nf(left), nf(right)) == nf(left + right)

    def test_ball_matches_multiply_bfs(self):
        for model in junction_models():
            gens = symmetrize(model, model.generators())
            radius = 4 if model.ngens <= 3 else 3
            assert cayley_ball_layers(model, gens, radius) == \
                multiply_bfs_layers(model, gens, radius)


class TestSerialization:
    def test_roundtrip(self):
        for model in models_under_test():
            clone = model_from_json(model.to_json())
            assert clone.to_json() == model.to_json()
            assert clone.labels == model.labels
            w = model.parse("ab" if "b" in model.labels else "tt")
            assert clone.normal_form(w) == model.normal_form(w)

    def test_bad_input(self):
        with pytest.raises(InputError):
            model_from_json({"rank": 2})
        with pytest.raises(InputError):
            FreeGroup(2, ["a", "a"])
        with pytest.raises(InputError):
            FreeGroup(2).parse("xz")


def load_reachability():
    """scripts/reachability.py as a module: its structure list, certify sets
    and geometry jobs."""
    spec = importlib.util.spec_from_file_location(
        "reachability", ROOT / "scripts" / "reachability.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWordContract:
    """Every word an operation gets inside the package is a normal form."""

    # (class, method, positions of its word operands)
    GUARDED = ((GroupModel, "multiply", (0, 1)), (GroupModel, "power", (0,)),
               (GroupModel, "conjugate", (0, 1)), (GroupModel, "inverse", (0,)),
               (DirectProduct, "factor_word", (0,)))

    def test_no_command_hands_an_operation_a_raw_word(self, monkeypatch, tmp_path):
        raw = []
        checking = []  # non-empty while a guard computes a normal form

        def guard(method, positions):
            def wrapped(model, *args):
                if not checking:
                    checking.append(method)
                    try:
                        for k in positions:
                            w = args[k]
                            if not (isinstance(w, tuple) and model.normal_form(w) == w):
                                raw.append((method.__name__, model, w))
                    finally:
                        checking.pop()
                return method(model, *args)
            return wrapped

        for cls, name, positions in self.GUARDED:
            monkeypatch.setattr(cls, name, guard(getattr(cls, name), positions))
        reach = load_reachability()
        argvs = []
        for name in reach.STRUCTURES:
            path = reach.path(name)
            argvs += [["check", path, "--max-pairs", "100"],
                      ["distance", path, "--pairs", "10"],
                      ["decompose", path], ["growth", path, "--n", "3"]]
        argvs += [["certify", reach.path(name), "--genset", gens, "--depth", str(depth)]
                  for name, gens, depth in reach.CERTIFIES if name != "f2xf2"]
        argvs.append(["scan", reach.path("free2"), "--scan-size", "2",
                      "--scan-length", "1", "--growth-n", "4"])
        out = str(tmp_path / "report")
        for argv in argvs:
            assert main(argv + ["--out", out]) in (0, 1), argv
        reach.geometry_jobs()
        assert raw == []
