"""Ball enumeration against closed-form growth counts."""

import functools
import itertools
import random
from operator import mul

import pytest

from hhglab import balls
from hhglab.balls import (
    COUNT_MAX_DIGITS,
    DEFAULT_MAX_ELEMENTS,
    cayley_ball_layers,
    generates_at_radius,
    growth_function,
    parse_generating_set,
    standard_ball,
    standard_ball_prefix,
    standard_spheres,
    symmetrize,
)
from hhglab.builders import STANDARD_BUILDERS, build_named
from hhglab.cli import main
from hhglab.errors import InputError, ResourceBudgetError
from hhglab.groups import (DirectProduct, FreeAbelianGroup, FreeGroup, FreeProduct, GroupModel,
                           model_from_json)


def free_ball_count(rank, n):
    # symmetric standard generators: sphere(k) = 2r(2r-1)^(k-1)
    if rank == 1:
        return 2 * n + 1
    r2 = 2 * rank
    return 1 + r2 * ((r2 - 1) ** n - 1) // (r2 - 2)


def std_gens(model):
    return symmetrize(model, model.generators())


class TestFreeGrowth:
    def test_sphere_sizes(self):
        F = FreeGroup(2)
        layers = cayley_ball_layers(F, std_gens(F), 4)
        assert [len(layer) for layer in layers] == [1, 4, 12, 36, 108]

    def test_ball_formula_rank_2_and_3(self):
        for rank in (2, 3):
            F = FreeGroup(rank)
            beta = growth_function(F, std_gens(F), 6)
            assert beta == [free_ball_count(rank, n) for n in range(7)]

    def test_conjugate_basis_ball_matches_free_growth(self):
        # a and bab^-1 freely generate a rank-2 subgroup; its Cayley ball
        # in those generators grows exactly like the free group of rank 2
        F = FreeGroup(2)
        gens = symmetrize(F, [F.parse("a"), F.parse("baB")])
        beta = growth_function(F, gens, 5)
        assert beta == [free_ball_count(2, n) for n in range(6)]


class TestAbelianGrowth:
    def test_plane_formula(self):
        Z2 = FreeAbelianGroup(2)
        beta = growth_function(Z2, std_gens(Z2), 10)
        assert beta == [2 * n * n + 2 * n + 1 for n in range(11)]

    def test_line(self):
        Z = FreeAbelianGroup(1)
        assert growth_function(Z, std_gens(Z), 6) == [2 * n + 1 for n in range(7)]


class TestProductGrowth:
    def test_f2_x_z_by_sphere_convolution(self):
        G = DirectProduct([FreeGroup(2), FreeAbelianGroup(1, ["t"])])
        layers = cayley_ball_layers(G, std_gens(G), 7)

        def sphere_f2(i):
            return 1 if i == 0 else 4 * 3 ** (i - 1)

        def sphere_z(j):
            return 1 if j == 0 else 2

        expected = [
            sum(sphere_f2(i) * sphere_z(k - i) for i in range(k + 1)) for k in range(8)
        ]
        assert [len(layer) for layer in layers] == expected


def first(series, radius):
    """Coefficients 0..radius of an endless series."""
    return list(itertools.islice(series, radius + 1))


def free_spheres(rank):
    """Sphere sizes 1, 2r, 2r(2r-1), ... of the free group of rank r in its
    symmetrised standard generators, with no end."""
    yield 1
    size = 2 * rank
    while True:
        yield size
        size *= 2 * rank - 1


def cauchy_product(s, t):
    """Coefficients of the product of two power series, each read and
    yielded one coefficient at a time."""
    a, b = [], []
    for x, y in zip(s, t):
        a.append(x)
        b.append(y)
        yield sum(map(mul, a, reversed(b)))


def cauchy_spheres(model):
    """standard_spheres by closed forms and Cauchy products, with no
    recurrence: the reference for the rational series."""
    if isinstance(model, (FreeGroup, FreeProduct)):
        return free_spheres(model.ngens)
    if isinstance(model, FreeAbelianGroup):
        parts = [free_spheres(1) for _ in range(model.ngens)]
    else:
        parts = [cauchy_spheres(p) for p in model.parts]
    return functools.reduce(cauchy_product, parts, free_spheres(0))


# the group of f2freez, F2*Z, which is F3 on a, b, c
F2_STAR_Z = FreeProduct([FreeGroup(2), FreeAbelianGroup(1, ["c"])])


def bfs_growth(model, gens, radius):
    """Cumulative ball sizes counted by the BFS: the reference."""
    return list(itertools.accumulate(map(len, cayley_ball_layers(model, gens, radius))))


class TestGrowthSeriesOracle:
    """BFS sphere sizes against growth series computed without the BFS."""

    def test_free_product_f2_star_z(self):
        # F2 * Z is the free group on a, b, c
        radius = 7
        G = FreeProduct([FreeGroup(2), FreeAbelianGroup(1, ["c"])])
        expected = first(standard_spheres(G), radius)
        assert expected == first(free_spheres(3), radius)
        layers = cayley_ball_layers(G, std_gens(G), radius)
        assert [len(layer) for layer in layers] == expected
        assert expected[:4] == [1, 6, 30, 150]

    def test_direct_product_f2_x_f2(self):
        radius = 6
        expected = first(cauchy_product(free_spheres(2), free_spheres(2)), radius)
        G = DirectProduct([FreeGroup(2), FreeGroup(2, ["c", "d"])])
        assert first(standard_spheres(G), radius) == expected
        layers = cayley_ball_layers(G, std_gens(G), radius)
        assert [len(layer) for layer in layers] == expected
        assert expected[6] == 8424


def reduced_words(nletters, radius):
    """Every freely reduced word of length at most radius on the letters
    0..nletters-1, sorted by (len, w), one list per length: the reference
    the reduced walk is tested against, built by filtering all words."""
    words = [w for k in range(radius + 1) for w in itertools.product(range(nletters), repeat=k)
             if all(y != x ^ 1 for x, y in zip(w, w[1:]))]
    words.sort(key=lambda w: (len(w), w))
    return [[w for w in words if len(w) == k] for k in range(radius + 1)]


def letter_free_models():
    """Models free on their letters: FreeGroup of ranks 1 to 3, F2*Z and
    Z*Z."""
    return [FreeGroup(1), FreeGroup(2), FreeGroup(3), F2_STAR_Z,
            FreeProduct([FreeAbelianGroup(1, ["a"]), FreeAbelianGroup(1, ["b"])])]


def product_walk(model, gens, radius, max_elements, max_letters=balls.DEFAULT_MAX_LETTERS):
    return list(itertools.islice(balls._product_walk(model, gens, max_elements, max_letters),
                                 radius + 1))


def forbid_product_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("a standard free ball took the product walk")
    monkeypatch.setattr(balls, "_product_walk", refuse)


class TestReducedWalk:
    """The standard ball of a model free on its letters is its reduced
    words: the reduced walk lists them in the product walk's order and
    stops where the product walk stops."""

    @pytest.mark.parametrize("model", letter_free_models(), ids=repr)
    def test_layers_are_the_reduced_words(self, monkeypatch, model):
        want = reduced_words(2 * model.ngens, 5)
        gens = std_gens(model)
        assert product_walk(model, gens, 5, DEFAULT_MAX_ELEMENTS) == want
        forbid_product_walk(monkeypatch)
        layers = cayley_ball_layers(model, gens, 5)
        assert list(map(len, layers)) == list(map(len, want))
        assert layers == want

    def test_other_generating_sets_take_the_product_walk(self):
        # the letters in another order, or a generator more, are walked by
        # products; the letters in reverse order still give sorted layers
        F = FreeGroup(2)
        calls = []
        walk = balls._product_walk
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(balls, "_product_walk", lambda *args: calls.append(args[1]) or walk(*args))
            reverse = cayley_ball_layers(F, std_gens(F)[::-1], 4)
            cayley_ball_layers(F, symmetrize(F, parse_generating_set(F, "a,b,ab")), 2)
        assert reverse == reduced_words(4, 4)
        assert calls == [std_gens(F)[::-1], symmetrize(F, parse_generating_set(F, "a,b,ab"))]

    # rank 1 is left out: its budget radius is max_elements / 2, and a
    # walk that failed to cancel would build 2^r words per layer out to it
    @pytest.mark.parametrize("model", letter_free_models()[1:], ids=repr)
    @pytest.mark.parametrize("max_elements", [1, 6, 100, 937, 938, 5000])
    def test_element_budget_matches_the_product_walk(self, monkeypatch, model, max_elements):
        # the walk stops at the first radius whose ball, by the growth
        # series, has more than max_elements elements
        stop = next(r for r, beta in enumerate(itertools.accumulate(standard_spheres(model)))
                    if beta > max_elements)
        gens = std_gens(model)
        with pytest.raises(ResourceBudgetError) as product:
            product_walk(model, gens, stop, max_elements)
        monkeypatch.setattr(balls, "DEFAULT_MAX_ELEMENTS", max_elements)
        forbid_product_walk(monkeypatch)
        with pytest.raises(ResourceBudgetError) as reduced:
            cayley_ball_layers(model, gens, stop)
        assert str(reduced.value) == str(product.value) == \
            f"ball exceeded {max_elements} elements at radius {stop}"
        assert reduced.value.partial_radius == product.value.partial_radius == stop - 1

    @pytest.mark.parametrize("model", [FreeGroup(2), F2_STAR_Z], ids=repr)
    @pytest.mark.parametrize("max_letters", [0, 4, 100, 2000])
    def test_letter_budget_matches_the_product_walk(self, monkeypatch, model, max_letters):
        gens = std_gens(model)
        with pytest.raises(ResourceBudgetError) as product:
            product_walk(model, gens, 60, DEFAULT_MAX_ELEMENTS, max_letters)
        monkeypatch.setattr(balls, "DEFAULT_MAX_LETTERS", max_letters)
        forbid_product_walk(monkeypatch)
        with pytest.raises(ResourceBudgetError) as reduced:
            cayley_ball_layers(model, gens, 60)
        assert str(reduced.value) == str(product.value)
        assert reduced.value.partial_radius == product.value.partial_radius


class TestLetterBudget:
    """Both walks stop once their elements hold more than
    DEFAULT_MAX_LETTERS letters, which a ball of few long words reaches
    long before the element budget."""

    @pytest.mark.parametrize("max_letters", [0, 9, 10, 500, 4000])
    def test_a_ball_of_long_powers_stops_on_its_letters(self, monkeypatch, max_letters):
        model = build_named("z2").group
        gens = symmetrize(model, parse_generating_set(model, "A,a,aaaa"))
        held = list(itertools.accumulate(sum(map(len, layer))
                                         for layer in cayley_ball_layers(model, gens, 40)))
        stop = next(r for r, letters in enumerate(held) if letters > max_letters)
        monkeypatch.setattr(balls, "DEFAULT_MAX_LETTERS", max_letters)
        with pytest.raises(ResourceBudgetError) as info:
            cayley_ball_layers(model, gens, 40)
        assert str(info.value) == f"ball exceeded {max_letters} letters at radius {stop}"
        assert info.value.partial_radius == stop - 1

    def test_growth_reports_the_letter_budget_in_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr(balls, "DEFAULT_MAX_LETTERS", 4000)
        assert main(["growth", "z2", "--genset", "A,a,aaaa", "--n", "99999"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert "letters at radius" in err and '"partial_radius"' in err


def largest_radius_under(model, gens, max_elements, cap):
    """The largest radius up to cap whose ball has at most max_elements
    elements.  The cap is for the free-abelian groups, whose balls stay
    small for their radius while the BFS pays per letter: the ball of Z
    stays under 10^5 elements out to radius 49,999."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(balls, "DEFAULT_MAX_ELEMENTS", max_elements)
        try:
            cayley_ball_layers(model, gens, cap)
        except ResourceBudgetError as err:
            return err.partial_radius
    return cap


def random_model(rnd, depth, labels):
    """A free or free-abelian group of rank 0 to 2, or, above depth 0, a
    direct product of two or three such models or a free product of two or
    three free groups of rank 0 to 2 and copies of Z."""
    if depth == 0 or rnd.random() < 0.3:
        family = rnd.choice([FreeGroup, FreeAbelianGroup])
        rank = rnd.choice([0, 1, 1, 2, 2])
        return family(rank, [labels.pop() for _ in range(rank)])
    n = rnd.choice([2, 2, 3])
    if rnd.random() < 0.5:
        return DirectProduct([random_model(rnd, depth - 1, labels) for _ in range(n)])
    parts = []
    for _ in range(n):
        family, rank = rnd.choice([(FreeGroup, 0), (FreeGroup, 1), (FreeGroup, 2),
                                   (FreeAbelianGroup, 1)])
        parts.append(family(rank, [labels.pop() for _ in range(rank)]))
    return FreeProduct(parts)


def pairs_of_short_words(model, length):
    """Every 2-element set of words of length at most `length`, one word
    per inversion pair."""
    reps = sorted({min(w, model.inverse(w))
                   for w in standard_ball(model, length) if w != ()})
    return [list(pair) for pair in itertools.combinations(reps, 2)]


@pytest.fixture
def poisoned_series(monkeypatch):
    """Replace every growth series by -1, -1, ...: a count taken from a
    series is then negative, one taken from the BFS is not."""
    monkeypatch.setattr(balls, "standard_spheres", lambda model: itertools.repeat(-1))


class TestSeriesAgainstBfs:
    """growth_function against the BFS counts it replaces."""

    # the fixtures of the catalog reuse the groups of f2xz and z1
    @pytest.mark.parametrize("name", sorted(STANDARD_BUILDERS))
    def test_catalog_models_standard_generators(self, name):
        model = build_named(name).group
        gens = std_gens(model)
        radius = largest_radius_under(model, gens, 10 ** 5 - 1, 100)
        assert growth_function(model, gens, radius) == bfs_growth(model, gens, radius)

    @pytest.mark.parametrize("model, radius, bases", [(FreeGroup(2), 7, 57),
                                                      (FreeAbelianGroup(2), 12, 13)],
                             ids=["F2", "Z2"])
    def test_generating_pairs_of_length_at_most_3(self, model, radius, bases):
        accepted = 0
        for pair in pairs_of_short_words(model, 3):
            if not generates_at_radius(model, pair, 6):
                continue
            accepted += 1
            gens = symmetrize(model, pair)
            assert growth_function(model, gens, radius) == bfs_growth(model, gens, radius), \
                [model.format(w) for w in pair]
        assert accepted == bases

    @pytest.mark.parametrize("model, text", [(FreeGroup(2), "ab,ba"), (FreeGroup(2), "a,b,ab"),
                                             (FreeAbelianGroup(2), "aa,b"), (F2_STAR_Z, "ab,ba,c")],
                             ids=["F2-ab-ba", "F2-a-b-ab", "Z2-aa-b", "F2freeZ-ab-ba-c"])
    def test_non_bases_fall_back_to_the_bfs(self, poisoned_series, model, text):
        gens = symmetrize(model, parse_generating_set(model, text))
        assert growth_function(model, gens, 6) == bfs_growth(model, gens, 6)

    @pytest.mark.parametrize("model, text", [(FreeGroup(2), "a,b"), (FreeGroup(2), "ab,b"),
                                             (FreeGroup(2), "baB,b"), (F2_STAR_Z, "ab,b,c"),
                                             (F2_STAR_Z, "ac,b,c")],
                             ids=["a,b", "ab,b", "baB,b", "ab,b,c", "ac,b,c"])
    def test_bases_take_the_series(self, poisoned_series, model, text):
        gens = symmetrize(model, parse_generating_set(model, text))
        assert growth_function(model, gens, 3) == [-1, -2, -3, -4]

    @pytest.mark.parametrize("seed", range(12))
    def test_random_products(self, seed):
        rnd = random.Random(seed)
        model = random_model(rnd, 2, list("abcdefghijklmnopqrstuvwxyz"))
        gens = std_gens(model)
        radius = largest_radius_under(model, gens, 20_000, 60)
        assert growth_function(model, gens, radius) == bfs_growth(model, gens, radius), model

    @pytest.mark.parametrize("text", ["a,b", "ab,b"])
    def test_element_budget_stops_the_bfs_only(self, monkeypatch, text):
        # a series count holds no elements, so it passes the budget that
        # stops the BFS of the same basis
        model = FreeGroup(2)
        gens = symmetrize(model, parse_generating_set(model, text))
        monkeypatch.setattr(balls, "DEFAULT_MAX_ELEMENTS", 1000)
        with pytest.raises(ResourceBudgetError) as bfs:
            cayley_ball_layers(model, gens, 20)
        assert str(bfs.value) == "ball exceeded 1000 elements at radius 6"
        assert bfs.value.partial_radius == 5
        assert growth_function(model, gens, 20) == [2 * 3 ** n - 1 for n in range(21)]

    def test_series_count_past_the_real_budget(self):
        # the ball of F2 passes 2,000,000 elements at radius 13 (3,188,645)
        F = FreeGroup(2)
        beta = growth_function(F, std_gens(F), 14)
        assert beta == [2 * 3 ** n - 1 for n in range(15)]
        assert beta[13] == 3_188_645 > DEFAULT_MAX_ELEMENTS

    @pytest.mark.parametrize("name", ["free2", "f2xz", "f2xf2"])
    def test_count_budget_stops_a_series(self, name):
        # beta(r) of F2 is 2*3^r - 1, which first has more than 4,000
        # digits at r = 8,383
        model = build_named(name).group
        with pytest.raises(ResourceBudgetError) as info:
            growth_function(model, std_gens(model), 10_000)
        stop = info.value.partial_radius + 1
        assert str(info.value) == f"ball count exceeded {COUNT_MAX_DIGITS} digits at radius {stop}"
        beta = growth_function(model, std_gens(model), stop - 1)
        assert len(str(beta[-1])) == COUNT_MAX_DIGITS
        if name == "free2":
            assert stop == 8383 and beta[-1] == 2 * 3 ** 8382 - 1

    @pytest.mark.parametrize("seed", range(8))
    def test_recurrence_matches_the_cauchy_products(self, seed):
        rnd = random.Random(seed)
        model = random_model(rnd, 3, list("abcdefghijklmnopqrstuvwxyz"))
        assert first(standard_spheres(model), 80) == first(cauchy_spheres(model), 80), model


def reaches_generators(model, words, radius):
    """The BFS reference: whether the ball of the given radius in the
    symmetrised words holds every standard generator."""
    layers = itertools.islice(balls._layers(model, symmetrize(model, words)), radius + 1)
    ball = set(itertools.chain.from_iterable(layers))
    return ball.issuperset(model.generators())


def candidate_sets(model, size, length):
    """Every set of at most `size` words of length at most `length`, one
    word per inversion pair, in the enumeration's order."""
    reps = sorted({min(w, model.inverse(w)) for w in standard_ball(model, length) if w != ()},
                  key=lambda w: (len(w), w))
    for k in range(1, size + 1):
        yield from (list(c) for c in itertools.combinations(reps, k))


def nielsen_basis(model, rnd, moves):
    """The standard basis after seeded Nielsen moves: a basis again."""
    basis = model.generators()
    for _ in range(moves):
        i, j = rnd.sample(range(len(basis)), 2)
        other = basis[j] if rnd.random() < 0.5 else model.inverse(basis[j])
        if rnd.random() < 0.5:
            basis[i] = model.multiply(basis[i], other)
        else:
            basis[i] = model.multiply(other, basis[i])
        if rnd.random() < 0.3:
            basis[i] = model.inverse(basis[i])
    return basis


def forbid_bfs(monkeypatch):
    def refuse(*args):
        raise AssertionError("the exact test ran a BFS")
    monkeypatch.setattr(balls, "_layers", refuse)


class TestExactGeneration:
    """generates_at_radius decides free, free-product and free-abelian
    models exactly, and walks the radius BFS on every other model."""

    @pytest.mark.parametrize("name, size, length", [
        ("free2", 2, 3), ("free2", 3, 2), ("f2freez", 2, 2), ("f2freez", 3, 1),
        ("z2", 2, 3), ("z2", 3, 2), ("z1", 2, 3)])
    def test_agrees_with_the_bfs_on_every_candidate_set(self, name, size, length):
        model = build_named(name).group
        for words in candidate_sets(model, size, length):
            assert generates_at_radius(model, words, 6) == reaches_generators(model, words, 6), \
                [model.format(w) for w in words]

    @pytest.mark.parametrize("name", ["free2", "f2freez"])
    def test_nielsen_bases_generate(self, monkeypatch, name):
        model = build_named(name).group
        forbid_bfs(monkeypatch)
        rnd = random.Random(23)
        for _ in range(500):
            basis = nielsen_basis(model, rnd, rnd.randrange(1, 16))
            assert generates_at_radius(model, basis, 0), [model.format(w) for w in basis]

    @pytest.mark.parametrize("name, text", [
        ("free2", "aa,b"), ("free2", "ab,ba"), ("f2freez", "a,b,cc"),
        ("z2", "aab,abb")])  # z2: determinant 3
    def test_fixed_refusals(self, monkeypatch, name, text):
        model = build_named(name).group
        forbid_bfs(monkeypatch)
        words = parse_generating_set(model, text)
        assert not generates_at_radius(model, words, 6)
        assert not generates_at_radius(model, words, 100)

    def test_a_direct_product_still_needs_the_radius(self):
        # t = A·A·aat is three steps out
        model = build_named("f2xz").group
        words = parse_generating_set(model, "a,b,aat")
        assert not generates_at_radius(model, words, 2)
        assert generates_at_radius(model, words, 3)

    def test_bad_radius_and_identity_still_refused(self):
        model = FreeGroup(2)
        with pytest.raises(InputError, match="radius must be nonnegative"):
            generates_at_radius(model, model.generators(), -1)
        assert not generates_at_radius(model, [()], 6)

    def test_every_family_takes_a_declared_test(self, monkeypatch):
        # a new family falls to the radius BFS until it opts in here
        classes, stack = set(), [GroupModel]
        while stack:
            cls = stack.pop()
            classes.add(cls)
            stack.extend(cls.__subclasses__())
        assert {cls.family for cls in classes} - {"abstract"} == {
            "free", "free_abelian", "direct_product", "free_product"}
        calls = []
        for name in ("_folds_to_rose", "_spans_lattice", "_layers"):
            real = getattr(balls, name)
            monkeypatch.setattr(balls, name,
                                lambda *args, _name=name, _real=real:
                                calls.append(_name) or _real(*args))
        z = FreeAbelianGroup(1, ["c"])
        cases = [
            (FreeGroup(2), "_folds_to_rose"),
            (FreeAbelianGroup(1), "_spans_lattice"),
            (FreeAbelianGroup(3), "_spans_lattice"),
            (FreeProduct([FreeGroup(2), z]), "_folds_to_rose"),
            (DirectProduct([FreeGroup(2), z]), "_layers"),
        ]
        for model, test in cases:
            calls.clear()
            assert generates_at_radius(model, model.generators(), 1), model
            assert calls == [test], model


class TestApiContracts:
    def test_symmetrize_dedupes(self):
        F = FreeGroup(2)
        gens = symmetrize(F, [F.parse("a"), F.parse("A"), F.parse("abBA")])
        assert gens == [(0,), (1,)]

    def test_parse_generating_set(self):
        F = FreeGroup(3)
        gens = parse_generating_set(F, "a,b,caC")
        assert [F.format(g) for g in gens] == ["a", "b", "caC"]
        with pytest.raises(InputError):
            parse_generating_set(F, "  ,  ")

    def test_identity_generator_rejected(self):
        F = FreeGroup(2)
        with pytest.raises(InputError):
            cayley_ball_layers(F, [()], 3)

    @pytest.mark.parametrize("options", [[], ["--genset", "ab,b", "--symmetrize"]],
                             ids=["standard", "genset"])
    def test_growth_uses_its_words_as_given(self, capsys, monkeypatch, options):
        # parse and generators() already return normal forms, so the balls
        # never normalise a word again
        calls = []
        normal_form = GroupModel.normal_form

        def counted(model, w):
            calls.append(w)
            return normal_form(model, w)

        monkeypatch.setattr(GroupModel, "normal_form", counted)
        assert main(["growth", "free2", "--n", "3", *options]) == 0
        capsys.readouterr()
        assert calls == []

    def test_standard_ball_is_built_once_per_model_and_radius(self, monkeypatch):
        built = []

        def counted(model, gens, radius):
            built.append(radius)
            return cayley_ball_layers(model, gens, radius)

        monkeypatch.setattr(balls, "cayley_ball_layers", counted)
        F = FreeGroup(2)
        want = [w for layer in cayley_ball_layers(F, std_gens(F), 3) for w in layer]
        first = standard_ball(F, 3)
        assert first == want
        first[0] = "junk"  # a caller's list is its own
        first.append("junk")
        assert standard_ball(F, 3) == want
        assert built == [3]
        assert standard_ball(F, 2) == want[:17]
        assert standard_ball(FreeGroup(2), 3) == want  # a new model, a new cache
        assert built == [3, 2, 3]

    @pytest.mark.parametrize("name", sorted(STANDARD_BUILDERS))
    def test_prefix_is_the_least_ball_that_holds_it(self, name, monkeypatch):
        model = build_named(name).group
        for radius, count in ((0, 5), (2, 1), (3, 25), (4, 600), (6, 600)):
            want = standard_ball(model, radius)[:count]
            least = next(r for r in range(radius + 1)
                         if len(standard_ball(model, r)) >= count or r == radius)
            fresh = model_from_json(model.to_json())  # a new model, no balls kept
            built = []

            def counted(model, gens, radius):
                built.append(radius)
                return cayley_ball_layers(model, gens, radius)

            monkeypatch.setattr(balls, "cayley_ball_layers", counted)
            assert standard_ball_prefix(fresh, radius, count) == want
            assert built == [least]
            monkeypatch.undo()

    def test_budget_reports_completed_radius(self, monkeypatch):
        F = FreeGroup(2)
        monkeypatch.setattr(balls, "DEFAULT_MAX_ELEMENTS", 100)
        with pytest.raises(ResourceBudgetError) as info:
            cayley_ball_layers(F, std_gens(F), 8)
        assert info.value.partial_radius == 3  # ball(3) has 53 elements, ball(4) has 161
