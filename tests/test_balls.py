"""Ball enumeration against closed-form growth counts."""

import pytest

from hhglab.balls import (
    cayley_ball_layers,
    growth_function,
    parse_generating_set,
    symmetrize,
)
from hhglab.cli import main
from hhglab.errors import InputError, ResourceBudgetError
from hhglab.groups import DirectProduct, FreeAbelianGroup, FreeGroup, FreeProduct, GroupModel


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


def free_spheres(rank, n):
    """Sphere sizes 1, 2r, 2r(2r-1), ... of the free group of rank r."""
    return [1] + [2 * rank * (2 * rank - 1) ** (k - 1) for k in range(1, n + 1)]


def series_inverse(s):
    """Coefficients of 1/s as a formal power series, s[0] == 1."""
    inv = [1]
    for k in range(1, len(s)):
        inv.append(-sum(s[i] * inv[k - i] for i in range(1, k + 1)))
    return inv


def cauchy_product(s, t):
    return [sum(s[i] * t[k - i] for i in range(k + 1)) for k in range(len(s))]


class TestGrowthSeriesOracle:
    """BFS sphere sizes against growth series computed without the BFS."""

    def test_free_product_f2_star_z(self):
        # 1/S_{G*H} = 1/S_G + 1/S_H - 1 (de la Harpe, Topics in Geometric
        # Group Theory, ch. VI)
        radius = 7
        inv_f2 = series_inverse(free_spheres(2, radius))
        inv_z = series_inverse(free_spheres(1, radius))
        inv = [a + b for a, b in zip(inv_f2, inv_z)]
        inv[0] -= 1
        expected = series_inverse(inv)
        G = FreeProduct([FreeGroup(2), FreeAbelianGroup(1, ["c"])])
        layers = cayley_ball_layers(G, std_gens(G), radius)
        assert [len(layer) for layer in layers] == expected
        assert expected[:4] == [1, 6, 30, 150]

    def test_direct_product_f2_x_f2(self):
        radius = 6
        f2 = free_spheres(2, radius)
        expected = cauchy_product(f2, f2)
        G = DirectProduct([FreeGroup(2), FreeGroup(2, ["c", "d"])])
        layers = cayley_ball_layers(G, std_gens(G), radius)
        assert [len(layer) for layer in layers] == expected
        assert expected[6] == 8424


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

    def test_budget_reports_completed_radius(self):
        F = FreeGroup(2)
        with pytest.raises(ResourceBudgetError) as info:
            cayley_ball_layers(F, std_gens(F), 8, max_elements=100)
        assert info.value.partial_radius == 3  # ball(3) has 53 elements, ball(4) has 161
