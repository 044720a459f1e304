"""Builders for the shipped structures and fixtures.

Standard structures come from a product decomposition of the group model
(trees for free pieces, lines for cyclic pieces, a point on top when
there are several pieces) or from the coset machinery of a two-factor
free product.  Fixtures are finite tables with a deliberate defect, kept
for exercising the axiom checker and the structural validators; each
fixture's docstring says exactly what it breaks.
"""

import json

from .errors import InputError, WrongKindError
from .groups import (
    DirectProduct,
    FreeAbelianGroup,
    FreeGroup,
    FreeProduct,
    is_int,
    json_field,
    model_from_json,
)
from .spaces import CayleyTreeSpace, GraphSpace, LineSpace, PointSpace
from .structures import ConstantLedger, Domain, FreeProductHHG, HHStructure, TableHHG


def _tree_piece(model, factor_index):
    """Tree domain for a free factor of rank >= 2 (factor_index None: whole model)."""
    if factor_index is None:
        fmodel = model
        extract = lambda g: g
        to_global = lambda p: p
    else:
        fmodel = model.parts[factor_index]
        extract = lambda g: model.factor_word(g, factor_index)
        to_global = lambda p: model.to_global(factor_index, p)
    return {
        "kind": "tree",
        "space": CayleyTreeSpace(fmodel),
        "pi": extract,
        "act": lambda g, p: fmodel.multiply(extract(g), p),
        "lift": to_global,
    }


def _line_piece(model, factor_index, gen_index):
    """Line domain reading one cyclic direction (factor_index None: whole
    model): the exponent sum of one generator, which is the same on every
    word for an element, so it is read off the word as given."""
    letter = 2 * gen_index
    if factor_index is not None:
        letter = model.to_global(factor_index, (letter,))[0]

    def exponent(g):
        return g.count(letter) - g.count(letter + 1)

    return {
        "kind": "line",
        "space": LineSpace(),
        "pi": exponent,
        "act": lambda g, p: p + exponent(g),
        "lift": lambda p: (letter if p >= 0 else letter + 1,) * abs(p),
    }


def _piece_domain(name, piece):
    return Domain(name, piece["space"], piece["pi"], act=piece["act"], lift=piece["lift"])


def _pieces_of_factor(model, factor_index, factor):
    if isinstance(factor, FreeGroup):
        if factor.ngens >= 2:
            return [_tree_piece(model, factor_index)]
        if factor.ngens == 1:
            return [_line_piece(model, factor_index, 0)]
        raise WrongKindError("rank-zero free factor has no domains")
    if isinstance(factor, FreeAbelianGroup):
        return [_line_piece(model, factor_index, j) for j in range(factor.ngens)]
    raise WrongKindError(f"unsupported factor family {factor.family}")


def _product_pieces(model):
    if isinstance(model, DirectProduct):
        pieces = []
        for i, factor in enumerate(model.parts):
            pieces.extend(_pieces_of_factor(model, i, factor))
        return pieces
    return _pieces_of_factor(model, None, model)


def _piece_labels(pieces):
    trees = [p for p in pieces if p["kind"] == "tree"]
    lines = [p for p in pieces if p["kind"] == "line"]
    labels = {}
    for group, stem in ((trees, "T"), (lines, "L")):
        for k, p in enumerate(group):
            labels[id(p)] = stem if len(group) == 1 else f"{stem}{k + 1}"
    return [labels[id(p)] for p in pieces]


def _product_constants(n_pieces):
    if n_pieces == 1:
        return ConstantLedger(
            delta=0.0, xi=0.0, kappa0=0.0, E=1.0, lam=1.0, alpha=1.0,
            K_proj=1.0, n_complexity=1, theta_coeffs=(0.0, 1.0),
            C_norm=0.0, tau0=1.0, N_rank=1,
        )
    return ConstantLedger(
        delta=0.0, xi=0.0, kappa0=1.0, E=2.0, lam=float(n_pieces), alpha=2.0,
        K_proj=1.0, n_complexity=2, theta_coeffs=(0.0, float(n_pieces)),
        C_norm=0.0, tau0=1.0, N_rank=n_pieces,
    )


def product_structure(model, label, constants=None):
    """Structure of a product decomposition: one domain per irreducible piece,
    pairwise orthogonal, under a single bounded top when there are several."""
    if isinstance(model, FreeProduct):
        raise WrongKindError("free products take the coset structure instead")
    pieces = _product_pieces(model)
    names = _piece_labels(pieces)
    constants = constants or _product_constants(len(pieces))
    recipe = {"builder": "product", "label": label, "group": model.to_json()}
    if len(pieces) == 1:
        return TableHHG(label, model, constants, [_piece_domain("S", pieces[0])],
                        recipe=recipe)
    domains = [
        Domain("S", PointSpace(), lambda g: 0, act=lambda g, p: 0, lift=lambda p: ())
    ]
    domains.extend(_piece_domain(name, p) for name, p in zip(names, pieces))
    nesting = [(name, "S") for name in names]
    orthogonal = [(names[i], names[j]) for i in range(len(names)) for j in range(i + 1, len(names))]
    rho_points = {(name, "S"): 0 for name in names}
    rho_maps = {
        ("S", name): (lambda q, _bp=p["space"].basepoint(): _bp) for name, p in zip(names, pieces)
    }
    return TableHHG(
        label, model, constants, domains,
        nesting=nesting, orthogonal=orthogonal,
        rho_points=rho_points, rho_maps=rho_maps, recipe=recipe,
    )


def free_product_constants():
    return ConstantLedger(
        delta=0.0, xi=0.0, kappa0=2.0, E=2.0, lam=1.0, alpha=2.0,
        K_proj=1.0, n_complexity=2, theta_coeffs=(4.0, 4.0, 1.0),
        C_norm=1.0, tau0=1.0, N_rank=1,
    )


def free_product_structure(model, label, generation_radius=2, constants=None):
    return FreeProductHHG(label, model, constants or free_product_constants(), generation_radius)


# group models of the standard catalog


def _model_free2():
    return FreeGroup(2)


def _model_z1():
    return FreeAbelianGroup(1)


def _model_z2():
    return FreeAbelianGroup(2)


def _model_f2xz():
    return DirectProduct([FreeGroup(2), FreeAbelianGroup(1, ["t"])])


def _model_f2xf2():
    return DirectProduct([FreeGroup(2), FreeGroup(2, ["c", "d"])])


def _model_f2freez():
    return FreeProduct([FreeGroup(2), FreeAbelianGroup(1, ["c"])])


# fixtures


def _f2xz_table(pi_line=None, line_lift=None, drop_line=False, s_space=None,
                s_rho_T=0, constants=None, label="f2xz-fixture"):
    model = _model_f2xz()
    line = _line_piece(model, 1, 0)
    pi_L = pi_line or line["pi"]
    lift_L = line_lift or line["lift"]
    space_S = s_space or PointSpace()
    bp = space_S.basepoint()
    domains = [
        Domain("S", space_S, lambda g: bp, act=lambda g, p: p, lift=lambda p: ()),
        _piece_domain("T", _tree_piece(model, 0)),
    ]
    nesting = [("T", "S")]
    orthogonal = []
    rho_points = {("T", "S"): s_rho_T}
    rho_maps = {("S", "T"): lambda p: ()}
    if not drop_line:
        domains.append(Domain("L", LineSpace(), pi_L,
                              act=lambda g, p: p + pi_L(g), lift=lift_L))
        nesting.append(("L", "S"))
        orthogonal.append(("T", "L"))
        rho_points[("L", "S")] = bp
        rho_maps[("S", "L")] = lambda p: 0
    return TableHHG(label, model, constants or _product_constants(2), domains,
                    nesting=nesting, orthogonal=orthogonal,
                    rho_points=rho_points, rho_maps=rho_maps)


def fixture_corrupt_rho():
    """Relative projection of T into S relocated to the far end of a path
    graph: the consistency inequality fails, everything else still holds
    because the declared link and realization slacks absorb the offset."""
    constants = ConstantLedger(
        delta=0.0, xi=0.0, kappa0=2.0, E=2.0, lam=9.0, alpha=10.0,
        K_proj=1.0, n_complexity=2, theta_coeffs=(0.0, 2.0),
        C_norm=8.0, tau0=1.0, N_rank=2,
    )
    path = GraphSpace(9, [(i, i + 1) for i in range(8)], label="path")
    return _f2xz_table(s_space=path, s_rho_T=8,
                       constants=constants, label="f2xz-corrupt-rho")


def fixture_corrupt_lipschitz():
    """Line projection runs at triple speed while still declaring the unit
    Lipschitz constant: only the projection axiom fails."""
    line = _line_piece(_model_f2xz(), 1, 0)
    return _f2xz_table(pi_line=lambda g: 3 * line["pi"](g),
                       line_lift=lambda p: line["lift"](round(p / 3)),
                       label="f2xz-corrupt-lipschitz")


def fixture_corrupt_uniqueness():
    """Line domain deleted but the uniqueness gap still promised: far-apart
    elements of the cyclic direction have identical coordinates."""
    constants = ConstantLedger(
        delta=0.0, xi=0.0, kappa0=1.0, E=2.0, lam=2.0, alpha=2.0,
        K_proj=1.0, n_complexity=2, theta_coeffs=(0.0, 2.0),
        C_norm=0.0, tau0=1.0, N_rank=1,
    )
    return _f2xz_table(drop_line=True, constants=constants,
                       label="f2xz-corrupt-uniqueness")


def fixture_swapline():
    """Infinite cyclic group with two half-speed lines swapped by odd
    elements.  The domain permutation is an honest action, which is what
    the classifier machinery needs; realization is deliberately not
    axiom-clean since the two line coordinates are locked together."""
    Z = FreeAbelianGroup(1)

    def exp(g):
        return Z.exponents(g)[0]

    def pi_P(g):
        return exp(g) // 2

    def pi_Q(g):
        return (exp(g) + 1) // 2

    def action(g, u):
        if u in ("P", "Q") and exp(g) % 2 != 0:
            return "Q" if u == "P" else "P"
        return u

    constants = ConstantLedger(
        delta=0.0, xi=0.0, kappa0=1.0, E=2.0, lam=2.0, alpha=2.0,
        K_proj=1.0, n_complexity=2, theta_coeffs=(0.0, 2.0),
        C_norm=0.0, tau0=0.5, N_rank=2,
    )
    domains = [
        Domain("S", PointSpace(), lambda g: 0, act=lambda g, p: 0, lift=lambda p: ()),
        Domain("P", LineSpace(), pi_P, act=lambda g, p: p + exp(g) // 2,
               lift=lambda p: Z.from_exponents([2 * p])),
        Domain("Q", LineSpace(), pi_Q, act=lambda g, p: p + exp(g) // 2,
               lift=lambda p: Z.from_exponents([2 * p])),
    ]
    return TableHHG(
        "swapline", Z, constants, domains,
        nesting=[("P", "S"), ("Q", "S")], orthogonal=[("P", "Q")],
        rho_points={("P", "S"): 0, ("Q", "S"): 0},
        rho_maps={("S", "P"): lambda p: 0, ("S", "Q"): lambda p: 0},
        domain_action=action,
    )


def fixture_bad_orth_closure():
    """Relation table violating orthogonality closure: V nested in W, W
    orthogonal to U, yet V declared transverse to U.  Uniqueness also
    fails, unavoidably: every domain is bounded over an infinite group."""
    Z = FreeAbelianGroup(1)
    mk = lambda name: Domain(name, PointSpace(), lambda g: 0, act=lambda g, p: 0)
    domains = [mk("S"), mk("W"), mk("V"), mk("U")]
    return TableHHG(
        "bad-orth-closure", Z, ConstantLedger(n_complexity=3), domains,
        nesting=[("V", "W"), ("V", "S"), ("W", "S"), ("U", "S")],
        orthogonal=[("W", "U")],
        transverse=[("V", "U")],
        rho_points={("V", "W"): 0, ("V", "S"): 0, ("W", "S"): 0, ("U", "S"): 0,
                    ("V", "U"): 0, ("U", "V"): 0},
        rho_maps={("W", "V"): lambda p: 0, ("S", "V"): lambda p: 0,
                  ("S", "W"): lambda p: 0, ("S", "U"): lambda p: 0},
    )


def _line_top_table(with_second_line=False, transverse_mode=False, label="bad"):
    model = _model_f2xz()
    domains = [
        _piece_domain("S", _line_piece(model, 1, 0)),
        _piece_domain("T", _tree_piece(model, 0)),
    ]
    nesting = [("T", "S")]
    orthogonal = []
    transverse = []
    rho_points = {("T", "S"): 0}
    rho_maps = {("S", "T"): lambda p: ()}
    if with_second_line:
        domains.append(_piece_domain("L", _line_piece(model, 0, 0)))
        nesting.append(("L", "S"))
        orthogonal.append(("T", "L"))
        rho_points[("L", "S")] = 0
        rho_maps[("S", "L")] = lambda p: 0
    if transverse_mode:
        # replace the nesting of T in S by a transverse declaration
        return TableHHG(label, model, _product_constants(2), domains,
                        nesting=[p for p in nesting if p != ("T", "S")],
                        orthogonal=orthogonal,
                        transverse=[("T", "S")],
                        rho_points={**rho_points, ("S", "T"): ()},
                        rho_maps={k: v for k, v in rho_maps.items() if k != ("S", "T")})
    return TableHHG(label, model, _product_constants(2), domains,
                    nesting=nesting, orthogonal=orthogonal, transverse=transverse,
                    rho_points=rho_points, rho_maps=rho_maps)


def fixture_bad_nest_in_line():
    """Unbounded tree domain nested inside a translated line top: trips the
    quasi-line nesting validator."""
    return _line_top_table(label="bad-nest-in-line")


def fixture_bad_orth_in_line():
    """Orthogonal pair of unbounded domains properly nested in an unbounded
    top: trips the orthogonal-family containment validator."""
    return _line_top_table(with_second_line=True, label="bad-orth-in-line")


def fixture_bad_transverse_invariant():
    """Unbounded domain transverse to an invariant unbounded top: trips the
    transversality validator."""
    return _line_top_table(transverse_mode=True, label="bad-transverse-invariant")


STANDARD_BUILDERS = {
    "free2": lambda: product_structure(_model_free2(), "free2"),
    "z1": lambda: product_structure(_model_z1(), "z1"),
    "z2": lambda: product_structure(_model_z2(), "z2"),
    "f2xz": lambda: product_structure(_model_f2xz(), "f2xz"),
    "f2xf2": lambda: product_structure(_model_f2xf2(), "f2xf2"),
    "f2freez": lambda: free_product_structure(_model_f2freez(), "f2freez"),
}

FIXTURE_BUILDERS = {
    "f2xz-corrupt-rho": fixture_corrupt_rho,
    "f2xz-corrupt-lipschitz": fixture_corrupt_lipschitz,
    "f2xz-corrupt-uniqueness": fixture_corrupt_uniqueness,
    "swapline": fixture_swapline,
    "bad-orth-closure": fixture_bad_orth_closure,
    "bad-nest-in-line": fixture_bad_nest_in_line,
    "bad-orth-in-line": fixture_bad_orth_in_line,
    "bad-transverse-invariant": fixture_bad_transverse_invariant,
}


def build_named(name) -> HHStructure:
    if name in STANDARD_BUILDERS:
        return STANDARD_BUILDERS[name]()
    if name in FIXTURE_BUILDERS:
        return FIXTURE_BUILDERS[name]()
    raise InputError(f"unknown structure name {name!r}")


def structure_from_json(data) -> HHStructure:
    """Structure from its json recipe; malformed input raises InputError."""
    if not isinstance(data, dict) or "builder" not in data:
        raise InputError("structure json needs a 'builder' key")
    builder = data["builder"]
    owner = f"{builder} structure"
    is_str = lambda v: isinstance(v, str)
    if builder == "named":
        return build_named(json_field(data, "name", is_str, "a string", owner))
    if builder not in ("product", "free_product"):
        raise InputError(f"unknown builder {builder!r}")
    model = model_from_json(json_field(data, "group", lambda v: isinstance(v, dict),
                                       "an object", owner))
    constants = ConstantLedger.from_json(data["constants"]) if "constants" in data else None
    label = json_field(data, "label", is_str, "a string", owner, default=builder)
    if builder == "product":
        return product_structure(model, label, constants)
    radius = json_field(data, "generation_radius", lambda v: is_int(v) and v >= 0,
                        "a nonnegative integer", owner, default=2)
    return free_product_structure(model, label, generation_radius=radius,
                                  constants=constants)


def load_structure(source) -> HHStructure:
    """Accepts a catalog name or a path to a structure json file."""
    if isinstance(source, str) and (source.endswith(".json") or "/" in source):
        with open(source) as fh:
            return structure_from_json(json.load(fh))
    return build_named(source)
