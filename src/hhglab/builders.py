"""Builders for the shipped structures and fixtures.

Standard structures come from a product decomposition of the group model
(trees for free pieces, lines for cyclic pieces, a point on top when
there are several pieces) or from the coset machinery of a two-factor
free product.  Fixtures are finite tables with a deliberate defect, kept
for exercising the axiom checker and the structural validators; each
fixture's docstring says exactly what it breaks.
"""

import hashlib
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
from .spaces import CayleyTreeSpace, LineSpace, PathSpace, PointSpace
from .structures import ConstantLedger, Domain, FreeProductHHG, HHStructure, TableHHG


def _tree_piece(model, factor_index):
    """Tree domain T for a free factor of rank >= 2 (factor_index None: whole model)."""
    if factor_index is None:
        fmodel = model
        extract = lambda g: g
        to_global = lambda p: p
    else:
        fmodel = model.parts[factor_index]
        extract = lambda g: model.factor_word(g, factor_index)
        to_global = lambda p: model.to_global(factor_index, p)
    return Domain("T", CayleyTreeSpace(fmodel), extract, to_global)


def _line_piece(model, factor_index, gen_index):
    """Line domain L reading one cyclic direction (factor_index None: whole
    model): the exponent sum of one generator, which is the same on every
    word for an element, so it is read off the word as given."""
    letter = 2 * gen_index
    if factor_index is not None:
        letter = model.to_global(factor_index, (letter,))[0]

    def exponent(g):
        return g.count(letter) - g.count(letter + 1)

    return Domain("L", LineSpace(), exponent,
                  lambda p: (letter if p >= 0 else letter + 1,) * abs(p))


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
    if isinstance(model, DirectProduct):
        pieces = []
        for i, factor in enumerate(model.parts):
            pieces.extend(_pieces_of_factor(model, i, factor))
    else:
        pieces = _pieces_of_factor(model, None, model)
    # a kind that occurs more than once is numbered in order: T1, T2, ...
    kinds = [d.label for d in pieces]
    for k, d in enumerate(pieces):
        if kinds.count(d.label) > 1:
            pieces[k] = d._replace(label=f"{d.label}{kinds[:k + 1].count(d.label)}")
    names = [d.label for d in pieces]
    constants = constants or _product_constants(len(pieces))
    recipe = {"builder": "product", "label": label, "group": model.to_json()}
    if len(pieces) == 1:
        return TableHHG(label, model, constants, [pieces[0]._replace(label="S")],
                        recipe=recipe)
    domains = [Domain("S", PointSpace(), lambda g: 0, lambda p: ())]
    domains.extend(pieces)
    nesting = [(name, "S") for name in names]
    orthogonal = [(names[i], names[j]) for i in range(len(names)) for j in range(i + 1, len(names))]
    return TableHHG(label, model, constants, domains,
                    nesting=nesting, orthogonal=orthogonal, recipe=recipe)


def free_product_structure(model, label, generation_radius=FreeProductHHG.GENERATION_RADIUS,
                           constants=None):
    constants = constants or ConstantLedger(
        delta=0.0, xi=0.0, kappa0=2.0, E=2.0, lam=1.0, alpha=2.0,
        K_proj=1.0, n_complexity=2, theta_coeffs=(4.0, 4.0, 1.0),
        C_norm=1.0, tau0=1.0, N_rank=1,
    )
    return FreeProductHHG(label, model, constants, generation_radius)


def _model_f2xz():
    return DirectProduct([FreeGroup(2), FreeAbelianGroup(1, ["t"])])


# fixtures


def _f2xz_table(line, label, s_space=None, rho_points=None, constants=None):
    """F2 x Z over a top S (a point unless s_space is given), with the tree
    T and the line domain `line` nested in it; None drops the line."""
    model = _model_f2xz()
    space_S = s_space or PointSpace()
    bp = space_S.basepoint()
    domains = [
        Domain("S", space_S, lambda g: bp, lift=lambda p: ()),
        _tree_piece(model, 0),
    ]
    nesting = [("T", "S")]
    orthogonal = []
    if line is not None:
        domains.append(line)
        nesting.append(("L", "S"))
        orthogonal.append(("T", "L"))
    return TableHHG(label, model, constants or _product_constants(2), domains,
                    nesting=nesting, orthogonal=orthogonal, rho_points=rho_points)


def fixture_corrupt_rho():
    """Relative projection of T into S relocated to the far end of a path:
    the consistency inequality fails, everything else still holds
    because the declared link and realization slacks absorb the offset."""
    constants = ConstantLedger(
        delta=0.0, xi=0.0, kappa0=2.0, E=2.0, lam=9.0, alpha=10.0,
        K_proj=1.0, n_complexity=2, theta_coeffs=(0.0, 2.0),
        C_norm=8.0, tau0=1.0, N_rank=2,
    )
    return _f2xz_table(_line_piece(_model_f2xz(), 1, 0), "f2xz-corrupt-rho",
                       s_space=PathSpace(9), rho_points={("T", "S"): 8}, constants=constants)


def fixture_corrupt_lipschitz():
    """Line projection runs at triple speed while still declaring the unit
    Lipschitz constant: only the projection axiom fails."""
    line = _line_piece(_model_f2xz(), 1, 0)
    tripled = line._replace(pi=lambda g: 3 * line.pi(g),
                            lift=lambda p: line.lift(round(p / 3)))
    return _f2xz_table(tripled, "f2xz-corrupt-lipschitz")


def fixture_corrupt_uniqueness():
    """Line domain deleted but the uniqueness gap still promised: far-apart
    elements of the cyclic direction have identical coordinates."""
    constants = ConstantLedger(
        delta=0.0, xi=0.0, kappa0=1.0, E=2.0, lam=2.0, alpha=2.0,
        K_proj=1.0, n_complexity=2, theta_coeffs=(0.0, 2.0),
        C_norm=0.0, tau0=1.0, N_rank=1,
    )
    return _f2xz_table(None, "f2xz-corrupt-uniqueness", constants=constants)


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
        Domain("S", PointSpace(), lambda g: 0, lift=lambda p: ()),
        Domain("P", LineSpace(), pi_P, lift=lambda p: Z.from_exponents([2 * p])),
        Domain("Q", LineSpace(), pi_Q, lift=lambda p: Z.from_exponents([2 * p])),
    ]
    return TableHHG(
        "swapline", Z, constants, domains,
        nesting=[("P", "S"), ("Q", "S")], orthogonal=[("P", "Q")],
        domain_action=action,
    )


def fixture_bad_orth_closure():
    """Relation table violating orthogonality closure: V nested in W, W
    orthogonal to U, yet V declared transverse to U.  Uniqueness also
    fails, unavoidably: every domain is bounded over an infinite group."""
    Z = FreeAbelianGroup(1)
    mk = lambda name: Domain(name, PointSpace(), lambda g: 0, lift=lambda p: ())
    domains = [mk("S"), mk("W"), mk("V"), mk("U")]
    return TableHHG(
        "bad-orth-closure", Z, ConstantLedger(n_complexity=3), domains,
        nesting=[("V", "W"), ("V", "S"), ("W", "S"), ("U", "S")],
        orthogonal=[("W", "U")],
        transverse=[("V", "U")],
    )


def _line_top_table(label, with_second_line=False, transverse_mode=False):
    model = _model_f2xz()
    domains = [
        _line_piece(model, 1, 0)._replace(label="S"),
        _tree_piece(model, 0),
    ]
    nesting = []
    orthogonal = []
    transverse = []
    # T sits in the line top, nested unless it is declared transverse to it
    (transverse if transverse_mode else nesting).append(("T", "S"))
    if with_second_line:
        domains.append(_line_piece(model, 0, 0))
        nesting.append(("L", "S"))
        orthogonal.append(("T", "L"))
    return TableHHG(label, model, _product_constants(2), domains,
                    nesting=nesting, orthogonal=orthogonal, transverse=transverse)


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
    "free2": lambda: product_structure(FreeGroup(2), "free2"),
    "z1": lambda: product_structure(FreeAbelianGroup(1), "z1"),
    "z2": lambda: product_structure(FreeAbelianGroup(2), "z2"),
    "f2xz": lambda: product_structure(_model_f2xz(), "f2xz"),
    "f2xf2": lambda: product_structure(
        DirectProduct([FreeGroup(2), FreeGroup(2, ["c", "d"])]), "f2xf2"),
    "f2freez": lambda: free_product_structure(
        FreeProduct([FreeGroup(2), FreeAbelianGroup(1, ["c"])]), "f2freez"),
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
                        "a nonnegative integer", owner, default=FreeProductHHG.GENERATION_RADIUS)
    return free_product_structure(model, label, generation_radius=radius,
                                  constants=constants)


def load_structure(source) -> HHStructure:
    """Accepts a catalog name or a path to a structure json file: a string
    that ends in .json or holds a / names a file, anything else a name.

    A file is read once, and the structure is parsed from those bytes and
    records their sha256 as source_sha256, so a pipe gets the digest of
    what was parsed.  A file that is not UTF-8, or nests past the
    interpreter's recursion limit, raises InputError."""
    if not (isinstance(source, str) and (source.endswith(".json") or "/" in source)):
        return build_named(source)
    with open(source, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise InputError(f"structure json is not UTF-8: {err.reason} at byte {err.start}"
                         ) from None
    try:
        structure = structure_from_json(json.loads(text))
    except RecursionError:
        raise InputError("structure json nests too deeply") from None
    structure.source_sha256 = hashlib.sha256(data).hexdigest()
    return structure
