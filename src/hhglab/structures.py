"""Structures: a group model indexed over domains with hyperbolic coordinates.

A structure fixes an index set of domains, one space per domain, a
projection from the group to each space, pairwise relations (nesting,
orthogonality, transversality), and relative projections between related
domains.  All numerical guarantees a structure claims about itself live
in its ConstantLedger; the axiom checker tests the claims, it never
trusts them.

Relation codes, always read left to right: "u < v" means u is properly
nested in v, "u > v" the reverse, "perp" orthogonal, "trans" transverse.
"""

import math
from dataclasses import dataclass, field

from .errors import IndexMismatchError, InputError, PreconditionError, WrongKindError
from .groups import (FreeAbelianGroup, FreeGroup, FreeProduct, GroupModel, invert_word,
                     is_int, json_field)
from .spaces import CayleyTreeSpace, CosetTreeSpace, LineSpace, Space

EQUAL = "="
NEST_IN = "<"
CONTAINS = ">"
ORTHOGONAL = "perp"
TRANSVERSE = "trans"

_FLIP = {EQUAL: EQUAL, NEST_IN: CONTAINS, CONTAINS: NEST_IN, ORTHOGONAL: ORTHOGONAL, TRANSVERSE: TRANSVERSE}


@dataclass
class ConstantLedger:
    """Declared constants of a structure.

    delta: hyperbolicity of every domain space (four-point sense).
    xi: diameter bound on single-point projection images.
    kappa0: consistency bound for transverse and nested pairs.
    E: bounded-geodesic-image and large-link threshold.
    lam: large-link multiplier.
    alpha: partial-realization slack.
    K_proj: coarse-Lipschitz constant of the projections.
    n_complexity: length bound for proper nesting chains.
    theta_coeffs: polynomial c0 + c1*k + c2*k^2 + ... for the uniqueness gap.
    C_norm: normalization slack of the distance formula at its base threshold.
    tau0: minimal translation length counted as loxodromic.
    N_rank: largest pairwise-orthogonal family of unbounded domains.
    """

    delta: float = 0.0
    xi: float = 0.0
    kappa0: float = 0.0
    E: float = 1.0
    lam: float = 1.0
    alpha: float = 1.0
    K_proj: float = 1.0
    n_complexity: int = 1
    theta_coeffs: tuple = (0.0, 1.0)
    C_norm: float = 0.0
    tau0: float = 1.0
    N_rank: int = 1

    def theta_of(self, kappa):
        return sum(c * kappa**i for i, c in enumerate(self.theta_coeffs))

    @property
    def D(self):
        """max of delta, xi, kappa0, n_complexity, E."""
        return max(self.delta, self.xi, self.kappa0, float(self.n_complexity), self.E)

    @property
    def kappa1(self):
        return max(self.C_norm, self.kappa0, self.xi)

    def to_json(self):
        return {
            "delta": self.delta,
            "xi": self.xi,
            "kappa0": self.kappa0,
            "E": self.E,
            "lam": self.lam,
            "alpha": self.alpha,
            "K_proj": self.K_proj,
            "n_complexity": self.n_complexity,
            "theta_coeffs": list(self.theta_coeffs),
            "C_norm": self.C_norm,
            "tau0": self.tau0,
            "N_rank": self.N_rank,
        }

    @classmethod
    def from_json(cls, data):
        """Ledger from its json form: known names, finite numeric values
        (nonnegative integers for n_complexity and N_rank) and a positive
        tau0, else InputError."""
        if not isinstance(data, dict):
            raise InputError("constants json must be an object")
        allowed = set(cls().to_json())
        bad = set(data) - allowed
        if bad:
            raise InputError(f"unknown constant names: {sorted(bad)}")
        is_number = lambda x: is_int(x) or (isinstance(x, float) and math.isfinite(x))
        for name in data:
            if name == "theta_coeffs":
                check = lambda v: isinstance(v, (list, tuple)) and all(map(is_number, v))
                expected = "a list of numbers"
            elif name in ("n_complexity", "N_rank"):
                check, expected = lambda v: is_int(v) and v >= 0, "a nonnegative integer"
            else:
                check, expected = is_number, "a number"
            json_field(data, name, check, expected, "constants")
        if data.get("tau0", 1.0) <= 0:
            raise InputError("constants json: 'tau0' must be positive")
        kwargs = dict(data)
        if "theta_coeffs" in kwargs:
            kwargs["theta_coeffs"] = tuple(kwargs["theta_coeffs"])
        return cls(**kwargs)


class HHStructure:
    """Interface shared by every structure."""

    label: str
    group: GroupModel
    constants: ConstantLedger

    def domains(self) -> list:
        """Labels of the materialized domains, deterministic order."""
        raise NotImplementedError

    def space(self, u) -> Space:
        raise NotImplementedError

    def pi(self, u, g):
        """Projection of the group element g to the domain space of u."""
        raise NotImplementedError

    def relation(self, u, v) -> str:
        raise NotImplementedError

    def rho_point(self, v, w):
        """Relative projection of v into the space of w; defined when
        v < w or v trans w."""
        raise NotImplementedError

    def rho_map_point(self, w, v, p):
        """Downward relative projection: image in the space of v of a point
        p of the space of w, defined when v < w."""
        raise NotImplementedError

    def act_on_domain(self, g, u):
        return u

    def act_in_space(self, u, g, p):
        """Action of g on the space of u; defined when g preserves u."""
        raise NotImplementedError

    def lift(self, u, p):
        """A group element projecting to p in the space of u, or None."""
        return None

    def domains_between(self, x, y) -> list:
        """Domains that can separate the group elements x and y; the default
        is every materialized domain."""
        return self.domains()

    def word_metric(self, x, y) -> int:
        return len(self.group.multiply(self.group.inverse(x), y))

    def dsub(self, u, x, y):
        """d_u(pi_u(x), pi_u(y)) for group elements x, y."""
        return self.space(u).dist(self.pi(u, x), self.pi(u, y))

    def is_bounded_domain(self, u) -> bool:
        return self.space(u).bounded

    def top_domain(self):
        """The unique nesting-maximal domain if one exists, else None."""
        doms = self.domains()
        tops = [u for u in doms if all(self.relation(v, u) in (NEST_IN, EQUAL) for v in doms)]
        return tops[0] if len(tops) == 1 else None

    def to_json(self) -> dict:
        raise NotImplementedError


class Domain:
    """One finite-table domain: a space, a projection, and optional extras.

    act(g, p): action on the space for stabilizing g.
    lift(p): group element realizing the point p.
    """

    def __init__(self, label, space, pi, act=None, lift=None):
        self.label = label
        self.space = space
        self._pi = pi
        self._act = act
        self._lift = lift

    def pi(self, g):
        return self._pi(g)

    def act(self, g, p):
        if self._act is None:
            raise PreconditionError(f"domain {self.label} has no declared action")
        return self._act(g, p)

    def lift(self, p):
        return self._lift(p) if self._lift else None


class TableHHG(HHStructure):
    """Structure given by an explicit finite table of domains and relations."""

    def __init__(
        self,
        label,
        group,
        constants,
        domains,
        nesting=(),
        orthogonal=(),
        transverse=(),
        rho_points=None,
        rho_maps=None,
        domain_action=None,
        recipe=None,
    ):
        self.label = label
        self.group = group
        self.constants = constants
        self._domains = {d.label: d for d in domains}
        if len(self._domains) != len(domains):
            raise InputError("duplicate domain labels")
        self._order = [d.label for d in domains]
        self._rel = {}
        for u in self._order:
            self._rel[(u, u)] = EQUAL
        for child, parent in nesting:
            self._set_rel(child, parent, NEST_IN)
        for u, v in orthogonal:
            self._set_rel(u, v, ORTHOGONAL)
        for u, v in transverse:
            self._set_rel(u, v, TRANSVERSE)
        self._validate_relations()
        self._rho_points = dict(rho_points or {})
        self._rho_maps = dict(rho_maps or {})
        self._validate_rhos()
        self._domain_action = domain_action
        self._recipe = recipe or {"builder": "named", "name": label}

    def _set_rel(self, u, v, code):
        for w in (u, v):
            if w not in self._domains:
                raise IndexMismatchError(f"relation names unknown domain {w!r}")
        if (u, v) in self._rel:
            raise InputError(f"pair ({u}, {v}) related twice")
        self._rel[(u, v)] = code
        self._rel[(v, u)] = _FLIP[code]

    def _validate_relations(self):
        for u in self._order:
            for v in self._order:
                if (u, v) not in self._rel:
                    raise InputError(f"pair ({u}, {v}) has no declared relation")
        for u in self._order:
            for v in self._order:
                for w in self._order:
                    if self._rel[(u, v)] == NEST_IN and self._rel[(v, w)] == NEST_IN:
                        if self._rel[(u, w)] != NEST_IN:
                            raise InputError(f"nesting not transitive at ({u}, {v}, {w})")

    def _validate_rhos(self):
        for (u, v), code in self._rel.items():
            if u == v:
                continue
            if code in (NEST_IN, TRANSVERSE) and (u, v) not in self._rho_points:
                raise InputError(f"missing relative projection point for ({u}, {v})")
            if code == CONTAINS and (u, v) not in self._rho_maps:
                raise InputError(f"missing downward projection map for ({u}, {v})")

    def domains(self):
        return list(self._order)

    def _domain(self, u):
        try:
            return self._domains[u]
        except (KeyError, TypeError):
            raise IndexMismatchError(f"{u!r} is not a domain of {self.label}") from None

    def space(self, u):
        return self._domain(u).space

    def pi(self, u, g):
        return self._domain(u).pi(g)

    def relation(self, u, v):
        self._domain(u)
        self._domain(v)
        return self._rel[(u, v)]

    def rho_point(self, v, w):
        if self.relation(v, w) not in (NEST_IN, TRANSVERSE):
            raise PreconditionError(f"no point projection from {v} to {w}")
        return self._rho_points[(v, w)]

    def rho_map_point(self, w, v, p):
        if self.relation(v, w) != NEST_IN:
            raise PreconditionError(f"no downward projection from {w} to {v}")
        return self._rho_maps[(w, v)](p)

    def act_on_domain(self, g, u):
        self._domain(u)
        if self._domain_action is None:
            return u
        return self._domain_action(g, u)

    def act_in_space(self, u, g, p):
        if self.act_on_domain(g, u) != u:
            raise PreconditionError(f"element does not preserve domain {u}")
        return self._domains[u].act(g, p)

    def lift(self, u, p):
        return self._domain(u).lift(p)

    def to_json(self):
        return dict(self._recipe)


class FreeProductHHG(HHStructure):
    """Structure of a two-factor free product.

    The top domain S carries the tree of factor cosets; every coset g F_i
    is a domain nested in S, distinct cosets are transverse.  Coset
    domains are created on demand, so the index set is unbounded;
    domains() materializes those within generation_radius of the identity.
    """

    TOP = "S"

    def __init__(self, label, group, constants, generation_radius=2):
        if not isinstance(group, FreeProduct) or len(group.parts) != 2:
            raise WrongKindError("need a two-factor free product model")
        self.label = label
        self.group = group
        self.constants = constants
        self.generation_radius = generation_radius
        self.tree = CosetTreeSpace(group)
        self._decoded = {}  # domain label -> tree vertex, successful decodes only
        self._factor_names = ["".join(p.labels) for p in group.parts]
        self._factor_spaces = []
        for p in group.parts:
            if isinstance(p, FreeGroup):
                self._factor_spaces.append(CayleyTreeSpace(p))
            elif isinstance(p, FreeAbelianGroup) and p.ngens == 1:
                self._factor_spaces.append(LineSpace())
            else:
                raise WrongKindError("factors must be free or infinite cyclic")

    # domain labels

    def vertex_label(self, v):
        i, rep = v
        return f"{self._factor_names[i]}@{self.group.format(rep)}"

    def parse_domain(self, u):
        """Tree vertex a coset label names (None for the top domain),
        decoded once per label; IndexMismatchError on every call with a
        label that names no domain."""
        try:
            return self._decoded[u]
        except KeyError:
            pass
        except TypeError:
            raise IndexMismatchError(f"{u!r} is not a domain of {self.label}") from None
        v = self._decode_domain(u)
        self._decoded[u] = v
        return v

    def _decode_domain(self, u):
        if u == self.TOP:
            return None
        if not isinstance(u, str) or "@" not in u:
            raise IndexMismatchError(f"{u!r} is not a domain of {self.label}")
        name, rep_str = u.split("@", 1)
        if name not in self._factor_names:
            raise IndexMismatchError(f"unknown factor {name!r} in domain {u!r}")
        i = self._factor_names.index(name)
        try:
            rep = self.group.parse(rep_str)
        except InputError:
            raise IndexMismatchError(f"{u!r} names no coset of {self.label}") from None
        v = self.tree.vertex(i, rep)
        if v[1] != rep:
            raise IndexMismatchError(f"{u!r} does not name a coset canonically")
        return v

    def domains(self):
        out = [self.TOP]
        out.extend(self.vertex_label(v) for v in self.tree.sample_points(self.generation_radius))
        return out

    # geometry

    def space(self, u):
        v = self.parse_domain(u)
        if v is None:
            return self.tree
        return self._factor_spaces[v[0]]

    def _local_point(self, i, local):
        part = self.group.parts[i]
        if isinstance(part, FreeAbelianGroup):
            return part.exponents(local)[0]
        return local

    def _local_word(self, i, p):
        part = self.group.parts[i]
        if isinstance(part, FreeAbelianGroup):
            return part.from_exponents([p])
        return p

    def pi(self, u, g):
        v = self.parse_domain(u)
        if v is None:
            return self.tree.vertex(0, g)
        i, rep = v
        syls = self.group.syllables(invert_word(rep) + tuple(g))
        if syls and syls[0][0] == i:
            return self._local_point(i, syls[0][1])
        return self._local_point(i, ())

    def relation(self, u, v):
        pu = self.parse_domain(u)
        pv = self.parse_domain(v)
        if pu == pv:
            return EQUAL
        if pu is None:
            return CONTAINS
        if pv is None:
            return NEST_IN
        return TRANSVERSE

    def rho_point(self, v, w):
        pv = self.parse_domain(v)
        pw = self.parse_domain(w)
        if pv is None or pv == pw:
            raise PreconditionError(f"no point projection from {v} to {w}")
        if pw is None:
            return pv
        return self.pi(w, pv[1])

    def rho_map_point(self, w, v, p):
        if self.parse_domain(w) is not None:
            raise PreconditionError(f"no downward projection from {w} to {v}")
        self.tree.check_point(p)
        return self.pi(v, p[1])

    def act_on_domain(self, g, u):
        v = self.parse_domain(u)
        if v is None:
            return u
        return self.vertex_label(self.tree.translate(g, v))

    def act_in_space(self, u, g, p):
        v = self.parse_domain(u)
        if v is None:
            return self.tree.translate(g, p)
        if self.act_on_domain(g, u) != u:
            raise PreconditionError(f"element does not preserve domain {u}")
        i, rep = v
        conj = self.group.conjugate(self.group.inverse(rep), g)
        local = self.group.to_local(i, conj)
        part = self.group.parts[i]
        if isinstance(part, FreeAbelianGroup):
            return p + part.exponents(local)[0]
        return part.multiply(local, p)

    def lift(self, u, p):
        v = self.parse_domain(u)
        if v is None:
            # a tree vertex is a coset; its representative projects onto it
            return p[1]
        i, rep = v
        return self.group.multiply(rep, self.group.to_global(i, self._local_word(i, p)))

    def domains_between(self, x, y):
        out = [self.TOP]
        seen = set()
        h = x
        for fi, local in self.group.syllables(invert_word(x) + tuple(y)):
            lab = self.vertex_label(self.tree.vertex(fi, h))
            if lab not in seen:
                seen.add(lab)
                out.append(lab)
            h = self.group.multiply(h, self.group.to_global(fi, local))
        return out

    def to_json(self):
        return {
            "builder": "free_product",
            "label": self.label,
            "group": self.group.to_json(),
            "generation_radius": self.generation_radius,
            "constants": self.constants.to_json(),
        }
