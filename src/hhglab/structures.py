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

import sys
from collections import namedtuple

from .balls import standard_ball
from .errors import IndexMismatchError, InputError, PreconditionError, WrongKindError
from .groups import FreeGroup, FreeProduct, GroupModel, is_int, json_field
from .spaces import CayleyTreeSpace, CosetTreeSpace, LineSpace, Space

EQUAL = "="
NEST_IN = "<"
CONTAINS = ">"
ORTHOGONAL = "perp"
TRANSVERSE = "trans"

_FLIP = {EQUAL: EQUAL, NEST_IN: CONTAINS, CONTAINS: NEST_IN, ORTHOGONAL: ORTHOGONAL, TRANSVERSE: TRANSVERSE}


class ConstantLedger(namedtuple(
        "ConstantLedger",
        "delta xi kappa0 E lam alpha K_proj n_complexity theta_coeffs C_norm tau0 N_rank",
        defaults=(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1, (0.0, 1.0), 0.0, 1.0, 1))):
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

    __slots__ = ()

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
        return {**self._asdict(), "theta_coeffs": list(self.theta_coeffs)}

    @classmethod
    def from_json(cls, data):
        """Ledger from its json form: known names, numeric values within
        float range (nonnegative integers for n_complexity and N_rank) and a
        positive tau0, else InputError."""
        if not isinstance(data, dict):
            raise InputError("constants json must be an object")
        allowed = set(cls._fields)
        bad = set(data) - allowed
        if bad:
            raise InputError(f"unknown constant names: {sorted(bad)}")
        is_number = lambda x: ((is_int(x) or isinstance(x, float))
                               and abs(x) <= sys.float_info.max)
        for name in data:
            if name == "theta_coeffs":
                check = lambda v: isinstance(v, (list, tuple)) and all(map(is_number, v))
                expected = "a list of numbers"
            elif name in ("n_complexity", "N_rank"):
                check = lambda v: is_int(v) and 0 <= v <= sys.float_info.max
                expected = "a nonnegative integer"
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
    source_sha256 = None  # of the json file load_structure read it from

    def domains(self) -> list:
        """Labels of the materialized domains, deterministic order."""
        raise NotImplementedError

    def _domain(self, u) -> "Domain":
        """The record of the domain u; IndexMismatchError when u names no
        domain."""
        raise NotImplementedError

    def space(self, u) -> Space:
        return self._domain(u).space

    def pi(self, u, g):
        """Projection of the group element g, a normal form, to the domain
        space of u, by the domain's own map; nothing is kept."""
        return self._domain(u).pi(g)

    def projection_column(self, u, radius):
        """The projections to u of standard_ball(group, radius), grouped by
        point: {point: ascending ball indices of the elements projecting to
        it}, one key per distinct point.

        Built once per domain and radius and kept on the structure; it
        serves realize's ball search and the certifier's ping-pong sample."""
        column = self._columns.get((u, radius))
        if column is None:
            project = self._domain(u).pi
            column = self._columns[(u, radius)] = {}
            for i, g in enumerate(standard_ball(self.group, radius)):
                column.setdefault(project(g), []).append(i)
        return column

    def relation(self, u, v) -> str:
        raise NotImplementedError

    def rho_point(self, v, w):
        """Relative projection of v into the space of w; defined when
        v < w or v trans w."""
        raise NotImplementedError

    def rho_map_point(self, w, v, p):
        """Downward relative projection: image in the space of v of a point
        p of the space of w, defined when v < w.  It is pi_v of a lift of p,
        the map the consistency axiom ties to the projections."""
        if self.relation(v, w) != NEST_IN:
            raise PreconditionError(f"no downward projection from {w} to {v}")
        return self.pi(v, self.lift(w, p))

    def act_on_domain(self, g, u):
        """The domain g u."""
        raise NotImplementedError

    def lift(self, u, p):
        """A group element projecting to p in the space of u."""
        return self._domain(u).lift(p)

    def domains_between(self, x, y) -> list:
        """Domains that can separate the group elements x and y, both normal
        forms; the default is every materialized domain.  big_set relies on
        the contract that every domain of Big(g) is in
        domains_between(IDENTITY, g)."""
        return self.domains()

    def word_metric(self, x, y) -> int:
        return self.group.distance(x, y)

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


class Domain(namedtuple("Domain", "label space pi lift")):
    """One domain of a structure: its space, projection and lift.

    Every structure keeps one record per domain label, built once, and
    HHStructure reads space, pi and lift off it.  No action on the space is
    declared: every structure here is equivariant, so an element h fixing
    the domain moves pi(g) to pi(hg), and translation lengths are read off
    the projections.

    pi(g): projection of the group element g to the space.
    lift(p): a group element projecting to the point p; every domain
        declares one.  At the top domain of a free product, lift lands on
        p or on a neighbour of p: it returns the coset representative,
        which projects onto a coset of the first factor only.  Every pi
        image there is such a coset, so lift is a section of pi on them.
    """

    __slots__ = ()


class TableHHG(HHStructure):
    """Structure given by an explicit finite table of domains and relations.

    rho_points maps a pair (v, w), v nested in or transverse to w, to the
    point rho_point returns; every pair it leaves out gets the basepoint of
    the space of w."""

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
        domain_action=None,
        recipe=None,
    ):
        self.label = label
        self.group = group
        self.constants = constants
        self._columns = {}  # (u, radius) -> projection_column
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

    def domains(self):
        return list(self._order)

    def _domain(self, u):
        try:
            return self._domains[u]
        except (KeyError, TypeError):
            raise IndexMismatchError(f"{u!r} is not a domain of {self.label}") from None

    def relation(self, u, v):
        self._domain(u)
        self._domain(v)
        return self._rel[(u, v)]

    def rho_point(self, v, w):
        if self.relation(v, w) not in (NEST_IN, TRANSVERSE):
            raise PreconditionError(f"no point projection from {v} to {w}")
        return self._rho_points.get((v, w), self.space(w).basepoint())

    def act_on_domain(self, g, u):
        self._domain(u)
        if self._domain_action is None:
            return u
        return self._domain_action(g, u)

    def to_json(self):
        return dict(self._recipe)


class FreeProductHHG(HHStructure):
    """Structure of a two-factor free product.

    The top domain S carries the tree of factor cosets; every coset g F_i
    is a domain nested in S, distinct cosets are transverse.  Coset
    domains are created on demand, so the index set is unbounded;
    domains() lists those within generation_radius of the identity,
    materialized once, at construction.  As in every structure, each
    domain is a Domain record; a coset's record is built once, when its
    label is first decoded, from its factor's space.
    """

    TOP = "S"
    # generation_radius unless the structure file sets one
    GENERATION_RADIUS = 2

    def __init__(self, label, group, constants, generation_radius):
        if not isinstance(group, FreeProduct) or len(group.parts) != 2:
            raise WrongKindError("need a two-factor free product model")
        self.label = label
        self.group = group
        self.constants = constants
        self._columns = {}  # (u, radius) -> projection_column
        self.generation_radius = generation_radius
        self.tree = CosetTreeSpace(group)
        # domain label -> (tree vertex, Domain), successful decodes only.
        # The top domain has no vertex; it lifts a tree vertex, a coset, to
        # the coset's representative, which projects onto it (onto a
        # neighbour for a coset of the second factor).  No record refers
        # back to the structure: a cycle would keep it and its columns alive
        # until a full garbage collection.
        tree = self.tree
        self._decoded = {self.TOP: (None, Domain(self.TOP, tree,
                                                  lambda g: tree.vertex(0, g),
                                                  lambda p: p[1]))}
        self._factor_names = ["".join(p.labels) for p in group.parts]
        self._factors = [self._factor(i) for i in range(2)]
        # tree vertex -> its label, spelled once, here or in domains_between
        self._vertex_labels = {v: self.vertex_label(v)
                               for v in self.tree.sample_points(generation_radius)}
        self._labels = [self.TOP, *self._vertex_labels.values()]

    def _factor(self, i):
        """(space, point of a syllable, local word of a point) of factor i:
        a free factor is its Cayley tree, an infinite cyclic one a line.
        The point reads the syllable in the product's letters: at offset 0
        a free factor's letters are the product's, a line's point is the
        signed syllable length (inverse letters are odd at every offset),
        and only a free factor at a nonzero offset relabels its letters."""
        group = self.group
        part = group.parts[i]
        if not isinstance(part, FreeGroup):
            return (LineSpace(), lambda s: -len(s) if s and s[0] & 1 else len(s),
                    lambda n: part.from_exponents([n]))
        if group._offsets[i]:
            return CayleyTreeSpace(part), lambda s: group.to_local(i, s), lambda p: p
        return CayleyTreeSpace(part), lambda s: s, lambda p: p

    # domain labels

    def vertex_label(self, v):
        i, rep = v
        return f"{self._factor_names[i]}@{self.group.format(rep)}"

    def _domain(self, u):
        return self._entry(u)[1]

    def _entry(self, u):
        """(tree vertex, Domain) of the label u, decoded once per label; the
        vertex is None for the top domain.  IndexMismatchError on every
        call with a label that names no domain."""
        try:
            return self._decoded[u]
        except KeyError:
            pass
        except TypeError:
            raise IndexMismatchError(f"{u!r} is not a domain of {self.label}") from None
        entry = self._decoded[u] = self._decode_domain(u)
        return entry

    def _decode_domain(self, u):
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
        if self.vertex_label(v) != u:
            raise IndexMismatchError(f"{u!r} does not name a coset canonically")
        return v, self._coset_domain(u, v)

    def _coset_domain(self, u, v):
        """Record of the coset rep F_i at the tree vertex v = (i, rep): pi
        reads the leading factor-i syllable of the normal form rep^-1 g,
        in the product's letters, off g itself, and a point lifts to rep
        times its local word.

        Every factor is free or infinite cyclic, so a normal form is a
        freely reduced word on all letters, and rep^-1 g is the free
        reduction of the two words.  Unless g starts with rep, that
        reduction stops inside rep and rep^-1 g starts with the inverse of
        rep's last letter; rep never ends in a letter of factor i, so the
        syllable is empty, and pi returns the factor's base point, computed
        once.  When g starts with rep, rep^-1 g is the rest of g."""
        i, rep = v
        group = self.group
        space, point, word = self._factors[i]
        part_of = group._part_of
        start = len(rep)
        base = point(())

        def pi(g):
            if g[:start] != rep:
                return base
            end = start
            while end < len(g) and part_of[g[end]] == i:
                end += 1
            return point(g[start:end])

        return Domain(u, space, pi,
                      lambda p: group.multiply(rep, group.to_global(i, word(p))))

    def domains(self):
        return list(self._labels)

    # geometry

    def relation(self, u, v):
        """Read off the tree vertices: one dict lookup per decoded label;
        _entry decodes a new label or raises IndexMismatchError."""
        try:
            pu, pv = self._decoded[u][0], self._decoded[v][0]
        except (KeyError, TypeError):
            pu, pv = self._entry(u)[0], self._entry(v)[0]
        if pu == pv:
            return EQUAL
        if pu is None:
            return CONTAINS
        if pv is None:
            return NEST_IN
        return TRANSVERSE

    def rho_point(self, v, w):
        try:
            pv, pw = self._decoded[v][0], self._decoded[w][0]
        except (KeyError, TypeError):
            pv, pw = self._entry(v)[0], self._entry(w)[0]
        if pv is None or pv == pw:
            raise PreconditionError(f"no point projection from {v} to {w}")
        if pw is None:
            return pv
        return self.pi(w, pv[1])

    def act_on_domain(self, g, u):
        v = self._entry(u)[0]
        if v is None:
            return u
        return self.vertex_label(self.tree.translate(g, v))

    def domains_between(self, x, y):
        labels = self._vertex_labels
        return [self.TOP] + [labels.get(v) or labels.setdefault(v, self.vertex_label(v))
                             for v in self.tree.cosets(x, y)]

    def to_json(self):
        return {
            "builder": "free_product",
            "label": self.label,
            "group": self.group.to_json(),
            "generation_radius": self.generation_radius,
            "constants": self.constants.to_json(),
        }
