"""Coordinates: consistent tuples, realization, and the distance formula.

A group element is recorded by its projections to every domain space.
The operations here run the other direction: test whether an abstract
tuple satisfies the consistency inequalities, search a Cayley ball for
elements realizing it, compare the word metric against the th
thresholded sum of domain distances, and read coarse product geometry
(orthogonal blocks, quasi-lines) off the structure.
"""

import math
from dataclasses import asdict, dataclass

from .balls import standard_ball
from .errors import InputError, PreconditionError
from .spaces import (CayleyTreeSpace, CosetTreeSpace, LineSpace, distance_table,
                     sample_diameter)
from .structures import CONTAINS, NEST_IN, ORTHOGONAL, TRANSVERSE


@dataclass
class ConsistentTuple:
    """Coordinates: one point per domain, plus the slack they claim."""

    entries: dict
    kappa: float


@dataclass
class ConsistencyReport:
    ok: bool
    kappa: float
    worst_margin: float
    condition: str
    pair: tuple
    checks: int


def project_tuple(structure, g):
    """Tuple of projections of g; consistent with kappa1 by the axioms."""
    g = structure.group.normal_form(g)
    entries = {u: structure.pi(u, g) for u in structure.domains()}
    return ConsistentTuple(entries, structure.constants.kappa1)


def consistency_inequality(structure, relation, u, v):
    """The two distances of the consistency inequality of a pair, as a
    function of a point p_u of the space of u and a point p_v of that of v.

    For u transverse to v it returns (d_u(p_u, rho_u^v), d_v(p_v, rho_v^u));
    for u nested in v, (d_v(p_v, rho_v^u), d_u(p_u, rho_u^v(p_v))).  The
    inequality bounds the smaller of the two by kappa.  The relative
    projection points are computed once, here, for all the points tested.
    """
    space_u, space_v = structure.space(u), structure.space(v)
    if relation == TRANSVERSE:
        rho_vu = structure.rho_point(v, u)
        rho_uv = structure.rho_point(u, v)
        return lambda p_u, p_v: (space_u.dist(p_u, rho_vu), space_v.dist(p_v, rho_uv))
    if relation != NEST_IN:
        raise PreconditionError(f"{u} and {v} are neither transverse nor nested")
    rho_uv = structure.rho_point(u, v)
    return lambda p_u, p_v: (space_v.dist(p_v, rho_uv),
                             space_u.dist(p_u, structure.rho_map_point(v, u, p_v)))


def is_consistent(structure, tup):
    """Check the three consistency conditions at the tuple's kappa,
    reporting the worst margin.

    Condition 1 compares each entry against the projection of its
    domain's declared lift, which every domain has.  Condition 2 is the
    transverse min-inequality, condition 3 the nested one.  The index set
    checked is the tuple's own domains.
    """
    kappa = tup.kappa
    doms = list(tup.entries)

    worst = (math.inf, "vacuous", ())
    checks = 0

    def consider(margin, condition, pair):
        nonlocal worst
        if margin < worst[0]:
            worst = (margin, condition, pair)

    for u in doms:
        b = tup.entries[u]
        space = structure.space(u)
        if not space.contains(b):
            raise InputError(f"entry for {u} is not a point of its space")
        val = space.dist(b, structure.pi(u, structure.lift(u, b)))
        checks += 1
        consider(kappa - val, "projection-image", (u,))

    for i, u in enumerate(doms):
        for v in doms[i + 1:]:
            rel = structure.relation(u, v)
            if rel == TRANSVERSE:
                distances = consistency_inequality(structure, TRANSVERSE, u, v)
                checks += 1
                consider(kappa - min(distances(tup.entries[u], tup.entries[v])),
                         "transverse", (u, v))
            elif rel in (NEST_IN, CONTAINS):
                lo, hi = (u, v) if rel == NEST_IN else (v, u)
                distances = consistency_inequality(structure, NEST_IN, lo, hi)
                checks += 1
                consider(kappa - min(distances(tup.entries[lo], tup.entries[hi])),
                         "nested", (lo, hi))

    margin, condition, pair = worst
    return ConsistencyReport(margin >= 0, kappa, margin, condition, pair, checks)


@dataclass
class RealizationResult:
    """Ball elements closest to a coordinate tuple.

    theta_e is the smallest slack putting an element within reach of every
    entry; diameter is the word-metric spread of the achievers.
    """

    elements: list
    theta_e: float
    diameter: int
    search_radius: int

    def to_json(self, model):
        return {
            "elements": [model.format(g) for g in self.elements],
            "theta_e": self.theta_e,
            "diameter": self.diameter,
            "search_radius": self.search_radius,
            # no search sets a slack to run out of; the key stays because
            # the benchmark's realize digest covers it
            "exhausted": False,
        }


def closest_elements(structure, candidates, targets):
    """(theta_e, closest): theta_e is the least, over the candidates g, of
    the largest distance from a target point p of a domain u to pi_u(g),
    for (u, p) in targets; closest lists the candidates achieving it, in
    candidate order."""
    spaces = {u: structure.space(u) for u, _ in targets}
    scores = [(max(spaces[u].dist(p, structure.pi(u, g)) for u, p in targets), g)
              for g in candidates]
    theta_e = min(s for s, _ in scores)
    return theta_e, [g for s, g in scores if s == theta_e]


def realize(structure, tup, search_radius):
    """All ball elements whose projections sit within theta_e of the tuple."""
    report = is_consistent(structure, tup)
    if not report.ok:
        raise PreconditionError(
            f"tuple is not {tup.kappa}-consistent: {report.condition} "
            f"violated on {report.pair} by {-report.worst_margin}"
        )
    theta_e, elements = closest_elements(
        structure, standard_ball(structure.group, search_radius),
        sorted(tup.entries.items()))
    diameter = sample_diameter(structure.word_metric, elements, 0)
    return RealizationResult(elements, theta_e, diameter, search_radius)


@dataclass
class ThresholdedSum:
    """Per-domain distances above the threshold, and their total."""

    s: float
    contributions: dict
    total: float


def distance_formula_sum(structure, x, y, s):
    """Sum of domain distances, counting a term iff it exceeds s."""
    if s < 0:
        raise InputError("threshold must be nonnegative")
    contributions = {}
    for u in structure.domains_between(x, y):
        d = structure.dsub(u, x, y)
        if d > s:
            contributions[u] = d
    return ThresholdedSum(s, contributions, float(sum(contributions.values())))


@dataclass
class FitResult:
    ok: bool
    K: float
    C: float
    s: float
    n_samples: int
    binding: dict
    failure: dict

    def to_json(self):
        return asdict(self)


FIT_STEP = 0.5  # grid step of both K and C
K_MAX = 16.0  # largest multiplicative constant tried


def fit_distance_formula(structure, sample_pairs, s):
    """Least (K, C), lexicographically, with d/K - C <= sum <= K*d + C.

    The additive grid is capped at max(8, 2*s*m) where m is the largest
    number of contributing domains seen, so a threshold that suppresses
    terms is absorbed by C and never inflates K.  Reports the binding
    sample; if even (K_MAX, c_max) fails, returns a fit-failure record.
    """
    nf = structure.group.normal_form
    pairs = [(nf(x), nf(y)) for x, y in sample_pairs]
    if len(pairs) < 2:
        raise PreconditionError("need at least two sample pairs")
    rows = []
    max_terms = 1
    for x, y in pairs:
        d = structure.word_metric(x, y)
        ts = distance_formula_sum(structure, x, y, s)
        rows.append((x, y, d, ts.total))
        max_terms = max(max_terms, len(ts.contributions))
    c_max = max(8.0, 2.0 * s * max_terms)

    k = 1.0
    while k <= K_MAX + 1e-9:
        need = 0.0
        for _, _, d, total in rows:
            need = max(need, total - k * d, d / k - total)
        c = math.ceil(need / FIT_STEP - 1e-9) * FIT_STEP
        if c <= c_max + 1e-9:
            binding = None
            for x, y, d, total in rows:
                slack = min(k * d + c - total, total - (d / k - c))
                if binding is None or slack < binding["slack"]:
                    binding = {
                        "x": structure.group.format(x),
                        "y": structure.group.format(y),
                        "d": d,
                        "total": total,
                        "slack": round(slack, 9),
                    }
            return FitResult(True, k, c, s, len(rows), binding, None)
        k += FIT_STEP

    worst = None
    for x, y, d, total in rows:
        need = max(total - K_MAX * d, d / K_MAX - total)
        if worst is None or need > worst["needed_c"]:
            worst = {
                "x": structure.group.format(x),
                "y": structure.group.format(y),
                "d": d,
                "total": total,
                "needed_c": round(need, 9),
            }
    failure = {"k_max": K_MAX, "c_max": c_max, "worst": worst}
    return FitResult(False, None, None, s, len(rows), None, failure)


@dataclass
class Decomposition:
    """Partition of the unbounded domains into mutually orthogonal blocks."""

    blocks: list
    descriptors: list
    degenerate: bool

    def to_json(self):
        return asdict(self)


def _block_kind(structure, block):
    if len(block) != 1:
        return "mixed"
    space = structure.space(block[0])
    if isinstance(space, LineSpace):
        return "line"
    if isinstance(space, (CayleyTreeSpace, CosetTreeSpace)):
        return "tree"
    return "space"


def product_decomposition(structure):
    """Connected components of non-orthogonality on unbounded domains."""
    unbounded = sorted(u for u in structure.domains() if not structure.is_bounded_domain(u))
    if not unbounded:
        return Decomposition([], [], True)
    remaining = list(unbounded)
    blocks = []
    while remaining:
        seed = remaining.pop(0)
        block = [seed]
        frontier = [seed]
        while frontier:
            u = frontier.pop()
            linked = [v for v in remaining if structure.relation(u, v) != ORTHOGONAL]
            for v in linked:
                remaining.remove(v)
                block.append(v)
                frontier.append(v)
        blocks.append(sorted(block))
    blocks.sort()
    descriptors = [
        {
            "domains": block,
            "spaces": [structure.space(u).label for u in block],
            "kind": _block_kind(structure, block),
        }
        for block in blocks
    ]
    return Decomposition(blocks, descriptors, False)


def quasi_line_detect(space, radius, q_max=4):
    """Smallest Q at which the sample (at most 600 points of the ball of
    the given radius) hugs one geodesic and has two ends.

    The axis comes from two farthest-point sweeps (exact on trees, a
    standard approximation elsewhere).  Ends at scale Q are components of
    the sample minus the Q-ball around the basepoint that reach the outer
    sphere.  Returns None when no Q <= q_max works, as on a tree with 3 or
    more directions.
    """
    if radius < 2:
        raise InputError("radius must be at least 2")
    pts = space.sample_points(radius)[:600]
    table = distance_table(space.dist, pts)
    base = space.basepoint()
    far1 = max(range(len(pts)), key=lambda i: space.dist(base, pts[i]))
    far2 = max(range(len(pts)), key=lambda j: table[far1][j])
    axis = list(space.geodesic(pts[far1], pts[far2]))
    off_axis = {i: min(space.dist(p, a) for a in axis) for i, p in enumerate(pts)}
    d_base = {i: space.dist(base, p) for i, p in enumerate(pts)}
    neighbors = {i: [j for j, d in enumerate(row) if d == 1]
                 for i, row in enumerate(table)}

    for q in range(q_max + 1):
        if any(off_axis[i] > q for i in off_axis):
            continue
        far = {i for i in d_base if d_base[i] > q}
        ends = 0
        seen = set()
        for i in sorted(far):
            if i in seen:
                continue
            stack = [i]
            seen.add(i)
            touches_sphere = False
            while stack:
                j = stack.pop()
                if d_base[j] == radius:
                    touches_sphere = True
                for nb in neighbors[j]:
                    if nb in far and nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            if touches_sphere:
                ends += 1
        if ends == 2:
            return q
    return None
