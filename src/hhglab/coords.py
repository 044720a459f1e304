"""Coordinates: consistent tuples, realization, and the distance formula.

A group element is recorded by its projections to every domain space.
The operations here run the other direction: test whether an abstract
tuple satisfies the consistency inequalities, search a Cayley ball for
elements realizing it, compare the word metric against the thresholded
sum of domain distances, and read coarse product geometry (orthogonal
blocks, quasi-lines) off the structure.

The realization search does not score every ball element.  It reads the
projection column of one lead domain (the ball's distinct points there,
and the elements at each, built once per structure and radius) and
visits the lead's points nearest the target first, stopping once the
lead distance alone exceeds the best score found.  The target's own
point comes first, looked up rather than measured: a tuple that one of
its elements fits exactly ends the search there, before the rest of the
column is measured or sorted.
"""

import math
from collections import namedtuple
from operator import itemgetter

from .balls import standard_ball
from .errors import InputError, PreconditionError
from .spaces import LineSpace, distance_table, sample_diameter
from .structures import CONTAINS, NEST_IN, ORTHOGONAL, TRANSVERSE


class ConsistentTuple(namedtuple("ConsistentTuple", "entries kappa")):
    """Coordinates: one point per domain, plus the slack they claim."""

    __slots__ = ()


ConsistencyReport = namedtuple("ConsistencyReport",
                               "ok kappa worst_margin condition pair checks")


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
    found = []  # (margin, condition, pair) per check, in check order

    for u in doms:
        b = tup.entries[u]
        space = structure.space(u)
        if not space.contains(b):
            raise InputError(f"entry for {u} is not a point of its space")
        val = space.dist(b, structure.pi(u, structure.lift(u, b)))
        found.append((kappa - val, "projection-image", (u,)))

    for i, u in enumerate(doms):
        for v in doms[i + 1:]:
            rel = structure.relation(u, v)
            if rel == TRANSVERSE:
                distances = consistency_inequality(structure, TRANSVERSE, u, v)
                found.append((kappa - min(distances(tup.entries[u], tup.entries[v])),
                              "transverse", (u, v)))
            elif rel in (NEST_IN, CONTAINS):
                lo, hi = (u, v) if rel == NEST_IN else (v, u)
                distances = consistency_inequality(structure, NEST_IN, lo, hi)
                found.append((kappa - min(distances(tup.entries[lo], tup.entries[hi])),
                              "nested", (lo, hi)))

    # the first least margin is the worst
    margin, condition, pair = min(found, key=lambda c: c[0],
                                  default=(math.inf, "vacuous", ()))
    return ConsistencyReport(margin >= 0, kappa, margin, condition, pair, len(found))


class RealizationResult(namedtuple("RealizationResult",
                                   "elements theta_e diameter search_radius")):
    """Ball elements closest to a coordinate tuple.

    theta_e is the smallest slack putting an element within reach of every
    entry; diameter is the word-metric spread of the achievers.
    """

    __slots__ = ()

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


def closest_elements(structure, targets, radius):
    """(theta_e, closest) over the standard ball of the radius: theta_e is
    the least, over the ball elements g, of the largest distance from a
    target point p of a domain u to pi_u(g), for (u, p) in targets;
    closest lists the elements achieving it, in ball order.

    The search reads the projection column of one lead target, the first
    unbounded one in the structure's domain order.  It takes the lead's
    points by increasing distance from the lead's target point and scores
    the elements at each, dropping an element at its first distance above
    the least score so far.  It stops at the first point farther than
    that score, where no element can reach it.  The target point itself,
    when the column holds it, is the only point at distance 0 (the premise
    of Space), so it comes first without measuring the others, and a
    least score of 0 there ends the search: the rest of the column is
    measured and sorted only when it does not.  A score is the first
    largest of its distances in target order and theta_e the score of the
    first closest element, so theta_e has the value and the int/float type
    that max and min over all scores in ball order would give.
    """
    # unbounded before bounded, then in domain order; a label domains()
    # does not list comes last
    rank = {u: i for i, u in enumerate(structure.domains())}
    lead = min(range(len(targets)), key=lambda j: (
        structure.is_bounded_domain(targets[j][0]), rank.get(targets[j][0], len(rank))))
    lead_u, lead_p = targets[lead]
    lead_dist = structure.space(lead_u).dist
    column = structure.projection_column(lead_u, radius)
    own = column.get(lead_p)

    def near():
        # the lead's own point first: every other point of the column lies
        # at a positive distance from it (the premise of Space)
        if own is not None:
            yield lead_dist(lead_p, lead_p), own
        yield from sorted(((lead_dist(lead_p, q), at) for q, at in column.items()
                           if at is not own), key=itemgetter(0))

    ball = standard_ball(structure.group, radius)
    pi = structure.pi
    # the lead's distance comes from the column: its dist is None here
    targets = [(u, p, None if j == lead else structure.space(u).dist)
               for j, (u, p) in enumerate(targets)]
    best = None  # the least score so far
    found = []  # (ball index, score) of the elements scoring best
    for d_lead, at in near():
        if best is not None and d_lead > best:
            break
        for i in at:
            g = ball[i]
            score = None
            for u, p, dist in targets:
                d = d_lead if dist is None else dist(p, pi(u, g))
                if score is None or d > score:
                    if best is not None and d > best:
                        break
                    score = d
            else:
                if best is None or score < best:
                    best, found = score, [(i, score)]
                elif score == best:
                    found.append((i, score))
        if best == 0:
            break  # only the own point is at distance 0: no other can tie
    found.sort()
    return found[0][1], [ball[i] for i, _ in found]


def realize(structure, tup, search_radius):
    """All ball elements whose projections sit within theta_e of the tuple."""
    if not tup.entries:
        raise InputError("a tuple with no entries has nothing to realize")
    report = is_consistent(structure, tup)
    if not report.ok:
        raise PreconditionError(
            f"tuple is not {tup.kappa}-consistent: {report.condition} "
            f"violated on {report.pair} by {-report.worst_margin}"
        )
    theta_e, elements = closest_elements(
        structure, sorted(tup.entries.items()), search_radius)
    diameter = sample_diameter(structure.word_metric, elements, 0)
    return RealizationResult(elements, theta_e, diameter, search_radius)


class ThresholdedSum(namedtuple("ThresholdedSum", "s contributions total")):
    """Per-domain distances above the threshold, and their total."""

    __slots__ = ()


def distance_formula_sum(structure, x, y, s):
    """Sum of domain distances, counting a term iff it exceeds s."""
    if not 0 <= s < math.inf:
        raise InputError("threshold must be finite and nonnegative")
    contributions = {}
    for u in structure.domains_between(x, y):
        d = structure.dsub(u, x, y)
        if d > s:
            contributions[u] = d
    return ThresholdedSum(s, contributions, float(sum(contributions.values())))


class FitResult(namedtuple("FitResult", "ok K C s n_samples binding failure")):
    __slots__ = ()

    def to_json(self):
        return self._asdict()


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


class Decomposition(namedtuple("Decomposition", "blocks descriptors degenerate")):
    """Partition of the unbounded domains into mutually orthogonal blocks."""

    __slots__ = ()

    def to_json(self):
        return self._asdict()


def _block_kind(structure, block):
    """Every unbounded space here is a line, a Cayley tree or a coset tree."""
    if len(block) != 1:
        return "mixed"
    return "line" if isinstance(structure.space(block[0]), LineSpace) else "tree"


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
