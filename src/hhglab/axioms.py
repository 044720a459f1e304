"""Axiom checker: tests a structure's declared constants on samples.

Each axiom check reports pass/fail, the worst margin observed (bound
minus observed value, so negative means a violation), the number of
individual checks run, and a witness for the worst case.  Sampling is
deterministic for a fixed seed.  A pass is evidence on the sample
window, never a proof; a fail is a concrete counterexample.

One run draws its samples once, in ``_Env``, and the nine checks share
them: the ball elements; the sampled pairs, each with its word distance
``(x, y, d_G(x, y))`` and the ball indices of x and y; and one point
sample per space object, shared by the domains on it (``points`` hands
out a fresh list of it).  The projection table holds, for each domain u
the run meets, pi_u of every paired element by ball index, projected in
one pass by u's own map.  A pair's row of distances ``{u: d_u(x, y)}``,
read off the table, and its ``domains_between`` are each measured at
most once per run: check 1 fills the rows, check 6 reads its distances,
path domains and pi_w(x) there, and check 9 the distance formula's
largest term.  Nesting is a relation between labels, not points, so
``above(v)``, the sampled domains that v nests in, is asked once per
label; checks 4, 6 and 7 read their nested pairs off it.  Check 6 plans
each distinct domains_between list once: the domains w that its domains
nest in, in domains order, each with those candidates and their
rho_point(v, w), asked once per (v, w).  Check 4 projects each domain it
meets over its own 40 sampled elements once.  Check 8 lists the domains
related to a family once per family.

Checks 1, 4 and 6-9 keep that worst case in one record, ``_Worst``: the
smallest margin, the first witness that reached it and the check count.
Checks 1 and 4 show it only a pair's first smallest margin, counting the
rest: no other can be a new worst.  A check that runs nothing passes with
its vacuous margin: inf (1), kappa0 (4), lam (6), E (7), alpha (8) and
0.0 (9).  Checks 2 and 3 stop at the first failure and check 5 computes
its margin directly.
"""

import math
import random
from collections import namedtuple

from .balls import standard_ball_prefix
from .classify import tau_on_domain
from .coords import consistency_inequality, quasi_line_detect
from .errors import InputError
from .spaces import max_four_point_defect, sample_diameter
from .structures import _FLIP, EQUAL, NEST_IN, ORTHOGONAL, TRANSVERSE

AXIOM_NAMES = {
    1: "projections",
    2: "nesting",
    3: "orthogonality",
    4: "consistency",
    5: "finite complexity",
    6: "large links",
    7: "bounded geodesic image",
    8: "partial realization",
    9: "uniqueness",
}

# points per domain space, drawn from the ball of the check radius
POINTS_PER_DOMAIN = 25


class AxiomReport(namedtuple("AxiomReport", "index name passed margin checks witness")):
    __slots__ = ()

    def to_json(self):
        return {
            "index": self.index,
            "name": self.name,
            "passed": self.passed,
            "margin": self.margin,
            "checks": self.checks,
            "witness": {k: str(v) for k, v in self.witness.items()},
        }


class StructureReport(namedtuple("StructureReport", "label radius seed axioms")):
    __slots__ = ()

    @property
    def passed(self):
        return all(a.passed for a in self.axioms)

    def failed_axioms(self):
        return [a.index for a in self.axioms if not a.passed]

    def to_json(self):
        return {
            "structure": self.label,
            "radius": self.radius,
            "seed": self.seed,
            "passed": self.passed,
            "failed_axioms": self.failed_axioms(),
            "axioms": [a.to_json() for a in self.axioms],
        }


class _Env:
    """Shared sampling state for one checker run."""

    def __init__(self, st, radius, seed, max_pairs):
        self.st = st
        self.radius = radius
        self.rng = random.Random(seed)
        self.elements = standard_ball_prefix(st.group, radius, 600)
        n = len(self.elements)
        want = min(max_pairs, n * (n - 1) // 2)
        seen = set()
        self.pairs = []
        self.indices = []  # pair index -> (i, j), the ball indices of x and y
        guard = 0
        while len(self.pairs) < want and guard < 50 * want:
            guard += 1
            i = self.rng.randrange(n)
            j = self.rng.randrange(n)
            if i == j or (i, j) in seen:
                continue
            seen.add((i, j))
            x, y = self.elements[i], self.elements[j]
            self.pairs.append((x, y, st.word_metric(x, y)))
            self.indices.append((i, j))
        self.rows = [{} for _ in self.pairs]  # pair index -> {domain: d_u(x, y)}
        self._paired = {i: self.elements[i] for pair in self.indices for i in pair}
        self._table = {}  # domain -> (dist of its space, {ball index: pi_u(element)})
        self._between = {}  # pair index -> domains_between(x, y)
        self.domains = st.domains()
        self._above = {}  # label -> the sampled domains it nests in
        self._points = {}  # space -> its sample, a tuple
        self._defects = {}  # space -> four-point defect of its sample

    def column(self, u):
        """(dist of u's space, {ball index: pi_u(x)}) for each element x of a
        sampled pair, projected in one pass the first time u is met."""
        col = self._table.get(u)
        if col is None:
            domain = self.st._domain(u)
            col = self._table[u] = (domain.space.dist,
                                    dict(zip(self._paired, map(domain.pi, self._paired.values()))))
        return col

    def dsub(self, k, u):
        """d_u(x, y) of sampled pair k, measured at most once per run."""
        row = self.rows[k]
        d = row.get(u)
        if d is None:
            dist, points = self.column(u)
            i, j = self.indices[k]
            d = row[u] = dist(points[i], points[j])
        return d

    def between(self, k):
        """domains_between(x, y) of sampled pair k, asked once per run."""
        doms = self._between.get(k)
        if doms is None:
            x, y, _ = self.pairs[k]
            doms = self._between[k] = self.st.domains_between(x, y)
        return doms

    def above(self, v):
        """The sampled domains that v nests in, in domains order."""
        ups = self._above.get(v)
        if ups is None:
            ups = self._above[v] = [w for w in self.domains if self.st.relation(v, w) == NEST_IN]
        return ups

    def points(self, u):
        space = self.st.space(u)
        pts = self._points.get(space)
        if pts is None:
            pts = self._points[space] = tuple(
                space.sample_prefix(self.radius, POINTS_PER_DOMAIN))
        return list(pts)

    def four_point_defect(self, u):
        space = self.st.space(u)
        if space not in self._defects:
            self._defects[space] = max_four_point_defect(space, self.points(u))
        return self._defects[space]

    def show(self, w):
        return self.st.group.format(w)

    def sample(self, items, k):
        items = list(items)
        if len(items) <= k:
            return items
        return self.rng.sample(items, k)


def _report(index, passed, margin, checks, witness=None):
    return AxiomReport(index, AXIOM_NAMES[index], passed, margin, checks, witness or {})


class _Worst:
    """One check's smallest margin, the first witness for it, and its count."""

    def __init__(self):
        self.margin = math.inf
        self.witness = {}
        self.checks = 0

    def see(self, margin, witness):
        """Count one check; witness() builds the dict for a new worst."""
        self.checks += 1
        if margin < self.margin:
            self.margin = margin
            self.witness = witness()

    def report(self, index, vacuous=math.inf):
        m = vacuous if self.margin == math.inf else self.margin
        return _report(index, m >= 0, m, self.checks, self.witness)


def _check_projections(env):
    st = env.st
    K = st.constants.K_proj
    delta = st.constants.delta
    worst = _Worst()
    # coarse Lipschitz bound on every materialized domain, filling the rows;
    # only a pair's first smallest margin can be a new worst, so it alone is
    # seen and the other domains are counted
    for (x, y, dg), (i, j), row in zip(env.pairs, env.indices, env.rows):
        bound = K * dg + K
        sampled = env.sample(env.domains, 40)
        low = math.inf
        for u in sampled:
            dist, points = env.column(u)
            du = row[u] = dist(points[i], points[j])
            if bound - du < low:
                low, top_u, top = bound - du, u, du
        worst.checks += len(sampled) - 1
        worst.see(low, lambda: {"clause": "lipschitz", "domain": top_u, "x": env.show(x),
                                "y": env.show(y), "d_domain": top, "d_group": dg})
    # declared hyperbolicity of each domain space, four-point sense
    for u in env.sample(env.domains, 12):
        defect = env.four_point_defect(u)
        worst.see(delta - defect, lambda: {"clause": "hyperbolicity", "domain": u, "defect": defect})
    return worst.report(1)


def _check_nesting(env):
    st = env.st
    checks = 0
    # relation codes must flip consistently and nesting must be transitive
    doms = env.sample(env.domains, 25)
    for u in doms:
        for v in doms:
            checks += 1
            if st.relation(v, u) != _FLIP[st.relation(u, v)]:
                return _report(2, False, -1.0, checks, {"clause": "flip", "u": u, "v": v})
            if (st.relation(u, v) == EQUAL) != (u == v):
                return _report(2, False, -1.0, checks, {"clause": "equality", "u": u, "v": v})
    for u in doms:
        for v in doms:
            if st.relation(u, v) != NEST_IN:
                continue
            for w in doms:
                checks += 1
                if st.relation(v, w) == NEST_IN and st.relation(u, w) != NEST_IN:
                    return _report(2, False, -1.0, checks, {"clause": "transitivity", "u": u, "v": v, "w": w})
    if st.top_domain() is None:
        return _report(2, False, -1.0, checks, {"clause": "no unique maximal domain"})
    # relative projections exist and land in the right spaces
    for u in doms:
        for v in doms:
            code = st.relation(u, v)
            if code == NEST_IN:
                checks += 1
                p = st.rho_point(u, v)
                if not st.space(v).contains(p):
                    return _report(2, False, -1.0, checks, {"clause": "rho point off space", "u": u, "v": v})
                for q in env.sample(env.points(v), 6):
                    checks += 1
                    if not st.space(u).contains(st.rho_map_point(v, u, q)):
                        return _report(2, False, -1.0, checks, {"clause": "rho map off space", "u": u, "v": v})
    return _report(2, True, 0.0, checks)


def _check_orthogonality(env):
    st = env.st
    checks = 0
    doms = env.sample(env.domains, 25)
    for u in doms:
        checks += 1
        if st.relation(u, u) == ORTHOGONAL:
            return _report(3, False, -1.0, checks, {"clause": "self-orthogonal", "u": u})
    # closure: V nested in W orthogonal to U forces V orthogonal to U
    for v in doms:
        for w in doms:
            if st.relation(v, w) != NEST_IN:
                continue
            for u in doms:
                checks += 1
                if st.relation(w, u) == ORTHOGONAL and st.relation(v, u) != ORTHOGONAL:
                    return _report(
                        3, False, -1.0, checks,
                        {"clause": "closure", "nested": v, "in": w, "orthogonal_to": u},
                    )
    # container: orthogonal complements inside W live in a proper subdomain
    for w in env.domains:
        inside = [v for v in env.domains if st.relation(v, w) == NEST_IN]
        for u in inside:
            mates = [v for v in inside if st.relation(v, u) == ORTHOGONAL]
            if not mates:
                continue
            checks += 1
            containers = [
                y
                for y in inside
                if all(st.relation(v, y) in (NEST_IN, EQUAL) for v in mates)
            ]
            if not containers:
                return _report(
                    3, False, -1.0, checks,
                    {"clause": "container", "ambient": w, "of": u},
                )
    return _report(3, True, 0.0, checks)


def _check_consistency(env):
    st = env.st
    kappa0 = st.constants.kappa0
    worst = _Worst()
    trans_pairs = [
        (u, v)
        for i, u in enumerate(env.domains)
        for v in env.domains[i + 1 :]
        if st.relation(u, v) == TRANSVERSE
    ]
    nest_pairs = [(u, v) for u in env.domains for v in env.above(u)]
    # drawn from the rng after the pairs, so not read off env.column
    xs = env.sample(env.elements, 40)
    columns = {}  # domain -> [pi_u(x) for x in xs]
    for clause, code, pairs, (a, b, da, db) in (
            ("transverse", TRANSVERSE, trans_pairs, ("u", "v", "d_u", "d_v")),
            ("nested", NEST_IN, nest_pairs, ("v", "w", "d_outer", "d_inner"))):
        for u, v in env.sample(pairs, 60):
            for w in (u, v):
                if w not in columns:
                    columns[w] = [st.pi(w, x) for x in xs]
            found = list(map(consistency_inequality(st, code, u, v), columns[u], columns[v]))
            # only the pair's first smallest margin can be a new worst
            margins = [kappa0 - min(d) for d in found]
            low = min(margins)
            t = margins.index(low)
            worst.checks += len(xs) - 1
            worst.see(low, lambda: {"clause": clause, a: u, b: v, "x": env.show(xs[t]),
                                    da: found[t][0], db: found[t][1]})
    return worst.report(4, kappa0)


def _chain_depth(st, doms, u, depth):
    """Longest nesting chain among doms that ends at u, kept in depth; not
    a closure, whose self-reference would hold st until a collection."""
    if u in depth:
        return depth[u]
    best = 1
    for v in doms:
        if v != u and st.relation(v, u) == NEST_IN:
            best = max(best, 1 + _chain_depth(st, doms, v, depth))
    depth[u] = best
    return best


def _check_complexity(env):
    st = env.st
    # longest chain in the materialized nesting order
    doms = env.domains
    depth = {}
    longest = max((_chain_depth(st, doms, u, depth) for u in doms), default=0)
    bound = st.constants.n_complexity
    margin = float(bound - longest)
    return _report(5, margin >= 0, margin, len(doms), {"longest_chain": longest})


def _check_large_links(env):
    st = env.st
    E = st.constants.E
    lam = st.constants.lam
    worst = _Worst()
    order = {u: i for i, u in enumerate(env.domains)}
    plans = {}  # domains between, as a tuple -> its plan
    rhos = {}  # (v, w) -> rho_point(v, w)
    for k, ((x, y, _), (i, _)) in enumerate(zip(env.pairs, env.indices)):
        between = tuple(env.between(k))
        plan = plans.get(between)
        if plan is None:
            below = {}  # w -> the domains between nested in w, in order
            for v in between:
                for w in env.above(v):
                    below.setdefault(w, []).append(v)
                    if (v, w) not in rhos:
                        rhos[v, w] = st.rho_point(v, w)
            plan = plans[between] = [(w, [(v, rhos[v, w]) for v in below[w]])
                                     for w in sorted(below, key=order.__getitem__)]
        for w, candidates in plan:
            dw = env.dsub(k, w)
            bound = lam * dw + lam
            links = [(v, rho) for v, rho in candidates if env.dsub(k, v) >= E]
            worst.see(bound - len(links), lambda: {"clause": "count", "w": w, "x": env.show(x),
                                                   "y": env.show(y), "links": len(links), "bound": bound})
            dist, points = env.column(w)
            for v, rho in links:
                d = dist(points[i], rho)
                worst.see(bound - d, lambda: {
                    "clause": "rho distance", "w": w, "v": v, "x": env.show(x), "y": env.show(y), "d": d})
    return worst.report(6, lam)


def _check_geodesic_image(env):
    st = env.st
    E = st.constants.E
    worst = _Worst()
    nest_pairs = [(v, w) for v in env.domains for w in env.above(v)]
    for v, w in env.sample(nest_pairs, 25):
        space_w = st.space(w)
        space_v = st.space(v)
        rho = st.rho_point(v, w)
        pts = env.points(w)
        point_pairs = [(p, q) for i, p in enumerate(pts) for q in pts[i + 1 :]]
        for p, q in env.sample(point_pairs, 20):
            geo = space_w.geodesic(p, q)
            if min(space_w.dist(z, rho) for z in geo) <= E:
                continue
            diam = sample_diameter(space_v.dist,
                                   [st.rho_map_point(w, v, z) for z in geo], 0.0)
            worst.see(E - diam, lambda: {"v": v, "w": w, "p": p, "q": q, "image_diameter": diam})
    return worst.report(7, E)


def _check_partial_realization(env):
    st = env.st
    alpha = st.constants.alpha
    worst = _Worst()
    unbounded = [u for u in env.domains if not st.is_bounded_domain(u)]
    families = [(u,) for u in unbounded]
    for i, u in enumerate(unbounded):
        for v in unbounded[i + 1 :]:
            if st.relation(u, v) == ORTHOGONAL:
                families.append((u, v))
    for w in unbounded:
        fam = [w]
        for v in unbounded:
            if all(st.relation(v, z) == ORTHOGONAL for z in fam):
                fam.append(v)
        if len(fam) >= 3:
            families.append(tuple(sorted(fam)))
    families = sorted(set(families))
    for family in env.sample(families, 12):
        pts_per = [env.sample(env.points(u), 4) for u in family]
        tuples = [[]]
        for opts in pts_per:
            tuples = [t + [p] for t in tuples for p in opts]
        # (w, the members of the family nested in or transverse to w); the
        # members are pairwise orthogonal, so no member is such a w
        related = [(w, us) for w in env.domains if (
            us := [u for u in family if st.relation(u, w) in (NEST_IN, TRANSVERSE)])]
        for targets in env.sample(tuples, 8):
            g = ()
            for u, p in zip(family, targets):
                g = st.group.multiply(g, st.lift(u, p))
            for u, p in zip(family, targets):
                d = st.space(u).dist(st.pi(u, g), p)
                worst.see(alpha - d, lambda: {"clause": "realization", "family": ",".join(family),
                                              "domain": u, "target": p, "got": d, "g": env.show(g)})
            for w, us in env.sample(related, 10):
                for u in us:
                    d = st.space(w).dist(st.pi(w, g), st.rho_point(u, w))
                    worst.see(alpha - d, lambda: {"clause": "ambient control", "family": ",".join(family),
                                                  "ambient": w, "of": u, "got": d})
    return worst.report(8, alpha)


def _check_uniqueness(env):
    st = env.st
    worst = _Worst()
    thresholds = [(kappa, st.constants.theta_of(kappa))
                  for kappa in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
    for k, (x, y, dg) in enumerate(env.pairs):
        best = None
        for kappa, theta in thresholds:
            if dg <= theta:
                continue
            if best is None:
                # the largest term of the distance formula at threshold 0
                best = max([d for u in env.between(k) if (d := env.dsub(k, u)) > 0],
                           default=0.0)
            worst.see(best - kappa, lambda: {"x": env.show(x), "y": env.show(y), "d_group": dg,
                                             "kappa": kappa, "best_domain_distance": best})
    return worst.report(9, 0.0)


_CHECKERS = {
    1: _check_projections,
    2: _check_nesting,
    3: _check_orthogonality,
    4: _check_consistency,
    5: _check_complexity,
    6: _check_large_links,
    7: _check_geodesic_image,
    8: _check_partial_realization,
    9: _check_uniqueness,
}


def check_structure(structure, radius, seed, max_pairs):
    """Run the nine axiom checks and report."""
    if radius < 1:
        raise InputError("check radius must be at least 1")
    if max_pairs < 1:
        raise InputError("max pairs must be at least 1")
    env = _Env(structure, radius, seed, max_pairs)
    reports = [check(env) for check in _CHECKERS.values()]
    return StructureReport(structure.label, radius, seed, reports)


VALIDATOR_RULES = {
    1: "orthogonal-family-nesting",
    2: "quasi-line-nesting",
    3: "transverse-to-invariant",
}


class ValidatorReport(namedtuple("ValidatorReport", "structure failures checks")):
    """Outcome of the three structural-consequence checks."""

    __slots__ = ()

    @property
    def ok(self):
        return not self.failures

    def to_json(self):
        return {
            "structure": self.structure,
            "ok": self.ok,
            "checks": self.checks,
            "rules": [VALIDATOR_RULES[i] for i in sorted(VALIDATOR_RULES)],
            "failures": self.failures,
        }


def structural_validators(structure):
    """Check three consequences any genuine structure must satisfy.

    (1) An unbounded member of an invariant pairwise-orthogonal family
    never nests properly into another unbounded domain.  (2) An invariant
    quasi-line domain admitting a translation has only bounded domains
    properly nested in it.  (3) A domain transverse to an invariant
    unbounded domain is bounded.  These are theorems about structures, so
    a violation means the declared data is not one.
    Assumes the axiom checks already ran; this does not repeat them.
    """
    gens = structure.group.generators()
    doms = structure.domains()
    unbounded = [u for u in doms if not structure.is_bounded_domain(u)]
    invariant = {u: all(structure.act_on_domain(g, u) == u for g in gens) for u in doms}
    failures = []
    checks = 0

    def fail(rule, pair, detail):
        failures.append({"rule": rule, "name": VALIDATOR_RULES[rule],
                         "pair": list(pair), "detail": detail})

    for i, u in enumerate(unbounded):
        for v in unbounded[i + 1:]:
            if structure.relation(u, v) != ORTHOGONAL:
                continue
            family_invariant = all(
                {structure.act_on_domain(g, u), structure.act_on_domain(g, v)} == {u, v}
                for g in gens
            )
            if not family_invariant:
                continue
            for member in (u, v):
                for w in unbounded:
                    checks += 1
                    if structure.relation(member, w) == NEST_IN:
                        fail(1, (member, w),
                             f"{member} sits in the invariant orthogonal family "
                             f"{{{u}, {v}}} yet nests into the unbounded {w}")

    for u in unbounded:
        if not invariant[u]:
            continue
        if quasi_line_detect(structure.space(u), radius=2, q_max=2) is None:
            continue
        # u is invariant, so each generator's period on it is 1
        if not any(tau_on_domain(structure, g, u)[0] > 0 for g in gens):
            continue
        for v in unbounded:
            checks += 1
            if structure.relation(v, u) == NEST_IN:
                fail(2, (v, u),
                     f"unbounded {v} nests into the translated quasi-line {u}")

    for w in unbounded:
        if not invariant[w]:
            continue
        for v in unbounded:
            checks += 1
            if structure.relation(v, w) == TRANSVERSE:
                fail(3, (v, w), f"unbounded {v} is transverse to the invariant {w}")

    return ValidatorReport(structure.label, failures, checks)
