"""Constructive uniform exponential growth certificates.

Given a structure and a finite generating set, the certifier routes through
a case analysis on the union of big sets and emits a machine-checkable
certificate: an explicit pair of words proved to generate a free semigroup
or a rank-2 free subgroup, or a structured account of why no free pair is
expected (virtually cyclic, virtually abelian, or a line-times-bounded
product).  Every emitted pair passes the exact oracle `_free_pair`, which
proves it free by a theorem, not only distinct out to a depth; the
requested depth is validated and recorded as `verified_depth`.

The generating set X enters only through `certify`, which normalises it
once (sorted by (length, word), distinct, identity-free normal forms) and
proves that it generates.  `scan_generating_sets` enumerates sets in that
form, already proven, and hands them straight to the same core.  The core
decides each thing once: it builds the certifier ledger, then runs the
dichotomy, and hands both to the route that the outcome selects.  The
routes trust the outcome: they do not re-check the relation, the big sets
or the case that the dichotomy chose.

Power constants follow fixed integer formulas from the structure constants
and are deliberately far from optimal.  When the declared power is too large
to materialize as a word at desk scale, the certifier uses the smallest
power that passes verification and records both numbers.
"""

import math
from collections import namedtuple

from .balls import (COUNT_MAX_DIGITS, enumerate_generating_sets, generates_at_radius,
                    growth_function, standard_ball, symmetrize)
from .classify import big_set, big_set_member
from .coords import product_decomposition, quasi_line_detect
from .errors import (CertifierRefutedError, ClassificationAnomalyError, InputError,
                     PreconditionError, ResourceBudgetError, StructureInvalidError)
from .groups import IDENTITY
from .structures import NEST_IN, TRANSVERSE

CERTIFICATE_SCHEMA = 1

# longest word the certifier will materialize: declared power times the
# letter length of the base word must stay under this
MATERIALIZE_CAP = 2000
POWER_SEARCH_CAP = 12
ENDPOINT_POWER = 5
PINGPONG_BALL_RADIUS = 4
# largest ball radius of the semigroup growth cross-check
GROWTH_CHECK_CAP = 12
# radius within which `certify` proves that words generate a direct product
REACH_RADIUS = 6


# ---------------------------------------------------------------------------
# power schedule


class CertifierLedger(namedtuple("CertifierLedger", "constants k1 n0 k2 k3 k4 M")):
    """Integer power schedule derived from the structure constants.

    k1: transverse ping-pong power.
    n0: escape power for the nesting-to-transverse reduction.
    k2: ping-pong power after that reduction.
    k3: top-level conjugation power, fixed at 1: if s commutes with t s t^-1,
        so do their k-th powers, so power 1 decides every power.
    k4: fallback semigroup power.
    M: master length bound; certified words must fit under it.
    """

    __slots__ = ()

    def to_json(self):
        return {**self._asdict(), "constants": self.constants.to_json()}


def _schedule_ceil(ratio, value):
    """max(1, ceil(value)) for a power-schedule ratio; InputError if infinite."""
    if not math.isfinite(value):
        raise InputError(f"power schedule overflows: {ratio} is not finite")
    return max(1, math.ceil(value))


def _factorial_term(name, coeff, n):
    """coeff * n! for a power-schedule entry; InputError, before computing
    n!, when lgamma puts it above COUNT_MAX_DIGITS decimal digits: reports
    print every entry."""
    try:
        digits = math.log10(coeff) + math.lgamma(n + 1) / math.log(10)
    except OverflowError:
        raise InputError(f"power schedule overflows: {name} is not finite") from None
    if digits > COUNT_MAX_DIGITS:
        raise InputError(f"power schedule overflows: {name} has about {digits:.0f} digits")
    return coeff * math.factorial(n)


def certifier_ledger(constants):
    if constants.tau0 <= 0:
        raise StructureInvalidError("tau0 must be positive to certify growth")
    n = int(constants.N_rank)
    base = _schedule_ceil("2*kappa0/tau0", 2.0 * constants.kappa0 / constants.tau0)
    k1 = _factorial_term("k1", base, 2 * n + 1)
    n0 = _schedule_ceil("10*D/tau0", 10.0 * constants.D / constants.tau0)
    k2 = _factorial_term("k2", base, 2 * n0 + 1)
    k4 = _schedule_ceil("10000*delta/tau0", 10000.0 * constants.delta / constants.tau0)
    m = max(k1, 2 * n0 + k2,
            _factorial_term("3*(k4+2)*(N_rank+1)!", 3 * (k4 + 2), n + 1))
    return CertifierLedger(constants, k1, n0, k2, 1, k4, m)


# ---------------------------------------------------------------------------
# exact oracles


def _free_pair(model, u, w, depth):
    """True iff the normal forms u and w do not commute.  Every family in
    `groups` is built from free and free-abelian groups, where <u, w> is
    either abelian or free on u and w: Nielsen-Schreier for free groups and
    for free products, which are free on their letters; for direct
    products, a factor projecting <u, w> onto F2, or else all projections
    abelian.  F2 is Hopfian, so two generators of a non-abelian <u, w> are
    a basis, and also generate a free semigroup.  depth >= 1 changes no
    answer."""
    if depth < 1:
        raise PreconditionError("verification depth must be at least 1")
    return model._product(u, w) != model._product(w, u)


def verify_free_semigroup(model, u, w, depth):
    """Exact check that the normal forms u and w generate a free subsemigroup."""
    return _free_pair(model, u, w, depth)


def verify_free_subgroup(model, u, w, depth):
    """Exact check that the normal forms u and w generate a rank-2 free subgroup."""
    return _free_pair(model, u, w, depth)


def preserves_endpoint_pair(model, s, t):
    """Word criterion for t preserving the endpoint pair of the axis of s:
    conjugation by t sends s^ENDPOINT_POWER to itself or to its inverse."""
    sn = model.power(s, ENDPOINT_POWER)
    conj = model.conjugate(t, sn)
    return conj == sn or conj == model.inverse(sn)


# ---------------------------------------------------------------------------
# certificates


class GrowthCertificate:
    """Outcome of one certification run.

    words holds the certified pair for the free variants, and lengths
    their letter lengths; evidence carries the route taken and the
    measurements that back the verdict.
    `_certify_words` sets generating_set; the routes leave it empty.
    """

    def __init__(self, variant, ledger, evidence, words=None,
                 verified_depth=None, subgroup_index=1, x_length_bound=None, caveats=()):
        self.variant = variant
        self.ledger = ledger
        self.generating_set = []
        self.words = words
        self.lengths = None if words is None else [len(words["u"]), len(words["w"])]
        self.verified_depth = verified_depth
        self.subgroup_index = subgroup_index
        self.x_length_bound = x_length_bound
        self.caveats = list(caveats)
        self.evidence = evidence

    def to_json(self):
        words = None
        if self.words is not None:
            words = {"u": list(self.words["u"]), "w": list(self.words["w"])}
        return {
            "schema_version": CERTIFICATE_SCHEMA,
            "variant": self.variant,
            "generating_set": [list(w) for w in self.generating_set],
            "words": words,
            "lengths": self.lengths,
            "verified_depth": self.verified_depth,
            "subgroup_index": self.subgroup_index,
            "x_length_bound": self.x_length_bound,
            "ledger": self.ledger.to_json(),
            "caveats": list(self.caveats),
            "evidence": self.evidence,
        }


def ueg_lower_bound(cert):
    """Growth-rate lower bound log 2 / (max word length) carried by a free
    pair, discounted by (2d - 1) inside an index-d subgroup.  None for the
    variants that certify no free pair."""
    if cert.variant not in ("free-semigroup", "free-subgroup"):
        return None
    return math.log(2.0) / max(cert.lengths) / (2 * cert.subgroup_index - 1)


def semigroup_growth_check(model, cert):
    """Empirical cross-check of a free-semigroup certificate: ambient ball
    counts must dominate 2^(n // L) for n up to 3L, L the longer word."""
    length = max(cert.lengths)
    n_max = min(3 * length, GROWTH_CHECK_CAP)
    gens = symmetrize(model, cert.generating_set)
    beta = growth_function(model, gens, n_max)
    rows = []
    ok = True
    for n in range(1, n_max + 1):
        bound = 2 ** (n // length)
        rows.append({"n": n, "beta": beta[n], "bound": bound})
        ok = ok and beta[n] >= bound
    return {"ok": ok, "length": length, "n_max": n_max, "rows": rows,
            "truncated": n_max < 3 * length}


# ---------------------------------------------------------------------------
# big-set bookkeeping


class BigDomains(namedtuple("BigDomains", "big closure provenance")):
    """Union of the generators' big sets and its orbit closure under words of
    length at most N_rank, with provenance for every label."""

    __slots__ = ()


def collect_big_domains(structure, words):
    """Big domains of the normalised generating set (see `certify`) and
    their orbit closure.  Every model here is torsion-free, so an empty
    big set of a word, never the identity, is an anomaly."""
    model = structure.group
    prov = {}
    for s in words:
        found = big_set(structure, s).domains
        if not found:
            raise ClassificationAnomalyError(
                f"non-identity element {model.format(s)} of the torsion-free "
                f"model {model.family} has an empty big set")
        for u in found:
            if u not in prov:
                prov[u] = {"seed": s, "translator": IDENTITY, "xlen": 0}
    big = sorted(prov)
    sym = symmetrize(model, words)
    closure = dict(prov)
    frontier = list(closure.items())
    for _ in range(structure.constants.N_rank):
        nxt = []
        for u, p in frontier:
            for x in sym:
                v = structure.act_on_domain(x, u)
                if v not in closure:
                    entry = {"seed": p["seed"],
                             "translator": model.multiply(x, p["translator"]),
                             "xlen": p["xlen"] + 1}
                    closure[v] = entry
                    nxt.append((v, entry))
        frontier = nxt
    return BigDomains(big, sorted(closure), closure)


class CaseOutcome(namedtuple(
        "CaseOutcome", "case domains s t u v kind s_xlen t_xlen index transversal schreier",
        defaults=(None,) * 10)):
    """Route selected by the dichotomy: an explicit non-orthogonal pair with
    loxodromic witnesses (case 1), or a pointwise stabilizer of the closed
    orthogonal family (case 2)."""

    __slots__ = ()

    def to_json(self, model):
        fmt = model.format
        out = {"case": self.case,
               "big": list(self.domains.big),
               "closure": list(self.domains.closure)}
        if self.case == 1:
            out.update({"kind": self.kind, "s": fmt(self.s), "t": fmt(self.t),
                        "domains": [self.u, self.v]})
        else:
            out.update({"index": self.index,
                        "transversal": [fmt(w) for w in self.transversal],
                        "stabilizer_generators": [fmt(w) for w, _ in self.schreier]})
        return out


def _stabilizer_data(structure, words, labels):
    """Transversal and Schreier generators of the pointwise stabilizer of the
    label family, computed from the permutation action of the words.  The
    index is at most N_rank! by the dichotomy's rank check, and each
    generator's x-length is at most 2 * index - 1."""
    model = structure.group
    sym = symmetrize(model, words)
    position = {u: i for i, u in enumerate(labels)}

    def perm_of(w):
        return tuple(position[structure.act_on_domain(w, u)] for u in labels)

    ident = tuple(range(len(labels)))
    reps = {ident: (IDENTITY, 0)}
    frontier = [(IDENTITY, 0)]
    while frontier:
        nxt = []
        for rw, rx in frontier:
            for x in sym:
                w = model.multiply(rw, x)
                p = perm_of(w)
                if p not in reps:
                    reps[p] = (w, rx + 1)
                    nxt.append(reps[p])
        frontier = nxt
    sgens = {}
    for p, (rw, rx) in sorted(reps.items()):
        for x in sym:
            w = model.multiply(rw, x)
            r2, r2x = reps[perm_of(w)]
            g = model.multiply(w, model.inverse(r2))
            if g == IDENTITY or g in sgens:
                continue
            if perm_of(g) != ident:
                raise StructureInvalidError(
                    "stabilizer generator moves the family",
                    witness={"element": model.format(g)})
            sgens[g] = rx + 1 + r2x
    transversal = sorted((w for w, _ in reps.values()), key=lambda w: (len(w), w))
    schreier = sorted(sgens.items(), key=lambda it: (len(it[0]), it[0]))
    return len(reps), transversal, schreier


def dichotomy(structure, words):
    """Split on the orbit closure of the union of big sets of the
    normalised generating set: a non-orthogonal pair yields explicit
    witnesses, else the family is finite-index stabilized and the certifier
    descends to the stabilizer.  The pair is the least (len s, len t, u, v),
    found by one scan in (len s, u) order in which each u takes its first
    partner v, stopping after the first length class of u with a partner."""
    model = structure.group
    doms = collect_big_domains(structure, words)
    # each closure domain's loxodromic witness, its seed conjugated by its
    # translator, and the witness's length over the words
    witness = {u: (model.conjugate(p["translator"], p["seed"]), 2 * p["xlen"] + 1)
               for u, p in doms.provenance.items()}
    order = sorted((len(s), u) for u, (s, _) in witness.items())
    best = None
    for ls, u in order:
        if best and ls > best[0]:
            break
        for lt, v in order:
            rel = structure.relation(u, v) if v != u else None
            if rel in (TRANSVERSE, NEST_IN):
                cand = (ls, lt, u, v, rel)
                best = min(best or cand, cand)
                break
    if best:
        _, _, u, v, rel = best
        (s, sx), (t, tx) = witness[u], witness[v]
        kind = "transverse" if rel == TRANSVERSE else "nested"
        return CaseOutcome(1, doms, s=s, t=t, u=u, v=v, kind=kind,
                           s_xlen=sx, t_xlen=tx)
    # the rank check carries case 2: the closure BFS starts from a label and
    # grows in each productive round of its N_rank, so at most N_rank labels
    # means it stopped, closed under the action; their permutation group has
    # order <= N_rank! and a Schreier generator x-length <= 2 * N_rank! - 1
    n = structure.constants.N_rank
    if len(doms.closure) > n:
        raise StructureInvalidError(
            "pairwise-orthogonal family exceeds the declared rank",
            witness={"labels": list(doms.closure), "N_rank": n})
    index, transversal, schreier = _stabilizer_data(structure, words, doms.closure)
    return CaseOutcome(2, doms, index=index, transversal=transversal,
                       schreier=schreier)


# ---------------------------------------------------------------------------
# case 1: ping-pong


def _pingpong_sample(structure, u, v):
    """The sample of the ping-pong inclusion, which does not depend on the
    power: (ball size, [(space, rho, far) for u, then for v]).  rho is the
    relative projection of the other domain, and far holds, in ascending
    ball order, the elements of the radius-PINGPONG_BALL_RADIUS ball that
    project more than kappa0 from it.  Read off the domain's projection
    column: one distance per distinct point."""
    k0 = structure.constants.kappa0
    ball = standard_ball(structure.group, PINGPONG_BALL_RADIUS)
    sides = []
    for w, rho in ((u, structure.rho_point(v, u)), (v, structure.rho_point(u, v))):
        space = structure.space(w)
        column = structure.projection_column(w, PINGPONG_BALL_RADIUS)
        far = sorted(i for p, at in column.items() if space.dist(p, rho) > k0
                     for i in at)
        sides.append((space, rho, [ball[i] for i in far]))
    return len(ball), sides


def _y_mapping_check(structure, s, t, u, v, power, sample):
    """Sampled ping-pong inclusion: t^power must map the far set of u into
    the far set of v, and s^power the far set of v into that of u.  sample
    is _pingpong_sample(structure, u, v); a failure names the first
    element of a far set, in ball order, whose translate falls short.
    A translate is projected once and never looked up again, so it goes
    through the domain's own map, not the pi memo."""
    model = structure.group
    k0 = structure.constants.kappa0
    sampled, ((sp_u, rho_vu, y_s), (sp_v, rho_uv, y_t)) = sample
    for side, g, w, space, rho, far in (("t", t, v, sp_v, rho_uv, y_s),
                                        ("s", s, u, sp_u, rho_vu, y_t)):
        gk = model.power(g, power)
        project = structure.projection_map(w)
        for x in far:
            if not space.dist(project(model.multiply(gk, x)), rho) > k0:
                return False, {"side": side, "power": power, "element": model.format(x)}
    return True, {"sampled": sampled, "y_s": len(y_s), "y_t": len(y_t)}


def pingpong_transverse(structure, s, t, u, v, x_lengths, led, depth,
                        declared_power=None):
    """Free subgroup from loxodromics with transverse big-set domains.

    The candidate pair is (s^k, t^k) at the declared power; verification is
    the sampled ping-pong inclusion plus the exact freeness oracle at
    depth + 1.  x_lengths are the lengths of s and t as words in the
    generating set; the pair must fit under the route's length bound.
    Raises CertifierRefutedError when a check fails.
    """
    model = structure.group
    n = structure.constants.N_rank
    # the bound follows the route: k1 (2N + 1) for the direct transverse
    # pair, M once the nested reduction hands over its own power
    if declared_power is None:
        declared, bound = led.k1, led.k1 * (2 * n + 1)
    else:
        declared, bound = declared_power, led.M
    caveats = []
    sample = _pingpong_sample(structure, u, v)
    if declared * max(len(s), len(t)) <= MATERIALIZE_CAP:
        power = declared
        ok, detail = _y_mapping_check(structure, s, t, u, v, power, sample)
        if not ok:
            raise CertifierRefutedError(
                "sampled ping-pong inclusion fails at the declared power",
                witness=detail)
        pair = model.power(s, power), model.power(t, power)
        if not verify_free_subgroup(model, pair[0], pair[1], depth + 1):
            raise CertifierRefutedError(
                "freeness oracle rejects the powered pair",
                witness={"power": power})
    else:
        caveats.append(
            f"declared power {declared} cannot be materialized at desk scale;"
            " smallest verified power recorded instead")
        power, pair, detail = None, None, None
        for k in range(1, POWER_SEARCH_CAP + 1):
            ok, detail = _y_mapping_check(structure, s, t, u, v, k, sample)
            if not ok:
                continue
            cand = model.power(s, k), model.power(t, k)
            if verify_free_subgroup(model, cand[0], cand[1], depth + 1):
                power, pair = k, cand
                break
        if power is None:
            raise CertifierRefutedError(
                "no power within the search cap passes verification",
                witness={"cap": POWER_SEARCH_CAP})
    if power * max(x_lengths) > bound:
        raise CertifierRefutedError(
            "certified pair exceeds its letter-length bound",
            witness={"power": power, "x_lengths": list(x_lengths)})
    return GrowthCertificate(
        variant="free-subgroup",
        ledger=led,
        words={"u": pair[0], "w": pair[1]},
        verified_depth=depth,
        subgroup_index=1,
        x_length_bound=bound,
        caveats=caveats,
        evidence={"case": "transverse", "domains": [u, v],
                  "base_words": [model.format(s), model.format(t)],
                  "power": power, "declared_power": declared,
                  "sampling": detail})


def nested_to_transverse(structure, s, t, u, v, x_lengths, led, depth):
    """Reduction of a properly nested big-set pair to the transverse case.

    Powers of t push u off itself inside v; once the relative projections in
    v separate by 10D the translate is transverse to u and the conjugated
    witness delegates to the ping-pong routine.  x_lengths are the lengths
    of s and t as words in the generating set; t^n s t^-n is 2 n t + s long.
    """
    model = structure.group
    sp_v = structure.space(v)
    rho_u = structure.rho_point(u, v)
    target = 10.0 * structure.constants.D
    chosen = None
    for mult in (1, 2, 3, 4):
        n = mult * led.n0
        tn = model.power(t, n)
        un = structure.act_on_domain(tn, u)
        if un == u:
            continue
        sep = sp_v.dist(structure.rho_point(un, v), rho_u)
        if sep >= target:
            chosen = (n, tn, un, sep)
            break
    if chosen is None:
        raise CertifierRefutedError(
            "relative projections stay within 10D under powers up to 4*n0",
            witness={"n0": led.n0, "target": target})
    n, tn, un, sep = chosen
    if structure.relation(un, u) != TRANSVERSE:
        raise CertifierRefutedError(
            "separated translate is not transverse to the original domain",
            witness={"translate": un, "relation": structure.relation(un, u)})
    t2 = model.conjugate(tn, s)
    s_xlen, t_xlen = x_lengths
    cert = pingpong_transverse(structure, s, t2, u, un,
                               (s_xlen, 2 * n * t_xlen + s_xlen), led,
                               depth=depth, declared_power=led.k2)
    cert.evidence.update({"case": "nested", "parent_domain": v,
                          "escape_power": n, "separation": sep})
    if n > led.n0:
        cert.caveats.append(
            f"escape power raised to {n} beyond the declared n0 = {led.n0}")
    return cert


# ---------------------------------------------------------------------------
# case 2 and the top level


def _bf_pair(model, g, h, k, depth):
    """(g^k, h^k) if the semigroup oracle accepts it at depth + 1, else None;
    g^-k commutes with h^k exactly when g^k does, so no other sign is tried."""
    pair = model.power(g, k), model.power(h, k)
    return pair if verify_free_semigroup(model, *pair, depth + 1) else None


def top_level_certify(structure, words, outcome, led, depth):
    """Certification when the maximal domain itself carries a big set.

    The first generator axial on the top domain (its seed in the outcome's
    provenance) either has its endpoint pair moved by some other generator,
    giving a free subgroup at power 1, or every generator preserves it and
    the group is certified virtually cyclic.
    """
    model = structure.group
    top = structure.top_domain()
    s = outcome.domains.provenance[top]["seed"]
    moved = next((t for t in words
                  if not preserves_endpoint_pair(model, s, t)), None)
    if moved is None:
        return GrowthCertificate(
            variant="virtually-cyclic",
            ledger=led,
            evidence={"case": "top-level", "axis_word": model.format(s),
                      "endpoint_power": ENDPOINT_POWER,
                      "checked": [model.format(t) for t in words]},
            caveats=["endpoint preservation tested at a finite power"])
    base_words = [model.format(s), model.format(moved)]
    c = model.conjugate(moved, s)
    if not verify_free_subgroup(model, s, c, depth + 1):
        # s^k commutes with c^k = moved s^k moved^-1 too: every power is refused
        raise CertifierRefutedError(
            "no conjugation power up to k4 passes the freeness oracle",
            witness={"powers": list(range(1, led.k4 + 1)), "base_words": base_words})
    evidence = {"case": "top-level", "domains": [top], "base_words": base_words,
                "power": 1}
    fallback = _bf_pair(model, s, c, led.k4, depth)
    if fallback is not None:
        evidence["fallback_semigroup_pair"] = [model.format(fallback[0]),
                                               model.format(fallback[1])]
    return GrowthCertificate(
        variant="free-subgroup",
        ledger=led,
        words={"u": s, "w": c},
        verified_depth=depth,
        subgroup_index=1,
        x_length_bound=led.M,
        evidence=evidence)


def case2_branch(structure, words, outcome, led, depth):
    """Certification inside the pointwise stabilizer of the orthogonal
    big-set family.

    Each family domain gets a loxodromic from the Schreier generators; an
    endpoint failure yields a free-semigroup pair at the fallback power,
    while full preservation routes to the product decomposition and a
    virtually-abelian or line-times-bounded verdict.  The verdict rests on
    the blocks alone: when every block is a single quasi-line the group is
    quasi-isometric to Z^n, hence virtually abelian.  The doubling test
    on the growth counts is recorded as evidence only.  Every domain and
    every mover is tried before a refusal, which names the first one, so
    the verdict does not depend on how the labels sort.
    """
    model = structure.group
    labels = outcome.domains.closure
    axes = {}
    for u in labels:
        for y, _ in outcome.schreier:
            if big_set_member(structure, y, u) is not None:
                axes[u] = y
                break
        else:
            raise StructureInvalidError(
                "no stabilizer generator is loxodromic on a family domain",
                witness={"domain": u})
    refused = None
    for u in labels:
        s_u = axes[u]
        for y, _ in outcome.schreier:
            if preserves_endpoint_pair(model, s_u, y):
                continue
            pair = _bf_pair(model, s_u, model.conjugate(y, s_u), led.k4, depth)
            if pair is None:
                refused = refused or {"domain": u, "axis": model.format(s_u),
                                      "mover": model.format(y)}
                continue
            return GrowthCertificate(
                variant="free-semigroup",
                ledger=led,
                words={"u": pair[0], "w": pair[1]},
                verified_depth=depth,
                subgroup_index=outcome.index,
                x_length_bound=led.M,
                evidence={"case": "stabilizer", "domain": u,
                          "axis": model.format(s_u), "mover": model.format(y),
                          "power": led.k4, "subgroup_index": outcome.index})
    if refused is not None:
        raise CertifierRefutedError(
            "endpoint failure produced no verifiable semigroup pair",
            witness=refused)
    line_constants = {}
    for u in labels:
        line_constants[u] = quasi_line_detect(structure.space(u), radius=3)
    dec = product_decomposition(structure)
    lines = {u for u, q in line_constants.items() if q is not None}
    z_blocks = [b for b in dec.blocks if len(b) == 1 and b[0] in lines]
    other_blocks = [b for b in dec.blocks if b not in z_blocks]
    gens = symmetrize(model, words)
    beta = growth_function(model, gens, 8)
    bound = 2 ** (len(dec.blocks) + 1)
    polynomial = beta[4] > 0 and beta[8] / beta[4] <= bound
    evidence = {"case": "stabilizer", "subgroup_index": outcome.index,
                "blocks": [list(b) for b in dec.blocks],
                "line_constants": line_constants,
                "growth": beta, "doubling_bound": bound,
                "polynomial": polynomial}
    abelian = not other_blocks
    if not abelian:
        evidence["z_blocks"] = [list(b) for b in z_blocks]
        evidence["other_blocks"] = [list(b) for b in other_blocks]
    return GrowthCertificate(
        variant="virtually-abelian" if abelian else "product-z-e",
        ledger=led,
        subgroup_index=outcome.index,
        evidence=evidence,
        caveats=["endpoint preservation tested at a finite power"])


# ---------------------------------------------------------------------------
# driver


def certify(structure, X, depth):
    """End-to-end certification for one generating set, the trust boundary.

    Normalises X, proves that it generates (on a direct product, within
    REACH_RADIUS) and hands it to `_certify_words`.  Raises InputError when
    the depth is below 1, the words fail the generation test or the power
    schedule overflows, and CertifierRefutedError when a selected branch
    fails verification.
    """
    if depth < 1:
        raise InputError("verification depth must be at least 1")
    model = structure.group
    words = sorted({model.normal_form(w) for w in X} - {IDENTITY},
                   key=lambda w: (len(w), w))
    if not words:
        raise InputError("generating set reduces to the identity")
    if not generates_at_radius(model, words, REACH_RADIUS):
        raise InputError("words do not generate the group, or, where no exact test applies, "
                         f"do not reach the standard generators within radius {REACH_RADIUS}")
    return _certify_words(structure, words, depth)


def _certify_words(structure, words, depth):
    """Certificate for normalised words already proven to generate: builds
    the ledger, routes through the dichotomy, emits the certificate of the
    selected branch, and attaches the generating set and route summary."""
    model = structure.group
    led = certifier_ledger(structure.constants)
    outcome = dichotomy(structure, words)
    if outcome.case == 1:
        args = (outcome.s, outcome.t, outcome.u, outcome.v,
                (outcome.s_xlen, outcome.t_xlen), led)
        if outcome.kind == "transverse":
            cert = pingpong_transverse(structure, *args, depth=depth)
        else:
            cert = nested_to_transverse(structure, *args, depth=depth)
    else:
        top = structure.top_domain()
        if top is not None and top in outcome.domains.closure:
            cert = top_level_certify(structure, words, outcome, led, depth=depth)
        else:
            cert = case2_branch(structure, words, outcome, led, depth=depth)
    cert.generating_set = words
    cert.evidence["generating_set_text"] = [model.format(w) for w in words]
    cert.evidence["route"] = outcome.to_json(model)
    if cert.variant == "free-semigroup":
        cert.evidence["growth_check"] = semigroup_growth_check(model, cert)
    return cert


def scan_generating_sets(structure, size_bound, length_bound, ambient_radius,
                         depth, growth_n):
    """Certify every enumerated generating set; one row per set, in
    enumeration order, with a summary of the worst measured rate.  A size
    or length bound below 1 enumerates nothing: the report has no rows.
    A radius below 1 is an error even then."""
    if depth < 1:
        raise InputError("verification depth must be at least 1")
    if growth_n < 1:
        raise InputError("growth n must be at least 1")
    if ambient_radius < 1:
        raise InputError("length and radius bounds must be at least 1")
    model = structure.group
    rows = []
    gensets = (enumerate_generating_sets(model, size_bound, length_bound,
                                         ambient_radius)
               if size_bound > 0 and length_bound > 0 else ())
    for gens in gensets:
        row = {"generating_set": [model.format(w) for w in gens]}
        try:
            cert = _certify_words(structure, gens, depth)
            bound = ueg_lower_bound(cert)
            beta = growth_function(model, symmetrize(model, gens), growth_n)
            rate = math.log(beta[growth_n]) / growth_n
            row.update({
                "variant": cert.variant,
                "lengths": cert.lengths,
                "lower_bound": bound,
                "rate_estimate": rate,
                "rate_n": growth_n,
                "master_bound": math.log(2.0) / cert.ledger.M,
                "meets_master_bound": rate >= math.log(2.0) / cert.ledger.M,
            })
        except (ResourceBudgetError, CertifierRefutedError,
                StructureInvalidError) as err:
            row["error"] = str(err)
        rows.append(row)
    measured = [r["rate_estimate"] for r in rows if "rate_estimate" in r]
    summary = {
        "rows": len(rows),
        "errors": sum(1 for r in rows if "error" in r),
        "min_rate": min(measured) if measured else None,
        "all_meet_master_bound": all(r.get("meets_master_bound", False)
                                     for r in rows if "error" not in r),
    }
    return {"rows": rows, "summary": summary}
