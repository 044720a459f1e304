"""Big sets, elliptic/axial classification, and translation-length floors.

The big set of a group element collects the domains on which its cyclic
orbit is unbounded.  Unboundedness is undecidable from finite data, so
membership uses a dual test: the exact translation length of the
smallest stabilizing power where the domain carries an action, else a
linear orbit-diameter threshold.  Whichever fired is retained as
evidence on the result.
"""

import itertools
from dataclasses import dataclass

from .errors import ClassificationAnomalyError, PreconditionError, StructureInvalidError
from .groups import IDENTITY
from .spaces import sample_diameter, translation_length

# an orbit of the 2 N_MAX + 1 powers g^-N_MAX .. g^N_MAX with diameter
# > ORBIT_THRESHOLD * N_MAX is unbounded
N_MAX = 6
ORBIT_THRESHOLD = 0.5


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

    Returns (tau, m); tau is None when no stabilizing power exists within
    max(2, N_rank!) or the domain carries no point action.
    """
    m = domain_period(structure, g, u, max(2, structure.constants.N_rank))
    if m is None:
        return None, None
    h = structure.group.power(g, m)
    space = structure.space(u)
    try:
        tau = translation_length(space, lambda p: structure.act_in_space(u, h, p),
                                 x=structure.pi(u, IDENTITY))
    except PreconditionError:
        return None, m
    return tau / m, m


@dataclass
class BigSet:
    """Domains with unbounded cyclic orbit, plus the evidence per member."""

    element: tuple
    domains: list
    evidence: dict
    n_max: int
    threshold: float

    def to_json(self, model):
        return {
            "element": model.format(self.element),
            "domains": list(self.domains),
            "evidence": {u: self.evidence[u] for u in self.domains},
            "n_max": self.n_max,
            "threshold": self.threshold,
        }


def big_set_member(structure, g, u, powers=None):
    """Evidence that the cyclic orbit of g is unbounded on the single domain
    u, or None.  Works for domains outside the materialized catalog, which
    the certifier meets when it translates domains around."""
    if structure.is_bounded_domain(u):
        return None
    tau, m = tau_on_domain(structure, g, u)
    if tau is not None:
        if tau > 0:
            return {"via": "translation", "tau": tau, "power": m}
        return None
    if powers is None:
        powers = [structure.group.power(g, i) for i in range(-N_MAX, N_MAX + 1)]
    diam = sample_diameter(structure.space(u).dist,
                           [structure.pi(u, h) for h in powers], 0)
    if diam > ORBIT_THRESHOLD * N_MAX:
        return {"via": "orbit", "diameter": diam, "cutoff": ORBIT_THRESHOLD * N_MAX}
    return None


def big_set(structure, g):
    """Domains on which the cyclic orbit of g is detectably unbounded."""
    g = structure.group.normal_form(g)
    members = []
    evidence = {}
    powers = [structure.group.power(g, i) for i in range(-N_MAX, N_MAX + 1)]
    for u in structure.domains():
        ev = big_set_member(structure, g, u, powers=powers)
        if ev is not None:
            members.append(u)
            evidence[u] = ev
    return BigSet(g, sorted(members), evidence, N_MAX, ORBIT_THRESHOLD)


@dataclass
class ElementClass:
    variant: str
    big: BigSet


def classify(structure, g):
    """Elliptic iff the big set is empty; anomalous for torsion-free models."""
    big = big_set(structure, g)
    if big.domains:
        return ElementClass("axial", big)
    if structure.group.torsion_free and big.element != IDENTITY:
        raise ClassificationAnomalyError(
            f"non-identity element {structure.group.format(g)} of the "
            f"torsion-free model {structure.group.family} has an empty big set"
        )
    return ElementClass("elliptic", big)


def tau0_floor_check(structure, sample_elements):
    """Min translation length over sampled big-set pairs; must meet tau0.

    Returns the measured minimum, or None when every sampled element has
    an empty or action-less big set (vacuous pass).
    """
    samples = list(sample_elements)
    if not samples:
        raise PreconditionError("need at least one sample element")
    measured = None
    declared = structure.constants.tau0
    for g in samples:
        big = big_set(structure, g)
        for u in big.domains:
            # big_set measured tau wherever the domain carries an action
            tau = big.evidence[u].get("tau")
            if tau is None:
                continue
            if tau < declared:
                raise StructureInvalidError(
                    f"translation length {tau} on {u} undercuts the declared "
                    f"floor {declared}",
                    witness={"element": structure.group.format(big.element),
                             "domain": u, "tau": tau},
                )
            measured = tau if measured is None else min(measured, tau)
    return measured
