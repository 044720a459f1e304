"""The group acts on each catalog structure (Behrstock-Hagen-Sisto II,
Def. 1.21): a generator s carries a domain u to su by an isometry
C(u) -> C(su) that commutes with the projections and the relative
projections.  On a sample that is two equalities, for each pair (x, y),
domain u and symmetrized standard generator s:

    d_su(sx, sy) = d_u(x, y)
    d_sw(rho^sv_sw, pi_sw(sx)) = d_w(rho^v_w, pi_w(x))

the second for each pair (v, w) of sampled domains with v nested in or
transverse to w."""

import pathlib
import random
from collections import Counter

import pytest

from hhglab.balls import standard_ball, symmetrize
from hhglab.builders import build_named, load_structure
from hhglab.structures import NEST_IN, TRANSVERSE

STRUCTURE_FILES = sorted((pathlib.Path(__file__).resolve().parents[1] / "structures")
                         .glob("*.json"))

RADIUS, PAIRS, DOMAINS = 2, 10, 8

# failed checks of each clause; every other catalog file fails none.  The
# line top S of these three is translated by t while rho stays at its
# basepoint, and bad-transverse-invariant's T, transverse to S, is moved
# by a and b while rho^S_T stays at the identity.
FAILING = {"bad-nest-in-line": {"rho": 20},
           "bad-orth-in-line": {"rho": 40},
           "bad-transverse-invariant": {"rho": 60}}


def action_failures(st, seed=0):
    """The sampled checks of the two equalities that fail, in sample order:
    ("distance", s, u, x, y) or ("rho", s, v, w, x)."""
    model = st.group
    rng = random.Random(seed)
    ball = standard_ball(model, RADIUS)
    pairs = [(rng.choice(ball), rng.choice(ball)) for _ in range(PAIRS)]
    domains = st.domains()
    domains = rng.sample(domains, min(DOMAINS, len(domains)))
    nested = [(v, w) for v in domains for w in domains
              if st.relation(v, w) in (NEST_IN, TRANSVERSE)]
    failures = []
    for s in symmetrize(model, model.generators()):
        move = lambda u: st.act_on_domain(s, u)
        for x, y in pairs:
            sx, sy = model.multiply(s, x), model.multiply(s, y)
            for u in domains:
                if st.dsub(move(u), sx, sy) != st.dsub(u, x, y):
                    failures.append(("distance", s, u, x, y))
            for v, w in nested:
                sv, sw = move(v), move(w)
                moved = st.space(sw).dist(st.rho_point(sv, sw), st.pi(sw, sx))
                if moved != st.space(w).dist(st.rho_point(v, w), st.pi(w, x)):
                    failures.append(("rho", s, v, w, x))
    return failures


@pytest.mark.parametrize("path", STRUCTURE_FILES, ids=lambda p: p.stem)
def test_catalog_structures_fail_only_where_pinned(path):
    failures = action_failures(load_structure(str(path)))
    assert Counter(f[0] for f in failures) == FAILING.get(path.stem, {})


def test_the_pinned_names_are_catalog_files():
    assert set(FAILING) <= {path.stem for path in STRUCTURE_FILES}


def test_a_folded_line_fails_the_distance_clause():
    # z2 with its first line reading |exponent of a|: a fixes the domain
    # and adds 1 to the exponent, so B and AA, at |0| and |-2|, 2 apart,
    # go to aB and A, at |1| and |-1|, on one point
    st = build_named("z2")
    line = st._domains["L1"]
    st._domains["L1"] = line._replace(pi=lambda g: abs(line.pi(g)))
    a, B, AA = map(st.group.parse, ("a", "B", "AA"))
    assert action_failures(st) == [("distance", a, "L1", B, AA)]
