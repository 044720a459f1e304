"""Cayley ball enumeration and growth counting.

Balls are taken in the word metric of a caller-supplied generating set,
which need not generate the whole model: for a proper subgroup the
enumeration walks that subgroup's Cayley graph.
"""

import itertools

from .errors import InputError, ResourceBudgetError
from .groups import IDENTITY

DEFAULT_MAX_ELEMENTS = 2_000_000


def symmetrize(model, words):
    """The normal-form words and their inverses, identity dropped, sorted."""
    out = set()
    for w in words:
        if w == IDENTITY:
            continue
        out.add(w)
        out.add(model.inverse(w))
    return sorted(out, key=lambda w: (len(w), w))


def parse_generating_set(model, text):
    """Comma-separated compact words, e.g. "a,b,caC"."""
    words = [model.parse(tok) for tok in text.split(",") if tok.strip()]
    if not words:
        raise InputError("empty generating set")
    return words


def cayley_ball_layers(model, gens, radius, max_elements=DEFAULT_MAX_ELEMENTS):
    """BFS layers of the ball: layers[r] is the sorted list of elements at
    distance exactly r from the identity in the given generating set.

    Frontier elements and the given generators are normal forms, so each
    step is the model's junction product."""
    if radius < 0:
        raise InputError("radius must be nonnegative")
    if any(g == IDENTITY for g in gens):
        raise InputError("generating set contains the identity")
    if not gens:
        raise InputError("empty generating set")
    seen = {IDENTITY}
    layers = [[IDENTITY]]
    frontier = [IDENTITY]
    for r in range(1, radius + 1):
        nxt = []
        for w in frontier:
            for s in gens:
                u = model._product(w, s)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
                    if len(seen) > max_elements:
                        raise ResourceBudgetError(
                            f"ball exceeded {max_elements} elements at radius {r}",
                            partial_radius=r - 1,
                        )
        nxt.sort()
        layers.append(nxt)
        frontier = nxt
    return layers


def ball_elements(layers):
    out = []
    for layer in layers:
        out.extend(layer)
    return out


def standard_ball(model, radius):
    """Elements of the ball of the given radius in the symmetrized standard
    generators, layer by layer: the one ball every sampler draws from."""
    return ball_elements(
        cayley_ball_layers(model, symmetrize(model, model.generators()), radius))


def growth_function(model, gens, radius):
    """Cumulative ball sizes [beta(0), ..., beta(radius)]."""
    layers = cayley_ball_layers(model, gens, radius)
    beta = []
    total = 0
    for layer in layers:
        total += len(layer)
        beta.append(total)
    return beta


def generates_at_radius(model, words, radius):
    """True when the ball of the given radius in the candidate words contains
    every standard generator of the model.

    A certificate of generation, not a refutation: a set that genuinely
    generates may still fail the test when its short words only reach the
    standard generators beyond the radius.
    """
    gens = symmetrize(model, words)
    if not gens:
        return False
    reached = set(ball_elements(cayley_ball_layers(model, gens, radius)))
    return all(t in reached for t in model.generators())


def enumerate_generating_sets(model, size_bound, length_bound, ambient_radius):
    """Candidate generating sets: subsets of at most size_bound nonidentity
    words of length at most length_bound, one representative per inversion
    pair, filtered by generates_at_radius.  Deterministic order."""
    if length_bound < 1 or ambient_radius < 1:
        raise InputError("length and radius bounds must be at least 1")
    if size_bound <= 0:
        return
    reps = set()
    for w in standard_ball(model, length_bound):
        if w == IDENTITY:
            continue
        reps.add(min(w, model.inverse(w)))
    reps = sorted(reps, key=lambda w: (len(w), w))
    for size in range(1, size_bound + 1):
        for combo in itertools.combinations(reps, size):
            if generates_at_radius(model, list(combo), ambient_radius):
                yield list(combo)
