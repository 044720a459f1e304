"""Cayley ball enumeration and growth counting.

Balls are taken in the word metric of a caller-supplied generating set,
which need not generate the whole model: for a proper subgroup the
enumeration walks that subgroup's Cayley graph.

``growth_function`` takes its counts from a growth series when it can
prove which Cayley graph the generating set spans (de la Harpe, *Topics in
Geometric Group Theory*, ch. VI):

- the symmetrised standard generators of a free or free-abelian group, of
  a free product (free on its letters), or of a direct product of such
  groups, nested to any depth.  The free group of rank n has spheres
  s_k = 2n(2n-1)^(k-1), the series (1 + x)/(1 - (2n-1)x); Z^n has the
  n-th power of Z's (1 + x)/(1 - x), and a direct product the product of
  its factors' series.  Each is a rational function, so its coefficients
  follow a linear recurrence with one term per free factor;
- a symmetric set of exactly 2n words that generates a free,
  free-abelian or free-product group of rank n.  It is a basis (free and
  free-abelian groups are Hopfian, and a free product here is free on its
  letters), so its Cayley graph is the standard one.

Every other set is counted by the BFS, which is also the reference the
series are tested against.  Each path has its own budget, and both raise
ResourceBudgetError with the last radius completed: the BFS stops past
DEFAULT_MAX_ELEMENTS elements, which it must hold in memory, and a series
count, which holds none, once it passes COUNT_MAX_DIGITS digits.

``generates_at_radius`` is exact on Z^n (integer row reduction) and on free
groups and free products (Stallings folding: Stallings, "Topology of
finite graphs", Invent. Math. 1983; Kapovich-Myasnikov, "Stallings foldings
and subgroups of free groups", J. Algebra 2002).  Membership in F2 x F2 is
undecidable (Mihailova, 1958), so on a direct product or any other model the
words must reach the standard generators within the radius.
"""

import collections
import itertools
from operator import mul

from .errors import InputError, ResourceBudgetError
from .groups import IDENTITY, DirectProduct, FreeAbelianGroup, FreeGroup, FreeProduct

DEFAULT_MAX_ELEMENTS = 2_000_000
# decimal digits of the largest ball count, below Python's 4,300-digit
# limit on int to str, so every count a command returns can be printed
COUNT_MAX_DIGITS = 4000
_COUNT_LIMIT = 10 ** COUNT_MAX_DIGITS


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


def _check_ball_args(gens, radius):
    if radius < 0:
        raise InputError("radius must be nonnegative")
    if any(g == IDENTITY for g in gens):
        raise InputError("generating set contains the identity")
    if not gens:
        raise InputError("empty generating set")


def _layers(model, gens):
    """BFS layers of the Cayley graph of gens, one per radius from 0, with
    no end: layer r is the sorted list of elements at distance exactly r
    from the identity.  Raises ResourceBudgetError once it holds more than
    DEFAULT_MAX_ELEMENTS elements, read when the walk starts.

    Frontier elements and the given generators are normal forms, so each
    step is the model's junction product."""
    limit = DEFAULT_MAX_ELEMENTS
    seen = {IDENTITY}
    frontier = [IDENTITY]
    yield frontier
    for r in itertools.count(1):
        nxt = []
        for w in frontier:
            for s in gens:
                u = model._product(w, s)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
                    if len(seen) > limit:
                        raise ResourceBudgetError(
                            f"ball exceeded {limit} elements at radius {r}",
                            partial_radius=r - 1,
                        )
        nxt.sort()
        yield nxt
        frontier = nxt


def cayley_ball_layers(model, gens, radius):
    """BFS layers of the ball: layers[r] is the sorted list of elements at
    distance exactly r from the identity in the given generating set."""
    _check_ball_args(gens, radius)
    return list(itertools.islice(_layers(model, gens), radius + 1))


def ball_elements(layers):
    out = []
    for layer in layers:
        out.extend(layer)
    return out


def standard_ball(model, radius):
    """Elements of the ball of the given radius in the symmetrized standard
    generators, layer by layer: the one ball every sampler draws from.

    Each ball is built once per model and radius and kept on the model as
    a tuple; every call gets a fresh list of it."""
    try:
        balls = model._standard_balls
    except AttributeError:
        balls = model._standard_balls = {}
    if radius not in balls:
        balls[radius] = tuple(ball_elements(
            cayley_ball_layers(model, symmetrize(model, model.generators()), radius)))
    return list(balls[radius])


def standard_ball_prefix(model, radius, count):
    """The first count elements of standard_ball(model, radius): the ball
    of the least radius holding that many, cut to count.  The growth
    series gives that radius, so no layer past it is built."""
    total = 0
    for r, size in zip(range(radius + 1), standard_spheres(model)):
        total += size
        if total >= count:
            break
    return standard_ball(model, r)[:count]


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _growth_series(model):
    """Growth series of the model in its symmetrised standard generators,
    a rational function (numerator, denominator) as coefficient lists."""
    if isinstance(model, (FreeGroup, FreeProduct)):
        # rank n > 0: spheres 1, 2n, 2n(2n-1), ... sum to (1 + x)/(1 - (2n-1)x)
        return ([1, 1], [1, 1 - 2 * model.ngens]) if model.ngens else ([1], [1])
    if isinstance(model, FreeAbelianGroup):
        factors = [([1, 1], [1, -1])] * model.ngens  # Z: 1, 2, 2, ...
    else:
        factors = [_growth_series(p) for p in model.parts]
    num, den = [1], [1]
    for n, d in factors:
        num, den = _poly_mul(num, n), _poly_mul(den, d)
    return num, den


def standard_spheres(model):
    """Sphere sizes of the model in its symmetrised standard generators,
    with no end: the coefficients of its growth series, by the linear
    recurrence its denominator gives, so each costs one step per factor."""
    num, den = _growth_series(model)
    tail = den[1:]
    past = collections.deque([0] * len(tail), maxlen=len(tail))  # s(r-1), s(r-2), ...
    for r in itertools.count():
        size = (num[r] if r < len(num) else 0) - sum(map(mul, tail, past))
        past.appendleft(size)
        yield size


def _sphere_sizes(model, gens, radius):
    """Sphere sizes of the Cayley graph of gens out to at least the radius:
    the standard series when the graph is provably the standard one (see
    the module docstring), else the BFS layer sizes."""
    standard = set(symmetrize(model, model.generators()))
    given = set(gens)
    if given == standard or (
            not isinstance(model, DirectProduct)
            and len(given) == len(standard)
            and all(model.inverse(g) in given for g in given)
            and _generates(model, gens, radius)):
        return standard_spheres(model)
    return map(len, cayley_ball_layers(model, gens, radius))


def growth_function(model, gens, radius):
    """Cumulative ball sizes [beta(0), ..., beta(radius)], from a growth
    series when the Cayley graph of gens is provably a standard one and
    from the BFS otherwise.  The BFS raises ResourceBudgetError past
    DEFAULT_MAX_ELEMENTS elements, and a count raises it past
    COUNT_MAX_DIGITS digits, which only a series reaches."""
    _check_ball_args(gens, radius)
    beta = []
    total = 0
    sizes = itertools.islice(_sphere_sizes(model, gens, radius), radius + 1)
    for r, size in enumerate(sizes):
        total += size
        if total >= _COUNT_LIMIT:
            raise ResourceBudgetError(
                f"ball count exceeded {COUNT_MAX_DIGITS} digits at radius {r}",
                partial_radius=r - 1,
            )
        beta.append(total)
    return beta


def _folds_to_rose(nletters, words):
    """Whether the Stallings folding of the flower of the words (a loop at
    vertex 0 spelling each word) is one vertex with a loop per letter."""
    parent, edges, merges = [0], [{}], []

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    def add(v, x, u):
        if edges[v].setdefault(x, u) != u:
            merges.append((edges[v][x], u))

    for w in words:
        path = [0, *range(len(parent), len(parent) + len(w) - 1), 0]
        parent += path[1:-1]
        edges += [{} for _ in path[1:-1]]
        for v, x, u in zip(path, w, path[1:]):
            add(v, x, u)
            add(u, x ^ 1, v)
    while merges:
        a, b = map(find, merges.pop())
        if a != b:
            parent[b] = a
            for x, u in edges[b].items():
                add(a, x, u)
    return len(edges[find(0)]) == nletters and len(set(map(find, range(len(parent))))) == 1


def _spans_lattice(rows, rank):
    """Whether the integer rows span Z^rank: Euclid steps clear each column
    below one pivot row, which must be +-1."""
    for col in range(rank):
        while len(live := [r for r in rows if r[col]]) > 1:
            p = min(live, key=lambda r: abs(r[col]))
            rows = [r if r is p else [x - r[col] // p[col] * y for x, y in zip(r, p)]
                    for r in rows]
        if not live or abs(live[0][col]) != 1:
            return False
        rows.remove(live[0])
    return True


def _generates(model, gens, radius):
    """generates_at_radius for symmetric nonidentity normal forms gens."""
    if isinstance(model, FreeAbelianGroup):
        return _spans_lattice([model.exponents(w) for w in gens], model.ngens)
    if isinstance(model, (FreeGroup, FreeProduct)):  # free on their letters
        return _folds_to_rose(2 * model.ngens, gens)
    missing = set(model.generators())
    for layer in itertools.islice(_layers(model, gens), radius + 1):
        missing.difference_update(layer)
        if not missing:
            return True
    return False


def generates_at_radius(model, words, radius):
    """True when the words generate the model: exactly on the families of
    the module docstring, else when the ball of the radius holds every
    standard generator (the BFS stops at the first layer that does)."""
    gens = symmetrize(model, words)
    if not gens:
        return False
    _check_ball_args(gens, radius)
    return _generates(model, gens, radius)


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
