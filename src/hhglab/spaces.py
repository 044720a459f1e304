"""Spaces serving as the hyperbolic coordinate targets of a structure.

Each space fixes a point type, an exact metric, geodesics, and a
deterministic sampler around the basepoint.  The fellow-traveling checks
in the rest of the package only ever see this interface.

The pairwise distances of a finite sample are computed once, in one place,
`distance_table`; the four-point check, the quasi-line sweep and every
sample diameter read them from it.
"""

from .balls import standard_ball, standard_ball_prefix
from .errors import InputError, WrongKindError
from .groups import FreeGroup, FreeProduct, is_int


class Space:
    """Metric space with basepoint, geodesics, and a ball sampler.

    dist is a metric on the space's points, and two points at distance 0
    are equal: d(p, q) = 0 only when p = q.  Realization relies on it to
    take a target's own point as the only one at distance 0 from it.
    """

    label = "space"
    bounded = False

    def dist(self, x, y):
        raise NotImplementedError

    def basepoint(self):
        raise NotImplementedError

    def geodesic(self, x, y):
        """A geodesic as a list of points from x to y, consecutive at distance 1."""
        raise NotImplementedError

    def sample_points(self, radius):
        """Deterministic list of points within the given radius of the basepoint."""
        raise NotImplementedError

    def sample_prefix(self, radius, count):
        """The first count points of sample_points(radius)."""
        return self.sample_points(radius)[:count]

    def contains(self, x) -> bool:
        raise NotImplementedError


class PointSpace(Space):
    """Single point; the coordinate space of a bounded domain."""

    label = "point"
    bounded = True

    def dist(self, x, y):
        return 0.0

    def basepoint(self):
        return 0

    def geodesic(self, x, y):
        return [x]

    def sample_points(self, radius):
        return [0]

    def contains(self, x):
        return is_int(x) and x == 0


class LineSpace(Space):
    """The integer line."""

    label = "line"

    def dist(self, x, y):
        return abs(x - y)

    def basepoint(self):
        return 0

    def geodesic(self, x, y):
        step = 1 if y >= x else -1
        return list(range(x, y + step, step))

    def sample_points(self, radius):
        return list(range(-int(radius), int(radius) + 1))

    def contains(self, x):
        return is_int(x)


class PathSpace(LineSpace):
    """The path 0 - 1 - ... - (n - 1): a bounded segment of the line."""

    label = "path"
    bounded = True

    def __init__(self, n):
        self.n = n

    def sample_points(self, radius):
        return list(range(min(self.n, int(radius) + 1)))

    def contains(self, x):
        return is_int(x) and 0 <= x < self.n


class CayleyTreeSpace(Space):
    """Cayley graph of a free group with its standard generators (a tree).

    Points are reduced words.  They are checked where they enter the
    package (``contains``), and ``dist`` trusts it: the distance of two
    reduced words is their word distance in the free group, their lengths
    less twice their common prefix, so ``dist`` is that group's kernel
    ``_distance``, which reads nothing off the instance it is called on.
    """

    label = "tree"

    def __init__(self, free_model):
        if not isinstance(free_model, FreeGroup):
            raise WrongKindError("CayleyTreeSpace needs a free group model")
        self.model = free_model

    dist = FreeGroup._distance

    def basepoint(self):
        return ()

    def geodesic(self, x, y):
        u = self.model.multiply(self.model.inverse(x), y)
        return [self.model.multiply(x, u[:i]) for i in range(len(u) + 1)]

    def sample_points(self, radius):
        return standard_ball(self.model, int(radius))

    def sample_prefix(self, radius, count):
        return standard_ball_prefix(self.model, int(radius), count)

    def contains(self, x):
        try:
            return self.model.normal_form(x) == x
        except InputError:
            return False


class CosetTreeSpace(Space):
    """Tree of factor cosets of a two-factor free product.

    Vertices are pairs (factor index, canonical representative): the
    representative drops a trailing syllable lying in the vertex's own
    factor, so each coset names exactly one vertex.  Cosets g F_i and
    h F_j are adjacent when they intersect, which yields a tree.  A
    syllable is a maximal one-factor run of a (freely reduced) normal form.

    Words are normal forms, as everywhere inside the package: ``vertex``,
    ``translate`` and ``cosets`` take them, and a representative is its
    word less the trailing run of its own factor's letters.  Points are
    checked where they enter the package (``contains``, in
    ``coords.is_consistent`` and in the projection axiom); ``dist`` and
    ``geodesic`` trust that the points they get come from ``vertex``,
    ``translate``, ``sample_points`` or a projection, and do not check them
    again.

    ``dist``, ``cosets`` and ``geodesic`` read the syllables of h^-1 k off
    the normal forms h and k and form no product: ``cosets`` and
    ``geodesic`` list them (``_syllables``), ``dist`` counts them in the
    same walk and keeps no list.  Both words are freely reduced
    on all letters, so h^-1 k is h's tail after their common prefix,
    inverted, then k's tail.  Nothing cancels where the tails meet, and
    their end syllables there are one syllable when they share a factor.
    """

    label = "coset tree"

    def __init__(self, product_model):
        if not isinstance(product_model, FreeProduct) or len(product_model.parts) != 2:
            raise WrongKindError("CosetTreeSpace needs a two-factor free product")
        self.model = product_model

    def vertex(self, factor, word):
        if factor not in (0, 1):
            raise InputError("factor index must be 0 or 1")
        return (factor, self._rep(factor, word))

    def _rep(self, factor, word):
        part_of = self.model._part_of
        end = len(word)
        while end and part_of[word[end - 1]] == factor:
            end -= 1
        return word[:end]

    def translate(self, g, v):
        """Left action of the group on cosets."""
        factor, rep = v
        return self.vertex(factor, self.model.multiply(g, rep))

    def _common_prefix(self, h, k):
        c = 0
        for a, b in zip(h, k):
            if a != b:
                break
            c += 1
        return c

    def _syllables(self, h, k):
        """(factor, word, cut) of each syllable of h^-1 k, in order, where
        word[:cut], a prefix of h or of k, is the point the path from h to
        k has reached when the syllable begins."""
        part_of = self.model._part_of
        c = self._common_prefix(h, k)
        out = []
        fi = None  # factor of the syllable the walk is in
        for end in range(len(h), c, -1):
            if part_of[h[end - 1]] != fi:
                fi = part_of[h[end - 1]]
                out.append((fi, h, end))
        for start in range(c, len(k)):
            if part_of[k[start]] != fi:
                fi = part_of[k[start]]
                out.append((fi, k, start))
        return out

    def dist(self, x, y):
        """One more than the syllables of h^-1 k, less a first one in x's
        factor and a last one in y's, counted in _syllables' walk."""
        if x == y:
            return 0
        (i, h), (j, k) = x, y
        part_of = self.model._part_of
        c = self._common_prefix(h, k)
        n = 0
        first = last = None
        for tail in (reversed(h[c:]), k[c:]):
            for a in tail:
                if part_of[a] != last:
                    last = part_of[a]
                    if not n:
                        first = last
                    n += 1
        if n and first == i:
            n -= 1
        if n and last == j:
            n -= 1
        return n + 1

    def basepoint(self):
        return (0, ())

    def cosets(self, h, k):
        """The cosets the syllable path from h to k runs through: for each
        syllable of h^-1 k, the vertex of its factor's coset at the point
        the path has reached.  Along a reduced path they are pairwise
        distinct."""
        return [(fi, self._rep(fi, w[:cut])) for fi, w, cut in self._syllables(h, k)]

    def geodesic(self, x, y):
        path = [x]
        for v in self.cosets(x[1], y[1]) + [y]:
            if v != path[-1]:
                path.append(v)
        return path

    def sample_points(self, radius):
        pts = set()
        for w in standard_ball(self.model, int(radius)):
            pts.add(self.vertex(0, w))
            pts.add(self.vertex(1, w))
        return sorted(pts)

    def contains(self, x):
        if not (isinstance(x, tuple) and len(x) == 2 and is_int(x[0])
                and x[0] in (0, 1)):
            return False
        factor, rep = x
        try:
            w = self.model.normal_form(rep)
        except InputError:
            return False
        return w == rep and self._rep(factor, w) == w


def distance_table(dist, points):
    """Symmetric matrix of the pairwise distances of a sample: entry [i][j]
    is dist(points[i], points[j]) for i < j, computed once, and its mirror;
    the diagonal is 0."""
    points = list(points)
    n = len(points)
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        p, row = points[i], table[i]
        for j in range(i + 1, n):
            row[j] = table[j][i] = dist(p, points[j])
    return table


def sample_diameter(dist, points, default):
    """Largest pairwise distance of the sample; default below two points."""
    table = distance_table(dist, points)
    return max((d for i, row in enumerate(table) for d in row[i + 1:]), default=default)


def max_four_point_defect(space, points):
    """Worst defect over the quadruples i < j < k < l of the sample, the
    defect being half the gap between the two largest pairing sums; a space
    is delta-hyperbolic in the four-point sense when it is <= delta.

    The walk goes in lexicographic order and meets the C(n - 1, 3)
    quadruples 0 < j < k < l first.  When the table is all ints and none of
    them has a gap, the table is 0-hyperbolic at point 0, hence at every
    point (a base point that is delta-hyperbolic gives 2 delta everywhere:
    Gromov, "Hyperbolic groups", MSRI Publ. 8, 1987, 1.1; Ghys-de la Harpe,
    "Sur les groupes hyperboliques d'apres Mikhael Gromov", 1990, ch. 2,
    prop. 2), so the walk stops there with 0.0, what the rest of it would
    return.  A table with a float, whose sums are not exact, is walked to
    the end."""
    t = distance_table(space.dist, points)
    n = len(t)
    worst = 0.0  # largest gap; halving is monotone, so it is halved once
    for i in range(n - 3):
        ti = t[i]
        for j in range(i + 1, n - 2):
            tj = t[j]
            tij = ti[j]
            for k in range(j + 1, n - 1):
                tk = t[k]
                tik, tjk = ti[k], tj[k]
                for til, tjl, tkl in zip(ti[k + 1:], tj[k + 1:], tk[k + 1:]):
                    a = tij + tkl
                    b = tik + tjl
                    c = til + tjk
                    if a < b:
                        a, b = b, a
                    # a >= b; the gap is the largest sum less the middle one
                    if c <= b:
                        gap = a - b
                    elif c <= a:
                        gap = a - c
                    else:
                        gap = c - a
                    if gap > worst:
                        worst = gap
        if i == 0 and worst == 0 and all(isinstance(d, int) for row in t for d in row):
            return 0.0
    return worst / 2


def translation_length(space, x, gx, ggx):
    """max(0, d(x, g^2 x) - d(x, g x)) from a point x and its images gx and
    ggx under an isometry g and its square: the exact translation length of
    g whenever the space is a tree (coset trees, Cayley trees, lines,
    paths)."""
    return max(0, space.dist(x, ggx) - space.dist(x, gx))
