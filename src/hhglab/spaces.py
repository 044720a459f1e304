"""Spaces serving as the hyperbolic coordinate targets of a structure.

Each space fixes a point type, an exact metric, geodesics, and a
deterministic sampler around the basepoint.  The fellow-traveling checks
in the rest of the package only ever see this interface.

The pairwise distances of a finite sample are computed once, in one place,
`distance_table`; the four-point check, the quasi-line sweep and every
sample diameter read them from it.
"""

from itertools import combinations, islice

from .balls import standard_ball
from .errors import InputError, WrongKindError
from .groups import FreeGroup, FreeProduct, invert_word, is_int


class Space:
    """Metric space with basepoint, geodesics, and a ball sampler."""

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

    def contains(self, x) -> bool:
        raise NotImplementedError

    def check_point(self, x):
        if not self.contains(x):
            raise InputError(f"{x!r} is not a point of {self.label}")
        return x


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


class GraphSpace(Space):
    """Finite connected graph with the edge-path metric."""

    bounded = True

    def __init__(self, n_vertices, edges, label="graph"):
        self.n = n_vertices
        self.label = label
        self.adj = {v: set() for v in range(n_vertices)}
        for a, b in edges:
            if not (0 <= a < n_vertices and 0 <= b < n_vertices) or a == b:
                raise InputError(f"bad edge ({a}, {b})")
            self.adj[a].add(b)
            self.adj[b].add(a)
        self._dist_cache = {}
        if n_vertices:
            self._bfs(0)  # refuses an unconnected graph

    def _bfs(self, src):
        if src in self._dist_cache:
            return self._dist_cache[src]
        dist = {src: 0}
        parent = {src: None}
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for w in self.adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        parent[w] = v
                        nxt.append(w)
            frontier = nxt
        if len(dist) != self.n:
            raise InputError("graph is not connected")
        self._dist_cache[src] = (dist, parent)
        return dist, parent

    def dist(self, x, y):
        self.check_point(x)
        self.check_point(y)
        return self._bfs(x)[0][y]

    def basepoint(self):
        return 0

    def geodesic(self, x, y):
        _, parent = self._bfs(x)
        path = [y]
        while path[-1] != x:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def sample_points(self, radius):
        d = self._bfs(self.basepoint())[0]
        return [v for v in range(self.n) if d[v] <= radius]

    def contains(self, x):
        return is_int(x) and 0 <= x < self.n


class CayleyTreeSpace(Space):
    """Cayley graph of a free group with its standard generators (a tree)."""

    label = "tree"

    def __init__(self, free_model):
        if not isinstance(free_model, FreeGroup):
            raise WrongKindError("CayleyTreeSpace needs a free group model")
        self.model = free_model

    def dist(self, x, y):
        return len(self.model.multiply(self.model.inverse(x), y))

    def basepoint(self):
        return ()

    def geodesic(self, x, y):
        u = self.model.multiply(self.model.inverse(x), y)
        return [self.model.multiply(x, u[:i]) for i in range(len(u) + 1)]

    def sample_points(self, radius):
        return standard_ball(self.model, int(radius))

    def contains(self, x):
        try:
            return self.model.normal_form(x) == tuple(x)
        except InputError:
            return False


class CosetTreeSpace(Space):
    """Tree of factor cosets of a two-factor free product.

    Vertices are pairs (factor index, canonical representative): the
    representative drops a trailing syllable lying in the vertex's own
    factor, so each coset names exactly one vertex.  Cosets g F_i and
    h F_j are adjacent when they intersect, which yields a tree.

    Points are checked where they enter the package (``contains`` in
    ``coords.is_consistent``, ``check_point`` in the relative projection of
    a free-product structure); ``dist`` and ``geodesic`` trust that the
    points they get come from ``vertex``, ``translate``, ``sample_points``
    or a projection, and do not check them again.
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
        syls = self.model.syllables(word)
        if syls and syls[-1][0] == factor:
            syls = syls[:-1]
        out = []
        for fi, local in syls:
            out.extend(self.model.to_global(fi, local))
        return tuple(out)

    def translate(self, g, v):
        """Left action of the group on cosets."""
        factor, rep = v
        return self.vertex(factor, self.model.multiply(g, rep))

    def dist(self, x, y):
        if x == y:
            return 0
        (i, h), (j, k) = x, y
        syls = self.model.syllables(invert_word(h) + tuple(k))
        if syls and syls[0][0] == i:
            syls = syls[1:]
        if syls and syls[-1][0] == j:
            syls = syls[:-1]
        return len(syls) + 1

    def basepoint(self):
        return (0, ())

    def cosets(self, h, k):
        """The cosets the syllable path from h to k runs through: for each
        syllable of h^-1 k, the vertex of its factor's coset at the point
        the path has reached.  Along a reduced path they are pairwise
        distinct."""
        out = []
        g = h
        for fi, local in self.model.syllables(invert_word(h) + tuple(k)):
            out.append((fi, self._rep(fi, g)))
            g = self.model.multiply(g, self.model.to_global(fi, local))
        return out

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
        return w == tuple(rep) and self._rep(factor, w) == w


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


def max_four_point_defect(space, points, quad_budget):
    """Worst defect over the first quad_budget quadruples of the sample,
    the defect being half the gap between the two largest pairing sums; a
    space is delta-hyperbolic in the four-point sense when it is <= delta."""
    t = distance_table(space.dist, points)
    worst = 0.0
    for i, j, k, l in islice(combinations(range(len(points)), 4), quad_budget):
        sums = sorted([t[i][j] + t[k][l], t[i][k] + t[j][l], t[i][l] + t[j][k]])
        defect = (sums[2] - sums[1]) / 2
        if defect > worst:
            worst = defect
    return worst


def translation_length(space, act, x):
    """max(0, d(x, g^2 x) - d(x, g x)): exact translation length whenever the
    space is a tree (coset trees, Cayley trees, lines, paths)."""
    gx = act(x)
    ggx = act(gx)
    return max(0, space.dist(x, ggx) - space.dist(x, gx))
