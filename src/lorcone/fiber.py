"""Metric length spaces serving as fibers of generalized cones.

Built-in fibers: the real line, circles, Euclidean space, the round sphere
and the hyperbolic plane (both in ambient models for numerical stability),
and finite metric graphs whose points live on edges.  The module also places
metric comparison triangles in the constant-curvature model surfaces.

Besides the one-pair ``distance`` and ``geodesic_point``, every fiber answers
the array forms ``distances(xs, ys)`` (one distance per pair of two stacks of
points) and ``geodesic_points(x, y, us)`` (one point per fraction).  The base
class loops over the one-pair methods; ``EuclideanN`` and ``Sphere2`` compute
both in numpy, with the same bits as their one-pair methods.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .errors import (AmbiguousGeodesicError, DomainError, NonGeodesicFiberError,
                     RealizationError, SizeBoundsError, TriangleError)


class FiberSpace(abc.ABC):
    """A metric space with optional minimizing-geodesic interpolation.

    ``distance`` must be a metric; ``geodesic_point(x, y, u)`` returns the
    point at parameter ``u`` on a chosen minimizing geodesic, with a
    deterministic tie-break for the non-unique cases unless ``tie_break`` is
    disabled.  ``distances`` and ``geodesic_points`` are their array forms;
    here they loop over the one-pair methods.  Flags are declared, not
    proven, for user-supplied spaces.
    """

    kind = "abstract"
    is_geodesic = True
    is_proper = True
    is_locally_compact = True
    curvature_lower = None
    curvature_upper = None
    tie_break = "canonical"

    @abc.abstractmethod
    def distance(self, x, y) -> float:
        ...

    def geodesic_point(self, x, y, u):
        raise NonGeodesicFiberError(f"{self.kind} fiber has no geodesic interpolation")

    def distances(self, xs, ys):
        """The distance of each pair (xs[i], ys[i]) as a float array."""
        return np.array([self.distance(x, y) for x, y in zip(xs, ys, strict=True)],
                        dtype=float)

    def geodesic_points(self, x, y, us):
        """The point at each fraction u on the geodesic from x to y."""
        return [self.geodesic_point(x, y, float(u)) for u in us]

    @abc.abstractmethod
    def sample_point(self, rng):
        ...

    # point encoding for CSV / command line use
    def csv_columns(self):
        return ("x",)

    def format_point(self, x) -> str:
        return "%.9g" % float(x)

    def parse_point(self, text: str):
        try:
            return float(text)
        except ValueError as exc:
            raise DomainError(f"invalid {self.kind} point {text!r}") from exc


def _stack(xs, pt, dim):
    """A stack of points as an (N, dim) float array.  When it is not one,
    ``pt`` is applied to each point so that the first bad point raises the
    one-pair methods' DomainError."""
    try:
        arr = np.asarray(xs, dtype=float)
    except ValueError:   # a ragged stack
        arr = None
    if arr is not None and arr.ndim == 2 and arr.shape[1] == dim:
        return arr
    for x in xs:
        pt(x)
    if arr is not None and arr.size == 0:
        return arr.reshape(0, dim)
    raise DomainError(f"expected a stack of {dim}-vectors")


def _norms(arr):
    """Row norms with the bits of np.linalg.norm on each row, whose sum of
    squares is a BLAS dot product (fused multiply-adds on some hosts)."""
    return np.sqrt(np.vecdot(arr, arr))


class RealLine(FiberSpace):
    kind = "real_line"
    curvature_lower = 0.0
    curvature_upper = 0.0

    def distance(self, x, y):
        return abs(float(x) - float(y))

    def geodesic_point(self, x, y, u):
        return float(x) + u * (float(y) - float(x))

    def sample_point(self, rng):
        return float(rng.normal())


class EuclideanN(FiberSpace):
    kind = "euclidean"
    curvature_lower = 0.0
    curvature_upper = 0.0

    def __init__(self, n):
        if n < 1:
            raise DomainError("euclidean fiber needs n >= 1")
        self.n = int(n)

    def _pt(self, x):
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.n,):
            raise DomainError(f"expected point in R^{self.n}, got shape {arr.shape}")
        return arr

    def distance(self, x, y):
        return float(np.linalg.norm(self._pt(x) - self._pt(y)))

    def distances(self, xs, ys):
        return _norms(_stack(xs, self._pt, self.n) - _stack(ys, self._pt, self.n))

    def geodesic_point(self, x, y, u):
        return self.geodesic_points(x, y, [u])[0]

    def geodesic_points(self, x, y, us):
        a, b = self._pt(x), self._pt(y)
        return a + np.asarray(us, dtype=float)[:, None] * (b - a)

    def sample_point(self, rng):
        return rng.normal(size=self.n)

    def csv_columns(self):
        return tuple(f"x{i+1}" for i in range(self.n))

    def format_point(self, x):
        return ",".join("%.9g" % v for v in self._pt(x))

    def parse_point(self, text):
        parts = text.split(",")
        if len(parts) != self.n:
            raise DomainError(f"expected {self.n} coordinates, got {len(parts)}")
        return np.array([float(p) for p in parts])


class Circle(FiberSpace):
    """Circle of given radius; points are angles in [0, 2*pi)."""

    kind = "circle"

    def __init__(self, radius=1.0):
        if radius <= 0:
            raise DomainError("circle radius must be positive")
        self.radius = float(radius)

    def _ang(self, x):
        return float(x) % (2.0 * math.pi)

    def distance(self, x, y):
        d = abs(self._ang(x) - self._ang(y))
        return self.radius * min(d, 2.0 * math.pi - d)

    def geodesic_point(self, x, y, u):
        a, b = self._ang(x), self._ang(y)
        delta = (b - a) % (2.0 * math.pi)
        if abs(delta - math.pi) < 1e-12:
            if self.tie_break is None:
                raise AmbiguousGeodesicError("antipodal circle points")
            # canonical rule: travel counterclockwise
            delta = math.pi
        elif delta > math.pi:
            delta -= 2.0 * math.pi
        return self._ang(a + u * delta)

    def sample_point(self, rng):
        return float(rng.uniform(0.0, 2.0 * math.pi))


class Sphere2(FiberSpace):
    """Round 2-sphere of radius r, the model surface of curvature 1/r^2.

    Points are unit 3-vectors in the ambient model; distances come from the
    chord length (stable near 0 and near antipodes).
    """

    kind = "sphere2"

    def __init__(self, radius=1.0):
        if radius <= 0:
            raise DomainError("sphere radius must be positive")
        self.radius = float(radius)
        self.curvature_lower = self.curvature_upper = 1.0 / radius ** 2

    def _unit(self, x):
        arr = np.asarray(x, dtype=float)
        if arr.shape != (3,):
            raise DomainError("sphere point must be a 3-vector")
        n = np.linalg.norm(arr)
        if not 0.5 < n < 2.0:
            raise DomainError("sphere point too far from the unit sphere")
        return arr / n

    def _units(self, xs):
        arr = _stack(xs, self._unit, 3)
        n = _norms(arr)
        if not np.all((0.5 < n) & (n < 2.0)):
            raise DomainError("sphere point too far from the unit sphere")
        return arr / n[:, None]

    def distance(self, x, y):
        a, b = self._unit(x), self._unit(y)
        chord = np.linalg.norm(a - b)
        return self.radius * 2.0 * math.asin(min(1.0, 0.5 * chord))

    def distances(self, xs, ys):
        half = np.minimum(1.0, 0.5 * _norms(self._units(xs) - self._units(ys)))
        # libm's asin, as in distance: numpy's arcsin may differ in the last bit
        return self.radius * 2.0 * np.fromiter(map(math.asin, half.tolist()),
                                               float, half.size)

    def is_antipodal(self, x, y):
        return np.linalg.norm(self._unit(x) + self._unit(y)) < 1e-9

    def _tangent_toward(self, a, b):
        v = b - np.dot(a, b) * a
        n = np.linalg.norm(v)
        if n > 1e-12:
            return v / n
        if self.tie_break is None:
            raise AmbiguousGeodesicError("antipodal sphere points")
        # canonical direction orthogonal to a
        ref = np.array([0.0, 0.0, 1.0]) if abs(a[2]) <= 0.9 else np.array([1.0, 0.0, 0.0])
        v = ref - np.dot(a, ref) * a
        return v / np.linalg.norm(v)

    def geodesic_point(self, x, y, u):
        return self.geodesic_points(x, y, [u])[0]

    def geodesic_points(self, x, y, us):
        a, b = self._unit(x), self._unit(y)
        us = np.asarray(us, dtype=float)
        theta = self.distance(a, b) / self.radius
        if theta < 1e-15:
            return np.tile(a, (us.size, 1))
        w = self._tangent_toward(a, b)
        s = (us * theta)[:, None]
        p = np.cos(s) * a + np.sin(s) * w
        return p / _norms(p)[:, None]

    def sample_point(self, rng):
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)

    def csv_columns(self):
        return ("nx", "ny", "nz")

    def format_point(self, x):
        return ",".join("%.9g" % v for v in self._unit(x))

    def parse_point(self, text):
        parts = text.split(",")
        if len(parts) != 3:
            raise DomainError("sphere point needs 3 comma-separated coordinates")
        return self._unit(np.array([float(p) for p in parts]))


class Hyperbolic2(FiberSpace):
    """Hyperbolic plane of radius r (curvature -1/r^2) in the hyperboloid model.

    Points satisfy <x,x> = -r^2 with x0 > 0 for the Minkowski form
    -x0^2 + x1^2 + x2^2; interpolation renormalizes back onto the sheet.
    """

    kind = "hyperbolic2"

    def __init__(self, radius=1.0):
        if radius <= 0:
            raise DomainError("hyperbolic radius must be positive")
        self.radius = float(radius)
        self.curvature_lower = self.curvature_upper = -1.0 / radius ** 2

    @staticmethod
    def _mdot(x, y):
        return -x[0] * y[0] + x[1] * y[1] + x[2] * y[2]

    def _pt(self, x):
        arr = np.asarray(x, dtype=float)
        if arr.shape != (3,):
            raise DomainError("hyperboloid point must be a 3-vector")
        if arr[0] <= 0:
            raise DomainError("hyperboloid point must have x0 > 0")
        return self._renorm(arr)

    def _renorm(self, arr):
        q = -self._mdot(arr, arr)
        if q <= 0:
            raise DomainError("point not on the hyperboloid sheet")
        return arr * (self.radius / math.sqrt(q))

    def distance(self, x, y):
        a, b = self._pt(x), self._pt(y)
        diff = a - b
        q = self._mdot(diff, diff)
        # <a-b, a-b> = 4 r^2 sinh^2(d / 2r), spacelike hence >= 0
        return 2.0 * self.radius * math.asinh(math.sqrt(max(0.0, q)) / (2.0 * self.radius))

    def geodesic_point(self, x, y, u):
        a, b = self._pt(x), self._pt(y)
        d = self.distance(a, b)
        if d < 1e-15:
            return a.copy()
        r = self.radius
        v = b + (self._mdot(a, b) / r ** 2) * a
        nv = math.sqrt(max(0.0, self._mdot(v, v)))
        w = v / nv
        s = u * d / r
        return self._renorm(math.cosh(s) * a + r * math.sinh(s) * w)

    def from_polar(self, rho, theta):
        r = self.radius
        return np.array([r * math.cosh(rho / r),
                         r * math.sinh(rho / r) * math.cos(theta),
                         r * math.sinh(rho / r) * math.sin(theta)])

    def sample_point(self, rng):
        return self.from_polar(abs(rng.normal()), rng.uniform(0.0, 2.0 * math.pi))

    def csv_columns(self):
        return ("h0", "h1", "h2")

    def format_point(self, x):
        return ",".join("%.9g" % v for v in self._pt(x))

    def parse_point(self, text):
        parts = text.split(",")
        if len(parts) != 3:
            raise DomainError("hyperboloid point needs 3 comma-separated coordinates")
        return self._pt(np.array([float(p) for p in parts]))


class MetricGraph(FiberSpace):
    """Connected weighted graph as a metric length space.

    Points are ``(edge_index, offset)`` with the offset measured from the
    edge's first endpoint; vertex points are canonicalized onto the smallest
    incident edge.  All-pairs vertex distances and shortest-path predecessors
    are precomputed at construction.
    """

    kind = "graph"

    def __init__(self, edges, vertex_sample_weight=0.25):
        # edges: iterable of (u, v, weight) with hashable vertex names
        names = []
        index = {}
        parsed = []
        for u, v, w in edges:
            w = float(w)
            if w <= 0:
                raise DomainError(f"edge ({u}, {v}) must have positive weight")
            if u == v:
                raise DomainError(f"self-loop at {u} not supported")
            for name in (u, v):
                if name not in index:
                    index[name] = len(names)
                    names.append(name)
            parsed.append((index[u], index[v], w))
        if not parsed:
            raise DomainError("graph needs at least one edge")
        self.vertex_names = tuple(names)
        self.edges = tuple(parsed)
        self._vertex_sample_weight = float(vertex_sample_weight)
        n = len(names)
        rows = [e[0] for e in parsed] + [e[1] for e in parsed]
        cols = [e[1] for e in parsed] + [e[0] for e in parsed]
        data = [e[2] for e in parsed] * 2
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra
        adj = csr_matrix((data, (rows, cols)), shape=(n, n))
        self._vdist, self._pred = dijkstra(adj, directed=False,
                                           return_predecessors=True)
        if not np.all(np.isfinite(self._vdist)):
            raise DomainError("graph is not connected")
        incident = {i: [] for i in range(n)}
        for ei, (u, v, _) in enumerate(parsed):
            incident[u].append(ei)
            incident[v].append(ei)
        self._incident = incident

    # -- point handling --------------------------------------------------------

    def vertex_point(self, name):
        """Canonical point for a vertex: smallest incident edge index."""
        if name not in self.vertex_names:
            raise DomainError(f"unknown vertex {name!r}")
        vi = self.vertex_names.index(name)
        ei = min(self._incident[vi])
        u, v, w = self.edges[ei]
        return (ei, 0.0) if vi == u else (ei, w)

    def _norm(self, p):
        try:
            ei, off = p
            ei = int(ei)
            off = float(off)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"invalid graph point {p!r}") from exc
        if not 0 <= ei < len(self.edges):
            raise DomainError(f"edge index {ei} out of range")
        u, v, w = self.edges[ei]
        if not -1e-9 <= off <= w + 1e-9:
            raise DomainError(f"offset {off} outside [0, {w}]")
        off = min(max(off, 0.0), w)
        # canonicalize endpoints onto the smallest incident edge
        if off <= 1e-12 * max(1.0, w):
            return self.vertex_point(self.vertex_names[u])
        if w - off <= 1e-12 * max(1.0, w):
            return self.vertex_point(self.vertex_names[v])
        return (ei, off)

    def distance(self, p, q):
        return self._best_route(p, q)[0]

    def _routes(self, p, q):
        """All candidate routes with lengths; route = (length, key, walk)."""
        p = self._norm(p)
        q = self._norm(q)
        (e1, o1), (e2, o2) = p, q
        u1, v1, w1 = self.edges[e1]
        u2, v2, w2 = self.edges[e2]
        routes = []
        if e1 == e2:
            routes.append((abs(o1 - o2), (-1, -1, ()), ("direct", e1, o1, o2)))
        for a, da in ((u1, o1), (v1, w1 - o1)):
            for b, db in ((u2, o2), (v2, w2 - o2)):
                length = da + self._vdist[a, b] + db
                walk = self._vertex_walk(a, b)
                routes.append((length, (a, b, tuple(walk)),
                               ("via", e1, o1, a, walk, b, e2, o2)))
        return routes

    def _best_route(self, p, q):
        routes = self._routes(p, q)
        best = min(r[0] for r in routes)
        # deterministic lexicographic tie-break among near-equal routes
        ties = [r for r in routes if r[0] <= best + 1e-12 * max(1.0, best)]
        ties.sort(key=lambda r: r[1])
        chosen = ties[0]
        return best, chosen[2]

    def _vertex_walk(self, a, b):
        if a == b:
            return [a]
        walk = [b]
        cur = b
        while cur != a:
            cur = int(self._pred[a, cur])
            if cur < 0:
                raise DomainError("graph is not connected")
            walk.append(cur)
        walk.reverse()
        return walk

    def _edge_between(self, a, b):
        best = None
        for ei in self._incident[a]:
            u, v, w = self.edges[ei]
            if (u, v) == (a, b) or (u, v) == (b, a):
                if best is None or w < self.edges[best][2]:
                    best = ei
        if best is None:
            raise DomainError(f"no edge between vertices {a} and {b}")
        return best

    def geodesic_point(self, p, q, u):
        total, route = self._best_route(p, q)
        target = u * total
        if total <= 1e-15:
            return self._norm(p)
        if route[0] == "direct":
            _, ei, o1, o2 = route
            return self._norm((ei, o1 + (o2 - o1) * u))
        _, e1, o1, a, walk, b, e2, o2 = route
        u1, v1, w1 = self.edges[e1]
        first_len = o1 if a == u1 else w1 - o1
        if target <= first_len:
            off = o1 - target if a == u1 else o1 + target
            return self._norm((e1, off))
        target -= first_len
        for x, y in zip(walk[:-1], walk[1:]):
            ei = self._edge_between(x, y)
            uu, vv, ww = self.edges[ei]
            if target <= ww:
                off = target if x == uu else ww - target
                return self._norm((ei, off))
            target -= ww
        # remaining distance walks into the target edge from endpoint b
        u2, v2, w2 = self.edges[e2]
        off = target if b == u2 else w2 - target
        return self._norm((e2, off))

    def sample_point(self, rng):
        # mix of vertex atoms (degree-weighted, so branch points are actually
        # probed by triangle sampling) and uniform points on edges
        if rng.uniform() < self._vertex_sample_weight:
            degrees = np.array([len(self._incident[i])
                                for i in range(len(self.vertex_names))], float)
            vi = rng.choice(len(self.vertex_names), p=degrees / degrees.sum())
            return self.vertex_point(self.vertex_names[vi])
        ei = int(rng.integers(len(self.edges)))
        w = self.edges[ei][2]
        return self._norm((ei, float(rng.uniform(0.0, w))))

    def csv_columns(self):
        return ("point",)

    def format_point(self, p):
        ei, off = self._norm(p)
        return "%d:%.9g" % (ei, off)

    def parse_point(self, text):
        text = text.strip()
        if ":" not in text:
            return self.vertex_point(text)
        ei, off = text.split(":", 1)
        return self._norm((int(ei), float(off)))

    @classmethod
    def from_text(cls, text, **kw):
        """Parse an edge list: one ``u v weight`` triple per line."""
        edges = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise DomainError(f"edge list line {lineno}: expected 'u v weight'")
            edges.append((parts[0], parts[1], float(parts[2])))
        return cls(edges, **kw)


def tripod(leg=1.0, vertex_sample_weight=0.5):
    """Metric tree with one degree-3 branch vertex ('o') and three legs."""
    return MetricGraph([("o", "a", leg), ("o", "b", leg), ("o", "c", leg)],
                       vertex_sample_weight=vertex_sample_weight)


class CallbackFiber(FiberSpace):
    """Wrap a user distance callback; flags are recorded without proof."""

    kind = "callback"

    def __init__(self, distance_fn, sampler=None, is_geodesic=False,
                 interpolator=None):
        self._distance_fn = distance_fn
        self._sampler = sampler
        self._interp = interpolator
        self.is_geodesic = bool(is_geodesic and interpolator is not None)

    def distance(self, x, y):
        return float(self._distance_fn(x, y))

    def geodesic_point(self, x, y, u):
        if not self.is_geodesic:
            raise NonGeodesicFiberError("callback fiber has no interpolator")
        return self._interp(x, y, u)

    def sample_point(self, rng):
        if self._sampler is None:
            raise DomainError("callback fiber has no sampler")
        return self._sampler(rng)


def model_surface(K: float) -> FiberSpace:
    """The Riemannian model surface of constant curvature K."""
    if K > 0:
        return Sphere2(1.0 / math.sqrt(K))
    if K < 0:
        return Hyperbolic2(1.0 / math.sqrt(-K))
    return EuclideanN(2)


@dataclass(frozen=True)
class RealizedTriangle:
    space: FiberSpace
    points: tuple


def realize_metric_triangle(K, d_xy, d_xz, d_yz, tol=1e-9) -> RealizedTriangle:
    """Place a triangle with the given side lengths in the model surface.

    Canonical placement: x at the base point, y along the reference geodesic,
    z on the positive side.  Raises on triangle-inequality violations and,
    for K > 0, on perimeter >= 2*pi/sqrt(K).
    """
    sides = (d_xy, d_xz, d_yz)
    if any(d < 0 for d in sides):
        raise TriangleError("side lengths must be nonnegative")
    scale = max(1.0, *sides)
    if (d_yz > d_xy + d_xz + tol * scale or d_xy > d_xz + d_yz + tol * scale
            or d_xz > d_xy + d_yz + tol * scale):
        raise TriangleError(f"triangle inequality fails for sides {sides}")
    if K > 0 and sum(sides) >= 2.0 * math.pi / math.sqrt(K):
        raise SizeBoundsError(
            f"perimeter {sum(sides):g} exceeds 2*pi/sqrt(K) for K={K:g}")
    space = model_surface(K)
    if K == 0:
        x = np.zeros(2)
        y = np.array([d_xy, 0.0])
        if d_xy < tol or d_xz < tol:
            z = np.array([d_xz, 0.0])
        else:
            cos_t = (d_xy ** 2 + d_xz ** 2 - d_yz ** 2) / (2.0 * d_xy * d_xz)
            cos_t = min(1.0, max(-1.0, cos_t))
            sin_t = math.sqrt(max(0.0, 1.0 - cos_t ** 2))
            z = np.array([d_xz * cos_t, d_xz * sin_t])
        pts = (x, y, z)
    else:
        r = space.radius
        alpha, beta, gamma = d_xy / r, d_xz / r, d_yz / r
        if K > 0:
            x = np.array([0.0, 0.0, 1.0])
            e1, e2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
            y = math.cos(alpha) * x + math.sin(alpha) * e1
            if alpha < tol or beta < tol:
                z = math.cos(beta) * x + math.sin(beta) * e1
            else:
                cos_t = ((math.cos(gamma) - math.cos(alpha) * math.cos(beta))
                         / (math.sin(alpha) * math.sin(beta)))
                cos_t = min(1.0, max(-1.0, cos_t))
                sin_t = math.sqrt(max(0.0, 1.0 - cos_t ** 2))
                dir_z = cos_t * e1 + sin_t * e2
                z = math.cos(beta) * x + math.sin(beta) * dir_z
        else:
            x = np.array([r, 0.0, 0.0])
            if alpha < tol or beta < tol:
                y = np.array([r * math.cosh(alpha), r * math.sinh(alpha), 0.0])
                z = np.array([r * math.cosh(beta), r * math.sinh(beta), 0.0])
            else:
                cos_t = ((math.cosh(alpha) * math.cosh(beta) - math.cosh(gamma))
                         / (math.sinh(alpha) * math.sinh(beta)))
                cos_t = min(1.0, max(-1.0, cos_t))
                sin_t = math.sqrt(max(0.0, 1.0 - cos_t ** 2))
                y = np.array([r * math.cosh(alpha), r * math.sinh(alpha), 0.0])
                z = np.array([r * math.cosh(beta),
                              r * math.sinh(beta) * cos_t,
                              r * math.sinh(beta) * sin_t])
        pts = (x, y, z)
    got = (space.distance(pts[0], pts[1]), space.distance(pts[0], pts[2]),
           space.distance(pts[1], pts[2]))
    resid = max(abs(g - d) for g, d in zip(got, sides))
    if resid > 1e-9 * scale:
        raise RealizationError(
            f"triangle placement residual {resid:g} for sides {sides}",
            residual=resid)
    return RealizedTriangle(space, pts)
