"""Fibers: metric axioms, geodesic interpolation, graphs, model triangles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorcone import (AmbiguousGeodesicError, CallbackFiber, Circle,
                     DomainError, EuclideanN, Hyperbolic2, MetricGraph,
                     RealLine, Sphere2, TriangleError, SizeBoundsError,
                     model_surface, realize_metric_triangle)
from lorcone.fiber import tripod

ALL_FIBERS = [
    RealLine(),
    EuclideanN(2),
    EuclideanN(3),
    Circle(1.5),
    Sphere2(1.0),
    Hyperbolic2(1.0),
    tripod(),
]


@pytest.mark.parametrize("fiber", ALL_FIBERS, ids=lambda f: f.kind)
def test_metric_axioms(fiber):
    rng = np.random.default_rng(7)
    pts = [fiber.sample_point(rng) for _ in range(30)]
    for _ in range(1000):
        x, y, z = (pts[rng.integers(len(pts))] for _ in range(3))
        dxy = fiber.distance(x, y)
        dyx = fiber.distance(y, x)
        assert dxy >= 0
        assert abs(dxy - dyx) <= 1e-9
        assert fiber.distance(x, x) <= 1e-12
        assert fiber.distance(x, z) <= dxy + fiber.distance(y, z) + 1e-9


@pytest.mark.parametrize("fiber", ALL_FIBERS, ids=lambda f: f.kind)
def test_geodesic_interpolation(fiber):
    rng = np.random.default_rng(11)
    for _ in range(60):
        x = fiber.sample_point(rng)
        y = fiber.sample_point(rng)
        d = fiber.distance(x, y)
        u, v = sorted(rng.uniform(0, 1, size=2))
        m_u = fiber.geodesic_point(x, y, u)
        m_v = fiber.geodesic_point(x, y, v)
        assert fiber.distance(x, m_u) == pytest.approx(u * d, abs=1e-9)
        assert fiber.distance(m_u, y) == pytest.approx((1 - u) * d, abs=1e-9)
        # additivity along the chosen geodesic
        assert fiber.distance(m_u, m_v) == pytest.approx((v - u) * d, abs=1e-9)


class TestBuiltins:
    def test_real_line(self):
        f = RealLine()
        assert f.distance(1.0, 4.0) == 3.0
        assert f.geodesic_point(0.0, 4.0, 0.25) == 1.0

    def test_sphere_antipodal(self):
        s = Sphere2(1.0)
        north = np.array([0.0, 0.0, 1.0])
        south = -north
        assert s.distance(north, south) == pytest.approx(math.pi)
        assert s.is_antipodal(north, south)
        mid = s.geodesic_point(north, south, 0.5)
        assert s.distance(north, mid) == pytest.approx(math.pi / 2, abs=1e-9)
        s_strict = Sphere2(1.0)
        s_strict.tie_break = None
        with pytest.raises(AmbiguousGeodesicError):
            s_strict.geodesic_point(north, south, 0.5)

    def test_sphere_radius_scaling(self):
        s = Sphere2(2.0)
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        assert s.distance(a, b) == pytest.approx(2.0 * math.pi / 2)

    def test_hyperbolic_midpoint(self):
        h = Hyperbolic2(1.0)
        x = h.from_polar(0.0, 0.0)
        y = h.from_polar(2.0, 0.3)
        assert h.distance(x, y) == pytest.approx(2.0, abs=1e-12)
        mid = h.geodesic_point(x, y, 0.5)
        assert h.distance(x, mid) == pytest.approx(1.0, abs=1e-10)
        assert h.distance(mid, y) == pytest.approx(1.0, abs=1e-10)

    def test_circle(self):
        c = Circle(2.0)
        assert c.distance(0.0, math.pi / 2) == pytest.approx(math.pi)
        # wrap-around uses the short arc
        assert c.distance(0.1, 2 * math.pi - 0.1) == pytest.approx(0.4)


def _graph_brute_distance(g, p, q):
    """Shortest length over all simple vertex paths between endpoint routes."""
    p, q = g._norm(p), g._norm(q)
    (e1, o1), (e2, o2) = p, q
    u1, v1, w1 = g.edges[e1]
    u2, v2, w2 = g.edges[e2]
    n = len(g.vertex_names)
    adj = {}
    for (uu, vv, ww) in g.edges:
        adj.setdefault(uu, []).append((vv, ww))
        adj.setdefault(vv, []).append((uu, ww))
    best_v = np.full((n, n), np.inf)

    def walk(start, node, dist, seen):
        if dist < best_v[start, node]:
            best_v[start, node] = dist
        for nxt, ww in adj.get(node, ()):
            if nxt not in seen:
                walk(start, nxt, dist + ww, seen | {nxt})

    for s in range(n):
        walk(s, s, 0.0, {s})
    cand = []
    if e1 == e2:
        cand.append(abs(o1 - o2))
    for a, da in ((u1, o1), (v1, w1 - o1)):
        for b, db in ((u2, o2), (v2, w2 - o2)):
            cand.append(da + best_v[a, b] + db)
    return min(cand)


class TestMetricGraph:
    def test_chain(self):
        g = MetricGraph([("a", "b", 1.0), ("b", "c", 2.0)])
        assert g.distance(g.vertex_point("a"), g.vertex_point("c")) == 3.0

    def test_midpoint_on_edge(self):
        g = MetricGraph([("a", "b", 2.0)])
        p = g.geodesic_point(g.vertex_point("a"), g.vertex_point("b"), 0.5)
        assert p == (0, 1.0)

    def test_vertex_canonicalization(self):
        g = MetricGraph([("a", "b", 1.0), ("b", "c", 2.0)])
        # vertex b sits on its smallest incident edge (0), at the b end
        assert g.vertex_point("b") == (0, 1.0)
        assert g._norm((1, 0.0)) == (0, 1.0)

    def test_disconnected_rejected(self):
        with pytest.raises(DomainError):
            MetricGraph([("a", "b", 1.0), ("c", "d", 1.0)])

    def test_brute_force_distances(self):
        g = MetricGraph([("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 2.5),
                         ("c", "d", 1.0)])
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = g.sample_point(rng)
            q = g.sample_point(rng)
            assert g.distance(p, q) == pytest.approx(
                _graph_brute_distance(g, p, q), abs=1e-12)

    def test_tripod_geodesic_through_branch(self):
        g = tripod()
        p = (0, 0.4)   # on leg a, 0.4 from o
        q = (1, 0.6)   # on leg b, 0.6 from o
        assert g.distance(p, q) == pytest.approx(1.0)
        mid = g.geodesic_point(p, q, 0.4)
        assert g.distance(p, mid) == pytest.approx(0.4, abs=1e-12)
        assert mid == g.vertex_point("o")

    def test_parse_format_roundtrip(self):
        g = tripod()
        p = (2, 0.25)
        assert g.parse_point(g.format_point(p)) == p
        assert g.parse_point("o") == g.vertex_point("o")

    def test_from_text(self):
        g = MetricGraph.from_text("a b 1.0\nb c 2.0\n# comment\n")
        assert g.distance(g.vertex_point("a"), g.vertex_point("c")) == 3.0


class TestRealizeMetricTriangle:
    def test_euclidean_345(self):
        out = realize_metric_triangle(0.0, 3.0, 4.0, 5.0)
        x, y, z = out.points
        assert np.allclose(x, [0, 0])
        assert np.allclose(y, [3, 0])
        assert np.allclose(z, [0, 4], atol=1e-12)

    def test_degenerate(self):
        out = realize_metric_triangle(-1.0, 0.7, 0.7, 0.0)
        _, y, z = out.points
        assert out.space.distance(y, z) <= 1e-12

    def test_hyperbolic_equilateral(self):
        out = realize_metric_triangle(-1.0, 1.0, 1.0, 1.0)
        x, y, z = out.points
        s = out.space
        for p, q in itertools.combinations((x, y, z), 2):
            assert s.distance(p, q) == pytest.approx(1.0, abs=1e-9)
        # hyperbolic law of cosines recovers the apex angle at x
        cos_t = (math.cosh(1) * math.cosh(1) - math.cosh(1)) / (
            math.sinh(1) * math.sinh(1))
        assert 0 < cos_t < 1

    @pytest.mark.parametrize("K", [-2.0, -1.0, 0.0, 1.0, 3.0])
    def test_roundtrip_random(self, K):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = rng.uniform(0.05, 0.8, size=2)
            c = rng.uniform(abs(a - b) + 1e-3, a + b - 1e-3)
            out = realize_metric_triangle(K, a, b, c)
            x, y, z = out.points
            s = out.space
            assert s.distance(x, y) == pytest.approx(a, abs=1e-9)
            assert s.distance(x, z) == pytest.approx(b, abs=1e-9)
            assert s.distance(y, z) == pytest.approx(c, abs=1e-9)

    def test_triangle_inequality_rejected(self):
        with pytest.raises(TriangleError):
            realize_metric_triangle(0.0, 1.0, 1.0, 3.0)

    def test_sphere_size_bound(self):
        with pytest.raises(SizeBoundsError):
            realize_metric_triangle(1.0, 2.5, 2.5, 2.0)

    def test_model_surface_kinds(self):
        assert model_surface(1.0).kind == "sphere2"
        assert model_surface(0.0).kind == "euclidean"
        assert model_surface(-4.0).kind == "hyperbolic2"
        assert model_surface(-4.0).radius == pytest.approx(0.5)


# -- array methods -------------------------------------------------------------

coords = st.floats(-50.0, 50.0, allow_subnormal=False)


@st.composite
def array_fibers(draw):
    """A numpy fiber with a stack of pairs (some equal, some antipodal on the
    sphere), a fraction grid, and a bad point for that fiber."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        fiber = EuclideanN(n)
        point = st.lists(coords, min_size=n, max_size=n).map(np.array)
        bad = np.zeros(n + 1)
    else:
        fiber = Sphere2(draw(st.sampled_from([0.25, 1.0, 3.7])))
        # off the unit sphere by up to the factor the fiber normalizes away
        point = st.tuples(st.lists(coords, min_size=3, max_size=3),
                          st.floats(0.6, 1.9)).filter(
            lambda v: np.linalg.norm(v[0]) > 1e-3).map(
            lambda v: v[1] * np.array(v[0]) / np.linalg.norm(v[0]))
        bad = draw(st.sampled_from([np.zeros(2), 3.0 * np.array([1.0, 0.0, 0.0]),
                                    np.zeros(3)]))
    xs = draw(st.lists(point, min_size=1, max_size=12))
    ys = []
    for x in xs:
        kind = draw(st.sampled_from(["free", "equal", "opposite"]))
        ys.append(draw(point) if kind == "free" else x.copy() if kind == "equal" else -x)
    us = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9))
    return fiber, xs, ys, us + [0.0, 1.0], bad


class TestArrayMethods:
    """The numpy overrides against the one-pair methods, bit for bit."""

    @given(array_fibers(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_overrides_match_one_pair_methods(self, case, data):
        fiber, xs, ys, us, bad = case
        got = fiber.distances(xs, ys)
        assert got.shape == (len(xs),)
        assert got.tobytes() == np.array([fiber.distance(x, y)
                                          for x, y in zip(xs, ys)]).tobytes()
        x, y = xs[0], ys[0]
        pts = fiber.geodesic_points(x, y, us)
        for k, u in enumerate(us):
            assert np.asarray(fiber.geodesic_point(x, y, u)).tobytes() == pts[k].tobytes()
        # a bad point anywhere in either stack raises the one-pair error
        k = data.draw(st.integers(0, len(xs) - 1))
        broken = xs[:k] + [bad] + xs[k + 1:]
        with pytest.raises(DomainError):
            fiber.distance(bad, ys[k])
        with pytest.raises(DomainError):
            fiber.distances(broken, ys)
        with pytest.raises(DomainError):
            fiber.distances(ys, broken)

    def test_ragged_and_empty_stacks(self):
        f = EuclideanN(2)
        with pytest.raises(DomainError, match="got shape \\(3,\\)"):
            f.distances([np.zeros(2), np.zeros(3)], [np.zeros(2), np.zeros(2)])
        assert f.distances([], []).shape == (0,)
        with pytest.raises(DomainError, match="3-vector"):
            Sphere2().distances([np.ones(3), np.ones(2)], [np.ones(3), np.ones(3)])

    @pytest.mark.parametrize("fiber", [
        tripod(),
        CallbackFiber(lambda x, y: abs(x - y) ** 0.5, is_geodesic=True,
                      interpolator=lambda x, y, u: x + u * u * (y - x),
                      sampler=lambda rng: float(rng.normal())),
    ], ids=["tripod", "callback"])
    def test_base_class_loop(self, fiber):
        rng = np.random.default_rng(23)
        xs = [fiber.sample_point(rng) for _ in range(25)]
        ys = [fiber.sample_point(rng) for _ in range(25)]
        assert list(fiber.distances(xs, ys)) == [fiber.distance(x, y)
                                                 for x, y in zip(xs, ys)]
        us = np.linspace(0.0, 1.0, 9)
        for x, y in zip(xs[:5], ys[:5]):
            assert fiber.geodesic_points(x, y, us) == [fiber.geodesic_point(x, y, u)
                                                       for u in us]
