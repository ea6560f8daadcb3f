"""Model planes: time separation, triangle realization, modified distance."""

import math

import numpy as np
import pytest
import scipy.optimize

from lorcone import (DomainError, GeneralizedCone, RealizationError,
                     TriangleError, corresponding_point, model_cone, model_tau,
                     modified_distance, realize_timelike_triangle)
from lorcone.bruteforce import dp_time_separation
from lorcone.lorentz_model import (ModelPoint, chart_warp, signed_energy,
                                   strip_half_width)


class TestModelTau:
    def test_minkowski_closed_form_exact(self):
        p = ModelPoint(0.0, 0.0, 0.0)
        q = ModelPoint(0.0, 2.0, 1.0)
        assert model_tau(0.0, p, q) == math.sqrt(3.0)
        assert model_tau(0.0, q, p) == 0.0
        spacelike = ModelPoint(0.0, 0.5, 2.0)
        assert model_tau(0.0, p, spacelike) == 0.0

    @pytest.mark.parametrize("K", [-1.0, 1.0])
    def test_vertical_geodesic(self, K):
        p = ModelPoint(K, -0.4, 0.3)
        q = ModelPoint(K, 0.6, 0.3)
        assert model_tau(K, p, q) == pytest.approx(1.0, rel=1e-10)

    def test_dp_oracle_k1(self):
        # brute-force grid maximization in the K = 1 chart
        p = ModelPoint(1.0, 0.0, 0.0)
        q = ModelPoint(1.0, 1.0, 0.3)
        solver = model_tau(1.0, p, q)
        oracle = dp_time_separation(chart_warp(1.0), 0.0, 1.0, 0.3, 400, 400)
        assert solver == pytest.approx(oracle, abs=2e-3)

    def test_chart_strip_validation(self):
        with pytest.raises(DomainError):
            ModelPoint(-1.0, 1.6, 0.0)
        ModelPoint(-1.0, 1.5, 0.0)

    def test_chart_curvature_identity(self):
        for K in (-2.0, -1.0, 0.5, 1.0, 4.0):
            w = chart_warp(K)
            t = 0.1 / max(1.0, abs(K))
            assert w.second_derivative(t) / w(t) == pytest.approx(K, abs=1e-9)


class TestRealizeTriangle:
    def test_flat_law_of_cosines(self):
        tri = realize_timelike_triangle(0.0, 1.0, 1.0, 2.5)
        assert (tri.y.t, tri.y.x) == (1.25, 0.75)
        # tau(y, z) recovers side b
        assert model_tau(0.0, tri.y, tri.z) == pytest.approx(1.0, rel=1e-12)

    def test_flat_degenerate(self):
        tri = realize_timelike_triangle(0.0, 1.0, 1.0, 2.0)
        assert (tri.y.t, tri.y.x) == (1.0, 0.0)

    def test_k_negative_sides(self):
        tri = realize_timelike_triangle(-1.0, 0.3, 0.4, 0.8)
        assert model_tau(-1.0, tri.x, tri.y) == pytest.approx(0.3, abs=1e-8)
        assert model_tau(-1.0, tri.y, tri.z) == pytest.approx(0.4, abs=1e-8)
        assert model_tau(-1.0, tri.x, tri.z) == pytest.approx(0.8, abs=1e-8)
        assert tri.y.x >= 0.0

    @pytest.mark.parametrize("K", [-1.0, -0.3, 0.7, 1.0])
    def test_random_realizations(self, K):
        rng = np.random.default_rng(17)
        for _ in range(20):
            c = rng.uniform(0.3, 1.0)
            a = c * rng.uniform(0.1, 0.45)
            b = c * rng.uniform(0.1, 0.45)
            tri = realize_timelike_triangle(K, a, b, c)
            assert model_tau(K, tri.x, tri.y) == pytest.approx(a, abs=1e-8)
            assert model_tau(K, tri.y, tri.z) == pytest.approx(b, abs=1e-8)

    def test_size_bound_rejected(self):
        with pytest.raises(TriangleError):
            realize_timelike_triangle(-1.0, 1.0, 1.0, math.pi + 0.1)
        with pytest.raises(TriangleError):
            realize_timelike_triangle(0.0, 1.0, 1.0, 1.5)  # c < a + b

    def test_chart_diameter_honesty(self):
        # degenerate configurations beyond the strip are refused, not guessed
        with pytest.raises(RealizationError):
            realize_timelike_triangle(-1.0, 1.8, 1.8, 3.6)

    def test_reverse_triangle_on_sides(self):
        tri = realize_timelike_triangle(1.0, 0.35, 0.3, 0.9)
        for sp in (0.0, 0.15, 0.35):
            p = corresponding_point(tri, "xy", sp)
            for sq in (0.0, 0.2, 0.3):
                q = corresponding_point(tri, "yz", sq)
                t_pq = model_tau(1.0, p, q)
                t_xp = model_tau(1.0, tri.x, p)
                t_xq = model_tau(1.0, tri.x, q)
                if t_pq > 0:
                    assert t_xp + t_pq <= t_xq + 1e-8


class TestCorrespondingPoint:
    def test_midpoint_flat(self):
        tri = realize_timelike_triangle(0.0, 0.5, 1.5, 2.0)
        mid = corresponding_point(tri, "xz", 1.0)
        assert (mid.t, mid.x) == (1.0, 0.0)

    def test_endpoints(self):
        tri = realize_timelike_triangle(0.0, 1.0, 1.0, 2.5)
        assert corresponding_point(tri, "xy", 0.0) == tri.x
        end = corresponding_point(tri, "yz", 1.0)
        assert (end.t, end.x) == (2.5, 0.0)

    def test_tau_parameter_meaning(self):
        tri = realize_timelike_triangle(-1.0, 0.4, 0.5, 1.0)
        for s in (0.1, 0.25, 0.4):
            p = corresponding_point(tri, "xy", s)
            assert model_tau(-1.0, tri.x, p) == pytest.approx(s, abs=1e-8)

    def test_out_of_range(self):
        tri = realize_timelike_triangle(0.0, 1.0, 1.0, 2.5)
        with pytest.raises(DomainError):
            corresponding_point(tri, "xy", 1.5)
        with pytest.raises(DomainError):
            corresponding_point(tri, "ab", 0.5)


class TestModifiedDistance:
    def test_zero_energy(self):
        for K in (-2.0, 0.0, 1.0):
            assert modified_distance(K, 0.0) == 0.0

    def test_flat(self):
        assert modified_distance(0.0, -4.0) == -2.0

    def test_negative_curvature_closed_form(self):
        # K*E = 4 > 0: plain cosine branch
        assert modified_distance(-1.0, -4.0) == pytest.approx(math.cos(2.0) - 1.0)

    def test_positive_curvature_cosh_branch(self):
        # K*E = -4: cos(i phi) = cosh phi convention
        assert modified_distance(1.0, -4.0) == pytest.approx(1.0 - math.cosh(2.0))

    def test_series_continuity_at_zero(self):
        # near K = 0 the series gives E/2 - E (K E)/24 + O((K E)^2)
        E = -0.25
        assert modified_distance(0.0, E) == E / 2.0
        for K in (1e-9, 1e-7, -1e-7, -1e-9):
            expected = E * (0.5 - (K * E) / 24.0)
            assert modified_distance(K, E) == pytest.approx(expected, abs=1e-15)
        # the series branch meets the closed form across the threshold
        for K in (3e-6, -3e-6):
            closed = ((1.0 - math.cos(math.sqrt(K * E))) / K if K * E >= 0
                      else (1.0 - math.cosh(math.sqrt(-K * E))) / K)
            assert modified_distance(K, E) == pytest.approx(closed, rel=1e-9)

    def test_ode_residual_small(self):
        tri = realize_timelike_triangle(1.0, 0.25, 0.25, 0.7)
        b = tri.b
        us = np.linspace(0.0, 1.0, 17)
        phi = []
        for u in us:
            pt = corresponding_point(tri, "yz", u * b)
            phi.append(modified_distance(1.0, signed_energy(1.0, tri.x, pt)))
        phi = np.array(phi)
        h = us[1] - us[0]
        second = (phi[2:] - 2 * phi[1:-1] + phi[:-2]) / (h * h)
        resid = second - b * b * 1.0 * phi[1:-1] + b * b
        assert np.max(np.abs(resid)) <= 1e-4

    def test_two_model_strictness(self):
        for K, Kp in ((0.0, 1.0), (-1.0, 0.0)):
            lo = realize_timelike_triangle(K, 0.3, 0.35, 0.8)
            hi = realize_timelike_triangle(Kp, 0.3, 0.35, 0.8)
            for u in (0.2, 0.5, 0.8):
                q_lo = corresponding_point(lo, "yz", u * 0.35)
                q_hi = corresponding_point(hi, "yz", u * 0.35)
                assert (model_tau(Kp, hi.x, q_hi)
                        > model_tau(K, lo.x, q_lo) + 1e-10)


_CURVED = [-4.0, -1.0, -0.25, 0.25, 1.0, 4.0]


def _null_dx(K, a, b):
    """Fiber offset of the null boundary from time a to time b in the chart:
    F = gd(s t) for K > 0 and asinh(tan(s t)) for K < 0."""
    s = math.sqrt(abs(K))
    if K > 0:
        return 2.0 * (math.atan(math.tanh(0.5 * s * b))
                      - math.atan(math.tanh(0.5 * s * a)))
    return math.asinh(math.tan(s * b)) - math.asinh(math.tan(s * a))


def _times(K, rng):
    """Two chart times a < b well inside the K chart."""
    s = math.sqrt(abs(K))
    if K > 0:
        a = rng.uniform(-2.0, 2.0) / s
        return a, a + rng.uniform(0.01, 2.0) / s
    half = strip_half_width(K)
    a = rng.uniform(-0.9, 0.8) * half
    return a, rng.uniform(a + 0.01 * half, 0.9 * half)


class TestClosedFormOracle:
    """The closed forms against the warped-chart cone solver."""

    @staticmethod
    def _agree(K, p, q):
        oracle = model_cone(K).time_separation(p.as_cone_point(), q.as_cone_point())
        got = model_tau(K, p, q)
        assert got == pytest.approx(oracle, rel=0.0, abs=1e-12 * max(1.0, oracle))
        return got

    @pytest.mark.parametrize("K", _CURVED)
    def test_model_tau_random_pairs(self, K):
        rng = np.random.default_rng(11)
        for _ in range(60):
            a, b = _times(K, rng)
            x0 = rng.uniform(-3.0, 3.0)
            dx = rng.uniform(-1.2, 1.2) * _null_dx(K, a, b)
            p, q = ModelPoint(K, a, x0), ModelPoint(K, b, x0 + dx)
            self._agree(K, p, q)
            self._agree(K, q, p)

    @pytest.mark.parametrize("K", _CURVED)
    def test_model_tau_near_null_pairs(self, K):
        rng = np.random.default_rng(12)
        for k in range(3, 7):
            a, b = _times(K, rng)
            dx = (1.0 - 10.0 ** -k) * _null_dx(K, a, b)
            assert self._agree(K, ModelPoint(K, a, 0.5), ModelPoint(K, b, 0.5 + dx)) > 0

    @pytest.mark.parametrize("K", _CURVED)
    def test_model_tau_small_tau_pairs(self, K):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a, _ = _times(K, rng)
            b = a + rng.uniform(1e-7, 5e-7)
            dx = rng.uniform(0.0, 0.5) * _null_dx(K, a, b)
            tau = self._agree(K, ModelPoint(K, a, -0.2), ModelPoint(K, b, -0.2 - dx))
            assert 0.0 < tau < 1e-6

    @pytest.mark.parametrize("K", [0.25, 1.0, 4.0])
    def test_unrolled_circle_is_not_related(self, K):
        # the chart unrolls the dS2 circle: x and x + 2 pi are different points
        # and the null transport F never reaches pi
        p = ModelPoint(K, -5.0, 0.0)
        for dx in (math.pi, 2.0 * math.pi, 2.0 * math.pi + 0.1, -math.pi - 0.3):
            assert model_tau(K, p, ModelPoint(K, 5.0, dx)) == 0.0

    @pytest.mark.parametrize("K", _CURVED)
    def test_near_degenerate_side_residuals(self, K):
        rng = np.random.default_rng(14)
        diam = math.pi / math.sqrt(abs(K))
        for _ in range(20):
            a, b = diam * rng.uniform(0.02, 0.4, size=2)
            c = (a + b) * (1.0 + 1e-9)
            tri = realize_timelike_triangle(K, a, b, c)
            assert abs(model_tau(K, tri.x, tri.y) - a) <= 1e-12
            assert abs(model_tau(K, tri.y, tri.z) - b) <= 1e-12
            assert abs(model_tau(K, tri.x, tri.z) - c) <= 1e-12
            assert tri.y.x >= 0.0

    @pytest.mark.parametrize("K", _CURVED)
    def test_corresponding_point_on_the_maximizer(self, K):
        rng = np.random.default_rng(15)
        cone = model_cone(K)
        diam = math.pi / math.sqrt(abs(K))
        for _ in range(8):
            c = diam * rng.uniform(0.2, 0.85)
            a, b = c * rng.uniform(0.1, 0.45, size=2)
            tri = realize_timelike_triangle(K, a, b, c)
            for side in ("xy", "yz", "xz"):
                v0, v1, length = tri.side(side)
                s = length * rng.uniform(0.05, 0.95)
                got = corresponding_point(tri, side, s)
                ref = cone.point_on_maximizer(v0.as_cone_point(), v1.as_cone_point(), s)
                assert abs(got.t - ref.t) <= 1e-11 and abs(got.x - ref.x) <= 1e-11
                assert model_tau(K, v0, got) == pytest.approx(s, abs=1e-12)

    def test_curved_models_run_no_solver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("model-plane closed forms must not solve")

        monkeypatch.setattr(scipy.optimize, "brentq", refuse)
        for name in ("time_separation", "point_on_maximizer", "maximizer"):
            monkeypatch.setattr(GeneralizedCone, name, refuse)
        for K in (-1.0, 1.0):
            tri = realize_timelike_triangle(K, 0.3, 0.4, 0.8)
            p = corresponding_point(tri, "xy", 0.1)
            q = corresponding_point(tri, "yz", 0.2)
            assert model_tau(K, p, q) > 0.0


def test_model_cone_cache():
    assert model_cone(1.0) is model_cone(1.0)
