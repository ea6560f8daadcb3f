"""Generalized cones: relations, time separation, maximizers, lengths."""

import io
import math
import pickle

import numpy as np
import pytest
from scipy.optimize import brentq

from lorcone import (CausalPath, DomainError, EuclideanN, GeneralizedCone,
                     IndeterminateRelationError, NonGeodesicFiberError,
                     NotCausalError, RealLine, WarpSpec)
from lorcone.cone import _quad_nodes
from lorcone.fiber import CallbackFiber


def flat_cone(n=2):
    return GeneralizedCone(WarpSpec.constant(1.0), EuclideanN(n))


def minkowski_cone():
    return GeneralizedCone(WarpSpec.identity(), RealLine())


class TestRelate:
    def test_flat_chronological(self):
        Y = flat_cone()
        v = Y.relate(Y.point(0, np.zeros(2)), Y.point(1, np.array([0.5, 0.0])))
        assert v.relation == "chronological"
        assert v.fiber_distance == pytest.approx(0.5)

    def test_flat_null_boundary(self):
        Y = GeneralizedCone(WarpSpec.constant(1.0), RealLine())
        v = Y.relate(Y.point(0.0, 0.0), Y.point(1.0, 1.0))
        assert v.relation == "causal_null_boundary"
        assert v.h_of_d == pytest.approx(1.0)

    def test_minkowski_cone_consistency(self):
        # the h-route and the closed-form sign must agree
        Y = minkowski_cone()
        d = math.acosh(1.2)
        v = Y.relate(Y.point(1.0, 0.0), Y.point(2.0, d))
        assert v.relation == "chronological"
        assert 1 + 4 - 2 * 1 * 2 * 1.2 > 0
        # h_1(d) = e^d = 1.2 + sqrt(1.2^2 - 1) < 2
        assert math.exp(d) == pytest.approx(1.2 + math.sqrt(0.44), rel=1e-12)
        assert math.exp(d) < 2.0
        assert v.h_of_d is None or v.h_of_d == pytest.approx(math.exp(d))

    def test_equal_and_unrelated(self):
        Y = flat_cone()
        p = Y.point(0.0, np.zeros(2))
        assert Y.relate(p, p).relation == "equal"
        q = Y.point(0.0, np.array([1.0, 0.0]))
        assert Y.relate(p, q).relation == "not_related"
        far = Y.point(0.5, np.array([3.0, 0.0]))
        assert Y.relate(p, far).relation == "not_related"

    def test_swapped_orientation(self):
        Y = flat_cone()
        p = Y.point(0.0, np.zeros(2))
        q = Y.point(1.0, np.array([0.1, 0.0]))
        v = Y.relate(q, p)
        assert v.swapped and v.relation == "chronological"
        assert Y.time_separation(q, p) == 0.0

    def test_indeterminate_on_non_geodesic_fiber(self):
        fiber = CallbackFiber(lambda x, y: abs(x - y))
        Y = GeneralizedCone(WarpSpec.constant(1.0), fiber)
        with pytest.raises(IndeterminateRelationError):
            Y.relate(Y.point(0.0, 0.0), Y.point(1.0, 1.0))
        # far from the boundary the verdict is clear even without geodesics
        assert Y.relate(Y.point(0.0, 0.0), Y.point(1.0, 0.2)).relation == \
            "chronological"


class TestTimeSeparation:
    def test_flat(self):
        Y = flat_cone()
        tau = Y.time_separation(Y.point(0, np.zeros(2)),
                                Y.point(2, np.array([1.0, 0.0])))
        assert tau == pytest.approx(math.sqrt(3.0), rel=1e-9)

    def test_minkowski_cone_closed_form(self):
        Y = minkowski_cone()
        d = math.acosh(1.125)
        tau = Y.time_separation(Y.point(1.0, 0.0), Y.point(2.0, d))
        assert tau == pytest.approx(math.sqrt(0.5), rel=1e-9)

    def test_null_boundary_zero(self):
        Y = GeneralizedCone(WarpSpec.constant(1.0), RealLine())
        assert Y.time_separation(Y.point(0.0, 0.0), Y.point(1.0, 1.0)) == 0.0

    def test_vertical(self):
        Y = GeneralizedCone(WarpSpec.cosh(), RealLine())
        assert Y.time_separation(Y.point(-0.3, 0.7), Y.point(0.9, 0.7)) == \
            pytest.approx(1.2)

    def test_monotone_in_fiber_distance(self):
        Y = GeneralizedCone(WarpSpec.sin(), RealLine())
        taus = [Y.time_separation(Y.point(0.8, 0.0), Y.point(2.2, d))
                for d in np.linspace(0.0, 1.2, 13)]
        assert all(b <= a + 1e-12 for a, b in zip(taus, taus[1:]))

    def test_reverse_triangle_random_chains(self):
        rng = np.random.default_rng(23)
        Y = GeneralizedCone(WarpSpec.sin(), EuclideanN(2))
        checked = 0
        while checked < 500:
            t0 = rng.uniform(0.3, 1.2)
            t2 = rng.uniform(t0 + 0.6, min(t0 + 1.6, 3.0))
            t1 = rng.uniform(t0 + 0.1, t2 - 0.1)
            x0 = rng.normal(size=2) * 0.3
            x1 = x0 + rng.normal(size=2) * 0.08
            x2 = x0 + rng.normal(size=2) * 0.15
            p, q, r = Y.point(t0, x0), Y.point(t1, x1), Y.point(t2, x2)
            if not (Y.relate(p, q).is_causal and Y.relate(q, r).is_causal):
                continue
            checked += 1
            assert (Y.time_separation(p, q) + Y.time_separation(q, r)
                    <= Y.time_separation(p, r) + 1e-8)


def _linear_piece_tau(warp, lo, hi, d):
    """Exact tau of the linearly interpolated warp: on a piece f = f_a + m t
    of width h, with g = sqrt(f^2 + kappa^2),
    int f / g = [g] / m = h (f_a + f_b) / (g_a + g_b) and
    int kappa / (f g) = [-asinh(kappa / f)] / m = q asinh(m q) / (m q) with
    q = kappa h (f_a + f_b) / ((g_a + g_b) f_a f_b); kappa by brentq."""
    ts = [lo] + [t for t, _ in warp.samples if lo < t < hi] + [hi]
    fs = [float(warp(t)) for t in ts]

    def integrals(kappa):
        speed = length = 0.0
        for ta, tb, fa, fb in zip(ts[:-1], ts[1:], fs[:-1], fs[1:]):
            h = tb - ta
            ga, gb = math.hypot(fa, kappa), math.hypot(fb, kappa)
            length += h * (fa + fb) / (ga + gb)
            q = kappa * h * (fa + fb) / ((ga + gb) * fa * fb)
            z = (fb - fa) / h * q
            speed += q * (math.asinh(z) / z if z != 0.0 else 1.0)
        return speed, length

    kappa = brentq(lambda k: integrals(k)[0] - d, 0.0, 1e3, xtol=1e-300,
                   rtol=8.9e-16)
    return integrals(kappa)[1]


class TestSampledTimeSeparation:
    @staticmethod
    def _warp(knots=257):
        rng = np.random.default_rng(5)
        ts = np.linspace(0.0, 4.0, knots)
        vs = 1.0 + 0.35 * np.sin(1.3 * ts + 0.4) + 0.08 * rng.uniform(-1.0, 1.0, knots)
        return WarpSpec.sampled(list(zip(ts, vs)), interpolation="linear")

    def test_resolutions_differ_with_many_knots(self):
        # the two-resolution check compares different rules even when more
        # knot pieces lie between p0 and q0 than the coarse rule has nodes
        Y = GeneralizedCone(self._warp(), RealLine())
        counts = [_quad_nodes(Y.warp, 0.7, 2.9, n)[0].size for n in (64, 96, 384, 512)]
        assert len(set(counts)) == 4

    @pytest.mark.parametrize("knots", [17, 257])
    def test_tau_matches_exact_linear_pieces(self, knots):
        w = self._warp(knots)
        Y = GeneralizedCone(w, RealLine())
        for p0, q0, d in ((0.7, 2.9, 0.5), (0.3, 3.6, 2.0), (1.1, 1.4, 0.1)):
            tau = Y.time_separation(Y.point(p0, 0.0), Y.point(q0, d))
            exact = _linear_piece_tau(w, p0, q0, d)
            assert tau == pytest.approx(exact, rel=0.0, abs=1e-12 * max(1.0, exact))


class TestMaximizers:
    def test_flat_straight_segment(self):
        Y = GeneralizedCone(WarpSpec.constant(1.0), RealLine())
        path = Y.maximizing_geodesic(Y.point(0.0, 0.0), Y.point(2.0, 1.0), 33)
        ts = path.times
        xs = np.array(path.points)
        assert np.allclose(xs, ts / 2.0, atol=1e-9)
        assert Y.path_length(path) == pytest.approx(math.sqrt(3.0), abs=1e-6)

    def test_null_path(self):
        Y = GeneralizedCone(WarpSpec.constant(1.0), RealLine())
        path = Y.maximizing_geodesic(Y.point(0.0, 0.0), Y.point(1.0, 1.0), 65)
        assert Y.classify_path(path) == "null"
        assert Y.path_length(path) == pytest.approx(0.0, abs=1e-9)

    def test_progress_outside_the_interval_raises(self):
        # the quadrature nodes skip the warp's domain check, so the base time
        # itself is checked
        Y = GeneralizedCone(WarpSpec.sin(), RealLine())
        m = Y.maximizer(Y.point(0.5, 0.0), Y.point(2.5, 0.6))
        for t in (-0.1, 0.0, math.pi, 3.5):
            with pytest.raises(DomainError):
                m.fiber_progress(t)
            with pytest.raises(DomainError):
                m.proper_time(t)
        assert m.fiber_progress(2.5) == pytest.approx(0.6, abs=1e-9)

    def test_conservation_de_sitter(self):
        Y = GeneralizedCone(WarpSpec.cosh(), RealLine())
        path = Y.maximizing_geodesic(Y.point(0.0, 0.0), Y.point(0.8, 0.5), 201)
        c = Y.conserved_speed(path)
        c = c[np.isfinite(c)]
        assert (c.max() - c.min()) / abs(np.median(c)) <= 1e-4

    def test_length_matches_tau(self):
        Y = GeneralizedCone(WarpSpec.sin(), EuclideanN(2))
        p = Y.point(0.7, np.zeros(2))
        q = Y.point(2.3, np.array([0.8, 0.3]))
        tau = Y.time_separation(p, q)
        path = Y.maximizing_geodesic(p, q, 257)
        assert Y.path_length(path) >= tau - 1e-5
        assert Y.classify_path(path) in ("timelike", "null")

    def test_point_on_maximizer(self):
        Y = GeneralizedCone(WarpSpec.sin(), EuclideanN(2))
        p = Y.point(0.7, np.zeros(2))
        q = Y.point(2.3, np.array([0.8, 0.3]))
        tau = Y.time_separation(p, q)
        mid = Y.point_on_maximizer(p, q, tau / 2)
        assert Y.time_separation(p, mid) == pytest.approx(tau / 2, abs=1e-8)
        assert Y.time_separation(p, mid) + Y.time_separation(mid, q) == \
            pytest.approx(tau, abs=1e-7)

    def test_pushup_property(self):
        # positive-length sampled causal paths have chronological endpoints
        rng = np.random.default_rng(31)
        Y = GeneralizedCone(WarpSpec.sin(), RealLine())
        for _ in range(50):
            ts = np.sort(rng.uniform(0.3, 2.8, size=8))
            if np.min(np.diff(ts)) < 1e-3:
                continue
            xs = [0.0]
            for a, b in zip(ts[:-1], ts[1:]):
                m = Y.warp.min_on(a, b)
                xs.append(xs[-1] + rng.uniform(0.0, 0.9) * (b - a) / m)
            path = CausalPath(tuple(zip(ts, xs)))
            if Y.path_length(path) > 1e-6:
                v = Y.relate(Y.point(ts[0], xs[0]), Y.point(ts[-1], xs[-1]))
                assert v.relation == "chronological"

    def test_tau_length_consistency(self):
        # partition sums of tau along a maximizer converge to the length
        Y = GeneralizedCone(WarpSpec.cosh(), RealLine())
        p, q = Y.point(-0.4, 0.0), Y.point(0.9, 0.6)
        path = Y.maximizing_geodesic(p, q, 129)
        L = Y.path_length(path)
        for k in (2, 4, 8):
            idx = np.linspace(0, path.n_segments, k + 1).astype(int)
            total = sum(
                Y.time_separation(Y.point(*path.samples[i0]),
                                  Y.point(*path.samples[i1]))
                for i0, i1 in zip(idx[:-1], idx[1:]))
            assert total == pytest.approx(L, abs=1e-3)

    def test_upper_semicontinuity_surrogate(self):
        Y = GeneralizedCone(WarpSpec.constant(1.0), RealLine())
        base = Y.maximizing_geodesic(Y.point(0.0, 0.0), Y.point(2.0, 1.0), 33)
        L = Y.path_length(base)
        rng = np.random.default_rng(5)
        prev_bound = math.inf
        for k in (1, 2, 4, 8, 16):
            delta = 0.01 / k
            perturbed = CausalPath(tuple(
                (t, x + rng.uniform(-delta, delta)) for t, x in base.samples))
            # discrete continuity bound for the length functional
            eps = 0.0
            ts = base.times
            for i in range(base.n_segments):
                dt = ts[i + 1] - ts[i]
                eps += math.sqrt(2.0 * dt * 2.0 * delta + (2.0 * delta) ** 2)
            assert Y.path_length(perturbed) <= L + eps + 1e-12
            prev_bound = eps


class TestNonGeodesicFiber:
    """A callback fiber without an interpolator decides relations, but tau at
    fiber distance d > 0 and every maximizer need minimizing curves."""

    def cone(self):
        return GeneralizedCone(WarpSpec.constant(1.0),
                               CallbackFiber(lambda x, y: abs(x - y)))

    def test_chronological_pair_raises(self):
        Y = self.cone()
        p, q = Y.point(0.0, 0.0), Y.point(1.0, 0.2)
        assert Y.relate(p, q).relation == "chronological"
        with pytest.raises(NonGeodesicFiberError):
            Y.time_separation(p, q)
        with pytest.raises(NonGeodesicFiberError):
            Y.maximizer(p, q)
        with pytest.raises(NonGeodesicFiberError):
            Y.point_on_maximizer(p, q, 0.1)
        with pytest.raises(NonGeodesicFiberError):
            Y.maximizing_geodesic(p, q)

    def test_vertical_pair(self):
        # a vertical pair needs no fiber geodesic for its tau, but its
        # maximizer is still refused
        Y = self.cone()
        p, q = Y.point(0.5, 0.3), Y.point(2.0, 0.3)
        assert Y.time_separation(p, q) == 1.5
        with pytest.raises(NonGeodesicFiberError):
            Y.maximizer(p, q)

    def test_causal_guard_comes_first(self):
        Y = self.cone()
        p = Y.point(0.0, 0.0)
        for q in (Y.point(1.0, 3.0), Y.point(-1.0, 0.2), p):
            assert Y.time_separation(p, q) == 0.0
            with pytest.raises(NotCausalError):
                Y.maximizer(p, q)


def test_null_curve_carries_only_s_zero():
    Y = GeneralizedCone(WarpSpec.constant(1.0), RealLine())
    p, q = Y.point(0.0, 0.0), Y.point(1.0, 1.0)
    assert Y.relate(p, q).relation == "causal_null_boundary"
    assert Y.time_separation(p, q) == 0.0
    assert Y.point_on_maximizer(p, q, 0.0) is p
    for s in (0.1, -0.1, 1.0):
        with pytest.raises(DomainError):
            Y.point_on_maximizer(p, q, s)


def test_pickle_round_trip():
    Y = GeneralizedCone(WarpSpec.cosh(), RealLine(), solver_tol=1e-10)
    p, q = Y.point(-0.4, 0.0), Y.point(0.9, 0.6)
    tau = Y.time_separation(p, q)
    Z = pickle.loads(pickle.dumps(Y))
    assert (Z.null_tol, Z.solver_tol) == (Y.null_tol, Y.solver_tol)
    assert Z.time_separation(p, q) == tau


class TestLengthFunctionals:
    def test_vertical_path_length(self):
        Y = GeneralizedCone(WarpSpec.cosh(), RealLine())
        path = CausalPath(((0.0, 0.3), (1.7, 0.3)))
        assert Y.path_length(path) == pytest.approx(1.7)
        assert Y.classify_path(path) == "timelike"

    def test_certificate_violation(self):
        Y = GeneralizedCone(WarpSpec.constant(1.0), RealLine())
        bad = CausalPath(((0.0, 0.0), (1.0, 2.0)))
        with pytest.raises(NotCausalError):
            Y.path_length(bad)
        assert Y.classify_path(bad) == "not_causal"

    def test_causal_mixed(self):
        Y = GeneralizedCone(WarpSpec.constant(1.0), RealLine())
        # timelike then exactly null segment
        path = CausalPath(((0.0, 0.0), (1.0, 0.2), (2.0, 1.2)))
        assert Y.classify_path(path) == "causal_mixed"

    def test_variational_single_segment(self):
        Y = GeneralizedCone(WarpSpec.constant(1.0), RealLine())
        path = CausalPath(((0.0, 0.0), (2.0, 1.0)))
        out = Y.variational_length(path, 4)
        assert all(v == pytest.approx(math.sqrt(3.0)) for v in out.sequence)

    def test_variational_decreasing_to_length(self):
        Y = GeneralizedCone(WarpSpec.sin(), RealLine())
        p, q = Y.point(0.5, 0.0), Y.point(2.5, 0.9)
        path = Y.maximizing_geodesic(p, q, 257)
        out = Y.variational_length(path, 8)
        seq = np.array(out.sequence)
        assert np.all(np.diff(seq) <= 1e-12)
        assert out.value == pytest.approx(Y.path_length(path), abs=1e-3)

    def test_variational_additivity(self):
        Y = GeneralizedCone(WarpSpec.sin(), RealLine())
        path = CausalPath(((0.5, 0.0), (1.2, 0.3), (2.1, 0.5)))
        v_all = Y.variational_length(path, 6).value
        left = Y.variational_length(CausalPath(path.samples[:2]), 6).value
        right = Y.variational_length(CausalPath(path.samples[1:]), 6).value
        assert left + right <= v_all + 1e-12

    def test_segment_tau_bound(self):
        Y = GeneralizedCone(WarpSpec.constant(1.0), RealLine())
        assert Y.segment_tau_bound(Y.point(0, 0.0), Y.point(2, 1.0)) == \
            pytest.approx(math.sqrt(3.0))
        assert Y.segment_tau_bound(Y.point(0, 0.0), Y.point(1, 5.0)) == 0.0

    def test_segment_tau_bound_reverse_triangle(self):
        Y = GeneralizedCone(WarpSpec.sin(), RealLine())
        p, q, r = Y.point(0.5, 0.0), Y.point(1.2, 0.2), Y.point(2.4, 0.5)
        assert (Y.segment_tau_bound(p, q) + Y.segment_tau_bound(q, r)
                <= Y.segment_tau_bound(p, r) + 1e-12)

    def test_energy_unit_speed(self):
        Y = GeneralizedCone(WarpSpec.constant(1.0), RealLine())
        path = Y.maximizing_geodesic(Y.point(0.0, 0.0), Y.point(2.0, 1.0), 65)
        L = Y.path_length(path)
        # arclength parameter grid: cumulative segment lengths
        ts = path.times
        xs = np.array(path.points)
        ell = np.sqrt(np.diff(ts) ** 2 - np.diff(xs) ** 2)
        params = tuple(np.concatenate(([0.0], np.cumsum(ell))))
        arc = CausalPath(path.samples, params=params)
        assert Y.energy(arc) == pytest.approx(L / 2.0, abs=1e-9)

    def test_energy_minimal_at_arclength(self):
        Y = GeneralizedCone(WarpSpec.constant(1.0), RealLine())
        path = Y.maximizing_geodesic(Y.point(0.0, 0.0), Y.point(2.0, 1.0), 65)
        L = Y.path_length(path)
        rng = np.random.default_rng(13)
        for _ in range(50):
            # random monotone reparametrization of [0, L]
            raw = np.sort(rng.uniform(0.0, L, size=len(path.samples) - 2))
            params = tuple(np.concatenate(([0.0], raw, [L])))
            try:
                repar = CausalPath(path.samples, params=params)
            except Exception:
                continue
            assert Y.energy(repar) >= L / 2.0 - 1e-12

    def test_energy_null(self):
        Y = GeneralizedCone(WarpSpec.constant(1.0), RealLine())
        path = Y.maximizing_geodesic(Y.point(0.0, 0.0), Y.point(1.0, 1.0), 33)
        assert Y.energy(path) == pytest.approx(0.0, abs=1e-8)


class TestDiamond:
    def test_flat_box(self):
        Y = flat_cone()
        x = np.zeros(2)
        box = Y.causal_diamond_box(Y.point(0.0, x), Y.point(2.0, x), 3)
        assert box.t_values[1] == pytest.approx(1.0)
        assert box.radii_from_p[1] == pytest.approx(1.0)
        assert box.radii_to_q[1] == pytest.approx(1.0)

    def test_membership_of_maximizer(self):
        Y = GeneralizedCone(WarpSpec.sin(), EuclideanN(2))
        p = Y.point(0.6, np.zeros(2))
        q = Y.point(2.4, np.array([0.9, 0.2]))
        path = Y.maximizing_geodesic(p, q, 33)
        box = Y.causal_diamond_box(p, q, 33)
        for (t, x), rp, rq in zip(path.samples, box.radii_from_p,
                                  box.radii_to_q):
            assert Y.fiber.distance(p.x, x) <= rp + 1e-9
            assert Y.fiber.distance(x, q.x) <= rq + 1e-9

    def test_degenerate_and_empty(self):
        Y = flat_cone()
        p = Y.point(0.0, np.zeros(2))
        box = Y.causal_diamond_box(p, p)
        assert box.t_values.tolist() == [0.0]
        far = Y.point(0.1, np.array([5.0, 0.0]))
        assert Y.causal_diamond_box(p, far).empty


class TestCsv:
    def test_roundtrip(self):
        Y = GeneralizedCone(WarpSpec.sin(), EuclideanN(2))
        p = Y.point(0.7, np.zeros(2))
        q = Y.point(2.3, np.array([0.8, 0.3]))
        path = Y.maximizing_geodesic(p, q, 65)
        buf = io.StringIO()
        Y.export_path_csv(path, buf)
        back = Y.import_path_csv(io.StringIO(buf.getvalue()))
        assert Y.classify_path(back) in ("timelike", "null")
        assert Y.path_length(back) == pytest.approx(Y.path_length(path),
                                                    abs=1e-6)

    def test_graph_fiber_roundtrip(self):
        from lorcone.fiber import tripod
        Y = GeneralizedCone(WarpSpec.identity(), tripod())
        p = Y.point(1.0, (0, 0.4))
        q = Y.point(2.2, (1, 0.2))   # d = 0.6 < ln 2.2, chronological
        path = Y.maximizing_geodesic(p, q, 33)
        buf = io.StringIO()
        Y.export_path_csv(path, buf)
        back = Y.import_path_csv(io.StringIO(buf.getvalue()))
        assert Y.path_length(back) == pytest.approx(Y.path_length(path),
                                                    abs=1e-6)
