"""Warping functions: evaluation, extrema, null transport, verdict reports."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorcone import (DomainError, NullTransport, RangeError, WarpSpec,
                     concavity_check, singularity_report)
from lorcone.bruteforce import grid_concavity


class TestEval:
    def test_identity(self):
        assert WarpSpec.identity()(2.0) == 2.0

    def test_sin_crest(self):
        assert WarpSpec.sin()(math.pi / 2) == pytest.approx(1.0)

    def test_sampled_linear(self):
        w = WarpSpec.sampled([(0.0, 1.0), (1.0, 3.0)])
        # hand interpolation: midpoint of (1, 3)
        assert w(0.5) == pytest.approx(2.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            WarpSpec.sin()(3.5)

    def test_positivity_validation(self):
        with pytest.raises(DomainError):
            WarpSpec(0.0, 7.0, "sin")
        with pytest.raises(DomainError):
            WarpSpec.constant(-1.0)
        with pytest.raises(DomainError):
            WarpSpec.sampled([(0.0, 1.0), (1.0, -0.5)])

    @pytest.mark.parametrize("make, interval", [
        # phase 5e-10 past the arch end: f < 0 just below b
        (WarpSpec.sin, (0.0, math.pi + 5e-10)),
        (WarpSpec.cos, (-0.5 * math.pi, 0.5 * math.pi + 5e-10)),
        # phase 5e-10 before the arch start: f < 0 just above a
        (WarpSpec.sin, (-5e-10, 3.0)),
        (WarpSpec.cos, (-0.5 * math.pi - 5e-10, 1.0)),
    ])
    def test_arch_end_beyond_rounding_rejected(self, make, interval):
        with pytest.raises(DomainError, match="not positive"):
            make(interval=interval)

    def test_vectorized(self):
        w = WarpSpec.cosh()
        ts = np.linspace(-1, 1, 7)
        assert np.allclose(w(ts), np.cosh(ts))


class TestMinOnInterval:
    def test_constant(self):
        assert WarpSpec.constant(1.0).min_on(-3.0, 5.0) == 1.0

    def test_sin_scan_oracle(self):
        w = WarpSpec.sin()
        s, t = math.pi / 4, 3 * math.pi / 4
        grid = np.linspace(s, t, 20001)
        oracle = float(np.min(np.sin(grid)))
        assert w.min_on(s, t) == pytest.approx(oracle, abs=1e-9)
        assert w.min_on(s, t) == pytest.approx(math.sin(math.pi / 4))

    def test_exp_monotone(self):
        assert WarpSpec.exp().min_on(0.0, 2.0) == pytest.approx(1.0)

    def test_cosh_trough(self):
        assert WarpSpec.cosh().min_on(-1.0, 2.0) == pytest.approx(1.0)
        assert WarpSpec.cosh().min_on(0.5, 2.0) == pytest.approx(
            math.cosh(0.5))

    def test_domain(self):
        with pytest.raises(DomainError):
            WarpSpec.sin().min_on(-1.0, 1.0)

    @given(st.floats(0.1, 3.0), st.floats(0.1, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_min_below_grid(self, u, v):
        s, t = sorted((u, v))
        t = max(t, s)
        w = WarpSpec.sin(interval=(0.0, math.pi))
        if t >= math.pi:
            return
        m = w.min_on(s, t)
        for x in np.linspace(s, t, 33):
            assert m <= w(x) + 1e-12


class TestNullTransport:
    def test_flat(self):
        nt = NullTransport(WarpSpec.constant(1.0), 0.0)
        assert nt.null_parameter(1.0) == pytest.approx(1.0)
        assert nt.h_solve(0.5) == pytest.approx(0.5)

    def test_exp_antiderivative(self):
        # antiderivative of 1/e^t is -e^{-t}
        nt = NullTransport(WarpSpec.exp(), 0.0)
        assert nt.null_parameter(1.0) == pytest.approx(1 - math.exp(-1),
                                                       abs=1e-10)
        assert nt.h_solve(0.5) == pytest.approx(math.log(2.0), abs=1e-10)

    def test_identity_log(self):
        nt = NullTransport(WarpSpec.identity(), 1.0)
        assert nt.null_parameter(math.e) == pytest.approx(1.0, abs=1e-10)
        assert nt.h_solve(1.0) == pytest.approx(math.e, abs=1e-9)

    def test_signed_backward(self):
        nt = NullTransport(WarpSpec.identity(), 1.0)
        assert nt.null_parameter(0.5) == pytest.approx(math.log(0.5), abs=1e-10)

    def test_horizons(self):
        # divergence detection, not overflow
        nt_id = NullTransport(WarpSpec.identity(), 1.0)
        assert nt_id.forward_horizon == math.inf
        assert nt_id.backward_horizon == -math.inf
        nt_exp = NullTransport(WarpSpec.exp(), 0.0)
        assert nt_exp.forward_horizon == pytest.approx(1.0, abs=1e-10)
        assert nt_exp.backward_horizon == -math.inf
        nt_sin = NullTransport(WarpSpec.sin(), math.pi / 2)
        assert nt_sin.forward_horizon == math.inf

    def test_range_error(self):
        nt = NullTransport(WarpSpec.exp(), 0.0)
        with pytest.raises(RangeError):
            nt.h_solve(1.5)

    @given(st.floats(-2.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_h_of_F(self, r):
        w = WarpSpec.cosh()
        nt = NullTransport(w, 0.0)
        s = nt.null_parameter(r) if r != 0 else 0.0
        assert nt.h_solve(s) == pytest.approx(r, abs=10 * w.quad_tol + 1e-12)

    def test_h_ode_residual(self):
        # h'(s) = f(h(s)) by central differences
        w = WarpSpec.sin()
        nt = NullTransport(w, 1.0)
        eps = 1e-5
        for s in np.linspace(-0.8, 0.9, 9):
            deriv = (nt.h_solve(s + eps) - nt.h_solve(s - eps)) / (2 * eps)
            assert deriv == pytest.approx(w(nt.h_solve(s)), abs=1e-6)

    def test_strictly_increasing(self):
        nt = NullTransport(WarpSpec.sin(), 1.5)
        rs = np.linspace(0.2, 2.9, 12)
        vals = [nt.null_parameter(r) for r in rs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestConcavity:
    def test_sin_boundary_case(self):
        rep = concavity_check(WarpSpec.sin(), -1.0)
        assert rep.holds_concave and rep.holds_convex
        assert abs(rep.worst_margin) <= 1e-9

    def test_cosh_boundary_case(self):
        rep = concavity_check(WarpSpec.cosh(), 1.0)
        assert rep.holds_concave and rep.holds_convex

    def test_power_two_thirds(self):
        rep = concavity_check(WarpSpec.power(2.0 / 3.0), 0.0)
        assert rep.holds_concave and not rep.holds_convex
        assert rep.worst_margin < 0

    def test_sampled_rejected_without_rule(self):
        w = WarpSpec.sampled([(0.0, 1.0), (0.5, 1.2), (1.0, 1.0)])
        with pytest.raises(DomainError):
            concavity_check(w, 0.0)

    def test_sampled_cubic_rule(self):
        ts = np.linspace(0, math.pi, 60)
        w = WarpSpec.sampled(list(zip(ts, np.sin(ts) + 0.2)),
                             interval=(0.1, math.pi - 0.1),
                             interpolation="cubic")
        rep = concavity_check(w, 0.0)
        assert rep.holds_concave


class TestSingularity:
    def test_sin_diameter(self):
        rep = singularity_report(WarpSpec.sin(), -1.0)
        assert rep.lower_bound_K_consistent
        assert rep.a_finite and rep.b_finite
        assert rep.tau_diameter_bound == pytest.approx(math.pi)
        assert not rep.big_bang and not rep.big_crunch
        assert rep.upper_bound_possible

    def test_exp_inconsistent(self):
        rep = singularity_report(WarpSpec.exp(), 0.0)
        assert not rep.lower_bound_K_consistent
        assert "lower curvature bound 0 impossible" in rep.verdicts

    def test_big_bang_power(self):
        rep = singularity_report(WarpSpec.power(2.0 / 3.0), 0.0)
        assert rep.lower_bound_K_consistent
        assert rep.big_bang
        assert not rep.upper_bound_possible

    def test_big_crunch_mirrored(self):
        # sin^{2/3} on (0, pi): f -> 0 with |f'| -> inf at both ends
        ts = np.linspace(1e-6, math.pi - 1e-6, 4001)
        w = WarpSpec.sampled(list(zip(ts, np.sin(ts) ** (2.0 / 3.0))),
                             interval=(0.01, math.pi - 0.01),
                             interpolation="cubic")
        rep = singularity_report(w, 0.0)
        # sampled data stop short of the endpoint: inconclusive, not a guess
        assert any("inconclusive" in v for v in rep.verdicts)

    def test_sampled_upper_bound_inconclusive(self):
        # the same grid taken whole: f -> 0 and |f'| -> inf at both ends, yet
        # sampled data give no endpoint limits, so no upper-bound verdict
        ts = np.linspace(1e-6, math.pi - 1e-6, 4001)
        w = WarpSpec.sampled(list(zip(ts, np.sin(ts) ** (2.0 / 3.0))),
                             interpolation="cubic")
        assert (w.a, w.b) == (1e-6, math.pi - 1e-6)
        rep = singularity_report(w, 0.0)
        assert not rep.big_bang and not rep.big_crunch
        assert rep.upper_bound_possible is None


class TestSingularityDefects:
    """Verdicts that depend on the whole interval or on exact endpoint limits."""

    def test_power_half_slightly_negative_K(self):
        # g = t^{-3/2} (-1/4 + 1e-4 t^2) > 0 for t > 50, beyond any finite window
        w = WarpSpec.power(0.5)
        assert not concavity_check(w, -1e-4).holds_concave
        rep = singularity_report(w, -1e-4)
        assert not rep.lower_bound_K_consistent
        assert "lower curvature bound -0.0001 impossible" in rep.verdicts
        assert not any("inconsistent" in v for v in rep.verdicts)

    @pytest.mark.parametrize("K", [-1e-10, 0.0])
    def test_theorem_rules_inside_the_band(self, K):
        # g = (1e-12 - K) e^{1e-6 t} stays within the band 1e-9 max(1, f), yet
        # no non-constant positive warp on R has a lower bound K <= 0
        w = WarpSpec.exp(rate=1e-6)
        assert concavity_check(w, K).holds_concave
        rep = singularity_report(w, K)
        assert not rep.lower_bound_K_consistent
        assert rep.verdicts == (f"lower curvature bound {K:g} impossible",)

    @pytest.mark.parametrize("make", [WarpSpec.cosh, WarpSpec.exp])
    def test_rate_zero_is_flat(self, make):
        w = make(rate=0.0)
        assert w.is_constant()
        rep = singularity_report(w, 0.0)
        assert rep.lower_bound_K_consistent
        assert rep.verdicts == ()

    @pytest.mark.parametrize("p", [0.8, 0.85, 0.9])
    def test_power_big_bang_near_one(self, p):
        # f -> 0 and f' = p t^{p-1} -> inf at t = 0 for every 0 < p < 1
        rep = singularity_report(WarpSpec.power(p), 0.0)
        assert rep.big_bang
        assert not rep.upper_bound_possible

    def test_cubic_dip_between_grid_points(self):
        # the spline dips to -2.7e-3 near t = 0.3303, between the points of a
        # 16-per-knot grid, which all stay positive
        pts = [(0.0845, 0.5648), (0.3203, 0.6966), (0.326, 0.1287), (0.3408, 0.8445)]
        with pytest.raises(DomainError):
            WarpSpec.sampled(pts, interpolation="cubic")


def _analytic_warp(kind, amp, rate, p, lo_u, hi_u, lo_inf, hi_inf):
    """A valid analytic warp from unit-interval parameters: lo_u, hi_u place
    the ends, lo_inf/hi_inf make them infinite where the kind allows."""
    if kind in ("sin", "cos"):
        rate = max(abs(rate), 0.2)
        arch = math.pi / rate
        start = 0.0 if kind == "sin" else -0.5 * arch
        lo, hi = sorted((lo_u, hi_u))
        a, b = start + arch * 0.9 * lo, start + arch * (0.1 + 0.9 * hi)
        return WarpSpec(a, b, kind, amplitude=amp, rate=rate)
    if kind in ("identity", "power"):
        a = 0.0 if lo_inf else 5.0 * lo_u
    else:
        a = -math.inf if lo_inf else -5.0 + 5.0 * lo_u
    if hi_inf:
        b = math.inf
    else:
        b = a + 0.1 + 10.0 * hi_u if math.isfinite(a) else 0.1 + 5.0 * hi_u
    if kind == "constant":
        return WarpSpec(a, b, kind, c=amp)
    return WarpSpec(a, b, kind, amplitude=amp, rate=rate, p=p)


analytic_warps = st.builds(
    _analytic_warp,
    st.sampled_from(["constant", "identity", "sin", "cos", "cosh", "exp", "power"]),
    st.floats(0.05, 20.0), st.floats(0.2, 3.0) | st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
    st.booleans(), st.booleans())
curvature_bounds = st.just(0.0) | st.floats(-4.0, 4.0)


def _assert_witness(w, K, rep):
    """A failing verdict's worst_t lies inside (a, b), where g recomputed from
    second_derivative leaves the band on the failing side."""
    t = rep.worst_t
    assert w.a < t < w.b
    f = w(t)
    g = w.second_derivative(t) - K * f
    band = 1e-9 * max(1.0, f)
    if not rep.holds_concave:
        assert g > band
    elif not rep.holds_convex:
        assert g < -band


class TestExactCurvature:
    """Closed-form verdicts against the grid oracle and the paper's theorems."""

    @pytest.mark.parametrize("w, K, t_out", [
        # f = 0.05 t^3 < 1 up to t = 2.71; g = 0.05 (6 t - 4 t^3) peaks at
        # sqrt(1/2), and is <= 0 at the ends, at the anchor 2.5 and at f = 1
        (WarpSpec.power(3.0, interval=(0.0, 5.0), amplitude=0.05), 4.0, math.sqrt(0.5)),
        # g = 6e-12 t leaves the band 1e-9 max(1, f) only around f = 1, t = 1e4
        (WarpSpec.power(3.0, amplitude=1e-12), 0.0, 1e4),
        # g = 1.05e-9 sin t passes the band 1e-9 only near the crest
        (WarpSpec.sin(interval=(0.1, 2.0), amplitude=1.05e-9), -2.0, 0.5 * math.pi),
    ])
    def test_interior_candidate_decides(self, w, K, t_out):
        rep = concavity_check(w, K)
        assert not rep.holds_concave
        assert rep.worst_t == pytest.approx(t_out, rel=1e-12)
        _assert_witness(w, K, rep)

    def test_tiny_power_exponent_does_not_overflow(self):
        # f'' = alpha t^-2 f with alpha = p (p - 1) ~ -p ~ 2.2e-311: t^-2
        # overflows below t ~ 1.3e-154 although alpha t^-2 is of order 1
        p = -2.225073858507e-311
        w = WarpSpec(0.0, 0.1, "power", p=p)
        t = 5.97e-155
        assert w.second_derivative(t) == pytest.approx(p * (p - 1.0) / t / t, rel=1e-12)
        assert np.all(np.isfinite(w.second_derivative(np.array([t, 1e-200, 0.05]))))
        rep = concavity_check(w, 1.0)
        assert not rep.holds_concave and not rep.holds_convex
        assert math.isfinite(rep.worst_margin)
        _assert_witness(w, 1.0, rep)

    def test_cubic_piece_interior_extremum(self):
        # g = s'' - 1.3 s is within the band at all five knots and reaches
        # 0.0246 at t = 0.6412, inside the first piece
        w = WarpSpec.sampled(list(zip(range(5), [2.8, 1.5, 2.0, 2.9, 2.0])),
                             interpolation="cubic")
        rep = concavity_check(w, 1.3)
        assert not rep.holds_concave
        assert rep.worst_t == pytest.approx(0.6412, abs=1e-4)
        assert rep.worst_margin == pytest.approx(0.0246, abs=1e-4)
        assert not grid_concavity(w, 1.3, 0.01, 3.99)[0]

    @given(analytic_warps, curvature_bounds, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_holds_agrees_with_grid(self, w, K, u, v):
        lo_end, hi_end = max(w.a, -20.0), min(w.b, 20.0)
        span = hi_end - lo_end
        lo = lo_end + span * (0.001 + 0.5 * min(u, v))
        hi = lo_end + span * (0.5 + 0.499 * max(u, v))
        rep = concavity_check(w, K)
        concave, convex = grid_concavity(w, K, lo, hi)
        assert concave or not rep.holds_concave
        assert convex or not rep.holds_convex

    @given(analytic_warps, curvature_bounds)
    @settings(max_examples=300, deadline=None)
    def test_failing_verdict_witness(self, w, K):
        _assert_witness(w, K, concavity_check(w, K))

    @given(analytic_warps, curvature_bounds)
    @settings(max_examples=200, deadline=None)
    def test_theorem_consequences(self, w, K):
        rep = singularity_report(w, K)
        if rep.lower_bound_K_consistent and K < 0:
            assert rep.a_finite and rep.b_finite
        if rep.lower_bound_K_consistent and K == 0 and not w.is_constant():
            assert rep.a_finite or rep.b_finite
        assert not any("inconsistent" in v for v in rep.verdicts)

    @given(st.integers(4, 16), st.integers(0, 2**32 - 1), curvature_bounds)
    @settings(max_examples=60, deadline=None)
    def test_cubic_sampled_against_dense_grid(self, n, seed, K):
        rng = np.random.default_rng(seed)
        ts = np.cumsum(rng.uniform(0.05, 0.5, n))
        vs = 1.5 + np.sin(rng.uniform(0.5, 2.0) * ts) + 0.1 * rng.uniform(-1.0, 1.0, n)
        try:
            w = WarpSpec.sampled(list(zip(ts, vs)), interpolation="cubic")
        except DomainError:
            return
        rep = concavity_check(w, K)
        pad = 1e-9 * (ts[-1] - ts[0])
        concave, convex = grid_concavity(w, K, ts[0] + pad, ts[-1] - pad, 200 * n)
        assert concave or not rep.holds_concave
        assert convex or not rep.holds_convex
        _assert_witness(w, K, rep)

    @pytest.mark.parametrize("c, t_out, lo, hi", [
        # g / band peaks at the kink s = 1 of the band, t = 1e14^(1/3)
        (0.0, 1e14 ** (1 / 3), 1.67e4, 7.74e4),
        # s > 1 throughout; g - 1e-9 s peaks where 6e-14 = 3e-23 t^2
        (1.0, math.sqrt(2e9), 1.76e4, 6.71e4),
    ])
    def test_cubic_band_changes_shape(self, c, t_out, lo, hi):
        # not-a-knot reproduces s = c + 1e-14 t^3, so g = 6e-14 t at K = 0:
        # inside the band at the knots and ends, with no stationary point, but
        # above 1e-9 max(1, s) on (lo, hi)
        pts = [(t, c + 1e-14 * t ** 3) for t in (1.0, 1e4, 8e4, 2e5)]
        w = WarpSpec.sampled(pts, interpolation="cubic")
        rep = concavity_check(w, 0.0)
        assert not rep.holds_concave
        assert rep.worst_t == pytest.approx(t_out, rel=1e-9)
        _assert_witness(w, 0.0, rep)
        assert not singularity_report(w, 0.0).lower_bound_K_consistent
        concave, _ = grid_concavity(w, 0.0, lo, hi, 64)
        assert not concave and grid_concavity(w, 0.0, 2.0, lo - 100.0)[0]

    @given(st.integers(4, 12), st.integers(0, 2**32 - 1), st.floats(0.5, 2.0),
           st.just(0.0) | st.floats(-3e-10, 3e-10))
    @settings(max_examples=80, deadline=None)
    def test_cubic_near_band_against_dense_grid(self, n, seed, q, K):
        # data near s = (t / t1)^3, which crosses s = 1 at t1 with
        # g / band = 6 / (1e-9 t1^2) = q there, on random knots
        rng = np.random.default_rng(seed)
        t1 = math.sqrt(6e9 / q)
        ts = t1 * np.sort(rng.uniform(0.05, 4.0, n))
        vs = (ts / t1) ** 3 * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, n))
        try:
            w = WarpSpec.sampled(list(zip(ts, vs)), interpolation="cubic")
        except DomainError:
            return
        rep = concavity_check(w, K)
        pad = 1e-9 * (ts[-1] - ts[0])
        concave, convex = grid_concavity(w, K, ts[0] + pad, ts[-1] - pad, 200 * n)
        assert concave or not rep.holds_concave
        assert convex or not rep.holds_convex
        _assert_witness(w, K, rep)


def _per_piece_extremum(w, s, t, minimum):
    """Reference for min_on/max_on: scalar evaluations at s, t and each knot
    between, and for a cubic spline dspl.solve once per piece between s and t,
    keeping the roots inside that piece."""
    ts = w._knots()[0]
    inside = ts[(ts > s) & (ts < t)]
    cand = [w(s), w(t)] + [w(u) for u in inside]
    if w.interpolation == "cubic":
        spl = w._spline()
        dspl = spl.derivative()
        knots = np.concatenate(([s], inside, [t]))
        for lo, hi in zip(knots[:-1], knots[1:]):
            for r in dspl.solve(0.0, extrapolate=False):
                if lo < r < hi:
                    cand.append(float(spl(r)))
    return min(cand) if minimum else max(cand)


class TestSampledExtremumTable:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["linear", "cubic"]),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=30))
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_to_per_piece_formula(self, seed, interp, u, v, uv):
        rng = np.random.default_rng(seed)
        ts = np.linspace(0.0, 4.0, 33)
        vs = 1.5 + np.sin(rng.uniform(0.5, 3.0) * ts + rng.uniform(0.0, 6.0)) \
            + 0.2 * rng.uniform(-1.0, 1.0, ts.size)
        w = WarpSpec.sampled(list(zip(ts, vs)), interpolation=interp)
        s, t = sorted((0.01 + 3.98 * u, 0.01 + 3.98 * v))
        assert w.min_on(s, t) == _per_piece_extremum(w, s, t, True)
        assert w.max_on(s, t) == _per_piece_extremum(w, s, t, False)
        # arrays of segments, including single points and whole knot pieces
        seg = np.sort(0.01 + 3.98 * np.array(uv).reshape(-1, 2), axis=1)
        seg = np.vstack((seg, [[s, t], [ts[3], ts[3]], [ts[3], ts[4]]]))
        for minimum, fn in ((True, w.min_on), (False, w.max_on)):
            assert fn(seg[:, 0], seg[:, 1]).tolist() == \
                [_per_piece_extremum(w, a, b, minimum) for a, b in seg]


def _segments_inside(w, us):
    """Segments [s, t] inside (a, b) from unit pairs, on a window of width
    at most 40; for sin/cos also segments that end at, straddle and stop
    short of the crest."""
    lo = w.a if math.isfinite(w.a) else (w.b - 40.0 if math.isfinite(w.b) else -20.0)
    hi = w.b if math.isfinite(w.b) else lo + 40.0
    pairs = [sorted((lo + (hi - lo) * u, lo + (hi - lo) * v)) for u, v in us]
    if w.kind in ("sin", "cos"):
        crest = (0.5 * math.pi - w._arch_offset()) / w.rate
        if w.a < crest < w.b:
            before, after = 0.5 * (w.a + crest), 0.5 * (crest + w.b)
            pairs += [(before, crest), (crest, after), (before, after),
                      (before, 0.5 * (before + crest)), (crest, crest)]
    return np.array([(s, t) for s, t in pairs if w.a < s <= t < w.b]).reshape(-1, 2)


class TestArrayExtremum:
    """Array min_on/max_on against the 0-d calls of the analytic kinds."""

    @given(analytic_warps,
           st.lists(st.tuples(st.floats(0.001, 0.999), st.floats(0.001, 0.999)),
                    min_size=1, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_elementwise_bit_identical(self, w, us):
        seg = _segments_inside(w, us)
        s, t = seg[:, 0], seg[:, 1]
        for fn in (w.min_on, w.max_on):
            got = fn(s, t)
            want = [fn(float(a), float(b)) for a, b in zip(s, t)]
            assert all(type(x) is float for x in want)
            assert got.shape == s.shape
            assert got.tolist() == want

    def test_crest_and_trough_cases(self):
        # the sin/cos crest and the cosh trough enter only inside the segment,
        # for either sign of the cosh and exp rates
        cases = [(WarpSpec.sin(), [0.2, 1.0, 1.0, 2.0], [1.0, 1.6, 2.0, 2.5], False,
                  [math.sin(1.0), 1.0, 1.0, math.sin(2.0)]),
                 (WarpSpec.cos(), [-1.0, 0.1], [0.5, 0.5], False,
                  [1.0, math.cos(0.1)]),
                 (WarpSpec.cosh(rate=-2.0), [-1.0, 0.5], [2.0, 2.0], True,
                  [1.0, math.cosh(1.0)]),
                 (WarpSpec.exp(rate=-1.3), [-1.0, 0.5], [2.0, 2.0], True,
                  [math.exp(-2.6), math.exp(-2.6)])]
        for w, s, t, minimum, want in cases:
            got = (w.min_on if minimum else w.max_on)(np.array(s), np.array(t))
            assert got == pytest.approx(want, rel=1e-15)

    @given(analytic_warps, st.floats(0.001, 0.999), st.floats(0.001, 0.999),
           st.sampled_from(["below_a", "above_b", "reversed"]))
    @settings(max_examples=80, deadline=None)
    def test_any_bad_element_raises(self, w, u, v, bad):
        seg = _segments_inside(w, [(u, v), (0.3, 0.6)])
        s, t = seg[:, 0].copy(), seg[:, 1].copy()
        if bad == "below_a":
            s[-1] = w.a
        elif bad == "above_b":
            t[0] = w.b
        elif s[0] < t[0]:
            s[0], t[0] = t[0], s[0]
        else:
            return
        for fn in (w.min_on, w.max_on):
            with pytest.raises(DomainError):
                fn(s, t)
            # every pair (s_i, t_j) of a broadcast grid is checked
            with pytest.raises(DomainError):
                fn(s[:, None], t[None, :])
