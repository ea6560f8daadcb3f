"""Null transport: F, h and horizons of the seven analytic kinds and of
sampled warps.

Every analytic kind is checked against two independent routes, the adaptive
quadrature ``quad_inverse`` and a 50-digit mpmath quadrature, and through
the round trip ``h(F(r)) = r``.  Near a finite horizon F flattens
(``F' = 1/f``), so a float F pins ``r`` down only to ``eps |F| f(r)``; the
generated pairs keep that conditioning moderate by bounding ``|w (r - p0)|``
(exp, cosh) or ``|(1 - p) log(r / p0)|`` (identity, power), not ``|w t|``
itself.  Sampled warps, linear and cubic on 17 to 257 knots, are checked
against ``quad_inverse`` integrated piece by piece, through both round trips,
and through ``relate`` on pairs a few null bands off the boundary.
"""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from lorcone import (DomainError, GeneralizedCone, NullTransport,
                     QuadratureError, RangeError, RealLine, WarpSpec)
from lorcone.bruteforce import quad_inverse

KINDS = ("constant", "identity", "power", "sin", "cos", "cosh", "exp")

amplitudes = st.floats(0.1, 10.0)
_TWO_PI = 2.0 * math.pi


@st.composite
def transport_cases(draw, kind, wt_max, sep, margin):
    """(warp, p0, r) inside the warp's interval.

    ``wt_max`` bounds |w t| for exp and cosh, ``sep`` bounds |w (r - p0)|
    (exp, cosh), |r - p0| / c (constant) or |(1 - p) log(r / p0)| (identity,
    power; at most ``sep`` for |1 - p| < 1), and ``margin`` keeps sin/cos
    phases that fraction of pi away from the arch ends.  Subnormal inputs,
    which carry fewer significant digits, are not drawn.
    """
    A = draw(amplitudes)
    if kind == "constant":
        c = draw(amplitudes)
        p0 = draw(st.floats(-20.0, 20.0, allow_subnormal=False))
        return WarpSpec.constant(c), p0, p0 + c * draw(st.floats(-sep, sep))
    if kind in ("identity", "power"):
        p = 1.0 if kind == "identity" else draw(st.one_of(
            st.sampled_from([0.0, 1.0, 2.0 / 3.0]), st.floats(-3.0, 3.0)))
        p0 = 10.0 ** draw(st.floats(-3.0, 2.0))
        r = p0 * math.exp(draw(st.floats(-sep, sep)) / max(1.0, abs(1.0 - p)))
        if kind == "identity":
            return WarpSpec.identity(amplitude=A), p0, r
        return WarpSpec.power(p, amplitude=A), p0, r
    if kind in ("sin", "cos"):
        w = draw(st.floats(0.2, 5.0))
        start = _TWO_PI * draw(st.integers(0, 3)) - (0.0 if kind == "sin" else 0.5 * math.pi)
        u0, u1 = (draw(st.floats(margin, 1.0 - margin)) for _ in range(2))
        interval = (start / w, (start + math.pi) / w)
        make = WarpSpec.sin if kind == "sin" else WarpSpec.cos
        return (make(interval=interval, amplitude=A, rate=w),
                (start + math.pi * u0) / w, (start + math.pi * u1) / w)
    w = draw(st.floats(0.1, 5.0)) * draw(st.sampled_from([-1.0, 1.0]))
    x0 = draw(st.floats(-wt_max, wt_max, allow_subnormal=False))
    dx = draw(st.floats(-sep, sep, allow_subnormal=False))
    x1 = min(max(x0 + dx, -wt_max), wt_max)
    make = WarpSpec.cosh if kind == "cosh" else WarpSpec.exp
    return make(amplitude=A, rate=w), x0 / w, x1 / w


def _mp_warp(mp, w):
    A, rate = mp.mpf(w.amplitude), mp.mpf(w.rate)
    return {
        "constant": lambda t: mp.mpf(w.c),
        "identity": lambda t: A * t,
        "power": lambda t: A * t ** mp.mpf(w.p),
        "sin": lambda t: A * mp.sin(rate * t),
        "cos": lambda t: A * mp.cos(rate * t),
        "cosh": lambda t: A * mp.cosh(rate * t),
        "exp": lambda t: A * mp.exp(rate * t),
    }[w.kind]


class TestOracles:
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_F_matches_quadrature(self, kind, data):
        w, p0, r = data.draw(transport_cases(kind, wt_max=10.0, sep=3.0, margin=0.02))
        nt = NullTransport(w, p0)
        assert nt.null_parameter(r) == pytest.approx(quad_inverse(w, p0, r), rel=1e-9)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_F_matches_mpmath(self, kind, data):
        mpmath = pytest.importorskip("mpmath")
        w, p0, r = data.draw(transport_cases(kind, wt_max=30.0, sep=4.0, margin=0.01))
        got = NullTransport(w, p0).null_parameter(r)
        f = _mp_warp(mpmath, w)
        with mpmath.workdps(50):
            exact = mpmath.quad(lambda t: 1 / f(t), [mpmath.mpf(p0), mpmath.mpf(r)])
            # the gap in q0-space: how far r must move for F to change by the error
            gap = abs(mpmath.mpf(got) - exact) * f(mpmath.mpf(r))
        assert float(gap) <= 1e-12 * max(1.0, abs(r))

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), step=st.floats(-1e-6, 1e-6).filter(lambda x: x != 0.0))
    def test_F_relative_accuracy_near_p0(self, kind, data, step):
        # F(r) for r near p0 is a small difference of large terms (e^{-w t},
        # gd, log tan, r^q) when |w t| is large; the closed forms cancel none
        mpmath = pytest.importorskip("mpmath")
        w, p0, _ = data.draw(transport_cases(kind, wt_max=30.0, sep=1.0, margin=0.01))
        r = p0 * (1.0 + step) if kind in ("identity", "power") else p0 + step / (
            w.c if kind == "constant" else abs(w.rate))
        got = NullTransport(w, p0).null_parameter(r)
        f = _mp_warp(mpmath, w)
        with mpmath.workdps(50):
            exact = mpmath.quad(lambda t: 1 / f(t), [mpmath.mpf(p0), mpmath.mpf(r)])
            assert float(abs(mpmath.mpf(got) - exact)) <= 1e-12 * float(abs(exact))

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_h_inverts_F(self, kind, data):
        w, p0, r = data.draw(transport_cases(kind, wt_max=30.0, sep=4.0, margin=1e-6))
        nt = NullTransport(w, p0)
        assert nt.h_solve(nt.null_parameter(r)) == pytest.approx(
            r, rel=0.0, abs=1e-12 * max(1.0, abs(r)))


# finite ends where f stays bounded, so F is steep enough there to pin r down
_FINITE_ENDS = [
    (WarpSpec.sin(), 1.0, "ab"),
    (WarpSpec.cos(amplitude=2.0, rate=3.0, interval=(-math.pi / 6, math.pi / 6)), 0.1, "ab"),
    (WarpSpec.sin(interval=(2 * math.pi, 3 * math.pi)), 7.0, "ab"),
    (WarpSpec.sin(interval=(0.3, 2.5)), 1.0, "ab"),
    (WarpSpec.identity(amplitude=0.5), 2.0, "a"),
    (WarpSpec.power(2.0 / 3.0), 1.0, "a"),
    (WarpSpec.power(1.5), 1.0, "a"),
    (WarpSpec.power(-1.5, interval=(0.5, 3.0)), 1.0, "ab"),
    (WarpSpec.exp(amplitude=2.0, rate=1.5, interval=(-1.0, 2.0)), 0.0, "ab"),
    (WarpSpec.cosh(rate=2.0, interval=(-1.0, 2.0)), 0.5, "ab"),
    (WarpSpec.constant(3.0, interval=(-1.0, 2.0)), 0.0, "ab"),
]


@pytest.mark.parametrize("warp, p0, ends", _FINITE_ENDS)
@settings(max_examples=25, deadline=None)
@given(exponent=st.floats(-13.0, -6.0))
def test_h_inverts_F_near_finite_ends(warp, p0, ends, exponent):
    nt = NullTransport(warp, p0)
    for end, sign in (("a", 1.0), ("b", -1.0)):
        if end not in ends:
            continue
        r = (warp.a if end == "a" else warp.b) + sign * 10.0 ** exponent
        assert nt.h_solve(nt.null_parameter(r)) == pytest.approx(
            r, rel=0.0, abs=1e-12 * max(1.0, abs(r)))


class TestHorizonRegressions:
    """The geometric march gave up after 64 steps on slowly converging
    improper integrals and reported these finite horizons as infinite."""

    def test_big_bang_power_two_thirds(self):
        nt = NullTransport(WarpSpec.power(2.0 / 3.0), 1.0)
        assert nt.backward_horizon == pytest.approx(-3.0, rel=1e-15)
        assert nt.forward_horizon == math.inf

    def test_power_three_halves(self):
        nt = NullTransport(WarpSpec.power(1.5), 1.0)
        assert nt.forward_horizon == pytest.approx(2.0, rel=1e-15)
        assert nt.backward_horizon == -math.inf

    def test_power_six_fifths(self):
        nt = NullTransport(WarpSpec.power(1.2), 1.0)
        assert nt.forward_horizon == pytest.approx(5.0, rel=1e-15)

    def test_h_beyond_finite_horizon(self):
        nt = NullTransport(WarpSpec.power(1.5), 1.0)
        with pytest.raises(RangeError, match="outside"):
            nt.h_solve(2.5)
        with pytest.raises(RangeError, match="outside"):
            NullTransport(WarpSpec.power(2.0 / 3.0), 1.0).h_solve(-3.5)
        r = nt.h_solve(1.999)
        # 2 - 2 / sqrt(r) = s  =>  r = (2 / (2 - s))^2
        assert r == pytest.approx(4e6, rel=1e-9)


class TestEdgeCases:
    @pytest.mark.parametrize("make", [WarpSpec.exp, WarpSpec.cosh])
    def test_rate_zero_is_constant_amplitude(self, make):
        nt = NullTransport(make(amplitude=2.5, rate=0.0), 0.3)
        assert nt.null_parameter(1.3) == pytest.approx(0.4, rel=1e-15)
        assert nt.h_solve(0.4) == pytest.approx(1.3, rel=1e-15)
        assert (nt.backward_horizon, nt.forward_horizon) == (-math.inf, math.inf)
        nt = NullTransport(make(amplitude=2.5, rate=0.0, interval=(-1.0, 2.0)), 0.3)
        assert nt.backward_horizon == pytest.approx(-1.3 / 2.5, rel=1e-15)
        assert nt.forward_horizon == pytest.approx(1.7 / 2.5, rel=1e-15)

    def test_exp_negative_rate(self):
        A, w, p0 = 1.5, -2.0, 0.25
        nt = NullTransport(WarpSpec.exp(amplitude=A, rate=w), p0)
        for r in (-1.0, 0.3, 2.0):
            exact = (math.exp(-w * p0) - math.exp(-w * r)) / (A * w)
            assert nt.null_parameter(r) == pytest.approx(exact, rel=1e-13)
        assert nt.backward_horizon == pytest.approx(math.exp(-w * p0) / (A * w), rel=1e-15)
        assert nt.forward_horizon == math.inf

    def test_cosh_negative_rate_is_even(self):
        up = NullTransport(WarpSpec.cosh(amplitude=0.7, rate=1.3), 0.4)
        down = NullTransport(WarpSpec.cosh(amplitude=0.7, rate=-1.3), 0.4)
        for r in (-2.0, 0.41, 3.0):
            assert down.null_parameter(r) == up.null_parameter(r)
        assert (down.backward_horizon, down.forward_horizon) == (
            up.backward_horizon, up.forward_horizon)
        # gd(+-inf) = +-pi/2, gd(y) = atan(sinh y)
        gd = math.atan(math.sinh(1.3 * 0.4))
        assert up.forward_horizon == pytest.approx((math.pi / 2 - gd) / (0.7 * 1.3),
                                                   rel=1e-14)

    def test_power_zero_is_constant(self):
        nt = NullTransport(WarpSpec.power(0.0, amplitude=2.0), 1.5)
        assert nt.null_parameter(4.0) == pytest.approx(1.25, rel=1e-14)
        assert nt.h_solve(1.25) == pytest.approx(4.0, rel=1e-14)
        assert nt.backward_horizon == pytest.approx(-0.75, rel=1e-15)
        assert nt.forward_horizon == math.inf

    def test_power_one_is_identity(self):
        power = NullTransport(WarpSpec.power(1.0, amplitude=2.0), 1.5)
        ident = NullTransport(WarpSpec.identity(amplitude=2.0), 1.5)
        for r in (0.01, 1.6, 40.0):
            assert power.null_parameter(r) == pytest.approx(
                ident.null_parameter(r), rel=1e-15)
            assert ident.null_parameter(r) == pytest.approx(
                math.log(r / 1.5) / 2.0, rel=1e-14)
        assert (power.backward_horizon, power.forward_horizon) == (-math.inf, math.inf)

    def test_identity_and_power_at_zero(self):
        assert NullTransport(WarpSpec.identity(), 0.5).backward_horizon == -math.inf
        nt = NullTransport(WarpSpec.power(0.5, amplitude=2.0), 4.0)
        # int_0^4 dt / (2 sqrt t) = 2
        assert nt.backward_horizon == pytest.approx(-2.0, rel=1e-15)
        assert nt.null_parameter(1e-300) == pytest.approx(-2.0, rel=1e-15)

    def test_sin_second_arch(self):
        w = WarpSpec.sin(interval=(2 * math.pi, 3 * math.pi))
        nt = NullTransport(w, 7.0)
        assert (nt.backward_horizon, nt.forward_horizon) == (-math.inf, math.inf)
        for r in (6.4, 8.0, 9.3):
            exact = math.log(math.tan((r - 2 * math.pi) / 2)
                             / math.tan((7.0 - 2 * math.pi) / 2))
            assert nt.null_parameter(r) == pytest.approx(exact, rel=1e-12)

    def test_cos_shifted_arch(self):
        # cos(2t) is positive on (3 pi / 4, 5 pi / 4), where cos(2t) = sin(2t - 3 pi / 2)
        w = WarpSpec.cos(interval=(0.75 * math.pi, 1.25 * math.pi), amplitude=3.0, rate=2.0)
        nt = NullTransport(w, 3.0)
        assert (nt.backward_horizon, nt.forward_horizon) == (-math.inf, math.inf)
        half = lambda t: (2 * t - 1.5 * math.pi) / 2
        for r in (2.4, 3.1, 3.9):
            exact = math.log(math.tan(half(r)) / math.tan(half(3.0))) / 6.0
            assert nt.null_parameter(r) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("warp, p0", [
        (WarpSpec.sin(), math.pi / 2),
        (WarpSpec.sin(rate=3.0, interval=(0.0, math.pi / 3)), 0.5),
        (WarpSpec.cos(), -1.0),
        (WarpSpec.cos(amplitude=2.0, rate=0.5, interval=(-math.pi, math.pi)), 3.0),
        (WarpSpec.cos(interval=(1.5 * math.pi, 2.5 * math.pi)), 6.0),
        # float ends whose computed phase misses the arch end by an ulp or two
        (WarpSpec.sin(rate=1.3, interval=(0.0, math.pi / 1.3)), 1.0),
        (WarpSpec.cos(rate=1.3, interval=(-math.pi / 2.6, math.pi / 2.6)), 0.0),
        (WarpSpec.sin(rate=0.7, interval=(4 * math.pi / 0.7, 5 * math.pi / 0.7)), 20.0),
    ])
    def test_arch_end_horizons_are_infinite(self, warp, p0):
        # tan(pi/2) in floats is 1.6e16, so evaluating the closed form at the
        # rounded end would give a large finite horizon
        nt = NullTransport(warp, p0)
        assert nt.backward_horizon == -math.inf
        assert nt.forward_horizon == math.inf

    def test_interior_sin_interval_has_finite_horizons(self):
        nt = NullTransport(WarpSpec.sin(interval=(0.3, 2.5)), 1.0)
        log_tan = lambda t: math.log(math.tan(t / 2))
        assert nt.backward_horizon == pytest.approx(log_tan(0.3) - log_tan(1.0), rel=1e-14)
        assert nt.forward_horizon == pytest.approx(log_tan(2.5) - log_tan(1.0), rel=1e-14)

    def test_domain_checks_kept(self):
        nt = NullTransport(WarpSpec.exp(), 0.0)
        with pytest.raises(DomainError):
            NullTransport(WarpSpec.sin(), 4.0)
        with pytest.raises(DomainError):
            NullTransport(WarpSpec.power(2.0), 1.0).null_parameter(-1.0)
        with pytest.raises(RangeError):
            nt.h_solve(1.0)

    @pytest.mark.parametrize("warp, p0, s", [
        (WarpSpec.sin(), 1.0, 40.0),
        (WarpSpec.sin(), 1.0, -40.0),
        (WarpSpec.exp(interval=(-1.0, 2.0)), 0.0, math.nextafter(1 - math.exp(-2), 0.0)),
        (WarpSpec.power(2.0 / 3.0), 1.0, -2.999999999999999),   # just above the horizon -3
    ])
    def test_h_stays_inside_finite_ends(self, warp, p0, s):
        # h(s) lies within rounding of the end; the result is still inside
        assert warp.a < NullTransport(warp, p0).h_solve(s) < warp.b

    def test_h_past_infinite_end_is_range_error(self):
        # f = t^1.001 has the forward horizon 1000 from p0 = 1, and
        # h(s) = (1 - s / 1000)^-1000 exceeds the float range just below it
        nt = NullTransport(WarpSpec.power(1.001), 1.0)
        assert nt.forward_horizon == pytest.approx(1000.0, rel=1e-12)
        with pytest.raises(RangeError, match="representable"):
            nt.h_solve(math.nextafter(nt.forward_horizon, 0.0))


def _sampled(knots, interpolation, seed=0):
    """A wiggly positive warp sampled on (0, 4), with a random perturbation
    per knot so that every knot is a kink."""
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 4.0, knots)
    vs = (1.0 + 0.35 * np.sin(rng.uniform(0.8, 2.0) * ts + rng.uniform(0.0, _TWO_PI))
          + 0.08 * rng.uniform(-1.0, 1.0, knots))
    return WarpSpec.sampled(list(zip(ts, vs)), interpolation=interpolation)


_SAMPLED = [(interp, knots) for interp in ("linear", "cubic") for knots in (17, 65, 257)]
_times = st.floats(1e-3, 4.0 - 1e-3)


class TestSampled:
    @pytest.mark.parametrize("interp, knots", _SAMPLED)
    @settings(max_examples=10, deadline=None)
    @given(p0=_times, r=_times)
    def test_F_matches_quadrature(self, interp, knots, p0, r):
        w = _sampled(knots, interp)
        got = NullTransport(w, p0).null_parameter(r)
        assert got == pytest.approx(quad_inverse(w, p0, r), rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("interp, knots", _SAMPLED)
    def test_horizons_match_quadrature(self, interp, knots):
        w = _sampled(knots, interp)
        for p0 in (0.7, 2.0, w.samples[5][0]):
            nt = NullTransport(w, p0)
            assert nt.backward_horizon == pytest.approx(quad_inverse(w, p0, w.a), rel=1e-10)
            assert nt.forward_horizon == pytest.approx(quad_inverse(w, p0, w.b), rel=1e-10)

    @pytest.mark.parametrize("interp, knots", _SAMPLED)
    @settings(max_examples=25, deadline=None)
    @given(p0=_times, r=_times, u=st.floats(0.0, 1.0))
    def test_h_and_F_invert_each_other(self, interp, knots, p0, r, u):
        nt = NullTransport(_sampled(knots, interp), p0)
        assert nt.h_solve(nt.null_parameter(r)) == pytest.approx(
            r, rel=0.0, abs=1e-12 * max(1.0, abs(r)))
        s = nt.backward_horizon + u * (nt.forward_horizon - nt.backward_horizon)
        if nt.backward_horizon < s < nt.forward_horizon:
            assert nt.null_parameter(nt.h_solve(s)) == pytest.approx(
                s, rel=0.0, abs=1e-12 * max(1.0, abs(s)))

    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    @pytest.mark.parametrize("bands, relation", [(5.0, "not_related"),
                                                 (-5.0, "chronological")])
    def test_relate_five_bands_off_the_boundary(self, interp, bands, relation):
        # d = F(q0 + bands * band): the true null boundary h(d) lies that many
        # bands after q0, well outside the band that counts as null
        w = _sampled(257, interp)
        Y = GeneralizedCone(w, RealLine())
        p0 = 0.7
        for q0 in (1.3, 2.9, 3.8):
            d = quad_inverse(w, p0, q0 + bands * Y.null_tol * max(1.0, q0))
            assert Y.relate(Y.point(p0, 0.0), Y.point(q0, d)).relation == relation

    def test_unresolved_cubic_piece_raises(self):
        # the spline 1e-4 + (t - 1)^2 puts poles of 1/f 0.01 off the real
        # axis at a knot, where 16 and 32 Gauss-Legendre nodes disagree
        w = WarpSpec.sampled([(0.0, 1.0), (1.0, 1e-4), (2.0, 1.0)],
                             interpolation="cubic")
        with pytest.raises(QuadratureError):
            NullTransport(w, 0.5)


def test_transport_runs_no_adaptive_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature in the null transport")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    for warp, p0, r in [
        (WarpSpec.constant(2.0), 0.0, 1.0),
        (WarpSpec.identity(), 1.0, 2.0),
        (WarpSpec.power(2.0 / 3.0), 1.0, 2.0),
        (WarpSpec.sin(), 1.0, 2.0),
        (WarpSpec.cos(), 0.0, 1.0),
        (WarpSpec.cosh(), 0.0, 1.0),
        (WarpSpec.exp(), 0.0, 0.5),
        (_sampled(65, "linear"), 0.7, 3.1),
        (_sampled(65, "cubic"), 0.7, 3.1),
    ]:
        nt = NullTransport(warp, p0)
        assert nt.h_solve(nt.null_parameter(r)) == pytest.approx(r, abs=1e-12)
