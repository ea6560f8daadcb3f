"""Warping functions: evaluation, extrema, null transport, verdict reports."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorcone import (DomainError, NullTransport, RangeError, WarpSpec,
                     concavity_check, singularity_report)


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
