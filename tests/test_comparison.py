"""Comparison engine: size bounds, lifting, certification, determinism."""

import math

import numpy as np
import pytest

from lorcone import (EuclideanN, GeneralizedCone, Hyperbolic2, LiftError,
                     RealLine, Sphere2, WarpSpec, certify_bound,
                     compare_corresponding_points, fiber_bound_from_cone,
                     lift_fiber_triangle)
from lorcone.comparison import SamplingSpec, _draw_triangle, _side_points
from lorcone.fiber import tripod
from lorcone.lorentz_model import size_bounds


class TestSizeBounds:
    def test_no_restriction_at_zero(self):
        assert size_bounds(0.0, 1.0, 1.0, 3.0)

    def test_negative_curvature_pi_bound(self):
        assert not size_bounds(-1.0, 1.0, 1.0, math.pi + 0.1)
        assert size_bounds(-1.0, 1.0, 1.0, 3.0)

    def test_positive_curvature_equality_branch(self):
        assert size_bounds(1.0, 1.0, 1.0, 2.0)
        assert not size_bounds(1.0, 1.6, 1.6, 3.2)
        # strict case carries no restriction for K' > 0
        assert size_bounds(1.0, 1.0, 1.0, 4.0)

    def test_reverse_triangle_required(self):
        assert not size_bounds(0.0, 1.0, 1.0, 1.5)


class TestLift:
    def test_flat_small_triangle(self):
        Y = GeneralizedCone(WarpSpec.constant(1.0), EuclideanN(2))
        pts = (np.array([0.0, 0.0]), np.array([0.1, 0.0]), np.array([0.0, 0.12]))
        tri = lift_fiber_triangle(Y, pts, 0.0, 1.0)
        assert tri.c >= tri.a + tri.b - 1e-9
        for p, q in ((tri.x, tri.y), (tri.y, tri.z), (tri.x, tri.z)):
            assert Y.relate(p, q).relation == "chronological"

    def test_degenerate_vertical(self):
        Y = GeneralizedCone(WarpSpec.constant(1.0), EuclideanN(2))
        x = np.zeros(2)
        tri = lift_fiber_triangle(Y, (x, x, x), 0.0, 1.0)
        assert tri.a == pytest.approx(1.0)
        assert tri.b == pytest.approx(1.0)
        assert tri.c == pytest.approx(2.0)

    def test_roundtrip_side_lengths(self):
        Y = GeneralizedCone(WarpSpec.identity(), Hyperbolic2(1.0))
        h = Y.fiber
        base = h.from_polar(0.2, 0.3)
        pts = tuple(
            h.geodesic_point(base, h.from_polar(1.0, th), 0.02)
            for th in (0.0, 2.0, 4.0))
        tri = lift_fiber_triangle(Y, pts, 1.0, 0.25)
        for side, (p, q) in (("a", (tri.x, tri.y)), ("b", (tri.y, tri.z)),
                             ("c", (tri.x, tri.z))):
            path = Y.maximizing_geodesic(p, q, 257)
            assert Y.path_length(path) == pytest.approx(
                Y.time_separation(p, q), abs=1e-6)

    def test_diameter_precondition(self):
        Y = GeneralizedCone(WarpSpec.constant(1.0), EuclideanN(2))
        pts = (np.zeros(2), np.array([2.0, 0.0]), np.array([0.0, 2.0]))
        with pytest.raises(LiftError):
            lift_fiber_triangle(Y, pts, 0.0, 1.0)

    def test_window_precondition(self):
        Y = GeneralizedCone(WarpSpec.sin(), EuclideanN(2))
        pts = (np.zeros(2), np.array([0.01, 0.0]), np.array([0.0, 0.01]))
        with pytest.raises(LiftError):
            lift_fiber_triangle(Y, pts, 0.5, 1.0)


class TestCompare:
    def test_degenerate_vertical_gaps_vanish(self):
        Y = GeneralizedCone(WarpSpec.constant(1.0), EuclideanN(2))
        x = np.zeros(2)
        tri = lift_fiber_triangle(Y, (x, x, x), 0.0, 1.0)
        records = compare_corresponding_points(Y, tri, 0.0, 4)
        for rec in records:
            assert abs(rec.gap) <= 1e-9

    def test_minkowski_cone_over_h2_lower_bound(self):
        Y = GeneralizedCone(WarpSpec.identity(), Hyperbolic2(1.0))
        h = Y.fiber
        base = h.from_polar(0.1, 1.0)
        pts = tuple(
            h.geodesic_point(base, h.from_polar(1.5, th), 0.015)
            for th in (0.5, 2.5, 4.5))
        tri = lift_fiber_triangle(Y, pts, 1.0, 0.3)
        records = compare_corresponding_points(Y, tri, 0.0, 4)
        for rec in records:
            if rec.counted:
                assert rec.gap <= 1e-5

    def test_model_chart_self_comparison(self):
        Y = GeneralizedCone(WarpSpec.cosh(), RealLine())
        pts = (0.0, 0.04, -0.03)
        tri = lift_fiber_triangle(Y, pts, 0.2, 0.5)
        records = compare_corresponding_points(Y, tri, 1.0, 5)
        for rec in records:
            if rec.counted:
                assert abs(rec.gap) <= 1e-5


class TestCertify:
    def test_flat_consistent_both(self):
        Y = GeneralizedCone(WarpSpec.constant(1.0), EuclideanN(2))
        for direction in ("below", "above"):
            rep = certify_bound(Y, 0.0, direction,
                                SamplingSpec(n_triangles=15, seed=1))
            assert rep.verdict == "consistent"

    def test_determinism(self):
        Y = GeneralizedCone(WarpSpec.identity(), tripod())
        spec = SamplingSpec(n_triangles=25, seed=9)
        r1 = certify_bound(Y, 0.0, "below", spec)
        r2 = certify_bound(Y, 0.0, "below", spec)
        assert r1.rows == r2.rows
        assert r1.worst_gap == r2.worst_gap
        assert r1.verdict == r2.verdict

    def test_tripod_violation_with_witness(self):
        Y = GeneralizedCone(WarpSpec.identity(), tripod())
        rep = certify_bound(Y, 0.0, "below",
                            SamplingSpec(n_triangles=200, seed=123))
        assert rep.verdict == "violated"
        w = rep.worst_witness
        # witness straddles the branch: its triangle has vertices on
        # distinct legs
        legs = {w["x"].x[0], w["y"].x[0], w["z"].x[0]}
        assert len(legs) == 3
        p = Y.point_on_maximizer(w["x"], w["y"], w["s_p"]) if w["s_p"] > 0 else w["x"]
        q = Y.point_on_maximizer(w["y"], w["z"], w["s_q"]) if w["s_q"] > 0 else w["y"]
        assert Y.time_separation(p, q) == pytest.approx(w["tau_cone"], abs=1e-9)

    def test_report_csv_and_summary(self, tmp_path):
        Y = GeneralizedCone(WarpSpec.constant(1.0), EuclideanN(2))
        rep = certify_bound(Y, 0.0, "below", SamplingSpec(n_triangles=5, seed=2))
        out = tmp_path / "rep.csv"
        rep.to_csv(str(out))
        lines = out.read_text().splitlines()
        assert lines[0].startswith("triangle,s_p,s_q")
        assert len(lines) == 1 + len(rep.rows)
        assert "verdict: consistent" in rep.summary()


class TestFiberBound:
    def test_h2_against_its_own_curvature(self):
        Y = GeneralizedCone(WarpSpec.identity(), Hyperbolic2(1.0))
        for direction in ("below", "above"):
            rep = fiber_bound_from_cone(Y, -1.0, 0.0, direction,
                                        SamplingSpec(n_triangles=20, seed=4))
            assert rep.verdict == "consistent"
            assert rep.bound_space == "fiber"

    def test_flat_fiber_both_directions(self):
        Y = GeneralizedCone(WarpSpec.constant(1.0), EuclideanN(2))
        for direction in ("below", "above"):
            rep = fiber_bound_from_cone(Y, 0.0, 0.0, direction,
                                        SamplingSpec(n_triangles=20, seed=5))
            assert rep.verdict == "consistent"

    def test_sphere_lower_bound_under_cosh(self):
        Y = GeneralizedCone(WarpSpec.cosh(), Sphere2(1.0))
        rep = fiber_bound_from_cone(Y, 1.0, 1.0, "below",
                                    SamplingSpec(n_triangles=20, seed=6))
        assert rep.verdict == "consistent"

    def test_tripod_fiber_violation(self):
        Y = GeneralizedCone(WarpSpec.identity(), tripod())
        rep = fiber_bound_from_cone(Y, -1.0, 0.0, "below",
                                    SamplingSpec(n_triangles=200, seed=123))
        assert rep.verdict == "violated"


_MIXED_ROWS = {
    "H2": lambda: GeneralizedCone(WarpSpec.identity(), Hyperbolic2(1.0)),
    "tripod": lambda: GeneralizedCone(WarpSpec.identity(), tripod()),
    "S2": lambda: GeneralizedCone(WarpSpec.cosh(), Sphere2(1.0)),
    "AdS": lambda: GeneralizedCone(WarpSpec.cos(), RealLine()),
}


@pytest.mark.parametrize("row", sorted(_MIXED_ROWS))
def test_side_points_match_per_point_solves(row):
    # the side points of a triangle equal, bit for bit, the points that
    # point_on_maximizer solves one at a time on a fresh cone
    Y, ref = _MIXED_ROWS[row](), _MIXED_ROWS[row]()
    for seed in range(3):
        tri, _ = _draw_triangle(Y, SamplingSpec(), np.random.default_rng(seed))
        side_p, side_q = _side_points(Y, tri, 4)
        for (start, end), side in (((tri.x, tri.y), side_p), ((tri.y, tri.z), side_q)):
            for s, pt in side:
                want = start if s == 0.0 else ref.point_on_maximizer(start, end, s)
                assert pt.t == want.t
                assert np.asarray(pt.x, float).tobytes() == np.asarray(want.x, float).tobytes()
