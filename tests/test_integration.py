"""Cross-module paths: sampled warps end to end, circle fibers, exhaustion."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from lorcone import (Circle, GeneralizedCone, RealLine,
                     SamplingExhaustedError, WarpSpec, certify_bound)
from lorcone.comparison import SamplingSpec


class TestSampledWarpCone:
    def test_tau_close_to_closed_form_warp(self):
        # a dense linear sampling of sin should reproduce the sin cone
        ts = np.linspace(0.0, math.pi, 2001)[1:-1]
        sampled = WarpSpec.sampled(list(zip(ts, np.sin(ts))))
        Y_s = GeneralizedCone(sampled, RealLine())
        Y = GeneralizedCone(WarpSpec.sin(), RealLine())
        for (p0, q0, d) in ((0.7, 2.3, 0.6), (0.5, 1.5, 0.3), (1.2, 2.9, 0.9)):
            tau_s = Y_s.time_separation(Y_s.point(p0, 0.0), Y_s.point(q0, d))
            tau = Y.time_separation(Y.point(p0, 0.0), Y.point(q0, d))
            assert tau_s == pytest.approx(tau, abs=5e-6)

    def test_sampled_min_cubic(self):
        ts = np.linspace(0.0, math.pi, 40)
        w = WarpSpec.sampled(list(zip(ts, np.sin(ts) + 0.5)),
                             interval=(0.2, math.pi - 0.2),
                             interpolation="cubic")
        # interior minimum of each cubic piece is found, endpoints included
        got = w.min_on(0.3, math.pi - 0.3)
        grid = np.linspace(0.3, math.pi - 0.3, 5001)
        assert got <= float(np.min(w(grid))) + 1e-9

    def test_sampled_relate(self):
        ts = np.linspace(-2.0, 2.0, 801)
        sampled = WarpSpec.sampled(list(zip(ts, np.exp(ts))))
        Y = GeneralizedCone(sampled, RealLine())
        # forward horizon from 0 is about 1 - e^{-2}
        v = Y.relate(Y.point(0.0, 0.0), Y.point(1.5, 0.5))
        assert v.relation == "chronological"
        v2 = Y.relate(Y.point(0.0, 0.0), Y.point(1.5, 2.0))
        assert v2.relation == "not_related"


class TestCircleFiberCone:
    def test_wraparound_geodesics(self):
        Y = GeneralizedCone(WarpSpec.constant(1.0), Circle(1.0))
        # the short arc crosses the angular cut
        p = Y.point(0.0, 0.2)
        q = Y.point(1.0, 2 * math.pi - 0.2)
        assert Y.fiber.distance(p.x, q.x) == pytest.approx(0.4)
        assert Y.time_separation(p, q) == pytest.approx(
            math.sqrt(1 - 0.4 ** 2), rel=1e-9)
        path = Y.maximizing_geodesic(p, q, 33)
        assert Y.classify_path(path) == "timelike"

    def test_certify_flat_circle(self):
        # a circle is flat away from injectivity-scale triangles
        Y = GeneralizedCone(WarpSpec.constant(1.0), Circle(1.0))
        rep = certify_bound(Y, 0.0, "below", SamplingSpec(n_triangles=15, seed=8))
        assert rep.verdict == "consistent"


class TestSamplingExhaustion:
    def test_steep_warp_exhausts(self):
        # max f on any candidate window dwarfs 2 f(t0): every lift fails
        Y = GeneralizedCone(WarpSpec.exp(rate=12.0), RealLine())
        with pytest.raises(SamplingExhaustedError) as err:
            certify_bound(Y, 0.0, "below",
                          SamplingSpec(n_triangles=4, seed=1,
                                       t_window=(-0.2, 0.2)))
        assert err.value.counts["lift"] > 0


def test_segment_speeds():
    Y = GeneralizedCone(WarpSpec.constant(1.0), RealLine())
    path = Y.maximizing_geodesic(Y.point(0.0, 0.0), Y.point(2.0, 1.0), 17)
    v = Y.segment_speeds(path)
    assert np.allclose(v, 0.5, atol=1e-9)


def test_import_loads_numpy_only():
    """scipy is imported by the functions that use it, on first use."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, lorcone; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
