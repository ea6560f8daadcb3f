"""Path functionals against per-segment scalar loops.

The loops below evaluate the certificate, the variational partition sums,
the causal-diamond radii and the maximizer's sample fractions one segment at
a time with scalar ``min_on`` calls; the library does each in one array pass
and must give the same first failing segment, and the same radii, partition
sums and samples bit for bit.
"""

import math

import numpy as np
import pytest

from lorcone import (CausalPath, EuclideanN, GeneralizedCone, Hyperbolic2,
                     NotCausalError, NullTransport, RealLine, Sphere2, WarpSpec)
from lorcone.cone import _kappa_rates


def _loop_certificate(Y, path, tol=1e-9):
    ts = path.times
    pts = path.points
    for i in range(path.n_segments):
        m = Y.warp.min_on(ts[i], ts[i + 1])
        d = Y.fiber.distance(pts[i], pts[i + 1])
        dt = ts[i + 1] - ts[i]
        if m * d > dt * (1.0 + tol) + tol * max(1.0, dt):
            raise NotCausalError(
                f"segment {i}: certificate m*d = {m*d:g} exceeds dt = {dt:g}")


def _loop_variational(Y, path, refinement_depth):
    ts = path.times
    pts = path.points
    n = path.n_segments
    seq = []
    for depth in range(refinement_depth + 1):
        k = 2 ** depth
        idx = sorted({round(j * n / k) for j in range(k + 1)})
        total = 0.0
        for i0, i1 in zip(idx[:-1], idx[1:]):
            dt = ts[i1] - ts[i0]
            d = Y.fiber.distance(pts[i0], pts[i1])
            m = Y.warp.min_on(ts[i0], ts[i1])
            total += math.sqrt(max(0.0, dt * dt - m * m * d * d))
        seq.append(total)
        if k >= n:
            break
    return seq


def _loop_diamond(Y, p, q, n_samples):
    ts = np.linspace(p.t, q.t, n_samples)
    r_p = np.empty_like(ts)
    r_q = np.empty_like(ts)
    for i, t in enumerate(ts):
        r_p[i] = 0.0 if t == p.t else (t - p.t) / Y.warp.min_on(p.t, t)
        r_q[i] = 0.0 if t == q.t else (q.t - t) / Y.warp.min_on(t, q.t)
    return r_p, r_q


def _loop_samples(Y, m, n_samples):
    """The maximizer's samples from a 16-node Gauss-Legendre rule applied to
    one segment at a time."""
    ts = np.linspace(m.p.t, m.q.t, n_samples)
    x, wts = np.polynomial.legendre.leggauss(16)
    incs = []
    for a, b in zip(ts[:-1], ts[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        b_dot = _kappa_rates(Y.warp(mid + half * x), m.kappa)[0]
        incs.append(float((half * wts * b_dot).sum()))
    B = np.concatenate(([0.0], np.cumsum(incs)))
    us = np.clip(B / (B[-1] if B[-1] > 0 else 1.0), 0.0, 1.0)
    geo = Y.fiber.geodesic_point
    return [(float(t), geo(m.p.x, m.q.x, float(u))) for t, u in zip(ts, us)]


def _sampled(interp):
    rng = np.random.default_rng(17)
    ts = np.linspace(0.0, 4.0, 41)
    vs = 1.2 + 0.35 * np.sin(1.7 * ts + 0.4) + 0.08 * rng.uniform(-1.0, 1.0, ts.size)
    return WarpSpec.sampled(list(zip(ts, vs)), interpolation=interp)


WARPS = {
    "linear": (_sampled("linear"), (0.2, 3.8)),
    "cubic": (_sampled("cubic"), (0.2, 3.8)),
    "sin": (WarpSpec.sin(), (0.2, 2.9)),
    "cosh": (WarpSpec.cosh(), (-1.0, 1.5)),
}
FIBERS = {"R": RealLine(), "R2": EuclideanN(2), "S2": Sphere2(1.0),
          "H2": Hyperbolic2(1.0)}
CASES = [(w, f) for w in WARPS for f in FIBERS]


def _toward(fiber, x, z, dist):
    """The point at distance ``dist`` from x on the geodesic to z (z itself
    when that is nearer)."""
    return fiber.geodesic_point(x, z, min(1.0, dist / fiber.distance(x, z)))


def _pairs(Y, window, rng, count):
    """Chronological pairs with d between 0.2 and 0.8 of the null value."""
    out = []
    while len(out) < count:
        p0 = rng.uniform(window[0], window[0] + 0.5 * (window[1] - window[0]))
        q0 = rng.uniform(p0 + 0.3, window[1])
        x = Y.fiber.sample_point(rng)
        z = Y.fiber.sample_point(rng)
        if Y.fiber.distance(x, z) < 1e-3:
            continue
        F = NullTransport(Y.warp, p0).null_parameter(q0)
        y = _toward(Y.fiber, x, z, min(rng.uniform(0.2, 0.8) * F, 2.5))
        p, q = Y.point(p0, x), Y.point(q0, y)
        if Y.relate(p, q).relation == "chronological":
            out.append((p, q))
    return out


def _wobbly_path(Y, window, rng, n):
    """A path whose segments move at 0.3 to 1.3 times the certificate's
    largest speed dt / m, so that some segments fail it."""
    ts = np.sort(rng.uniform(*window, n))
    x = Y.fiber.sample_point(rng)
    samples = [(ts[0], x)]
    for a, b in zip(ts[:-1], ts[1:]):
        z = Y.fiber.sample_point(rng)
        if Y.fiber.distance(x, z) > 1e-3:
            x = _toward(Y.fiber, x, z, rng.uniform(0.3, 1.3) * (b - a) / Y.warp.min_on(a, b))
        samples.append((b, x))
    return CausalPath(tuple(samples))


def _outcome(fn, *args):
    try:
        fn(*args)
    except NotCausalError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("warp_name, fiber_name", CASES)
def test_certificate_first_failing_segment(warp_name, fiber_name):
    warp, window = WARPS[warp_name]
    Y = GeneralizedCone(warp, FIBERS[fiber_name])
    rng = np.random.default_rng(101)
    paths = [Y.maximizing_geodesic(p, q, 33) for p, q in _pairs(Y, window, rng, 2)]
    paths += [_wobbly_path(Y, window, rng, n) for n in (2, 5, 17, 40)]
    outcomes = []
    for path in paths:
        want = _outcome(_loop_certificate, Y, path)
        assert _outcome(Y.check_certificate, path) == want
        assert _outcome(Y.path_length, path) == want
        outcomes.append(want)
    # the maximizers pass, and some wobbly path fails
    assert outcomes[:2] == [None, None]
    assert any(o is not None for o in outcomes[2:])


@pytest.mark.parametrize("warp_name, fiber_name", CASES)
def test_diamond_radii_bitwise(warp_name, fiber_name):
    warp, window = WARPS[warp_name]
    Y = GeneralizedCone(warp, FIBERS[fiber_name])
    rng = np.random.default_rng(202)
    for p, q in _pairs(Y, window, rng, 3):
        for n in (2, 5, 33):
            box = Y.causal_diamond_box(p, q, n)
            r_p, r_q = _loop_diamond(Y, p, q, n)
            assert box.radii_from_p.tobytes() == r_p.tobytes()
            assert box.radii_to_q.tobytes() == r_q.tobytes()


@pytest.mark.parametrize("warp_name, fiber_name", CASES)
def test_variational_length_bitwise(warp_name, fiber_name):
    warp, window = WARPS[warp_name]
    Y = GeneralizedCone(warp, FIBERS[fiber_name])
    rng = np.random.default_rng(303)
    for p, q in _pairs(Y, window, rng, 2):
        for n in (3, 65, 257):
            path = Y.maximizing_geodesic(p, q, n)
            assert list(Y.variational_length(path, 8).sequence) == \
                _loop_variational(Y, path, 8)


@pytest.mark.parametrize("warp_name, fiber_name", CASES)
def test_maximizer_samples_bitwise(warp_name, fiber_name):
    warp, window = WARPS[warp_name]
    Y = GeneralizedCone(warp, FIBERS[fiber_name])
    rng = np.random.default_rng(404)
    for p, q in _pairs(Y, window, rng, 2):
        m = Y.maximizer(p, q)
        for n in (2, 17, 129):
            got = Y.maximizing_geodesic(p, q, n).samples
            want = _loop_samples(Y, m, n)
            assert [t for t, _ in got] == [t for t, _ in want]
            assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
                       for (_, a), (_, b) in zip(got, want))
