"""Acceptance suite: closed-form, oracle and model-identity checks.

Every check is seeded and self-contained; expected values come from closed
forms, brute-force dynamic programming, exhaustive enumeration or exact
model identities, never from the solver under test.  ``run_all`` prints one
pass/fail line per criterion.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .bruteforce import dp_time_separation, enumerate_tau
from .comparison import SamplingSpec, certify_bound
from .cone import GeneralizedCone
from .fiber import EuclideanN, Hyperbolic2, RealLine, Sphere2, tripod
from .lorentz_model import (corresponding_point, model_tau,
                            modified_distance, realize_timelike_triangle)
from .llstructure import CurveCatalog, check_bare_llspace, derived_tau
from .warp import NullTransport, WarpSpec, singularity_report


def _flat_recovery(quick=False):
    """Flat cone: solver tau equals sqrt(dt^2 - d^2) on random causal pairs."""
    rng = np.random.default_rng(101)
    n_pairs = 120 if quick else 1000
    per_dim = [n_pairs // 3 + (1 if i < n_pairs % 3 else 0) for i in range(3)]
    worst = 0.0
    for dim, count in zip((1, 2, 3), per_dim):
        Y = GeneralizedCone(WarpSpec.constant(1.0), EuclideanN(dim))
        for _ in range(count):
            t0 = rng.uniform(-1.0, 1.0)
            delta = rng.uniform(0.1, 2.0)
            x0 = rng.normal(size=dim)
            direction = rng.normal(size=dim)
            direction /= np.linalg.norm(direction)
            d = rng.uniform(0.0, 0.99) * delta
            p = Y.point(t0, x0)
            q = Y.point(t0 + delta, x0 + d * direction)
            expected = math.sqrt(delta * delta - d * d)
            got = Y.time_separation(p, q)
            worst = max(worst, abs(got - expected) / expected)
    return worst <= 1e-6, f"max relative error {worst:.3g} over {n_pairs} pairs"


def _minkowski_cone(quick=False):
    """f = id: tau matches sqrt(s^2 + t^2 - 2 s t cosh d) over R and H^2."""
    rng = np.random.default_rng(202)
    n_pairs = 60 if quick else 250
    worst = 0.0
    hyp = Hyperbolic2(1.0)
    for fiber_name in ("real", "hyperbolic"):
        fiber = RealLine() if fiber_name == "real" else hyp
        Y = GeneralizedCone(WarpSpec.identity(), fiber)
        for _ in range(n_pairs):
            s = rng.uniform(0.5, 2.0)
            t = s * rng.uniform(1.05, 2.5)
            limit = (s * s + t * t) / (2.0 * s * t)
            ch = 1.0 + rng.uniform(0.02, 0.95) * (limit - 1.0)
            d = math.acosh(ch)
            if fiber_name == "real":
                x0 = rng.normal()
                p, q = Y.point(s, x0), Y.point(t, x0 + d)
            else:
                x0 = hyp.from_polar(abs(rng.normal()), rng.uniform(0, 2 * math.pi))
                far = hyp.from_polar(abs(rng.normal()) + d + 1.0,
                                     rng.uniform(0, 2 * math.pi))
                y0 = hyp.geodesic_point(x0, far, d / hyp.distance(x0, far))
                p, q = Y.point(s, x0), Y.point(t, y0)
            expected = math.sqrt(s * s + t * t - 2.0 * s * t * ch)
            got = Y.time_separation(p, q)
            worst = max(worst, abs(got - expected) / expected)
    return worst <= 1e-6, f"max relative error {worst:.3g} over {2*n_pairs} pairs"


def _dp_pairs(rng, warp, window, count):
    # d stays below 0.55 of the null value: the DP frontier advances by
    # floor(cap/dx) nodes per step, so near-null targets are unreachable on
    # square grids (near-null accuracy is covered by the closed-form checks)
    pairs = []
    for _ in range(count):
        p0 = rng.uniform(window[0], 0.5 * (window[0] + window[1]))
        q0 = rng.uniform(p0 + 0.4 * (window[1] - p0), window[1])
        null_value = NullTransport(warp, p0).null_parameter(q0)
        d = rng.uniform(0.2, 0.55) * null_value
        pairs.append((p0, q0, d))
    return pairs


def _dp_oracle(quick=False):
    """Solver tau against brute-force DP over piecewise-linear causal paths."""
    rng = np.random.default_rng(303)
    n_pairs = 4 if quick else 25
    grid = 200 if quick else 600
    cases = [
        (WarpSpec.sin(), (0.35, math.pi - 0.35)),
        (WarpSpec.cosh(), (-1.0, 1.0)),
        (WarpSpec.exp(), (-1.0, 1.0)),
    ]
    worst = 0.0
    for warp, window in cases:
        Y = GeneralizedCone(warp, RealLine())
        for p0, q0, d in _dp_pairs(rng, warp, window, n_pairs):
            solver = Y.time_separation(Y.point(p0, 0.0), Y.point(q0, d))
            oracle = dp_time_separation(warp, p0, q0, d, grid, grid)
            if not math.isfinite(oracle):
                return False, f"DP grid admitted no causal path for {(p0, q0, d)}"
            worst = max(worst, abs(solver - oracle))
    return worst <= 2e-3, f"max |solver - DP| = {worst:.3g} (grid {grid}^2)"


def _conservation(quick=False):
    """f(alpha)^2 v_beta (arclength speed) is constant along maximizers."""
    rng = np.random.default_rng(404)
    n_per = 4 if quick else 10
    cases = [
        (WarpSpec.sin(), (0.35, math.pi - 0.35)),
        (WarpSpec.cosh(), (-1.0, 1.0)),
        (WarpSpec.exp(), (-1.0, 1.0)),
    ]
    worst = 0.0
    for warp, window in cases:
        Y = GeneralizedCone(warp, RealLine())
        for p0, q0, d in _dp_pairs(rng, warp, window, n_per):
            path = Y.maximizing_geodesic(Y.point(p0, 0.0), Y.point(q0, d), 401)
            c = Y.conserved_speed(path)
            c = c[np.isfinite(c)]
            variation = (c.max() - c.min()) / max(abs(np.median(c)), 1e-30)
            worst = max(worst, variation)
    return worst <= 1e-4, f"max relative variation {worst:.3g}"


def _variational(quick=False):
    """L = L^var: dyadic refinement converges, never increasing."""
    rng = np.random.default_rng(505)
    n_paths = 8 if quick else 50
    warp = WarpSpec.sin()
    Y = GeneralizedCone(warp, EuclideanN(2))
    worst_gap = 0.0
    monotone = True
    for _ in range(n_paths):
        p0 = rng.uniform(0.4, 1.2)
        q0 = rng.uniform(p0 + 0.8, min(p0 + 1.6, math.pi - 0.4))
        null_value = NullTransport(warp, p0).null_parameter(q0)
        # moderate speeds keep the min-vs-midpoint warp gap at depth 8 small
        d = rng.uniform(0.15, 0.5) * null_value
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        x0 = rng.normal(size=2)
        path = Y.maximizing_geodesic(Y.point(p0, x0),
                                     Y.point(q0, x0 + d * direction), 257)
        var = Y.variational_length(path, 8)
        seq = np.array(var.sequence)
        if np.any(np.diff(seq) > 1e-12):
            monotone = False
        worst_gap = max(worst_gap, abs(var.value - Y.path_length(path)))
    ok = monotone and worst_gap <= 1e-3
    return ok, (f"max |L^var - L| = {worst_gap:.3g}, "
                f"sequences non-increasing: {monotone}")


def _curvature_table(quick=False):
    """Warped-product curvature table rows certify as consistent."""
    n = 40 if quick else 200
    rows = [
        ("(0,inf) x_id H2(1), K'=0 below",
         GeneralizedCone(WarpSpec.identity(), Hyperbolic2(1.0)), 0.0, ("below",)),
        ("R x_1 R2, K'=0 both",
         GeneralizedCone(WarpSpec.constant(1.0), EuclideanN(2)), 0.0,
         ("below", "above")),
        ("R x_cosh S2(1), K'=1 below",
         GeneralizedCone(WarpSpec.cosh(), Sphere2(1.0)), 1.0, ("below",)),
    ]
    details = []
    ok = True
    for label, Y, kp, directions in rows:
        for direction in directions:
            rep = certify_bound(Y, kp, direction,
                                SamplingSpec(n_triangles=n, seed=606))
            details.append(f"{label}/{direction}: {rep.verdict} "
                           f"(worst {rep.worst_gap:.2g})")
            ok = ok and rep.verdict == "consistent"
    return ok, "; ".join(details)


def _cone_curvature_equivalence(quick=False):
    """Minkowski-cone curvature correspondence at desk scale: H^2 fiber keeps
    the lower bound 0, the tripod breaks it (reproducible witness) but keeps
    the upper bound 0."""
    n = 60 if quick else 200
    Yh = GeneralizedCone(WarpSpec.identity(), Hyperbolic2(1.0))
    rep_h = certify_bound(Yh, 0.0, "below", SamplingSpec(n_triangles=n, seed=123))
    Yt = GeneralizedCone(WarpSpec.identity(), tripod())
    rep_below = certify_bound(Yt, 0.0, "below",
                              SamplingSpec(n_triangles=n, seed=123))
    rep_above = certify_bound(Yt, 0.0, "above",
                              SamplingSpec(n_triangles=n, seed=123))
    witness_ok = False
    if rep_below.verdict == "violated":
        w = rep_below.worst_witness
        # reproduce the witness by direct evaluation
        p = Yt.point_on_maximizer(w["x"], w["y"], w["s_p"]) if w["s_p"] > 0 else w["x"]
        q = Yt.point_on_maximizer(w["y"], w["z"], w["s_q"]) if w["s_q"] > 0 else w["y"]
        tau_direct = Yt.time_separation(p, q)
        witness_ok = abs(tau_direct - w["tau_cone"]) <= 1e-9 * max(1.0, tau_direct)
    ok = (rep_h.verdict == "consistent" and rep_below.verdict == "violated"
          and witness_ok and rep_above.verdict == "consistent")
    return ok, (f"H2 below: {rep_h.verdict}; tripod below: {rep_below.verdict} "
                f"(worst {rep_below.worst_gap:.3g}, witness reproduced: "
                f"{witness_ok}); tripod above: {rep_above.verdict}")


def _de_sitter_self(quick=False):
    """R x_cosh R is the K=1 model chart: all comparison gaps vanish."""
    n = 30 if quick else 100
    Y = GeneralizedCone(WarpSpec.cosh(), RealLine())
    rep = certify_bound(Y, 1.0, "below", SamplingSpec(n_triangles=n, seed=808))
    max_abs = max(abs(r[5]) for r in rep.rows if r[7])
    return max_abs <= 1e-5, f"max |gap| = {max_abs:.3g} over {rep.pairs_tested} pairs"


def _singularity_suite(quick=False):
    """Singularity criteria: sin diameter bound, exp inconsistency, big bang."""
    details = []
    rep_sin = singularity_report(WarpSpec.sin(), -1.0)
    ok = (rep_sin.lower_bound_K_consistent and rep_sin.a_finite
          and rep_sin.b_finite
          and abs(rep_sin.tau_diameter_bound - math.pi) < 1e-12)
    details.append(f"sin diameter bound {rep_sin.tau_diameter_bound:.6f}")
    # sampled tau values stay below the diameter bound
    rng = np.random.default_rng(909)
    Y = GeneralizedCone(WarpSpec.sin(), RealLine())
    n_pairs = 40 if quick else 200
    worst_tau = 0.0
    for _ in range(n_pairs):
        p0 = rng.uniform(0.05, 2.6)
        q0 = rng.uniform(p0 + 0.05, math.pi - 0.02)
        d = rng.uniform(0.0, 3.0)
        tau = Y.time_separation(Y.point(p0, 0.0), Y.point(q0, d))
        worst_tau = max(worst_tau, tau)
    ok = ok and worst_tau <= math.pi + 1e-6
    details.append(f"max sampled tau {worst_tau:.6f} <= pi")
    rep_exp = singularity_report(WarpSpec.exp(), 0.0)
    ok = ok and not rep_exp.lower_bound_K_consistent
    ok = ok and any("impossible" in v for v in rep_exp.verdicts)
    details.append(f"exp lower-bound-0 consistent: "
                   f"{rep_exp.lower_bound_K_consistent}")
    rep_pow = singularity_report(WarpSpec.power(2.0 / 3.0), 0.0)
    ok = (ok and rep_pow.lower_bound_K_consistent and rep_pow.big_bang
          and not rep_pow.upper_bound_possible)
    details.append(f"t^(2/3) big bang: {rep_pow.big_bang}, upper possible: "
                   f"{rep_pow.upper_bound_possible}")
    return ok, "; ".join(details)


def _modified_distance(quick=False):
    """ODE residual of the modified distance along model geodesics, and the
    strict two-model comparison for K < K'."""
    rng = np.random.default_rng(1010)
    n_geo = 5 if quick else 20
    m = 21
    worst_resid = 0.0
    for K in (-1.0, 0.0, 1.0):
        for _ in range(n_geo):
            c = rng.uniform(0.5, 0.9)
            a = c * rng.uniform(0.15, 0.4)
            b = c * rng.uniform(0.15, 0.4)
            tri = realize_timelike_triangle(K, a, b, c)
            us = np.linspace(0.0, 1.0, m)
            phi = np.empty(m)
            for i, u in enumerate(us):
                pt = corresponding_point(tri, "yz", u * b)
                tau_x = model_tau(K, tri.x, pt)
                phi[i] = modified_distance(K, -tau_x * tau_x)
            h = us[1] - us[0]
            second = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / (h * h)
            resid = second - b * b * K * phi[1:-1] + b * b
            worst_resid = max(worst_resid, float(np.max(np.abs(resid))))
    ok = worst_resid <= 1e-4
    # strictness: tau_{K'}(x', q') > tau_K(x, q) for interior corresponding q
    n_pts = 20 if quick else 100
    min_margin = math.inf
    for K, Kp in ((0.0, 1.0), (-1.0, 0.0)):
        for _ in range(n_pts):
            c = rng.uniform(0.5, 0.9)
            a = c * rng.uniform(0.15, 0.4)
            b = c * rng.uniform(0.15, 0.4)
            lo = realize_timelike_triangle(K, a, b, c)
            hi = realize_timelike_triangle(Kp, a, b, c)
            u = rng.uniform(0.1, 0.9)
            q_lo = corresponding_point(lo, "yz", u * b)
            q_hi = corresponding_point(hi, "yz", u * b)
            margin = model_tau(Kp, hi.x, q_hi) - model_tau(K, lo.x, q_lo)
            min_margin = min(min_margin, margin)
    ok = ok and min_margin > 1e-10
    return ok, (f"max ODE residual {worst_resid:.3g}; "
                f"min strictness margin {min_margin:.3g}")


def _random_catalog(rng):
    n = int(rng.integers(3, 13))
    points = [f"p{i}" for i in range(n)]
    curves = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < 0.3:
                length = 0.0 if rng.uniform() < 0.2 else float(rng.uniform(0.1, 2.0))
                timelike = length > 0 and rng.uniform() < 0.5
                curves.append((points[i], points[j], length,
                               "timelike" if timelike else "causal"))
    # sprinkle cycles: zero-length back edges and an occasional positive one
    if n >= 4 and rng.uniform() < 0.3:
        curves.append((points[2], points[0], 0.0, "causal"))
        curves.append((points[0], points[2], 0.0, "causal"))
    if n >= 5 and rng.uniform() < 0.2:
        curves.append((points[3], points[1], float(rng.uniform(0.1, 1.0)),
                       "causal"))
    return CurveCatalog(points, curves)


def _llstructure_suite(quick=False):
    """Random catalogs pass the bare-length-space checks; the DP equals
    exhaustive enumeration."""
    rng = np.random.default_rng(1111)
    n_catalogs = 20 if quick else 100
    failures = 0
    dp_mismatch = 0
    for _ in range(n_catalogs):
        cat = _random_catalog(rng)
        verdict = check_bare_llspace(cat)
        if not verdict.ok:
            failures += 1
        tt = derived_tau(cat)
        values, infinite = enumerate_tau(cat)
        if not (np.allclose(tt.values, values, atol=1e-9)
                and np.array_equal(tt.infinite, infinite)):
            dp_mismatch += 1
    ok = failures == 0 and dp_mismatch == 0
    return ok, (f"{n_catalogs} catalogs, {failures} check failures, "
                f"{dp_mismatch} DP/enumeration mismatches")


CHECKS = (
    (1, "flat recovery", _flat_recovery),
    (2, "Minkowski-cone closed form", _minkowski_cone),
    (3, "DP-oracle agreement", _dp_oracle),
    (4, "conservation law", _conservation),
    (5, "variational length", _variational),
    (6, "curvature table rows", _curvature_table),
    (7, "cone curvature correspondence", _cone_curvature_equivalence),
    (8, "de Sitter self-comparison", _de_sitter_self),
    (9, "singularity suite", _singularity_suite),
    (10, "modified distance", _modified_distance),
    (11, "length-structure catalogs", _llstructure_suite),
)


def run_check(number, quick=False):
    for num, name, fn in CHECKS:
        if num == number:
            return fn(quick)
    raise ValueError(f"no acceptance criterion {number}")


def run_all(quick=False) -> bool:
    all_ok = True
    for num, name, fn in CHECKS:
        start = time.time()
        try:
            ok, detail = fn(quick)
        except Exception as exc:   # a crash is a failed criterion, keep going
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {num:2d} ({name}): {detail} "
              f"[{time.time() - start:.1f}s]")
    return all_ok
