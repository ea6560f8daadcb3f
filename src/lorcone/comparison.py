"""Triangle-comparison engine for timelike curvature bounds.

Small fiber triangles are lifted to timelike geodesic triangles in the cone,
realized as comparison triangles in the model plane of the candidate bound,
and corresponding points (one on side xy, one on side yz, vertices included)
are compared through their time separations.  The verdicts are empirical
falsification checks at sampled scale, never proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cone import ConePoint, GeneralizedCone
from .errors import LiftError, SamplingExhaustedError, SizeBoundsError
from .fiber import realize_metric_triangle
from .lorentz_model import (corresponding_point, model_tau,
                            realize_timelike_triangle, size_bounds)

_TIMELIKE_FLOOR = 1e-12
# fiber triangle diameter over the lift's cap; draws before a triangle is exhausted
_DIAM_FACTOR = 0.1
_MAX_RETRIES = 8


@dataclass(frozen=True)
class TimelikeTriangle:
    """A lifted timelike geodesic triangle x << y << z with realized sides."""
    x: ConePoint
    y: ConePoint
    z: ConePoint
    a: float  # tau(x, y)
    b: float  # tau(y, z)
    c: float  # tau(x, z)

    def __post_init__(self):
        scale = max(1.0, self.c)
        if self.c < self.a + self.b - 1e-9 * scale:
            raise SizeBoundsError(
                f"reverse triangle inequality fails: c={self.c} < a+b="
                f"{self.a + self.b}")


def lift_fiber_triangle(Y: GeneralizedCone, fiber_triangle, t0: float,
                        eps: float) -> TimelikeTriangle:
    """Lift a small fiber triangle to the timelike triangle with vertices at
    base times t0 - eps, t0, t0 + eps.

    Requires the fiber diameter to stay below eps / (2 sqrt(2) f(t0)) and the
    warp to stay below 2 f(t0) on the window, which makes the straight-line
    pre-lift radicand <= -1/2 (checked here).
    """
    if eps <= 0:
        raise LiftError("eps must be positive")
    if not (Y.warp.a < t0 - eps and t0 + eps < Y.warp.b):
        raise LiftError(f"window [{t0 - eps}, {t0 + eps}] leaves the interval")
    xb, yb, zb = fiber_triangle
    diam = max(Y.fiber.distance(xb, yb), Y.fiber.distance(yb, zb),
               Y.fiber.distance(xb, zb))
    f0 = Y.warp(t0)
    if diam > eps / (2.0 * math.sqrt(2.0) * f0) * (1.0 + 1e-12):
        raise LiftError(
            f"fiber diameter {diam:g} exceeds eps/(2*sqrt(2)*f(t0)) = "
            f"{eps / (2.0 * math.sqrt(2.0) * f0):g}")
    fmax = Y.warp.max_on(t0 - eps, t0 + eps)
    if fmax * diam / eps > 1.0 / math.sqrt(2.0) * (1.0 + 1e-12):
        raise LiftError(
            f"pre-lift radicand bound fails: max f * diam / eps = "
            f"{fmax * diam / eps:g} > 1/sqrt(2)")
    x = ConePoint(t0 - eps, xb)
    y = ConePoint(t0, yb)
    z = ConePoint(t0 + eps, zb)
    a = Y.time_separation(x, y)
    b = Y.time_separation(y, z)
    c = Y.time_separation(x, z)
    if min(a, b, c) <= 0:
        raise LiftError("lifted vertices are not chronologically ordered")
    return TimelikeTriangle(x, y, z, a, b, c)


@dataclass(frozen=True)
class PairRecord:
    """One corresponding-point comparison."""
    s_p: float          # tau parameter on side xy (0 at x)
    s_q: float          # tau parameter on side yz (0 at y)
    tau_cone: float
    tau_model: float
    gap: float          # tau_cone - tau_model
    counted: bool       # both sides timelike-related
    note: str = ""


def _side_points(Y: GeneralizedCone, tri: TimelikeTriangle, pair_samples: int):
    """(s, point) at evenly spaced tau parameters s on side xy (0 at x) and on
    side yz (0 at y), vertices included, on one maximizer per side."""
    fr = np.linspace(0.0, 1.0, max(2, pair_samples))

    def side(start, end, length):
        m = Y.maximizer(start, end)
        return [(s, start if s == 0.0 else m.point_at(s)) for s in fr * length]

    return side(tri.x, tri.y, tri.a), side(tri.y, tri.z, tri.b)


def compare_corresponding_points(Y: GeneralizedCone, tri: TimelikeTriangle,
                                 k_prime: float, pair_samples: int = 4):
    """Compare tau between corresponding points of the lifted triangle and its
    model comparison triangle.

    Points p sit on side xy and q on side yz (vertices included), matching
    the configurations the comparison theorems actually constrain.  Pairs
    where either side fails to be timelike-related are recorded as
    informational, not counted toward verdicts.
    """
    if not size_bounds(k_prime, tri.a, tri.b, tri.c):
        raise SizeBoundsError(
            f"size bounds for K'={k_prime} fail on sides "
            f"({tri.a}, {tri.b}, {tri.c})")
    model = realize_timelike_triangle(k_prime, tri.a, tri.b, tri.c)
    side_p, side_q = _side_points(Y, tri, pair_samples)
    q_models = [corresponding_point(model, "yz", s_q) for s_q, _ in side_q]
    records = []
    for s_p, p in side_p:
        p_model = corresponding_point(model, "xy", s_p)
        for (s_q, q), q_model in zip(side_q, q_models):
            tau_c = Y.time_separation(p, q)
            tau_m = model_tau(k_prime, p_model, q_model)
            counted = tau_c > _TIMELIKE_FLOOR and tau_m > _TIMELIKE_FLOOR
            note = "" if counted else "non-timelike pair"
            records.append(PairRecord(s_p, s_q, tau_c, tau_m, tau_c - tau_m,
                                      counted, note))
    return records


@dataclass(frozen=True)
class SamplingSpec:
    """Seeded sampling plan for certification runs."""
    n_triangles: int = 100
    t_window: Optional[tuple] = None
    seed: int = 0
    pair_samples: int = 4

    def window_for(self, warp):
        if self.t_window is not None:
            return self.t_window
        a, b = warp.a, warp.b
        if math.isfinite(a) and math.isfinite(b):
            span = b - a
            return (a + 0.25 * span, b - 0.25 * span)
        if math.isfinite(a):
            return (a + 0.5, a + 2.5)
        if math.isfinite(b):
            return (b - 2.5, b - 0.5)
        return (-1.0, 1.0)


def _sample_fiber_triangle(fiber, rng, diam):
    """Three fiber points surrounding a sampled base, pairwise within diam.

    Contracting independent samples toward the base (rather than using the
    base itself as a vertex) keeps branch points of graph fibers in the
    interior of sampled triangles, where curvature obstructions live.
    """
    base = fiber.sample_point(rng)
    pts = []
    for _ in range(3):
        raw = fiber.sample_point(rng)
        d = fiber.distance(base, raw)
        if d <= 1e-15:
            pts.append(raw)
            continue
        target = 0.5 * diam * rng.uniform(0.25, 1.0)
        pts.append(fiber.geodesic_point(base, raw, min(1.0, target / d)))
    return tuple(pts)


def _draw_triangle(Y, spec, rng):
    lo, hi = spec.window_for(Y.warp)
    counts = {"window": 0, "lift": 0}
    for _ in range(_MAX_RETRIES):
        t0 = rng.uniform(lo, hi)
        margin = min(t0 - Y.warp.a, Y.warp.b - t0)
        if not math.isfinite(margin):
            margin = min(margin, 1.0)
        eps = rng.uniform(0.4, 0.85) * margin
        if eps <= 0:
            counts["window"] += 1
            continue
        cap = eps / (2.0 * math.sqrt(2.0) * Y.warp(t0))
        tri_pts = _sample_fiber_triangle(Y.fiber, rng, _DIAM_FACTOR * cap)
        try:
            return lift_fiber_triangle(Y, tri_pts, t0, eps), counts
        except LiftError:
            counts["lift"] += 1
            continue
    return None, counts


@dataclass
class CurvatureReport:
    """Aggregated outcome of a sampled comparison run."""
    bound_space: str               # "cone" or "fiber"
    direction: str                 # "below" or "above"
    k_prime: float
    k_fiber: Optional[float]
    triangles_tested: int
    pairs_tested: int
    worst_gap: float               # signed; positive = violation
    worst_witness: Optional[dict]
    verdict: str                   # "consistent" or "violated"
    tolerance: float
    informational_pairs: int = 0
    exhausted: int = 0
    retry_counts: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"bound check ({self.bound_space}): direction={self.direction} "
            f"K'={self.k_prime:g}"
            + (f" K={self.k_fiber:g}" if self.k_fiber is not None else ""),
            f"triangles tested: {self.triangles_tested}   "
            f"pairs counted: {self.pairs_tested}   "
            f"informational: {self.informational_pairs}   "
            f"exhausted draws: {self.exhausted}",
            f"worst violation: {self.worst_gap:.9g} (tolerance {self.tolerance:.9g})",
            f"verdict: {self.verdict}",
        ]
        if self.worst_witness:
            w = self.worst_witness
            lines.append(
                "worst witness: triangle %d, s_p=%.9g s_q=%.9g, "
                "tau_cone=%.9g tau_model=%.9g" % (
                    w["triangle"], w["s_p"], w["s_q"], w["tau_cone"],
                    w["tau_model"]))
        return "\n".join(lines)

    def to_csv(self, fileobj) -> None:
        close = False
        if isinstance(fileobj, (str, bytes)):
            fileobj = open(fileobj, "w")
            close = True
        try:
            fileobj.write("triangle,s_p,s_q,tau_cone,tau_model,gap,"
                          "violation,counted\n")
            for row in self.rows:
                fileobj.write("%d,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%d\n" % row)
        finally:
            if close:
                fileobj.close()


def _aggregate(report_rows, violation_sign, report_tol, scale_of):
    """Rank violations normalized by per-triangle scale; the binding pair's
    raw violation and its own tolerance are what the report carries."""
    worst_scaled = -math.inf
    worst = -math.inf
    binding_tol = report_tol
    worst_witness = None
    pairs = 0
    informational = 0
    rows = []
    for tri_idx, tri, records in report_rows:
        scale = scale_of(tri)
        for rec in records:
            violation = violation_sign * rec.gap
            rows.append((tri_idx, rec.s_p, rec.s_q, rec.tau_cone, rec.tau_model,
                         rec.gap, violation, int(rec.counted)))
            if not rec.counted:
                informational += 1
                continue
            pairs += 1
            if violation / scale > worst_scaled:
                worst_scaled = violation / scale
                worst = violation
                binding_tol = report_tol * scale
                worst_witness = {
                    "triangle": tri_idx, "s_p": rec.s_p, "s_q": rec.s_q,
                    "tau_cone": rec.tau_cone, "tau_model": rec.tau_model,
                    "gap": rec.gap,
                    "x": tri.x, "y": tri.y, "z": tri.z,
                }
    return worst, binding_tol, worst_witness, pairs, informational, rows


def certify_bound(Y: GeneralizedCone, k_prime: float, direction: str,
                  sampling: SamplingSpec | dict | None = None,
                  report_tol: float = 1e-5) -> CurvatureReport:
    """Sampled falsification check of a timelike curvature bound of Y.

    direction "below": consistency requires tau_cone <= tau_model + tol on
    every counted pair; "above" requires tau_cone >= tau_model - tol.
    Identical seeds give identical reports.
    """
    # below-bound: tau_cone <= tau_model, so positive gap is the violation
    return _certify(Y, "cone", direction, k_prime, None, sampling, report_tol,
                    lambda tri, n: compare_corresponding_points(Y, tri, k_prime, n),
                    1.0 if direction == "below" else -1.0,
                    lambda tri: max(1.0, tri.c))


def fiber_bound_from_cone(Y: GeneralizedCone, K: float, k_prime: float,
                          direction: str,
                          sampling: SamplingSpec | dict | None = None,
                          report_tol: float = 1e-5) -> CurvatureReport:
    """Fiber-side converse check: compare fiber distances between
    corresponding points of lifted triangles against the model surface of
    curvature K.

    direction "below": a lower fiber bound K requires
    d_fiber >= d_model - tol; "above" requires d_fiber <= d_model + tol.
    """
    # lower fiber bound: d_actual >= d_model, so negative gap is the violation
    return _certify(Y, "fiber", direction, k_prime, K, sampling, report_tol,
                    lambda tri, n: _fiber_records(Y, tri, K, n),
                    -1.0 if direction == "below" else 1.0,
                    lambda tri: 1.0)


def _as_spec(sampling) -> SamplingSpec:
    if sampling is None:
        return SamplingSpec()
    if isinstance(sampling, SamplingSpec):
        return sampling
    return SamplingSpec(**sampling)


def _certify(Y, bound_space, direction, k_prime, k_fiber, sampling, report_tol,
             records_of, violation_sign, scale_of):
    """The sampling driver behind both checks: draws one seeded triangle per
    spawned seed, records its pairs with ``records_of(tri, pair_samples)``
    and ranks ``violation_sign * gap`` per ``scale_of(tri)``."""
    if direction not in ("below", "above"):
        raise ValueError("direction must be 'below' or 'above'")
    spec = _as_spec(sampling)
    report_rows = []
    exhausted = 0
    retry_counts = {"window": 0, "lift": 0}
    seeds = np.random.SeedSequence(spec.seed).spawn(spec.n_triangles)
    for idx, child in enumerate(seeds):
        tri, counts = _draw_triangle(Y, spec, np.random.default_rng(child))
        for k in retry_counts:
            retry_counts[k] += counts[k]
        if tri is None:
            exhausted += 1
        else:
            report_rows.append((idx, tri, records_of(tri, spec.pair_samples)))
    if not report_rows:
        raise SamplingExhaustedError(
            "all triangle draws failed their preconditions", counts=retry_counts)
    worst, tol, witness, pairs, informational, rows = _aggregate(
        report_rows, violation_sign, report_tol, scale_of)
    verdict = "violated" if worst > tol else "consistent"
    return CurvatureReport(bound_space, direction, k_prime, k_fiber,
                           len(report_rows), pairs, worst, witness, verdict, tol,
                           informational, exhausted, retry_counts, rows)


def _fiber_records(Y, tri, K, pair_samples):
    """Distance comparisons between corresponding fiber points."""
    xb, yb, zb = tri.x.x, tri.y.x, tri.z.x
    d_xy = Y.fiber.distance(xb, yb)
    d_xz = Y.fiber.distance(xb, zb)
    d_yz = Y.fiber.distance(yb, zb)
    realized = realize_metric_triangle(K, d_xy, d_xz, d_yz)
    mx, my, mz = realized.points
    surface = realized.space

    def model_point(start, m0, m1, d, pt):
        # the point at the same fiber distance from the model vertex
        if d <= 1e-15:
            return m0
        return surface.geodesic_point(m0, m1, Y.fiber.distance(start, pt.x) / d)

    side_p, side_q = _side_points(Y, tri, pair_samples)
    q_models = [model_point(yb, my, mz, d_yz, q) for _, q in side_q]
    records = []
    for s_p, p in side_p:
        pm = model_point(xb, mx, my, d_xy, p)
        for (s_q, q), qm in zip(side_q, q_models):
            d_actual = Y.fiber.distance(p.x, q.x)
            d_model = surface.distance(pm, qm)
            records.append(PairRecord(s_p, s_q, d_actual, d_model,
                                      d_actual - d_model, True, "fiber"))
    return records
