"""Generalized cones Y = I x_f X and their causal structure.

Causality is decided through the null transport: with the fiber distance d
and F(r) = int_{p0}^r 1/f, a later point (q0, q) is chronologically after
(p0, p) exactly when F(q0) > d, and sits on the null boundary when
F(q0) = d.  Time separation between chronologically related points reduces,
by fiber independence, to the one-dimensional problem

    maximize  int sqrt(1 - f(t)^2 b'(t)^2) dt   subject to  int b' = d,

whose maximizer satisfies the conservation law f^2 b' / sqrt(1 - f^2 b'^2)
= kappa; the solver finds kappa by monotone bracketing and evaluates the
resulting quadratures on Gauss-Legendre nodes with a two-resolution error
check.

The path functionals (length, energy, causal classification and the
per-segment certificate m_{t_i, t_{i+1}} d_i <= dt_i) share one array pass
over a path's segments, and the variational sums, the causal-diamond radii and
the maximizer's samples take all their segments in single array calls.  The
fiber enters those passes through its array methods: one ``distances`` call
per path (per depth for the variational sums) and one ``geodesic_points``
call per sampled curve.  A single pair, as in ``relate``, takes the one-pair
``distance``.  Quadrature nodes lie between base times that ``point`` has
checked, so the solvers evaluate the warp there without the per-node domain
and positivity checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .errors import (DomainError, IndeterminateRelationError,
                     NonGeodesicFiberError, NotCausalError, QuadratureError,
                     RootFindError)
from .fiber import FiberSpace
from .warp import NullTransport, WarpSpec, _gl_nodes

RELATIONS = ("equal", "chronological", "causal_null_boundary", "not_related")


@dataclass(frozen=True)
class ConePoint:
    """A point (t, x) of Y with t strictly inside the warp interval."""
    t: float
    x: Any


@dataclass(frozen=True)
class RelationVerdict:
    """Causal relation of an (orientation-normalized) pair with witness data."""
    relation: str
    fiber_distance: float
    null_param: Optional[float] = None   # F_{p0}(q0)
    horizon: Optional[float] = None      # b_{p0}
    h_of_d: Optional[float] = None       # h_{p0}(d), when computable
    swapped: bool = False                # True when the input pair was past-ordered

    @property
    def is_causal(self):
        return self.relation in ("equal", "chronological", "causal_null_boundary")

    @property
    def is_chronological(self):
        return self.relation == "chronological"


@dataclass(frozen=True)
class CausalPath:
    """A sampled curve (t_i, x_i) with strictly increasing base times.

    ``params`` is an optional strictly increasing parameter grid used by the
    energy functional; it defaults to the base times themselves.
    """
    samples: tuple
    params: Optional[tuple] = None

    def __post_init__(self):
        ts = [s[0] for s in self.samples]
        if len(ts) < 2:
            raise DomainError("path needs at least two samples")
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise DomainError("base times along a path must strictly increase")
        if self.params is not None:
            ps = self.params
            if len(ps) != len(ts) or any(b <= a for a, b in zip(ps, ps[1:])):
                raise DomainError("params must strictly increase, one per sample")

    @property
    def times(self):
        return np.array([s[0] for s in self.samples])

    @property
    def points(self):
        return [s[1] for s in self.samples]

    @property
    def n_segments(self):
        return len(self.samples) - 1


@dataclass(frozen=True)
class VariationalLength:
    value: float
    sequence: tuple


@dataclass(frozen=True)
class DiamondBox:
    """Per-slice fiber-ball radii bounding the causal diamond J(p, q)."""
    t_values: np.ndarray
    radii_from_p: np.ndarray
    radii_to_q: np.ndarray

    @property
    def empty(self):
        return self.t_values.size == 0


def _kappa_rates(f, kappa, w=1.0):
    """The rates along the maximizer with conserved momentum kappa at warp
    values f: the fiber speed b' = kappa / (f sqrt(f^2 + kappa^2)) and the
    proper-time rate f / sqrt(f^2 + kappa^2), overflow-safe for kappa > 1.
    The kappa solve passes its quadrature weights as w, which multiply each
    numerator before the division."""
    if kappa <= 1.0:
        root = np.sqrt(f * f + kappa * kappa)
        return w * kappa / (f * root), w * f / root
    r = f / kappa
    root = np.sqrt(r * r + 1.0)
    return w / (f * root), w * r / root


class _Curve:
    """A causal curve from p to q at fiber distance d, sampled on an even
    grid of base times: the fiber point at time t is the geodesic point at
    the fraction ``_fractions(ts)`` of the way from p.x to q.x."""

    def __init__(self, cone, p, q, d, tau):
        self.cone, self.p, self.q, self.d, self.tau = cone, p, q, d, tau

    def sample(self, n_samples):
        ts = np.linspace(self.p.t, self.q.t, n_samples)
        if self.d == 0.0:
            return CausalPath(tuple((float(t), self.p.x) for t in ts))
        pts = self.cone.fiber.geodesic_points(self.p.x, self.q.x, self._fractions(ts))
        return CausalPath(tuple(zip(ts.tolist(), pts)))


class _Maximizer(_Curve):
    """Solved maximizing curve between chronologically related points.

    Exposes the fiber progress B(t), the accumulated proper time A(t) and
    their inverses, all driven by the conserved kappa.
    """

    def __init__(self, cone, p, q, d, kappa, tau):
        super().__init__(cone, p, q, d, tau)
        self.kappa = kappa

    def _integrals(self, lo, hi, n=48):
        """(fiber progress, proper time) accrued from base time lo to hi;
        column arrays lo[:, None], hi[:, None] give one pair per segment."""
        ts, ws = _gl_nodes(lo, hi, n)
        b_dot, tau_dot = _kappa_rates(self.cone.warp._values(ts), self.kappa)
        return (ws * b_dot).sum(axis=-1), (ws * tau_dot).sum(axis=-1)

    def fiber_progress(self, t):
        # the quadrature nodes skip the warp's domain check, so check t
        self.cone.point(t, self.p.x)
        return float(self._integrals(self.p.t, t)[0])

    def proper_time(self, t):
        self.cone.point(t, self.p.x)
        return float(self._integrals(self.p.t, t)[1])

    def time_at_tau(self, s):
        if not -1e-12 <= s <= self.tau * (1 + 1e-12) + 1e-12:
            raise DomainError(f"tau parameter {s} outside [0, {self.tau}]")
        s = min(max(s, 0.0), self.tau)
        if s == 0.0:
            return self.p.t
        if s >= self.tau:
            return self.q.t
        from scipy.optimize import brentq
        # the bracket [p0, q0] holds only checked base times
        return brentq(lambda t: self._integrals(self.p.t, t)[1] - s, self.p.t, self.q.t,
                      xtol=1e-13 * max(1.0, abs(self.p.t), abs(self.q.t)),
                      rtol=8.9e-16, maxiter=200)

    def point_at_time(self, t):
        if self.d == 0.0:
            return ConePoint(t, self.p.x)
        u = self.fiber_progress(t) / self.d
        u = min(max(u, 0.0), 1.0)
        return ConePoint(t, self.cone.fiber.geodesic_point(self.p.x, self.q.x, u))

    def _fractions(self, ts):
        # cumulative fiber progress on the sample grid, 16 nodes per
        # segment, normalized so the endpoint lands exactly on q
        incs = self._integrals(ts[:-1, None], ts[1:, None], n=16)[0]
        B = np.concatenate(([0.0], np.cumsum(incs)))
        total = B[-1] if B[-1] > 0 else 1.0
        return np.clip(B / total, 0.0, 1.0)


class _NullCurve(_Curve):
    """The null boundary curve from p to q: alpha = h_{p0} o (fiber arclength)."""

    def __init__(self, cone, p, q, d):
        super().__init__(cone, p, q, d, 0.0)
        self._nt = cone._nt(p.t)

    def _fractions(self, ts):
        us = []
        for t in ts:
            s = 0.0 if t == self.p.t else self._nt.null_parameter(float(t))
            us.append(min(max(s / self.d, 0.0), 1.0))
        us[-1] = 1.0
        return us


class GeneralizedCone:
    """Y = I x_f X with the product background metric D = |dt| + d.

    All operations are pure; the internal null-transport and pair-solve
    caches are keyed memoizations whose concurrent population is harmless
    (worst case recomputation), so instances can be queried from multiple
    threads.
    """

    def __init__(self, warp: WarpSpec, fiber: FiberSpace, null_tol: float = 1e-9,
                 solver_tol: float = 1e-9):
        self.warp = warp
        self.fiber = fiber
        self.null_tol = float(null_tol)
        self.solver_tol = float(solver_tol)
        self._nt_cache: dict = {}
        self._pair_cache: dict = {}

    # -- basics -----------------------------------------------------------------

    def point(self, t, x) -> ConePoint:
        t = float(t)
        if not self.warp.a < t < self.warp.b:
            raise DomainError(
                f"base time {t} outside ({self.warp.a}, {self.warp.b})")
        return ConePoint(t, x)

    def product_distance(self, p: ConePoint, q: ConePoint) -> float:
        return abs(p.t - q.t) + self.fiber.distance(p.x, q.x)

    def _nt(self, p0) -> NullTransport:
        nt = self._nt_cache.get(p0)
        if nt is None:
            nt = NullTransport(self.warp, p0)
            if len(self._nt_cache) > 512:
                self._nt_cache.clear()
            self._nt_cache[p0] = nt
        return nt

    # -- causal relations ---------------------------------------------------------

    def relate(self, p: ConePoint, q: ConePoint) -> RelationVerdict:
        """Classify the pair via the null transport of the earlier point."""
        self.point(p.t, p.x)
        self.point(q.t, q.x)
        d = self.fiber.distance(p.x, q.x)
        swapped = q.t < p.t
        lo, hi = (q, p) if swapped else (p, q)
        if lo.t == hi.t:
            rel = "equal" if d == 0.0 else "not_related"
            return RelationVerdict(rel, d, swapped=swapped)
        nt = self._nt(lo.t)
        s = nt.null_parameter(hi.t)
        if d == 0.0:
            # vertical pairs are exactly timelike; no boundary band applies
            return RelationVerdict("chronological", 0.0, null_param=s,
                                   horizon=nt.forward_horizon, h_of_d=lo.t,
                                   swapped=swapped)
        band = self.null_tol * max(1.0, abs(hi.t))
        # F' = 1/f, so |F(q0) - d| * f(q0) estimates the q0-space gap to h(d)
        gap_estimate = abs(s - d) * self.warp(hi.t)
        if gap_estimate <= 10.0 * band and d < nt.forward_horizon:
            h = nt.h_solve(d)
            gap = hi.t - h
            if abs(gap) <= band:
                if not self.fiber.is_geodesic:
                    raise IndeterminateRelationError(
                        "null-boundary query on a fiber without certified "
                        "minimizing curves")
                rel = "causal_null_boundary"
            elif gap > 0:
                rel = "chronological"
            else:
                rel = "not_related"
            return RelationVerdict(rel, d, null_param=s,
                                   horizon=nt.forward_horizon, h_of_d=h,
                                   swapped=swapped)
        rel = "chronological" if s > d else "not_related"
        return RelationVerdict(rel, d, null_param=s, horizon=nt.forward_horizon,
                               swapped=swapped)

    # -- time separation ------------------------------------------------------------

    def _quad_nodes(self, lo, hi, n):
        if self.warp.kind == "sampled":
            knots = self.warp._knots()[0]
            edges = np.concatenate(([lo], knots[(knots > lo) & (knots < hi)], [hi]))
            # at least n // 8 nodes per piece, so the rules of the
            # two-resolution check differ however many knots lie inside
            per = max(n // 8, n // (len(edges) - 1))
            ts, ws = _gl_nodes(edges[:-1, None], edges[1:, None], per)
            return ts.ravel(), ws.ravel()
        return _gl_nodes(lo, hi, n)

    def _solve_kappa(self, lo, hi, d, n):
        ts, ws = self._quad_nodes(lo, hi, n)
        fv = self.warp._values(ts)
        inv_total = float(np.sum(ws / fv))
        if d >= inv_total:
            # borderline pair: the quadrature disagrees with relate's verdict
            raise RootFindError(
                f"fiber distance {d} at or beyond the null value {inv_total}",
                bracket=(0.0, math.inf))
        def G(k):
            return float(_kappa_rates(fv, k, ws)[0].sum()) - d
        fmid = float(self.warp._values(np.asarray(0.5 * (lo + hi))))
        delta = hi - lo
        rad = delta * delta - fmid * fmid * d * d
        k0 = fmid * fmid * d / math.sqrt(rad) if rad > 0 else fmid
        k_hi = max(k0, 1e-8)
        for _ in range(600):
            if G(k_hi) >= 0.0:
                break
            k_hi *= 2.0
        else:
            raise RootFindError("could not bracket the conserved momentum",
                                bracket=(0.0, k_hi))
        from scipy.optimize import brentq
        kappa = brentq(G, 0.0, k_hi, xtol=1e-300, rtol=8.9e-16, maxiter=300)
        tau = float(_kappa_rates(fv, kappa, ws)[1].sum())
        return kappa, tau

    def _solve_pair(self, lo, hi, d):
        key = (lo, hi, d)
        hit = self._pair_cache.get(key)
        if hit is not None:
            return hit
        kappa, tau = self._solve_kappa(lo, hi, d, 64)
        kappa2, tau2 = self._solve_kappa(lo, hi, d, 96)
        err = abs(tau2 - tau)
        if err > self.solver_tol * max(1.0, abs(tau2)):
            kappa2, tau2 = self._solve_kappa(lo, hi, d, 384)
            kappa3, tau3 = self._solve_kappa(lo, hi, d, 512)
            err = abs(tau3 - tau2)
            if err > 10.0 * self.solver_tol * max(1.0, abs(tau3)):
                raise QuadratureError(
                    "time-separation quadrature did not converge", estimate=err)
            kappa2, tau2 = kappa3, tau3
        if len(self._pair_cache) > 4096:
            self._pair_cache.clear()
        self._pair_cache[key] = (kappa2, tau2)
        return kappa2, tau2

    def time_separation(self, p: ConePoint, q: ConePoint) -> float:
        """tau(p, q): 0 unless p is chronologically before q."""
        verdict = self.relate(p, q)
        if verdict.swapped or not verdict.is_chronological:
            return 0.0
        d = verdict.fiber_distance
        if d == 0.0:
            return q.t - p.t
        if not self.fiber.is_geodesic:
            raise NonGeodesicFiberError(
                "time separation requires a geodesic fiber")
        _, tau = self._solve_pair(p.t, q.t, d)
        return tau

    def maximizer(self, p: ConePoint, q: ConePoint):
        """The solved maximizing curve object for a causally related pair."""
        verdict = self.relate(p, q)
        if verdict.swapped or not verdict.is_causal or verdict.relation == "equal":
            raise NotCausalError("pair is not future-directed causally related")
        if not self.fiber.is_geodesic:
            raise NonGeodesicFiberError("maximizers require a geodesic fiber")
        d = verdict.fiber_distance
        if verdict.relation == "causal_null_boundary":
            return _NullCurve(self, p, q, d)
        if d == 0.0:
            return _Maximizer(self, p, q, 0.0, 0.0, q.t - p.t)
        kappa, tau = self._solve_pair(p.t, q.t, d)
        return _Maximizer(self, p, q, d, kappa, tau)

    def maximizing_geodesic(self, p: ConePoint, q: ConePoint,
                            n_samples: int = 129) -> CausalPath:
        if n_samples < 2:
            raise DomainError("need at least two samples")
        return self.maximizer(p, q).sample(n_samples)

    def point_on_maximizer(self, p: ConePoint, q: ConePoint, s: float) -> ConePoint:
        """The point at time separation s from p along the maximizer to q."""
        m = self.maximizer(p, q)
        if isinstance(m, _NullCurve):
            if abs(s) > 1e-12:
                raise DomainError("null sides carry only the parameter s = 0")
            return p
        return m.point_at_time(m.time_at_tau(s))

    # -- length functionals ------------------------------------------------------------

    def _segments(self, path: CausalPath, tol=None):
        """One pass over the path's segments: the time steps dt_i, the fiber
        distances d_i, the warp at the midpoints and the radicands
        dt_i^2 - (f_mid d_i)^2.  With ``tol`` it also checks the causality
        certificate m_{t_i, t_{i+1}} d_i <= dt_i of every segment and raises
        NotCausalError on the first that fails."""
        ts = path.times
        pts = path.points
        dts = np.diff(ts)
        ds = self.fiber.distances(pts[:-1], pts[1:])
        if tol is not None:
            md = self.warp.min_on(ts[:-1], ts[1:]) * ds
            bad = np.flatnonzero(md > dts * (1.0 + tol) + tol * np.maximum(1.0, dts))
            if bad.size:
                i = bad[0]
                raise NotCausalError(
                    f"segment {i}: certificate m*d = {md[i]:g} exceeds dt = {dts[i]:g}")
        fmid = self.warp(0.5 * (ts[:-1] + ts[1:]))
        return dts, ds, fmid, dts * dts - (fmid * ds) ** 2

    def segment_speeds(self, path: CausalPath):
        """Per-segment fiber speed estimates v_i = d_i / dt_i."""
        dts, ds, _, _ = self._segments(path)
        return ds / dts

    def check_certificate(self, path: CausalPath, tol: float = 1e-9):
        """Per-segment causality certificate m_{t_i, t_{i+1}} d_i <= dt_i."""
        self._segments(path, tol)

    def path_length(self, path: CausalPath) -> float:
        """Composite midpoint-rule length; radicands clamped at zero."""
        rad = self._segments(path, 1e-9)[3]
        return float(np.sum(np.sqrt(np.maximum(rad, 0.0))))

    def classify_path(self, path: CausalPath, null_tol: float = 1e-5) -> str:
        """timelike / null / causal_mixed / not_causal by radicand signs."""
        dts, _, _, rad = self._segments(path)
        band = null_tol * dts * dts
        if np.any(rad < -band):
            return "not_causal"
        timelike = rad > band
        nullish = np.abs(rad) <= band
        if np.all(timelike):
            return "timelike"
        if np.all(nullish):
            return "null"
        return "causal_mixed"

    def energy(self, path: CausalPath) -> float:
        """(1/2) sum (dt^2 - f^2 d^2)/ds over the path's own parameter grid."""
        rad = self._segments(path, 1e-9)[3]
        params = np.array(path.params) if path.params is not None else path.times
        return float(0.5 * np.sum(rad / np.diff(params)))

    def conserved_speed(self, path: CausalPath):
        """Per-segment f^2 v_beta in arclength parametrization (kappa along
        maximizers); null-only segments yield nan."""
        _, ds, fmid, rad = self._segments(path)
        with np.errstate(divide="ignore", invalid="ignore"):
            return fmid * fmid * ds / np.sqrt(np.maximum(rad, 0.0))

    def _tau_bounds(self, lo, hi, d):
        """T = sqrt(max(0, dt^2 - m^2 d^2)) with dt = hi - lo and m the
        minimum of f on [lo, hi], elementwise for arrays."""
        m = self.warp.min_on(lo, hi)
        dt = hi - lo
        return np.sqrt(np.maximum(0.0, dt * dt - m * m * d * d))

    def variational_length(self, path: CausalPath,
                           refinement_depth: int = 8) -> VariationalLength:
        """Partition sums sum T over nested dyadic refinements of the sample
        partition; the sequence never increases."""
        self.check_certificate(path)
        ts = path.times
        pts = path.points
        n = path.n_segments
        seq = []
        for depth in range(refinement_depth + 1):
            k = 2 ** depth
            idx = sorted({round(j * n / k) for j in range(k + 1)})
            ds = self.fiber.distances([pts[i] for i in idx[:-1]],
                                      [pts[i] for i in idx[1:]])
            # summed in partition order, left to right
            seq.append(float(np.cumsum(self._tau_bounds(ts[idx[:-1]], ts[idx[1:]], ds))[-1]))
            if k >= n:
                break
        return VariationalLength(seq[-1], tuple(seq))

    def segment_tau_bound(self, p: ConePoint, q: ConePoint) -> float:
        """T((p0,p),(q0,q)) = sqrt(max(0, dt^2 - m^2 d^2)) for p0 <= q0."""
        if q.t <= p.t:
            return 0.0
        return float(self._tau_bounds(p.t, q.t, self.fiber.distance(p.x, q.x)))

    def causal_diamond_box(self, p: ConePoint, q: ConePoint,
                           n_samples: int = 33) -> DiamondBox:
        verdict = self.relate(p, q)
        if verdict.swapped or not verdict.is_causal:
            return DiamondBox(np.array([]), np.array([]), np.array([]))
        if verdict.relation == "equal":
            return DiamondBox(np.array([p.t]), np.array([0.0]), np.array([0.0]))
        ts = np.linspace(p.t, q.t, n_samples)
        return DiamondBox(ts, (ts - p.t) / self.warp.min_on(p.t, ts),
                          (q.t - ts) / self.warp.min_on(ts, q.t))

    # -- CSV import / export --------------------------------------------------------

    def export_path_csv(self, path: CausalPath, fileobj) -> None:
        close = False
        if isinstance(fileobj, (str, bytes)):
            fileobj = open(fileobj, "w")
            close = True
        try:
            cols = ",".join(("t",) + tuple(self.fiber.csv_columns()))
            fileobj.write(cols + "\n")
            for t, x in path.samples:
                fileobj.write("%.9g,%s\n" % (t, self.fiber.format_point(x)))
        finally:
            if close:
                fileobj.close()

    def import_path_csv(self, fileobj) -> CausalPath:
        close = False
        if isinstance(fileobj, (str, bytes)):
            fileobj = open(fileobj, "r")
            close = True
        try:
            lines = [ln.strip() for ln in fileobj if ln.strip()]
        finally:
            if close:
                fileobj.close()
        if not lines or not lines[0].startswith("t"):
            raise DomainError("path CSV must start with a 't,...' header")
        samples = []
        for ln in lines[1:]:
            t_str, rest = ln.split(",", 1)
            samples.append((float(t_str), self.fiber.parse_point(rest)))
        return CausalPath(tuple(samples))
