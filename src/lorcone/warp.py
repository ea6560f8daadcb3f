"""Warping functions on an open interval and derived one-dimensional data.

A warping function is a positive continuous ``f`` on an open interval
``(a, b)``; the closed-form kinds carry analytic derivatives.  The interval
extrema ``min_on``/``max_on`` take scalars or arrays of segments and compare
the endpoint values with the few interior candidates: the sin/cos crest, the
cosh trough, or a sampled warp's cached table of knots and roots of a cubic
spline's ``f'``.  :class:`NullTransport` packages the null-parameter
integral ``F(r) = int_{p0}^r 1/f`` together with its inverse ``h`` and the
forward/backward horizons.  For the seven analytic kinds all three are
elementary closed forms, with horizons taken as the analytic limits toward
the interval ends (infinite where ``1/f`` is not integrable).  Sampled warps
use one table of per-knot-piece integrals of ``1/f``: exact logarithms for
linear interpolation, Gauss-Legendre with a two-resolution check for cubic
splines.  ``F`` adds table entries and partial pieces, the horizons are ``F``
at the finite interval ends, and ``h`` inverts ``F`` within one piece.

The curvature verdicts take the sign of ``g = f'' - K f`` over the whole
interval from closed forms, without a sampling grid, and the singularity
verdicts follow from the paper's theorems and each kind's endpoint behaviour.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, QuadratureError, RangeError

CLOSED_FORM_KINDS = ("constant", "identity", "sin", "cos", "cosh", "exp", "power")
KINDS = CLOSED_FORM_KINDS + ("sampled",)

_TWO_PI = 2.0 * math.pi


@lru_cache(maxsize=32)
def _leggauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _rounding(*terms):
    """The rounding error of a phase summed from these terms: a few ulp of
    the largest."""
    return 4.0 * math.ulp(max(abs(x) for x in terms))


def _refit_overflow(out, c, t, log_power):
    """``out`` = c P(t) for a power P of t >= 0.  Where P overflowed although
    c P need not (a tiny c), the element is formed in log space as
    sign(c) exp(log|c| + log P(t)) instead; ``log_power`` maps log t to
    log P(t)."""
    redo = ~np.isfinite(out) & (t > 0)
    if not np.any(redo):
        return out
    with np.errstate(over="ignore"):
        fixed = math.copysign(1.0, c) * np.exp(
            math.log(abs(c)) + log_power(np.log(np.where(redo, t, 1.0))))
    return np.where(redo, fixed, out)


def _gl_nodes(lo, hi, n):
    x, w = _leggauss(n)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid + half * x, half * w


@dataclass(frozen=True)
class WarpSpec:
    """A warping function ``f`` on the open interval ``(a, b)``.

    ``kind`` selects the functional form; ``amplitude`` and ``rate`` scale the
    trigonometric/hyperbolic/exponential kinds as ``amplitude * base(rate*t)``.
    The ``sampled`` kind interpolates a strictly positive ``(t, f(t))`` grid,
    linearly by default or with a cubic spline when derivative information is
    needed.
    """

    a: float
    b: float
    kind: str
    c: float = 1.0
    p: float = 1.0
    amplitude: float = 1.0
    rate: float = 1.0
    samples: tuple | None = None
    interpolation: str = "linear"
    quad_tol: float = 1e-10

    def __post_init__(self):
        if not self.a < self.b:
            raise DomainError(f"empty interval ({self.a}, {self.b})")
        if self.kind not in KINDS:
            raise DomainError(f"unknown warp kind {self.kind!r}")
        if self.kind == "sampled":
            self._validate_sampled()
        else:
            self._validate_closed_form()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, c=1.0, interval=(-math.inf, math.inf), **kw):
        return cls(interval[0], interval[1], "constant", c=float(c), **kw)

    @classmethod
    def identity(cls, interval=(0.0, math.inf), amplitude=1.0, **kw):
        return cls(interval[0], interval[1], "identity", amplitude=amplitude, **kw)

    @classmethod
    def sin(cls, interval=(0.0, math.pi), amplitude=1.0, rate=1.0, **kw):
        return cls(interval[0], interval[1], "sin", amplitude=amplitude, rate=rate, **kw)

    @classmethod
    def cos(cls, interval=(-math.pi / 2, math.pi / 2), amplitude=1.0, rate=1.0, **kw):
        return cls(interval[0], interval[1], "cos", amplitude=amplitude, rate=rate, **kw)

    @classmethod
    def cosh(cls, interval=(-math.inf, math.inf), amplitude=1.0, rate=1.0, **kw):
        return cls(interval[0], interval[1], "cosh", amplitude=amplitude, rate=rate, **kw)

    @classmethod
    def exp(cls, interval=(-math.inf, math.inf), amplitude=1.0, rate=1.0, **kw):
        return cls(interval[0], interval[1], "exp", amplitude=amplitude, rate=rate, **kw)

    @classmethod
    def power(cls, p, interval=(0.0, math.inf), amplitude=1.0, **kw):
        return cls(interval[0], interval[1], "power", p=float(p), amplitude=amplitude, **kw)

    @classmethod
    def sampled(cls, points, interval=None, interpolation="linear", **kw):
        pts = tuple((float(t), float(v)) for t, v in points)
        if interval is None:
            interval = (pts[0][0], pts[-1][0])
        return cls(interval[0], interval[1], "sampled", samples=pts,
                   interpolation=interpolation, **kw)

    # -- validation ------------------------------------------------------------

    def _validate_closed_form(self):
        k = self.kind
        if k == "constant":
            if self.c <= 0:
                raise DomainError("constant warp requires c > 0")
            return
        if self.amplitude <= 0:
            raise DomainError("warp amplitude must be positive")
        if k in ("identity", "power"):
            if self.a < 0:
                raise DomainError(f"{k} warp requires interval within (0, inf)")
            return
        if k in ("cosh", "exp"):
            return
        # sin / cos: positivity requires the (rate-scaled) interval to sit
        # inside a single positive arch, modulo the period.
        if self.rate <= 0:
            raise DomainError("sin/cos warp requires rate > 0")
        w = self.rate
        if not (math.isfinite(w * self.a) and math.isfinite(w * self.b)):
            raise DomainError(f"{k} warp requires a finite interval")
        offset = self._arch_offset()
        if w * self.b + offset > math.pi + _rounding(w * self.b, offset):
            raise DomainError(
                f"{k} warp is not positive on the whole interval ({self.a}, {self.b})")

    def _arch_offset(self):
        """For sin/cos: the offset c with ``f(t) = A sin(rate*t + c)`` whose
        phase ``rate*a + c`` at the lower end is reduced modulo 2 pi; a phase
        within its rounding below the period snaps back to just below zero."""
        shift = 0.0 if self.kind == "sin" else math.pi / 2.0
        lo = self.rate * self.a + shift
        turns = math.floor(lo / _TWO_PI)
        if lo - _TWO_PI * turns > _TWO_PI - _rounding(lo, _TWO_PI * turns):
            turns += 1
        return shift - _TWO_PI * turns

    def _validate_sampled(self):
        if not self.samples or len(self.samples) < 2:
            raise DomainError("sampled warp needs at least two samples")
        ts, vs = self._knots()
        if np.any(np.diff(ts) <= 0):
            raise DomainError("sampled warp grid must be strictly increasing")
        if np.any(vs <= 0):
            raise DomainError("sampled warp values must be strictly positive")
        if self.a < ts[0] or self.b > ts[-1]:
            raise DomainError("interval must lie inside the sampled grid")
        if self.interpolation not in ("linear", "cubic"):
            raise DomainError(f"unknown interpolation {self.interpolation!r}")
        # f is least at a knot or at a root of a cubic spline's f'
        if np.any(self._extremum_table()[1] <= 0):
            raise DomainError("cubic interpolation dips below zero between samples")

    # -- evaluation ------------------------------------------------------------

    def _knots(self):
        """The sampled grid as arrays (t_i, f_i)."""
        cached = getattr(self, "_knots_cache", None)
        if cached is None:
            cached = (np.array([t for t, _ in self.samples]),
                      np.array([v for _, v in self.samples]))
            object.__setattr__(self, "_knots_cache", cached)
        return cached

    def _spline(self):
        cached = getattr(self, "_spline_cache", None)
        if cached is None:
            from scipy.interpolate import CubicSpline
            cached = CubicSpline(*self._knots())
            object.__setattr__(self, "_spline_cache", cached)
        return cached

    def _check_domain(self, t):
        arr = np.asarray(t, dtype=float)
        if np.any(arr <= self.a) or np.any(arr >= self.b):
            raise DomainError(
                f"argument outside the open interval ({self.a}, {self.b})")
        return arr

    def __call__(self, t):
        """Evaluate f(t); t strictly inside (a, b), scalar or array."""
        arr = self._check_domain(t)
        out = self._values(arr)
        if np.any(out <= 0):
            raise DomainError("warp evaluated non-positive (domain violation)")
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out

    def _values(self, arr):
        """f without the domain check; at power's singular end t = 0 numpy's
        inf arithmetic gives the limit."""
        k = self.kind
        if k == "constant":
            return np.full_like(arr, self.c)
        if k == "identity":
            return self.amplitude * arr
        if k == "power":
            return self.amplitude * np.power(arr, self.p)
        if k == "sin":
            return self.amplitude * np.sin(self.rate * arr)
        if k == "cos":
            return self.amplitude * np.cos(self.rate * arr)
        if k == "cosh":
            return self.amplitude * np.cosh(self.rate * arr)
        if k == "exp":
            return self.amplitude * np.exp(self.rate * arr)
        if self.interpolation == "cubic":
            return np.asarray(self._spline()(arr), dtype=float)
        return np.interp(arr, *self._knots())

    @property
    def has_derivatives(self):
        return self.kind != "sampled" or self.interpolation == "cubic"

    def second_derivative(self, t):
        arr = self._check_domain(t)
        k, A, w, p = self.kind, self.amplitude, self.rate, self.p
        if k in ("constant", "identity") or (k == "power" and p * (p - 1.0) == 0.0):
            out = np.zeros_like(arr)
        elif k == "power":
            c = A * p * (p - 1.0)
            with np.errstate(over="ignore", invalid="ignore"):
                out = c * np.power(arr, p - 2.0)
            out = _refit_overflow(out, c, arr, lambda log_t: (p - 2.0) * log_t)
        elif k == "sin":
            out = -A * w * w * np.sin(w * arr)
        elif k == "cos":
            out = -A * w * w * np.cos(w * arr)
        elif k == "cosh":
            out = A * w * w * np.cosh(w * arr)
        elif k == "exp":
            out = A * w * w * np.exp(w * arr)
        elif self.interpolation == "cubic":
            out = np.asarray(self._spline()(arr, 2), dtype=float)
        else:
            raise DomainError("sampled warp has no derivative without a cubic rule")
        return float(out) if np.ndim(t) == 0 else out

    # -- interval extrema --------------------------------------------------------

    def min_on(self, s, t):
        """m_{s,t}: the minimum of f over [s, t], elementwise for arrays."""
        return self._extremum_on(s, t, minimum=True)

    def max_on(self, s, t):
        """The maximum of f over [s, t], elementwise for arrays."""
        return self._extremum_on(s, t, minimum=False)

    def _extremum_on(self, s, t, minimum):
        """The extremum of f over each segment [s, t] (arrays broadcast; two
        scalars give a float): the better endpoint value, unless an interior
        candidate beats it.  The analytic kinds are monotone or have a single
        interior extremum, the sin/cos crest and the cosh trough, both equal
        to the amplitude; a sampled warp's candidates are its knots and the
        roots of a cubic spline's f'."""
        s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
        ok = (self.a < s) & (s <= t) & (t < self.b)
        if not np.all(ok):
            s, t, ok = np.broadcast_arrays(s, t, ok)
            i = int(np.argmin(ok))
            raise DomainError(f"[{s.flat[i]}, {t.flat[i]}] is not inside "
                              f"the open interval ({self.a}, {self.b})")
        fs, ft = self._values(s), self._values(t)
        if (np.minimum(fs, ft) <= 0).any():
            raise DomainError("warp evaluated non-positive (domain violation)")
        pick = np.minimum if minimum else np.maximum
        out = pick(fs, ft)
        k, w = self.kind, self.rate
        if k in ("sin", "cos") and not minimum:
            crest = 0.0 if k == "cos" else math.pi / 2.0
            # the first crest at or after w s (w > 0 on an arch)
            first = crest + _TWO_PI * np.ceil((w * s - crest) / _TWO_PI)
            out = np.where(first <= w * t, self.amplitude, out)
        elif k == "cosh" and minimum:
            # the trough at t = 0 (at rate 0 f is the amplitude throughout)
            out = np.where((s <= 0.0) & (t >= 0.0), self.amplitude, out)
        elif k == "sampled":
            r, fr = self._extremum_table()
            # r[lo:hi] lies in (s, t)
            lo, hi = np.broadcast_arrays(np.searchsorted(r, s, side="right"),
                                         np.searchsorted(r, t, side="left"))
            sentinel = np.inf if minimum else -np.inf
            inner = pick.reduceat(np.append(fr, sentinel),
                                  np.stack((lo, hi), axis=-1).ravel())[::2]
            out = pick(out, np.where(hi > lo, inner.reshape(out.shape), sentinel))
        return float(out) if out.ndim == 0 else out

    def _extremum_table(self):
        """The candidates for a sampled warp's extrema, sorted, and f there:
        the knots and the finite roots of a cubic spline's f' (a piece where
        f' vanishes gives a nan), computed once."""
        cached = getattr(self, "_extremum_cache", None)
        if cached is None:
            r = self._knots()[0]
            if self.interpolation == "cubic":
                crit = self._spline().derivative().solve(0.0, extrapolate=False)
                r = np.sort(np.concatenate((r, crit[np.isfinite(crit)])))
            cached = (r, self._values(r))
            object.__setattr__(self, "_extremum_cache", cached)
        return cached

    def is_constant(self):
        """constant, power with p = 0, exp/cosh at rate 0 or flat samples."""
        k = self.kind
        if k == "sampled":
            vs = self._knots()[1]
            return bool(vs.max() - vs.min() <= 1e-14 * vs.max())
        return (k == "constant" or (k == "power" and self.p == 0.0)
                or (k in ("exp", "cosh") and self.rate == 0.0))


# -- sampled-warp integrals of 1/f ------------------------------------------------
#
# Every interval below lies inside one knot piece, where f is a single linear
# or cubic polynomial.

# Gauss-Legendre nodes per cubic piece; the table checks them against half
# as many
_CUBIC_NODES = 32


def _piece_integrals(warp, lo, hi, nodes=_CUBIC_NODES):
    """Signed int_lo^hi 1/f for intervals [lo, hi] that each lie inside one
    knot piece of a sampled warp (elementwise for arrays).  Linear pieces use
    the exact log(f_hi / f_lo) / slope, as (hi - lo) log1p(delta) / (f_lo delta)
    with delta = (f_hi - f_lo) / f_lo, which stays exact on flat pieces;
    cubic pieces use Gauss-Legendre on the spline."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if warp.interpolation == "linear":
        ts, vs = warp._knots()
        f_lo, f_hi = np.interp(lo, ts, vs), np.interp(hi, ts, vs)
        delta = (f_hi - f_lo) / f_lo
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(delta == 0.0, 1.0, np.log1p(delta) / delta)
        return (hi - lo) * ratio / f_lo
    x, w = _leggauss(nodes)
    half = 0.5 * (hi - lo)
    fs = warp._spline()((0.5 * (lo + hi))[..., None] + half[..., None] * x)
    if np.any(fs <= 0):
        raise DomainError("cubic interpolation dips below zero between samples")
    return half * np.sum(w / fs, axis=-1)


def _piece_table(warp):
    """The knots of a sampled warp and int_{t_i}^{t_{i+1}} 1/f for each piece,
    computed once per warp.  Cubic pieces are checked against a rule of half
    the nodes and raise QuadratureError when the two differ by more than
    ``quad_tol``."""
    cached = getattr(warp, "_piece_cache", None)
    if cached is None:
        ts = warp._knots()[0]
        pieces = _piece_integrals(warp, ts[:-1], ts[1:])
        if warp.interpolation == "cubic":
            coarse = _piece_integrals(warp, ts[:-1], ts[1:], _CUBIC_NODES // 2)
            err = float(np.sum(np.abs(pieces - coarse)))
            if err > warp.quad_tol * max(1.0, float(np.sum(pieces))):
                raise QuadratureError(
                    "Gauss-Legendre integrals of 1/f over the spline pieces "
                    "did not converge", estimate=err)
        cached = (ts, pieces)
        object.__setattr__(warp, "_piece_cache", cached)
    return cached


def _piece_solve(warp, x0, x1, sigma):
    """The r between nodes x0 and x1 (inside one knot piece) with
    int_{x0}^r 1/f = sigma; x1 when sigma reaches the whole sub-piece."""
    if sigma == 0.0:
        return x0
    lo, hi = sorted((x0, x1))
    if warp.interpolation == "linear":
        f0, f1 = np.interp((x0, x1), *warp._knots())
        # f = f0 + m (t - x0) gives r = x0 + f0 expm1(m sigma) / m
        y = (f1 - f0) / (x1 - x0) * sigma
        r = x0 + f0 * sigma * (math.expm1(y) / y if y != 0.0 else 1.0)
        return min(max(r, lo), hi)
    from scipy.optimize import brentq

    def gap(r):
        return float(_piece_integrals(warp, x0, r)) - sigma

    if gap(x1) * sigma <= 0.0:
        return x1
    return float(brentq(gap, lo, hi, xtol=1e-15 * max(1.0, abs(lo), abs(hi)),
                        rtol=8.9e-16, maxiter=200))


# -- null transport forms ---------------------------------------------------------
#
# Each form below holds F(r) = int_{p0}^r 1/f, its inverse h and the horizons
# (``lower``, ``upper``) of one warp kind, written so that F loses no digits
# to cancellation when r is near p0 or the terms are large.

_EXP_MAX = math.log(sys.float_info.max)
# A computed arch phase carries this much rounding per unit of its terms; an
# interval end that close to an arch end is taken to be the arch end.
_ARCH_END_TOL = 64 * sys.float_info.epsilon


def _exp(x):
    return math.exp(x) if x <= _EXP_MAX else math.inf


def _expm1(x):
    return math.expm1(x) if x <= _EXP_MAX else math.inf


def _log1p(x):
    return math.log1p(x) if x > -1.0 else -math.inf


def _log_ratio(r, r0):
    """log(r / r0) for positive r and r0, accurate when r is near r0."""
    if abs(r - r0) < 0.5 * r0:
        return math.log1p((r - r0) / r0)
    return math.log(r) - math.log(r0)


class _Linear:
    """f = c: F(r) = (r - p0) / c."""

    def __init__(self, c, p0, a, b):
        self.c, self.p0 = c, p0
        self.lower, self.upper = (a - p0) / c, (b - p0) / c

    def F(self, r):
        return (r - self.p0) / self.c

    def h(self, s):
        return self.p0 + self.c * s


class _PowerLaw:
    """f = A t^p for t > 0 (identity is p = 1).  With q = 1 - p and
    L = log(r / p0), F = p0^q expm1(q L) / (A q), which is L / A at q = 0."""

    def __init__(self, A, p, p0, a, b):
        self.A, self.q, self.p0 = A, 1.0 - p, p0
        self._p0_q = _exp(self.q * math.log(p0))
        self.lower = self._of_log(-math.inf if a == 0.0 else _log_ratio(a, p0))
        self.upper = self._of_log(_log_ratio(b, p0))

    def _of_log(self, L):
        if self.q == 0.0:
            return L / self.A
        return self._p0_q * _expm1(self.q * L) / (self.A * self.q)

    def F(self, r):
        return self._of_log(_log_ratio(r, self.p0))

    def h(self, s):
        if self.q == 0.0:
            L = self.A * s
        else:
            L = _log1p(self.A * self.q * s / self._p0_q) / self.q
        return self.p0 * _exp(L)


class _Exp:
    """f = A e^{w t} with w != 0: F = -e^{-w p0} expm1(-w (r - p0)) / (A w)."""

    def __init__(self, A, w, p0, a, b):
        self.Aw, self.w, self.p0 = A * w, w, p0
        self._e = _exp(-w * p0)
        self.lower, self.upper = self.F(a), self.F(b)

    def F(self, r):
        return -_expm1(-self.w * (r - self.p0)) * self._e / self.Aw

    def h(self, s):
        return self.p0 - _log1p(-self.Aw * s / self._e) / self.w


class _Cosh:
    """f = A cosh(w t) with w > 0: F = (gd(w r) - gd(w p0)) / (A w) for the
    Gudermannian gd.  The difference is 2 atan(sinh(u) / cosh(v)) with
    u = w (r - p0) / 2 and v = w (r + p0) / 2, taken in exponentials of
    |u| - |v| so that nothing overflows."""

    def __init__(self, A, w, p0, a, b):
        self.Aw, self.w, self.p0 = A * w, w, p0
        y = w * p0
        big = abs(y) >= _EXP_MAX
        self._sinh = math.copysign(math.inf, y) if big else math.sinh(y)
        self._cosh = math.inf if big else math.cosh(y)
        # gd(+-inf) - gd(y) = +-2 atan(e^{-+y})
        self.lower = (-2.0 * math.atan(_exp(y)) / self.Aw if a == -math.inf
                      else self.F(a))
        self.upper = (2.0 * math.atan(_exp(-y)) / self.Aw if b == math.inf
                      else self.F(b))

    def F(self, r):
        u = 0.5 * self.w * (r - self.p0)
        au, av = abs(u), abs(0.5 * self.w * (r + self.p0))
        ratio = _exp(au - av) * -math.expm1(-2.0 * au) / (1.0 + math.exp(-2.0 * av))
        return 2.0 * math.atan(math.copysign(ratio, u)) / self.Aw

    def h(self, s):
        # gd(x) = gd(y) + sigma solved for x - y: with g = gd(y),
        # sinh(x - y) = 2 cos(g + sigma/2) sin(sigma/2) / (cos g cos(g + sigma)),
        # where cos g = 1/cosh y and tan g = sinh y; den -> 0 at the horizon
        sigma = self.Aw * s
        c, sn = math.cos(0.5 * sigma), math.sin(0.5 * sigma)
        den = math.cos(sigma) - self._sinh * math.sin(sigma)
        if den <= 0.0:
            return math.copysign(math.inf, s)
        ratio = 2.0 * sn * (c - self._sinh * sn) * self._cosh / den
        return self.p0 + math.asinh(ratio) / self.w


class _Arch:
    """f = A sin(phi) on the arch phase phi = w t + c in (0, pi), cos being sin
    shifted by pi/2: F = log(tan(phi(r)/2) / tan(phi(p0)/2)) / (A w).  Where
    the interval reaches an arch end f vanishes and the horizon is infinite."""

    def __init__(self, warp, p0):
        self.w, self.Aw, self.p0 = warp.rate, warp.amplitude * warp.rate, p0
        self._offset = warp._arch_offset()
        beta = self._half_phase(p0)
        self._sin_beta, self._tan_beta = math.sin(beta), math.tan(beta)
        self._log_tan_beta = math.log(self._tan_beta)
        a, b = warp.a, warp.b
        self.lower = (-math.inf if self.w * a + self._offset <= self._end_tol(a)
                      else self.F(a))
        self.upper = (math.inf if self.w * b + self._offset >= math.pi - self._end_tol(b)
                      else self.F(b))

    def _end_tol(self, t):
        return _ARCH_END_TOL * (abs(self.w * t) + abs(self._offset) + math.pi)

    def _half_phase(self, t):
        alpha = 0.5 * (self.w * t + self._offset)
        if not 0.0 < alpha < 0.5 * math.pi:
            raise DomainError(f"warp is not positive at {t}")
        return alpha

    def F(self, r):
        alpha = self._half_phase(r)
        # tan(alpha) / tan(beta) - 1 = sin(alpha - beta) / (cos(alpha) sin(beta))
        x = math.sin(0.5 * self.w * (r - self.p0)) / (math.cos(alpha) * self._sin_beta)
        if abs(x) < 0.5:
            return math.log1p(x) / self.Aw
        return (math.log(math.tan(alpha)) - self._log_tan_beta) / self.Aw

    def h(self, s):
        # tan(phi/2) grows by the factor e^{A w s}
        phase = 2.0 * math.atan(self._tan_beta * _exp(self.Aw * s))
        return (phase - self._offset) / self.w


class _Sampled:
    """A sampled warp: p0 joins the knots as a node, and F at every node is a
    sum of whole-piece integrals from the warp's table plus the partial piece
    next to p0.  F(r) adds to the node value at the end of r's piece that
    faces p0 the integral over the rest of that piece, so all terms share one
    sign and F keeps its relative accuracy near p0.  h locates s among the
    node values and solves the same partial integral inside one piece, so h
    and F agree to rounding.  The horizons are F at the interval ends, which
    lie inside the finite grid where f > 0."""

    def __init__(self, warp, p0):
        self.warp, self.p0 = warp, p0
        knots, pieces = _piece_table(warp)
        lo = int(np.searchsorted(knots, p0, side="left"))    # knots[lo - 1] < p0
        hi = int(np.searchsorted(knots, p0, side="right"))   # p0 < knots[hi]
        near = _piece_integrals(warp, (knots[lo - 1], p0), (p0, knots[hi]))
        below = near[0] + np.concatenate(([0.0], np.cumsum(pieces[:lo - 1][::-1])))
        above = near[1] + np.concatenate(([0.0], np.cumsum(pieces[hi:])))
        self._nodes = np.concatenate((knots[:lo], [p0], knots[hi:]))
        self._F = np.concatenate((-below[::-1], [0.0], above))
        self.lower, self.upper = self.F(warp.a), self.F(warp.b)

    def F(self, r):
        if r >= self.p0:
            j = int(np.searchsorted(self._nodes, r, side="right")) - 1
        else:
            j = int(np.searchsorted(self._nodes, r, side="left"))
        return float(self._F[j] + _piece_integrals(self.warp, self._nodes[j], r))

    def h(self, s):
        if s > 0.0:
            j = min(int(np.searchsorted(self._F, s, side="right")) - 1,
                    len(self._F) - 2)
            k = j + 1
        else:
            j = max(int(np.searchsorted(self._F, s, side="left")), 1)
            k = j - 1
        return float(_piece_solve(self.warp, self._nodes[j], self._nodes[k],
                                  s - self._F[j]))


def _transport(warp, p0):
    """The transport form of a warp from p0: closed form for the analytic
    kinds, the knot table for sampled warps."""
    k, A, w, a, b = warp.kind, warp.amplitude, warp.rate, warp.a, warp.b
    if k == "sampled":
        return _Sampled(warp, p0)
    if warp.is_constant():
        return _Linear(warp.c if k == "constant" else A, p0, a, b)
    if k in ("identity", "power"):
        return _PowerLaw(A, 1.0 if k == "identity" else warp.p, p0, a, b)
    if k == "exp":
        return _Exp(A, w, p0, a, b)
    if k == "cosh":
        return _Cosh(A, abs(w), p0, a, b)
    return _Arch(warp, p0)


class NullTransport:
    """Null-parameter transport from a base time p0.

    Holds the strictly increasing map ``F(r) = int_{p0}^r 1/f`` (negative for
    r < p0), its inverse ``h`` and the horizons ``a_p0 <= 0 <= b_p0``, the
    limits of F toward the interval ends, which may be infinite.  The seven
    analytic kinds evaluate all three in closed form.  Sampled warps build
    them from the warp's table of exact per-knot-piece integrals of 1/f, so
    their horizons are finite and h solves inside a single piece.
    """

    def __init__(self, warp: WarpSpec, p0: float):
        if not warp.a < p0 < warp.b:
            raise DomainError(f"base point {p0} outside ({warp.a}, {warp.b})")
        self.warp = warp
        self.p0 = float(p0)
        self._form = _transport(warp, self.p0)
        self.backward_horizon = self._form.lower
        self.forward_horizon = self._form.upper

    def null_parameter(self, r):
        """F(r) = int_{p0}^r 1/f (signed)."""
        if not self.warp.a < r < self.warp.b:
            raise DomainError(f"{r} outside ({self.warp.a}, {self.warp.b})")
        return self._form.F(float(r))

    def h_solve(self, s):
        """h(s): the unique r with F(r) = s, for s in (a_p0, b_p0)."""
        if not self.backward_horizon < s < self.forward_horizon:
            raise RangeError(
                f"null parameter {s} outside ({self.backward_horizon}, "
                f"{self.forward_horizon})")
        if s == 0.0:
            return self.p0
        return self._inside(self._form.h(float(s)), s)

    def _inside(self, r, s):
        """An h(s) that rounded onto or past an interval end moves to the
        nearest float inside; past an infinite end it is not representable."""
        a, b = self.warp.a, self.warp.b
        if a < r < b:
            return r
        end = b if r >= b else a
        if math.isnan(r) or math.isinf(end):
            raise RangeError(f"h({s}) beyond representable range")
        return math.nextafter(end, self.p0)


@dataclass(frozen=True)
class ConcavityReport:
    holds_concave: bool
    holds_convex: bool
    worst_margin: float
    worst_t: float
    band: float


# relative tolerance band of the concavity verdicts; an infinite interval end
# enters them as the largest float, so every verdict has a float witness
_BAND = 1e-9
_BIG = sys.float_info.max


def _anchor(a, b):
    """A fixed interior point of (a, b)."""
    if math.isfinite(a) and math.isfinite(b):
        return 0.5 * (a + b)
    if math.isfinite(a):
        return a + max(1.0, abs(a))
    if math.isfinite(b):
        return b - max(1.0, abs(b))
    return 0.0


def _analytic_curvature(w, K, m):
    """g / band of an analytic warp as a function of t, also at the interval
    ends, and the interior points where it can be extremal.

    f'' = (beta + alpha / t^2) f with beta = rate^2 (exp, cosh), -rate^2 (sin,
    cos) and alpha = p (p - 1) (power).  So g / band is
    ((beta - K) min(f, 1) + alpha min(A t^(p-2), t^-2)) / 1e-9: monotone in t
    where f >= 1, and g / 1e-9, critical only at t^2 = alpha (p - 2) / (K p),
    where f < 1.  A sin/cos arch adds its crest, where f peaks."""
    k, A, p, rate = w.kind, w.amplitude, w.p, w.rate
    beta = {"exp": 1.0, "cosh": 1.0, "sin": -1.0, "cos": -1.0}.get(k, 0.0) * rate * rate
    alpha = p * (p - 1.0) if k == "power" else 0.0

    def log_power(log_t):
        return np.minimum(math.log(A) + (p - 2.0) * log_t, -2.0 * log_t)

    def ratio(ts):
        with np.errstate(all="ignore"):
            q = (beta - K) * np.minimum(w._values(ts), 1.0)
            if alpha:
                q = q + _refit_overflow(
                    alpha * np.minimum(A * ts ** (p - 2.0), ts ** -2.0), alpha, ts, log_power)
            return q / _BAND

    inner = [m]
    if alpha:
        with np.errstate(all="ignore"):
            inner += [np.power(A, -1.0 / p),
                      np.sqrt(np.float64(alpha * (p - 2.0)) / (K * p))]
    if k in ("sin", "cos"):
        inner.append((0.5 * math.pi - w._arch_offset()) / rate)
    return ratio, np.array(inner)


def _sampled_curvature(w, K, m):
    """g / band of a cubic sampled warp and its candidate extrema: per knot
    piece g = s'' - K s and g -+ band (g -+ 1e-9 s where s > 1) are cubics, so
    they peak at the knots, where s = 1 and where g' or g' -+ 1e-9 s' is 0."""
    from scipy.interpolate import PPoly
    spl = w._spline()
    gc = -K * spl.c
    gc[2:] += (6.0 * spl.c[0], 2.0 * spl.c[1])
    g = PPoly(gc, spl.x)

    def ratio(ts):
        return g(ts) / (_BAND * np.maximum(1.0, spl(ts)))

    crit = [PPoly(gc + e * spl.c, spl.x).derivative().solve(0.0, extrapolate=False)
            for e in (0.0, -_BAND, _BAND)]
    return ratio, np.concatenate(([m], spl.x, spl.solve(1.0, extrapolate=False), *crit))


def _witness(w, ratio, m, end, q_end):
    """A point on the way from m to the interval end ``end`` (the largest
    float for an infinite end), at which g / band tends to q_end beyond +-1,
    where g / band is beyond +-(1 + min(|q_end|, 3)) / 2."""
    k = np.arange(1100.0)
    with np.errstate(over="ignore"):
        path = (end + (m - end) * 0.5 ** k if abs(end) < _BIG
                else np.append(m + math.copysign(1.0, end) * 2.0 ** k, end))
    path = path[(path > w.a) & (path < w.b)]
    reach = 0.5 * (1.0 + min(abs(q_end), 3.0))
    return float(path[np.argmax(math.copysign(1.0, q_end) * ratio(path) > reach)])


def concavity_check(w: WarpSpec, K: float) -> ConcavityReport:
    """Sign verdicts for g = f'' - K f over the whole interval (a, b).

    Equality cases (model warps) must report both verdicts true, so K-concave
    means g <= band and K-convex g >= -band at every float in (a, b), with
    the band 1e-9 * max(1, |f|).  The extremes of g / band are in closed form,
    at the interval ends or at a few interior candidates.  When a verdict
    fails, ``worst_t`` is a point inside (a, b) where g leaves the band, else
    the candidate of largest |g| / band; ``worst_margin`` and ``band`` are g
    and the band there.  Linear sampled warps raise DomainError.
    """
    if not w.has_derivatives:
        raise DomainError("concavity check needs derivatives; "
                          "sampled warp requires the cubic rule")
    m = _anchor(w.a, w.b)
    curvature = _sampled_curvature if w.kind == "sampled" else _analytic_curvature
    ratio, inner = curvature(w, K, m)
    inner = inner[(inner > w.a) & (inner < w.b)]
    ts = np.concatenate(([max(w.a, -_BIG), min(w.b, _BIG)], inner))
    q = ratio(ts)
    hi, lo = int(np.argmax(q)), int(np.argmin(q))
    holds_concave, holds_convex = bool(q[hi] <= 1.0), bool(q[lo] >= -1.0)
    i = (hi if not holds_concave else lo if not holds_convex
         else 2 + int(np.argmax(np.abs(q[2:]))))
    t = float(ts[i]) if i >= 2 else _witness(w, ratio, m, ts[i], q[i])
    band = _BAND * max(1.0, w(t))
    return ConcavityReport(holds_concave, holds_convex,
                           float(ratio(np.array([t]))[0]) * band, t, band)


@dataclass(frozen=True)
class SingularityReport:
    lower_bound_K_consistent: bool
    a_finite: bool
    b_finite: bool
    tau_diameter_bound: float
    big_bang: bool
    big_crunch: bool
    upper_bound_possible: bool | None   # None: endpoint limits inconclusive
    verdicts: tuple


def singularity_report(w: WarpSpec, K: float) -> SingularityReport:
    """Singularity-theorem verdicts for a lower timelike curvature bound K.

    K needs g = f'' - K f <= 0 on the whole interval (:func:`concavity_check`),
    and by the paper's theorems both ends finite if K < 0 (tau <= b - a) and
    one finite end if K = 0 and f is not constant; timelike geodesics are then
    incomplete.  A big bang (f -> 0, f' -> +inf at a) rules out every upper
    bound: exactly power with a = 0 and 0 < p < 1 has one, and no analytic
    kind has the mirrored big crunch.  Sampled data give no endpoint limits,
    so for them ``upper_bound_possible`` is None.
    """
    a_fin, b_fin = math.isfinite(w.a), math.isfinite(w.b)
    consistent = (concavity_check(w, K).holds_concave
                  and not (K < 0 and not (a_fin and b_fin))
                  and not (K == 0 and not w.is_constant() and not (a_fin or b_fin)))
    verdicts = []
    diameter = math.inf
    if not consistent:
        verdicts.append(f"lower curvature bound {K:g} impossible")
    elif K < 0:
        diameter = w.b - w.a
        verdicts.append(f"time separation bounded by b-a = {diameter:.9g}; "
                        "timelike geodesically incomplete")
    elif K == 0 and not w.is_constant():
        verdicts.append("at least one endpoint finite: past or future "
                        "timelike geodesically incomplete")
    if w.kind == "sampled":
        verdicts += ["endpoint limit at a inconclusive", "endpoint limit at b inconclusive"]
    bang = w.kind == "power" and w.a == 0.0 and 0.0 < w.p < 1.0
    if bang:
        verdicts += ["big bang singularity at a",
                     "no timelike curvature bound from above is possible"]
    upper = None if w.kind == "sampled" else not bang
    return SingularityReport(consistent, a_fin, b_fin, diameter, bang, False,
                             upper, tuple(verdicts))
