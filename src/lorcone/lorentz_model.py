"""Two-dimensional Lorentzian model planes of constant curvature K.

Each plane is represented through its canonical warped chart over the real
line: the Minkowski plane for K = 0, warp cosh(sqrt(K) t)/sqrt(K) on all of
R for K > 0, and warp cos(sqrt(-K) t)/sqrt(-K) on the strip
|t| < pi/(2 sqrt(-K)) for K < 0.  With s = sqrt|K| the curved charts embed,
scaled by s, as de Sitter dS2 in R^{1,2} (K > 0, the circle unrolled) and as
anti-de Sitter AdS2 in R^{2,1} (K < 0):

    K > 0:  (t, x) -> (sinh st, cosh st cos x, cosh st sin x),
    K < 0:  (t, x) -> (sin st, cos st cosh x, cos st sinh x).

Time separation, comparison triangles and points on their sides are closed
forms in these embeddings (O'Neill, Semi-Riemannian Geometry, ch. 4); no root
finder or quadrature runs.  ``model_cone`` keeps the chart as a generalized
cone, the independent numerical route the tests check the closed forms
against.  Everything triangle-shaped assumes the timelike size bounds, under
which the chart realizes the canonical comparison configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .cone import ConePoint, GeneralizedCone
from .errors import DomainError, RealizationError, TriangleError
from .fiber import RealLine
from .warp import WarpSpec


def chart_warp(K: float) -> WarpSpec:
    if K == 0.0:
        return WarpSpec.constant(1.0)
    if K > 0:
        s = math.sqrt(K)
        w = WarpSpec.cosh(amplitude=1.0 / s, rate=s)
    else:
        s = math.sqrt(-K)
        half = math.pi / (2.0 * s)
        w = WarpSpec.cos(interval=(-half, half), amplitude=1.0 / s, rate=s)
    # chart sanity: the warped product has f''/f = K
    half = math.pi / (2.0 * s) if K < 0 else 1.0
    for t in (-0.5 * half, 0.1 * half, 0.3 * half):
        if abs(w.second_derivative(t) / w(t) - K) > 1e-9 * max(1.0, abs(K)):
            raise RealizationError(f"chart warp for K={K} fails f''/f = K")
    return w


@lru_cache(maxsize=64)
def model_cone(K: float) -> GeneralizedCone:
    """The warped chart of the model plane as a generalized cone over R."""
    return GeneralizedCone(chart_warp(K), RealLine())


def strip_half_width(K: float) -> float:
    return math.inf if K >= 0 else math.pi / (2.0 * math.sqrt(-K))


@dataclass(frozen=True)
class ModelPoint:
    """Chart coordinates (t, x) of a point of the model plane."""
    K: float
    t: float
    x: float

    def __post_init__(self):
        if abs(self.t) >= strip_half_width(self.K):
            raise DomainError(
                f"|t| = {abs(self.t)} outside the K={self.K} chart strip")

    def as_cone_point(self):
        return ConePoint(self.t, self.x)


def model_tau(K: float, p: ModelPoint, q: ModelPoint) -> float:
    """Time separation in the model plane; 0 for non-related pairs."""
    if p.K != K or q.K != K:
        raise DomainError("points belong to a different chart")
    dt = q.t - p.t
    dx = abs(q.x - p.x)
    if dt <= 0.0:
        return 0.0
    if K == 0.0:
        rad = dt * dt - dx * dx
        return math.sqrt(rad) if rad > 0 else 0.0
    # half-angle forms of cosh(s tau) = <P, Q> in dS2 and cos(s tau) =
    # -<P, Q> in AdS2, which lose no digits for small tau
    if K > 0 and dx >= math.pi:
        return 0.0   # the null transport of the dS2 chart stays below pi
    s, (S, C), (Sx, _) = _functions(K)
    rad = S(0.5 * s * dt) ** 2 - C(s * p.t) * C(s * q.t) * Sx(0.5 * dx) ** 2
    if rad <= 0.0:
        return 0.0
    return 2.0 * (math.asinh if K > 0 else math.asin)(math.sqrt(rad)) / s


def _functions(K):
    """s = sqrt|K| with the (sine, cosine) pairs of the embedding in t and in
    x: dS2 (K > 0) is hyperbolic in t and circular in x, AdS2 the reverse."""
    if K > 0:
        return math.sqrt(K), (math.sinh, math.cosh), (math.sin, math.cos)
    return math.sqrt(-K), (math.sin, math.cos), (math.sinh, math.cosh)


def _embed(K, t, x):
    """The chart point (t, x) on the unit dS2 (K > 0) or AdS2 (K < 0)."""
    s, (S, C), (Sx, Cx) = _functions(K)
    return (S(s * t), C(s * t) * Cx(x), C(s * t) * Sx(x))


def _chart(K, P):
    """Chart coordinates (t, x) of an embedded point, x on the branch through
    x = 0 (|x| < pi for K > 0)."""
    if K > 0:
        return math.asinh(P[0]) / math.sqrt(K), math.atan2(P[2], P[1])
    cos_st = math.sqrt((1.0 - P[0]) * (1.0 + P[0]))
    return math.asin(P[0]) / math.sqrt(-K), math.asinh(P[2] / cos_st)


def size_bounds(K: float, a: float, b: float, c: float,
                eq_tol: float = 1e-12) -> bool:
    """Timelike size bounds: c >= a+b, and c < pi/sqrt(|K|) whenever the
    equality case meets K > 0 or the strict case meets K < 0."""
    if min(a, b, c) < 0:
        return False
    scale = max(1.0, a, b, c)
    if c < a + b - eq_tol * scale:
        return False
    equality = abs(c - (a + b)) <= eq_tol * scale
    if (equality and K > 0) or (not equality and K < 0):
        return c < math.pi / math.sqrt(abs(K))
    return True


@dataclass(frozen=True)
class ModelTriangle:
    """Realized comparison triangle x' << y' << z' with side lengths
    a = tau(x', y'), b = tau(y', z'), c = tau(x', z')."""
    K: float
    x: ModelPoint
    y: ModelPoint
    z: ModelPoint
    a: float
    b: float
    c: float

    def side(self, name):
        if name == "xy":
            return self.x, self.y, self.a
        if name == "yz":
            return self.y, self.z, self.b
        if name == "xz":
            return self.x, self.z, self.c
        raise DomainError(f"unknown side {name!r}; expected xy, yz or xz")


def _flat_apex(a, b, c, t0):
    """Closed-form Minkowski placement of y' over x' = (t0, 0), z' = (t0+c, 0)."""
    if a <= 0.0:
        return t0, 0.0
    if b <= 0.0:
        return t0 + c, 0.0
    scale = max(1.0, c)
    if abs(c - (a + b)) <= 1e-12 * scale:
        return t0 + a, 0.0
    ch = (a * a + c * c - b * b) / (2.0 * a * c)
    ch = max(1.0, ch)
    sh = math.sqrt(max(0.0, ch * ch - 1.0))
    return t0 + a * ch, a * sh


def realize_timelike_triangle(K: float, a: float, b: float, c: float,
                              tol: float = 1e-8) -> ModelTriangle:
    """Canonical comparison triangle: x' and z' on the time axis, y' on the
    nonnegative-x side, with tau(x',y') = a, tau(y',z') = b, tau(x',z') = c."""
    if not size_bounds(K, a, b, c):
        raise TriangleError(
            f"timelike size bounds fail for K={K}, sides ({a}, {b}, {c})")
    half = strip_half_width(K)
    t0 = -0.5 * c if K < 0 else 0.0
    if c >= 2.0 * half * (1.0 - 1e-12):
        raise RealizationError(
            f"side c = {c} exceeds the chart's timelike diameter for K={K}")
    x = ModelPoint(K, t0, 0.0)
    z = ModelPoint(K, t0 + c, 0.0)
    if K == 0.0 or a <= 0.0 or b <= 0.0 or abs(c - (a + b)) <= 1e-12 * max(1.0, c):
        y = ModelPoint(K, *_flat_apex(a, b, c, t0))
    else:
        y = _curved_apex(K, a, b, c, t0)
    tri = ModelTriangle(K, x, y, z, a, b, c)
    _check_residual(tri, tol)
    return tri


def _curved_apex(K, a, b, c, t0):
    """y' = C(sa) x' + S(sa) v on the geodesic from x' = (t0, 0) whose unit
    tangent v makes the hyperbolic angle theta with side xz.  The law of
    cosines of the model plane, cosh(sb) = cosh(sa) cosh(sc) - sinh(sa)
    sinh(sc) cosh(theta) in dS2 and cos(sb) = cos(sa) cos(sc) + sin(sa)
    sin(sc) cosh(theta) in AdS2, gives sinh^2(theta/2) through the defect
    c - a - b > 0 without cancellation."""
    s, (S, C), _ = _functions(K)
    sh2 = (S(0.5 * s * (c - a + b)) * S(0.5 * s * (c - a - b))
           / (S(s * a) * S(s * c)))
    cosh_th = 1.0 + 2.0 * sh2
    sinh_th = 2.0 * math.sqrt(sh2 * (1.0 + sh2))
    # x' = (S, C, 0) and the unit tangent (C, +-S, 0) of side xz at x'
    al = s * t0
    X = (S(al), C(al))
    T = (C(al), S(al) if K > 0 else -S(al))
    ca, sa = C(s * a), S(s * a)
    P = (ca * X[0] + sa * cosh_th * T[0], ca * X[1] + sa * cosh_th * T[1],
         sa * sinh_th)
    return ModelPoint(K, *_chart(K, P))


def _check_residual(tri: ModelTriangle, tol: float):
    scale = max(1.0, tri.c)
    got = (model_tau(tri.K, tri.x, tri.y), model_tau(tri.K, tri.y, tri.z),
           model_tau(tri.K, tri.x, tri.z))
    resid = max(abs(got[0] - tri.a), abs(got[1] - tri.b), abs(got[2] - tri.c))
    if resid > 10.0 * tol * scale:
        raise RealizationError(
            f"triangle side residual {resid:g} after placement", residual=resid)


def corresponding_point(tri: ModelTriangle, side: str, s: float) -> ModelPoint:
    """The point on the realized side at time separation s from its first
    vertex (the comparison correspondence)."""
    v0, v1, length = tri.side(side)
    if not -1e-12 <= s <= length + 1e-9 * max(1.0, length):
        raise DomainError(f"parameter {s} outside [0, {length}] on side {side}")
    s = min(max(s, 0.0), length)
    if s == 0.0 or length == 0.0:
        return v0
    if s >= length:
        return v1
    if tri.K == 0.0:
        u = s / length
        return ModelPoint(tri.K, v0.t + u * (v1.t - v0.t), v0.x + u * (v1.x - v0.x))
    # [S(k(l - s)) P0 + S(k s) P1] / S(k l) with l the side's own model tau,
    # placed with v0 at x = 0 so the chart branch is v0's
    ell = model_tau(tri.K, v0, v1)
    s = min(s, ell)
    k, (S, _), _ = _functions(tri.K)
    w0 = S(k * (ell - s)) / S(k * ell)
    w1 = S(k * s) / S(k * ell)
    P0 = _embed(tri.K, v0.t, 0.0)
    P1 = _embed(tri.K, v1.t, v1.x - v0.x)
    t, x = _chart(tri.K, tuple(w0 * u + w1 * v for u, v in zip(P0, P1)))
    return ModelPoint(tri.K, t, v0.x + x)


def modified_distance(K: float, E: float) -> float:
    """h_{K,x} as a function of the signed energy E (E = -tau^2 for
    timelike-related pairs): (1 - cos(sqrt(K E)))/K, with cos(i phi) = cosh phi
    and a series fallback that is continuous in K at 0."""
    z = K * E
    if K == 0.0:
        return E / 2.0
    if abs(z) < 1e-6:
        # (1 - cos sqrt(z))/z = 1/2 - z/24 + z^2/720 - ...
        g = 0.5 - z / 24.0 + z * z / 720.0
        return E * g
    if z >= 0.0:
        return (1.0 - math.cos(math.sqrt(z))) / K
    return (1.0 - math.cosh(math.sqrt(-z))) / K


def signed_energy(K: float, x: ModelPoint, q: ModelPoint) -> float:
    """E_x(q) = -tau(x, q)^2 for causally ordered pairs."""
    tau = model_tau(K, x, q)
    return -tau * tau
