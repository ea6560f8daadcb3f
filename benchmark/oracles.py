"""Independent routes that the benchmark checks lorcone's outputs against.

Nothing here calls lorcone: warps, null parameters, fiber distances and
longest paths are written out again from their definitions, so that a wrong
number from the library cannot also be the expected value.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline

# Analytic warp kinds, each with unit amplitude and rate.  ``POWER_P`` is the
# exponent of the power kind (the t^(2/3) big-bang warp of the acceptance suite).
POWER_P = 2.0 / 3.0


def warp_value(kind, t):
    if kind == "constant":
        return 1.0
    if kind == "identity":
        return t
    if kind == "power":
        return t ** POWER_P
    if kind == "sin":
        return math.sin(t)
    if kind == "cos":
        return math.cos(t)
    if kind == "cosh":
        return math.cosh(t)
    if kind == "exp":
        return math.exp(t)
    raise ValueError(kind)


def null_parameter_closed(kind, p0, r):
    """F(r) = int_{p0}^r 1/f in closed form (used to place generated pairs)."""
    if kind == "constant":
        return r - p0
    if kind == "identity":
        return math.log(r / p0)
    if kind == "power":
        e = 1.0 - POWER_P
        return (r ** e - p0 ** e) / e
    if kind == "sin":
        return math.log(math.tan(0.5 * r)) - math.log(math.tan(0.5 * p0))
    if kind == "cos":
        return (math.log(math.tan(0.5 * r + 0.25 * math.pi))
                - math.log(math.tan(0.5 * p0 + 0.25 * math.pi)))
    if kind == "cosh":
        return math.atan(math.sinh(r)) - math.atan(math.sinh(p0))
    if kind == "exp":
        return math.exp(-p0) - math.exp(-r)
    raise ValueError(kind)


def null_parameter_quad(kind, p0, r):
    """F(r) by adaptive Gauss-Kronrod quadrature of 1/f (signed)."""
    val, _ = integrate.quad(lambda t: 1.0 / warp_value(kind, t), p0, r,
                            epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def warp_extrema(kind, s, t):
    """(min, max) of f over [s, t]: endpoints plus the one interior critical
    point each periodic or hyperbolic kind has on its domain."""
    vals = [warp_value(kind, s), warp_value(kind, t)]
    if kind == "sin" and s <= 0.5 * math.pi <= t:
        vals.append(1.0)
    if kind in ("cos", "cosh") and s <= 0.0 <= t:
        vals.append(1.0)
    return min(vals), max(vals)


def tau_closed(kind, p0, q0, d):
    """Closed-form tau for the flat (constant) and Minkowski-cone (identity)
    kinds, or None for the other kinds; 0 off the chronological region."""
    dt = q0 - p0
    if kind == "constant":
        rad = (dt - d) * (dt + d)
    elif kind == "identity":
        rad = p0 * p0 + q0 * q0 - 2.0 * p0 * q0 * math.cosh(d)
    else:
        return None
    return math.sqrt(rad) if (dt > 0 and rad > 0) else 0.0


def tau_bracket(kind, p0, q0, d):
    """sqrt(dt^2 - M^2 d^2) <= tau <= sqrt(dt^2 - m^2 d^2) with m, M the
    extrema of f on [p0, q0]."""
    m, big_m = warp_extrema(kind, p0, q0)
    dt = q0 - p0
    lo = math.sqrt(max(0.0, dt * dt - (big_m * d) ** 2))
    hi = math.sqrt(max(0.0, dt * dt - (m * d) ** 2))
    return lo, hi


# -- fibers ---------------------------------------------------------------------

def hyperbolic_point(rho, theta):
    return np.array([math.cosh(rho), math.sinh(rho) * math.cos(theta),
                     math.sinh(rho) * math.sin(theta)])


def hyperbolic_shoot(x, theta, d):
    """The point at distance d from x on the unit hyperboloid, along the
    geodesic leaving x at angle theta in its tangent plane."""
    # orthonormal tangent frame at x: e1 = d/drho, e2 = d/dphi normalized
    rho = math.acosh(max(1.0, x[0]))
    phi = math.atan2(x[2], x[1])
    e1 = np.array([math.sinh(rho), math.cosh(rho) * math.cos(phi),
                   math.cosh(rho) * math.sin(phi)])
    e2 = np.array([0.0, -math.sin(phi), math.cos(phi)])
    w = math.cos(theta) * e1 + math.sin(theta) * e2
    return math.cosh(d) * x + math.sinh(d) * w


def hyperbolic_distance(x, y):
    diff = np.asarray(x) - np.asarray(y)
    q = -diff[0] ** 2 + diff[1] ** 2 + diff[2] ** 2
    return 2.0 * math.asinh(math.sqrt(max(0.0, q)) / 2.0)


def sphere_shoot(x, rng, d):
    """The point at angle d from the unit vector x along a random tangent."""
    v = rng.normal(size=3)
    v -= np.dot(v, x) * x
    v /= np.linalg.norm(v)
    return math.cos(d) * x + math.sin(d) * v


# -- sampled warps --------------------------------------------------------------

class SampledWarp:
    """A sampled warp rebuilt from its knots: exact piecewise-linear
    integrals, or Gauss-Legendre per cubic piece on scipy's spline."""

    _GL_X, _GL_W = np.polynomial.legendre.leggauss(12)

    def __init__(self, knots, values, interpolation):
        self.ts = np.asarray(knots, dtype=float)
        self.vs = np.asarray(values, dtype=float)
        self.interpolation = interpolation
        self._spline = CubicSpline(self.ts, self.vs) if interpolation == "cubic" else None

    def __call__(self, t):
        if self._spline is not None:
            return self._spline(t)
        return np.interp(t, self.ts, self.vs)

    def null_parameter(self, p0, r):
        edges = np.concatenate(([p0], self.ts[(self.ts > p0) & (self.ts < r)], [r]))
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            if self._spline is None:
                fa, fb = float(self(a)), float(self(b))
                slope = (fb - fa) / (b - a)
                total += (b - a) / fa if abs(slope) < 1e-14 else math.log(fb / fa) / slope
            else:
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                nodes = mid + half * self._GL_X
                total += half * float(np.sum(self._GL_W / self(nodes)))
        return total


# -- curve catalogs -------------------------------------------------------------

def catalog_longest_paths(n, edges):
    """Longest-path time separation of a catalog given as (i, j, length) edges.

    Returns (reach, values, infinite) as n x n arrays.  Strongly connected
    components (Tarjan) are condensed; a component with an internal edge of
    positive length makes every pair routed through it infinite, and zero
    cycles cost nothing.  Longest paths then run over the condensation in
    topological order from each source component.
    """
    succ = [dict() for _ in range(n)]
    for i, j, length in edges:
        succ[i][j] = max(succ[i].get(j, 0.0), length)
    comp = _tarjan(n, succ)
    n_comp = max(comp) + 1
    positive = [False] * n_comp
    cedges = [dict() for _ in range(n_comp)]
    for i in range(n):
        for j, length in succ[i].items():
            ci, cj = comp[i], comp[j]
            if ci == cj:
                positive[ci] = positive[ci] or length > 0.0
            else:
                cedges[ci][cj] = max(cedges[ci].get(cj, 0.0), length)
    # Tarjan numbers components in reverse topological order
    order = range(n_comp - 1, -1, -1)
    comp_reach = np.zeros((n_comp, n_comp), dtype=bool)
    comp_val = np.zeros((n_comp, n_comp))
    comp_inf = np.zeros((n_comp, n_comp), dtype=bool)
    for src in range(n_comp):
        best = [-math.inf] * n_comp
        inf = [False] * n_comp
        best[src] = 0.0
        inf[src] = positive[src]
        for c in order:
            if best[c] == -math.inf:
                continue
            for c2, w in cedges[c].items():
                if best[c] + w > best[c2]:
                    best[c2] = best[c] + w
                inf[c2] = inf[c2] or inf[c] or positive[c2]
        for c in range(n_comp):
            if best[c] > -math.inf:
                comp_reach[src, c] = True
                comp_val[src, c] = best[c]
                comp_inf[src, c] = inf[c]
    idx = np.array(comp)
    reach = comp_reach[np.ix_(idx, idx)]
    infinite = comp_inf[np.ix_(idx, idx)]
    values = np.where(reach & ~infinite, comp_val[np.ix_(idx, idx)], 0.0)
    return reach, values, infinite


def _tarjan(n, succ):
    """Iterative Tarjan SCC; components numbered in reverse topological order."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack = []
    counter = 0
    n_comp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comp
                    if w == v:
                        break
                n_comp += 1
    return comp
