"""Brute-force reference computations used to gate the fast solvers.

These stay deliberately independent of the solver code paths: the null
parameter oracle integrates 1/f by adaptive quadrature, the time separation
oracle maximizes over piecewise-linear causal grid paths by dynamic
programming, the concavity oracle samples f'' - K f on a grid, and the
catalog oracle enumerates concatenations explicitly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CatalogError, QuadratureError


def quad_inverse(w, lo, hi):
    """Adaptive Gauss-Kronrod integral of 1/f over [lo, hi] (signed).

    A sampled warp is integrated piece by piece between its knots, where the
    interpolant has kinks.
    """
    from scipy import integrate
    if lo == hi:
        return 0.0
    sign = 1.0
    if hi < lo:
        lo, hi, sign = hi, lo, -1.0
    edges = [lo, hi]
    if w.kind == "sampled":
        edges = [lo] + [t for t, _ in w.samples if lo < t < hi] + [hi]
    total = 0.0
    err_total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, err = integrate.quad(lambda t: 1.0 / w(t), a, b,
                                  epsabs=w.quad_tol, epsrel=w.quad_tol,
                                  limit=200)
        total += val
        err_total += err
    if (not math.isfinite(total)
            or err_total > 1e4 * w.quad_tol * max(1.0, abs(total))):
        raise QuadratureError(
            f"quadrature of 1/f over [{lo}, {hi}] did not converge",
            estimate=err_total)
    return sign * total


def grid_concavity(w, K, lo, hi, n=256):
    """(holds_concave, holds_convex) for g = f'' - K f on n uniform points of
    [lo, hi] inside (a, b), in the band 1e-9 * max(1, |f|) of
    ``warp.concavity_check``."""
    ts = np.linspace(lo, hi, n)
    fv = np.asarray(w(ts))
    g = np.asarray(w.second_derivative(ts)) - K * fv
    band = 1e-9 * np.maximum(1.0, np.abs(fv))
    return bool(np.all(g <= band)), bool(np.all(g >= -band))


def dp_time_separation(warp, p0, q0, d, n_time=600, n_space=600):
    """Discrete maximization over monotone piecewise-linear causal paths from
    (p0, 0) to (q0, d) on an n_time x n_space grid.

    Per time step the path moves by a continuous fiber increment gaining
    sqrt(dt^2 - f(mid)^2 dx^2); the value function is kept on the fiber grid
    and interpolated linearly in between (per-piece interior optima are
    solved in closed form), so the discretization error vanishes under grid
    refinement instead of stalling at the move-quantization floor.

    Returns -inf when the grid admits no causal path.
    """
    if q0 <= p0 or d < 0:
        raise ValueError("need p0 < q0 and d >= 0")
    dt = (q0 - p0) / n_time
    if d == 0.0:
        return q0 - p0
    dx = d / n_space
    ts = p0 + dt * (np.arange(n_time) + 0.5)
    fmid = np.asarray(warp(ts))
    best = np.full(n_space + 1, -np.inf)
    best[0] = 0.0
    frontier = 0.0   # continuous reachability edge: the all-null path, value 0

    def seg(f, delta):
        return np.sqrt(np.maximum(0.0, dt * dt - (f * delta) ** 2))

    for i in range(n_time):
        f = fmid[i]
        move_cap = dt / f
        kmax = min(int(math.floor(move_cap / dx)) + 1, n_space)
        nxt = np.full(n_space + 1, -np.inf)
        for k in range(kmax + 1):
            delta0 = k * dx
            if delta0 > move_cap:
                break
            # node-aligned candidate: land exactly on a grid node
            cand = best[: n_space + 1 - k] + seg(f, delta0)
            np.maximum(nxt[k:], cand, out=nxt[k:])
            # interior candidate on the linear piece between nodes k and k+1
            if k + 1 > n_space:
                continue
            v_hi = best[1: n_space + 1 - k]      # V at node j - k
            v_lo = best[: n_space - k]           # V at node j - k - 1
            ok = np.isfinite(v_hi) & np.isfinite(v_lo)
            if not np.any(ok):
                continue
            with np.errstate(invalid="ignore", over="ignore"):
                slope = np.where(ok, v_lo - v_hi, 0.0) / dx
                delta_star = slope * dt / (f * np.sqrt(f * f + slope * slope))
                delta_star = np.clip(delta_star, delta0,
                                     min(delta0 + dx, move_cap))
                val = (v_hi + (delta_star - delta0) * slope
                       + seg(f, delta_star))
            val[~ok] = -np.inf
            np.maximum(nxt[k + 1:], val, out=nxt[k + 1:])
        # candidates sourced from the partial piece between the last grid
        # node and the continuous frontier; without them the reachable set
        # advances by floor(cap/dx) nodes per step and near-null targets
        # starve.  V is concave in x, so the linear piece underestimates.
        jl = int(math.floor(frontier / dx + 1e-12))
        if 0 <= jl <= n_space and frontier > jl * dx + 1e-18 \
                and math.isfinite(best[jl]):
            x_jl = jl * dx
            m = best[jl] / (frontier - x_jl)   # value slope back from the edge
            j_hi = min(n_space, int(math.floor((frontier + move_cap) / dx)))
            for j in range(jl + 1, j_hi + 1):
                lo_move = max(0.0, j * dx - frontier)
                hi_move = min(move_cap, j * dx - x_jl)
                if hi_move < lo_move:
                    continue
                if m > 0:
                    dstar = m * dt / (f * math.sqrt(f * f + m * m))
                else:
                    dstar = lo_move
                dstar = min(max(dstar, lo_move), hi_move)
                source = j * dx - dstar
                val = (frontier - source) * m + float(seg(f, dstar))
                if val > nxt[j]:
                    nxt[j] = val
        best = nxt
        frontier += move_cap
    return float(best[n_space])


# concatenation steps enumerate_tau takes before it gives up (about 0.1 s);
# the count grows exponentially with the curves of a dense cycle
ENUMERATION_MAX_STEPS = 100_000


def enumerate_tau(catalog):
    """Exhaustive longest-concatenation table for small catalogs.

    Walks every causal concatenation without revisiting a point except to
    close zero-gain cycles; pairs that can reach a positive-length cycle are
    reported infinite.  Only usable for small n (exponential): raises
    ``CatalogError`` after ``ENUMERATION_MAX_STEPS`` steps.
    """
    n = catalog.n
    idx = catalog.index
    out_edges = {i: [] for i in range(n)}
    for c in catalog.curves:
        out_edges[idx[c.src]].append((idx[c.dst], c.length))
    reach = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(reach, True)
    for i in range(n):
        stack = [i]
        while stack:
            u = stack.pop()
            for v, _ in out_edges[u]:
                if not reach[i, v]:
                    reach[i, v] = True
                    stack.append(v)
    # a positive cycle exists through u iff some edge (u0, v0, w>0) has
    # v0 -> u0 reachable and u -> u0, v0 -> u (detected pairwise below)
    pos_cycle_nodes = set()
    for c in catalog.curves:
        u0, v0 = idx[c.src], idx[c.dst]
        if c.length > 0 and reach[v0, u0]:
            pos_cycle_nodes.add(u0)
    infinite = np.zeros((n, n), dtype=bool)
    for m in pos_cycle_nodes:
        infinite |= np.outer(reach[:, m], reach[m, :])
    values = np.zeros((n, n))

    steps = 0

    def dfs(start, u, used, total):
        nonlocal steps
        steps += 1
        if steps > ENUMERATION_MAX_STEPS:
            raise CatalogError(f"enumeration exceeds {ENUMERATION_MAX_STEPS} "
                               "concatenation steps")
        if total > values[start, u]:
            values[start, u] = total
        for v, w in out_edges[u]:
            key = (u, v, w)
            if key in used:
                continue
            used.add(key)
            dfs(start, v, used, total + w)
            used.remove(key)

    for i in range(n):
        if not infinite[i].all():
            dfs(i, i, set(), 0.0)
    values[~reach] = 0.0
    values[infinite] = 0.0
    return values, (infinite & reach)
