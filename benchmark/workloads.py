"""The four benchmark workloads.

Each workload turns a seed into a list of operation inputs (``generate``),
builds the lorcone objects the operations run against (``build``), runs one
operation (``run``) and checks one output against an independent route
(``check``, never timed).  Inputs are plain numbers and arrays; lorcone sees
them only inside ``build`` and ``run``.
"""

from __future__ import annotations

import hashlib
import io
import math
from collections import Counter

import numpy as np

import lorcone
from lorcone import lorentz_model
from lorcone.fiber import tripod

import oracles

FIBERS = ("R", "R2", "H2")
KINDS = ("constant", "identity", "power", "sin", "cos", "cosh", "exp")


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _rounds(rng, items, count):
    """``count`` picks from ``items``: whole shuffled rounds, so every prefix
    of one round length holds the declared mix exactly."""
    out = []
    while len(out) < count:
        out.extend(items[k] for k in rng.permutation(len(items)))
    return out[:count]


def sha256_lines(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


class Workload:
    name = ""
    round_len = 1     # ops per round of the declared mix; timed runs end on a round
    capacity = 0      # ops generated per run, a whole number of rounds
    trace_ops = 0     # the prefix that traced runs execute
    # Percentile reported as latency_tail_ms: the highest of run.py's ladder
    # that keeps ten operations beyond it in a 25 s run on the slowest host
    # seen (1.35 times the reference), so that the host's speed, which sets
    # the operation count, does not also pick the percentile.
    tail_pct = 50.0
    # Executions per input behind latency_tail_ms.  Above 1, a timed run goes
    # on until every input ran this many times (each pass against freshly
    # built objects), and the tail is taken over each input's fastest
    # execution, so that a burst of host load, which hits single executions,
    # does not set it.
    tail_repeats = 1

    def generate(self, seed):
        """(context, ops): shared inputs for ``build`` and one input per
        operation."""
        raise NotImplementedError

    def build(self, context):
        raise NotImplementedError

    def warmup(self, state):
        raise NotImplementedError

    def run(self, state, op):
        raise NotImplementedError

    def check(self, op, out):
        """None when ``out`` passes the oracle, else a one-line reason."""
        raise NotImplementedError

    def digest_lines(self, out):
        return []

    def mix(self, context, ops):
        """Counts of the declared input classes, for the determinism tests."""
        raise NotImplementedError


# -- tau_cold ---------------------------------------------------------------------

# base-time window and time-gap range per kind, inside each warp's interval
_TAU_WINDOWS = {
    "constant": ((-2.0, 2.0), lambda p0: (0.1, 2.0)),
    "identity": ((0.5, 2.0), lambda p0: (0.1, 2.0)),
    "power": ((0.5, 2.0), lambda p0: (0.1, 2.0)),
    "sin": ((0.3, 1.5), lambda p0: (0.1, math.pi - 0.3 - p0)),
    "cos": ((-1.2, 0.2), lambda p0: (0.1, 1.2 - p0)),
    "cosh": ((-1.0, 0.5), lambda p0: (0.1, 1.5)),
    "exp": ((-1.0, 0.5), lambda p0: (0.1, 1.5)),
}
# one round of pair classes: 12 chronological, 3 within ~1e-8 of the null
# boundary, 3 spacelike, 2 past-ordered
_TAU_CLASSES = ("timelike",) * 12 + ("near_null",) * 3 + ("not_related",) * 3 + ("past",) * 2
# Queries per round for each kind (times three fibers).  cosh and exp cost
# ~2 ms, constant ~5 ms and the rest ~6-7 ms; weighting the rest double puts
# the median query near the 30th percentile of the expensive cluster, not on
# its lower edge, where it would follow the host's fastest moments.
_KIND_WEIGHT = {"constant": 1, "identity": 2, "power": 2, "sin": 2, "cos": 2,
                "cosh": 1, "exp": 1}


def _fiber_pair(rng, fiber, d):
    if fiber == "R":
        x = float(rng.normal())
        return x, x + d * (1.0 if rng.uniform() < 0.5 else -1.0)
    if fiber == "R2":
        x = rng.normal(size=2)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        return x, x + d * np.array([math.cos(theta), math.sin(theta)])
    x = oracles.hyperbolic_point(abs(rng.normal()), rng.uniform(0.0, 2.0 * math.pi))
    return x, oracles.hyperbolic_shoot(x, rng.uniform(0.0, 2.0 * math.pi), d)


def _fiber_distance(fiber, x, y):
    if fiber == "R":
        return abs(x - y)
    if fiber == "R2":
        return float(math.hypot(*(np.asarray(x) - np.asarray(y))))
    return oracles.hyperbolic_distance(x, y)


class TauCold(Workload):
    """Independent relate + time_separation queries on analytic warps; every
    query has a fresh base time, so no transport or pair solve is reused."""

    name = "tau_cold"
    round_len = 660   # lcm of the 20 pair classes and the 33 weighted kind x fiber picks
    capacity = 1320   # three passes take about 20 s on the reference host
    tail_pct = 99.0
    tail_repeats = 3
    trace_ops = 280

    def generate(self, seed):
        rng = _rng(seed, 1)
        combos = [(k, f) for k in KINDS for f in FIBERS]
        weighted = [c for c, (k, _) in enumerate(combos) for _ in range(_KIND_WEIGHT[k])]
        picks = _rounds(rng, weighted, self.capacity)
        classes = _rounds(rng, _TAU_CLASSES, self.capacity)
        ops = []
        for combo, cls in zip(picks, classes):
            kind, fiber = combos[combo]
            (p_lo, p_hi), gap = _TAU_WINDOWS[kind]
            p0 = rng.uniform(p_lo, p_hi)
            q0 = p0 + rng.uniform(*gap(p0))
            F = oracles.null_parameter_closed(kind, p0, q0)
            if cls == "near_null":
                # q0-space gap of a few null bands (1e-9 max(1, |q0|)), so the
                # relation goes through the h solve
                g = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 5.0) * 1e-9 * max(1.0, abs(q0))
                d = F - g / oracles.warp_value(kind, q0)
            elif cls == "not_related":
                d = F * rng.uniform(1.05, 2.0)
            else:
                d = F * rng.uniform(0.05, 0.95)
            x, y = _fiber_pair(rng, fiber, d)
            if cls == "past":
                p0, q0, x, y = q0, p0, y, x
            ops.append((combo, kind, fiber, cls, p0, x, q0, y))
        return None, ops

    def build(self, context):
        warps = {
            "constant": lorcone.WarpSpec.constant(1.0),
            "identity": lorcone.WarpSpec.identity(),
            "power": lorcone.WarpSpec.power(oracles.POWER_P),
            "sin": lorcone.WarpSpec.sin(),
            "cos": lorcone.WarpSpec.cos(),
            "cosh": lorcone.WarpSpec.cosh(),
            "exp": lorcone.WarpSpec.exp(),
        }
        fibers = {"R": lorcone.RealLine(), "R2": lorcone.EuclideanN(2),
                  "H2": lorcone.Hyperbolic2(1.0)}
        return [lorcone.GeneralizedCone(warps[k], fibers[f]) for k in KINDS for f in FIBERS]

    def warmup(self, state):
        Y = state[0]
        p, q = Y.point(-3.5, 0.0), Y.point(-2.5, 0.5)
        Y.relate(p, q)
        Y.time_separation(p, q)

    def run(self, state, op):
        combo, _, _, _, p0, x, q0, y = op
        Y = state[combo]
        p, q = Y.point(p0, x), Y.point(q0, y)
        verdict = Y.relate(p, q)
        return verdict.relation, verdict.swapped, Y.time_separation(p, q)

    def check(self, op, out):
        _, kind, fiber, _, p0, x, q0, y = op
        relation, swapped, tau = out
        lo, hi = min(p0, q0), max(p0, q0)
        d = _fiber_distance(fiber, x, y)
        F = oracles.null_parameter_quad(kind, lo, hi)
        gap = (F - d) * oracles.warp_value(kind, hi)
        band = 1e-9 * max(1.0, abs(hi))
        side = "chronological" if F > d else "not_related"
        if abs(gap) <= 0.5 * band:
            allowed = {"causal_null_boundary"}
        elif abs(gap) <= 2.0 * band:
            allowed = {"causal_null_boundary", side}
        else:
            allowed = {side}
        if swapped != (q0 < p0):
            return f"swapped={swapped} for base times {p0!r}, {q0!r}"
        if relation not in allowed:
            return f"relation {relation}, expected {sorted(allowed)} (F={F!r}, d={d!r})"
        if swapped or relation != "chronological":
            return None if tau == 0.0 else f"tau {tau!r} for a {relation} pair"
        exact = oracles.tau_closed(kind, p0, q0, d)
        if exact is not None:
            # relative 1e-6 (the acceptance suite's flat and Minkowski-cone
            # bound) or the solver's absolute solver_tol = 1e-9, plus the
            # change of the closed form when d moves by its rounding bound:
            # near null, dtau/dd ~ dt/tau amplifies the 1e-13 disagreement
            # between two correct hyperboloid distances to ~1e-9 in tau
            eps = 1e-12 * max(1.0, d)
            cond = max(abs(oracles.tau_closed(kind, p0, q0, d + s) - exact) for s in (eps, -eps))
            if abs(tau - exact) > max(1e-6 * exact, 1e-9 * max(1.0, exact)) + cond:
                return f"tau {tau!r}, closed form {exact!r}"
            return None
        t_lo, t_hi = oracles.tau_bracket(kind, p0, q0, d)
        slack = 1e-8 * max(1.0, tau)
        if not (tau > 0.0 and t_lo - slack <= tau <= t_hi + slack):
            return f"tau {tau!r} outside [{t_lo!r}, {t_hi!r}]"
        return None

    def digest_lines(self, out):
        return ["%s %.9g" % (out[0], out[2])]

    def mix(self, context, ops):
        return Counter(key for op in ops for key in (op[1], op[2], op[3]))


# -- geodesic_sampled -------------------------------------------------------------

_KNOTS = (17, 33, 65, 129, 193, 257)
_SAMPLED_T = (0.0, 4.0)
_POOL = 2   # base events per cone
_GAP_CELLS = 4


class GeodesicSampled(Workload):
    """Geodesic queries on sampled warps; base events come from a small pool
    per cone, so each null transport is built once and then reused."""

    name = "geodesic_sampled"
    round_len = 12
    tail_pct = 90.0
    capacity = 600
    trace_ops = 48
    samples = 129
    # |path_length - tau| / tau: the midpoint rule on 128 segments against the
    # two-resolution tau solve, on warps with a kink at every knot
    length_rtol = 5e-3

    def generate(self, seed):
        rng = _rng(seed, 2)
        warps, exact = [], []
        for interp in ("linear", "cubic"):
            for k, n in enumerate(_KNOTS):
                ts = np.linspace(*_SAMPLED_T, n)
                omega, phase = rng.uniform(0.8, 2.0), rng.uniform(0.0, 2.0 * math.pi)
                vs = 1.0 + 0.35 * np.sin(omega * ts + phase) + 0.08 * rng.uniform(-1.0, 1.0, n)
                fiber = "R2" if (k % 2 == 0) == (interp == "linear") else "S2"
                exact.append(oracles.SampledWarp(ts, vs, interp))
                pool = []
                for _ in range(_POOL):
                    t = rng.uniform(0.2, 1.5)
                    x = rng.normal(size=2) if fiber == "R2" else _unit(rng.normal(size=3))
                    pool.append((t, x))
                warps.append((interp, ts, vs, fiber, pool))
        picks = _rounds(rng, list(range(len(warps))), self.capacity)
        # the cost of a query grows with the knots inside [t_p, t_q], so each
        # warp cycles through the time-gap range in _GAP_CELLS strata
        cells = [rng.permutation(_GAP_CELLS) for _ in warps]
        ops = []
        uses = [0] * len(warps)
        for w in picks:
            fiber, pool = warps[w][3:]
            b = uses[w] % _POOL
            cell = cells[w][uses[w] % _GAP_CELLS]
            uses[w] += 1
            t_p, x_p = pool[b]
            t_q = t_p + 0.5 + 1.8 * (cell + rng.uniform()) / _GAP_CELLS
            F = exact[w].null_parameter(t_p, t_q)
            d = rng.uniform(0.2, 0.8) * F
            if fiber == "R2":
                theta = rng.uniform(0.0, 2.0 * math.pi)
                x_q = x_p + d * np.array([math.cos(theta), math.sin(theta)])
            else:
                d = min(d, 2.5)   # stay clear of antipodes
                x_q = oracles.sphere_shoot(x_p, rng, d)
            ops.append((w, b, t_q, x_q, F, d))
        return warps, ops

    def build(self, context):
        cones = []
        for interp, ts, vs, fiber, pool in context:
            warp = lorcone.WarpSpec.sampled(list(zip(ts, vs)), interpolation=interp)
            Y = lorcone.GeneralizedCone(
                warp, lorcone.EuclideanN(2) if fiber == "R2" else lorcone.Sphere2(1.0))
            cones.append((Y, [Y.point(t, x) for t, x in pool]))
        return cones

    def warmup(self, state):
        Y, pool = state[0]
        self._query(Y, pool[0], Y.point(pool[0].t + 0.6, pool[0].x))

    def _query(self, Y, p, q):
        relation = Y.relate(p, q).relation
        tau = Y.time_separation(p, q)
        path = Y.maximizing_geodesic(p, q, self.samples)
        return relation, tau, Y.path_length(path), Y.classify_path(path)

    def run(self, state, op):
        w, b, t_q, x_q, _, _ = op
        Y, pool = state[w]
        return self._query(Y, pool[b], Y.point(t_q, x_q))

    def check(self, op, out):
        _, _, _, _, F, d = op
        relation, tau, length, cls = out
        if not d < F or relation != "chronological":
            return f"relation {relation} with d/F = {d / F!r}"
        if not tau > 0.0:
            return f"tau {tau!r} for a chronological pair"
        err = abs(length - tau) / tau
        if err > self.length_rtol:
            return f"|path_length - tau|/tau = {err:.3g}"
        if cls != "timelike":
            return f"maximizer classified {cls}"
        return None

    def digest_lines(self, out):
        return ["%s %.9g %.9g %s" % out]

    def mix(self, context, ops):
        return Counter(key for w, *_ in ops
                       for key in (context[w][0], context[w][3], f"knots{len(context[w][1])}"))


def _unit(v):
    return v / np.linalg.norm(v)


# -- certify_mixed ----------------------------------------------------------------

# Rows and their model curvature K'.  The rotation lists the two K'=0 rows
# twice so that the median call lands inside the cheap cluster instead of in
# the cost gap between rows; the curved-model rows form the tail.
_ROWS = ("H2", "tripod", "S2", "AdS")
_K = {"H2": 0.0, "tripod": 0.0, "S2": 1.0, "AdS": -1.0}
_ROTATION = ("H2", "tripod", "S2", "H2", "tripod", "AdS")


class CertifyMixed(Workload):
    """certify_bound calls on a fixed small batch of triangles, each with a
    fresh sampling seed, rotating over four cone / model-plane rows."""

    name = "certify_mixed"
    round_len = len(_ROTATION)
    capacity = 300
    tail_pct = 90.0
    trace_ops = 12
    triangles = 2

    def generate(self, seed):
        rng = _rng(seed, 3)
        seeds = rng.integers(0, 2 ** 63, size=self.capacity)
        return None, [(_ROTATION[i % len(_ROTATION)], int(s)) for i, s in enumerate(seeds)]

    def build(self, context):
        lorentz_model.model_cone.cache_clear()
        return {
            "H2": lorcone.GeneralizedCone(lorcone.WarpSpec.identity(), lorcone.Hyperbolic2(1.0)),
            "tripod": lorcone.GeneralizedCone(lorcone.WarpSpec.identity(), tripod()),
            "S2": lorcone.GeneralizedCone(lorcone.WarpSpec.cosh(), lorcone.Sphere2(1.0)),
            "AdS": lorcone.GeneralizedCone(lorcone.WarpSpec.cos(), lorcone.RealLine()),
        }

    def warmup(self, state):
        for row in _ROWS:
            lorcone.certify_bound(state[row], _K[row], "below",
                                  lorcone.SamplingSpec(n_triangles=1, seed=7))

    def run(self, state, op):
        row, seed = op
        return lorcone.certify_bound(
            state[row], _K[row], "below",
            lorcone.SamplingSpec(n_triangles=self.triangles, seed=seed))

    def check(self, op, rep):
        row, _ = op
        if rep.triangles_tested < 1:
            return "no triangle tested"
        if row == "AdS":
            worst = max((abs(r[5]) for r in rep.rows if r[7]), default=0.0)
            return None if worst <= 1e-5 else f"AdS self-comparison |gap| {worst:.3g}"
        if row in ("H2", "S2"):
            return None if rep.verdict == "consistent" else f"{row} row {rep.verdict}"
        if rep.verdict == "violated":
            # reproduce the witness by direct evaluation on a fresh cone
            Y = lorcone.GeneralizedCone(lorcone.WarpSpec.identity(), tripod())
            w = rep.worst_witness
            p = Y.point_on_maximizer(w["x"], w["y"], w["s_p"]) if w["s_p"] > 0 else w["x"]
            q = Y.point_on_maximizer(w["y"], w["z"], w["s_q"]) if w["s_q"] > 0 else w["y"]
            tau = Y.time_separation(p, q)
            if abs(tau - w["tau_cone"]) > 1e-9 * max(1.0, tau):
                return f"tripod witness tau {w['tau_cone']!r} reproduces as {tau!r}"
        return None

    def digest_lines(self, rep):
        buf = io.StringIO()
        rep.to_csv(buf)
        return [hashlib.sha256(buf.getvalue().encode()).hexdigest()]

    def mix(self, context, ops):
        return Counter(row for row, _ in ops)


# -- catalog_check ----------------------------------------------------------------

# Catalogs of each size per round.  The work grows like n^3, so with one of
# each a run would hold only about ten catalogs of the median's size, too few
# for a steady median on a host whose speed changes within a run.  These
# weights put the median 62 % of the way into the 60-point stratum and p75
# 44 % of the way into the 78-point one, each with about twenty catalogs.
# Near a stratum's edge a percentile follows the fastest or slowest moments
# of the host instead.  Whether a catalog has a positive cycle is fixed per
# size, so each stratum is homogeneous.
_PER_ROUND = {24: 1, 42: 3, 60: 4, 78: 4, 96: 1}
_POSITIVE = (42, 78)


class CatalogCheck(Workload):
    """derived_relations, derived_tau and check_bare_llspace on seeded
    catalogs with zero-length 2-cycles and, in two sizes of five, a positive
    cycle, as ``lorcone llcheck`` runs them."""

    name = "catalog_check"
    round_len = sum(_PER_ROUND.values())
    capacity = 260
    tail_pct = 75.0
    trace_ops = 10

    def generate(self, seed):
        rng = _rng(seed, 4)
        sizes = _rounds(rng, [n for n, k in _PER_ROUND.items() for _ in range(k)],
                        self.capacity)
        return None, [self._catalog(rng, n, n in _POSITIVE) for n in sizes]

    @staticmethod
    def _catalog(rng, n, positive):
        # zero 2-cycles join consecutive points (i, i+1) with i = 0 mod 3:
        # no other path links such a pair and no two pairs touch, so the
        # cycles stay at length zero
        starts = rng.choice(np.arange(0, n - 1, 3), size=max(2, n // 12), replace=False)
        zero = {(int(i), int(i) + 1) for i in starts}
        edges = []
        iu, ju = np.triu_indices(n, 1)
        keep = rng.uniform(size=iu.size) < 0.3
        zero_len = rng.uniform(size=iu.size) < 0.2
        lengths = rng.uniform(0.1, 2.0, size=iu.size)
        timelike = rng.uniform(size=iu.size) < 0.5
        for i, j, k, z, length, tl in zip(iu, ju, keep, zero_len, lengths, timelike):
            if k and (i, j) not in zero:
                length = 0.0 if z else float(length)
                edges.append((int(i), int(j), length, bool(tl and length > 0)))
        for i, j in sorted(zero):
            edges.append((i, j, 0.0, False))
            edges.append((j, i, 0.0, False))
        if positive:
            # a positive 2-cycle late in the order keeps the infinite region small
            j = int(rng.integers(n - n // 4, n))
            i = int(rng.integers(n - n // 4 - 3, j))
            edges.append((i, j, float(rng.uniform(0.1, 1.0)), False))
            edges.append((j, i, float(rng.uniform(0.1, 1.0)), False))
        return n, edges

    def build(self, context):
        return None

    def warmup(self, state):
        rng = np.random.default_rng(0)
        self.run(state, self._catalog(rng, 24, positive=True))

    def run(self, state, op):
        n, edges = op
        names = [f"p{i}" for i in range(n)]
        cat = lorcone.CurveCatalog(
            names, [(names[i], names[j], length, "timelike" if tl else "causal")
                    for i, j, length, tl in edges])
        rel = lorcone.derived_relations(cat)
        tt = lorcone.derived_tau(cat)
        return rel, tt, lorcone.check_bare_llspace(cat)

    def check(self, op, out):
        n, edges = op
        rel, tt, verdict = out
        if not verdict.ok:
            return f"check_bare_llspace failed: {verdict.failures[:3]}"
        reach, values, infinite = oracles.catalog_longest_paths(
            n, [(i, j, length) for i, j, length, _ in edges])
        if not np.array_equal(rel.le, reach):
            return "causal relation differs from graph reachability"
        if not np.array_equal(tt.infinite, infinite):
            return "infinite pairs differ from the condensation DP"
        err = float(np.max(np.abs(np.where(infinite, 0.0, tt.values - values))))
        if err > 1e-9:
            return f"derived_tau differs from the condensation DP by {err:.3g}"
        return None

    def digest_lines(self, out):
        _, tt, verdict = out
        return [sha256_lines("%.9g" % v for v in tt.values.ravel())
                + " %d %d" % (int(tt.infinite.sum()), verdict.triples_checked)]

    def mix(self, context, ops):
        counts = Counter()
        for n, edges in ops:
            counts[f"n{n}"] += 1
            counts["positive_cycle"] += any(a > b and w > 0.0 for a, b, w, _ in edges)
            counts["zero_2cycle"] += any(a > b and w == 0.0 for a, b, w, _ in edges)
        return counts


WORKLOADS = {w.name: w for w in (TauCold(), GeodesicSampled(), CertifyMixed(), CatalogCheck())}
