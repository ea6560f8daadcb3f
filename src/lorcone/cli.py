"""Command-line front end.

Subcommands: ``tau`` (time separation and relation of two points),
``geodesic`` (sampled maximizer to CSV), ``certify`` (curvature-bound
report), ``singularity`` (warp-level singularity verdicts), ``llcheck``
(curve-catalog checks) and ``selftest`` (the acceptance suite).

Exit codes: 0 success/consistent, 2 violation/falsified, 1 error.  Errors
print machine-parsable ``error: ...`` lines on stderr.  Points are written
``t;fiber_coords`` with a semicolon separating the base time.  All floats
print with 9 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from .comparison import SamplingSpec, certify_bound
from .cone import GeneralizedCone
from .errors import ConfigError, LorconeError
from .fiber import (Circle, EuclideanN, Hyperbolic2, MetricGraph, RealLine,
                    Sphere2)
from .llstructure import CurveCatalog, check_bare_llspace, derived_tau
from .warp import WarpSpec, singularity_report

_WARP_FIELDS = {
    "constant": {"c"},
    "identity": {"amplitude"},
    "power": {"p", "amplitude"},
    "sin": {"amplitude", "rate"},
    "cos": {"amplitude", "rate"},
    "cosh": {"amplitude", "rate"},
    "exp": {"amplitude", "rate"},
    "sampled": {"samples", "interpolation"},
}

_FIBER_FIELDS = {
    "real_line": set(),
    "euclidean": {"n"},
    "circle": {"radius"},
    "sphere2": {"radius"},
    "hyperbolic2": {"radius"},
    "graph": {"edges", "vertex_sample_weight"},
}


def _parse_extended(value, path):
    if isinstance(value, str):
        if value == "inf":
            return math.inf
        if value == "-inf":
            return -math.inf
        raise ConfigError(f"expected number or 'inf'/'-inf', got {value!r}", path)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"expected number, got {value!r}", path)


def _require_keys(obj, allowed, required, path):
    if not isinstance(obj, dict):
        raise ConfigError("expected an object", path)
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown field {key!r}", path)
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing field {key!r}", path)


@dataclass(frozen=True)
class ConeConfig:
    """Validated cone configuration; builds the GeneralizedCone on demand."""
    interval: tuple
    warp_kind: str
    warp_params: dict
    fiber_kind: str
    fiber_params: dict
    tolerances: dict
    seed: int

    def build_warp(self) -> WarpSpec:
        a, b = self.interval
        kw = dict(self.warp_params)
        if "quadrature" in self.tolerances:
            kw["quad_tol"] = self.tolerances["quadrature"]
        try:
            if self.warp_kind == "sampled":
                samples = kw.pop("samples")
                return WarpSpec.sampled(samples, interval=(a, b), **kw)
            return WarpSpec(a, b, self.warp_kind, **kw)
        except LorconeError as exc:
            raise ConfigError(str(exc), "warp") from exc

    def build_fiber(self):
        kw = dict(self.fiber_params)
        try:
            if self.fiber_kind == "real_line":
                return RealLine()
            if self.fiber_kind == "euclidean":
                return EuclideanN(kw["n"])
            if self.fiber_kind == "circle":
                return Circle(kw.get("radius", 1.0))
            if self.fiber_kind == "sphere2":
                return Sphere2(kw.get("radius", 1.0))
            if self.fiber_kind == "hyperbolic2":
                return Hyperbolic2(kw.get("radius", 1.0))
            if self.fiber_kind == "graph":
                return MetricGraph.from_text(
                    kw["edges"],
                    vertex_sample_weight=kw.get("vertex_sample_weight", 0.25))
        except LorconeError as exc:
            raise ConfigError(str(exc), "fiber") from exc
        raise ConfigError(f"unknown fiber kind {self.fiber_kind!r}", "fiber.kind")

    def build_cone(self) -> GeneralizedCone:
        return GeneralizedCone(
            self.build_warp(), self.build_fiber(),
            null_tol=self.tolerances.get("null_boundary", 1e-9),
            solver_tol=self.tolerances.get("solver", 1e-9))


def parse_config(text: str) -> ConeConfig:
    """Parse and validate a JSON cone configuration; unknown fields rejected."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    _require_keys(doc, {"interval", "warp", "fiber", "tolerances", "seed"},
                  {"interval", "warp", "fiber"}, "")
    _require_keys(doc["interval"], {"a", "b"}, {"a", "b"}, "interval")
    a = _parse_extended(doc["interval"]["a"], "interval.a")
    b = _parse_extended(doc["interval"]["b"], "interval.b")
    if not a < b:
        raise ConfigError(f"empty interval ({a}, {b})", "interval")

    warp = doc["warp"]
    if not isinstance(warp, dict) or "kind" not in warp:
        raise ConfigError("missing field 'kind'", "warp")
    kind = warp["kind"]
    if kind not in _WARP_FIELDS:
        raise ConfigError(f"unknown warp kind {kind!r}", "warp.kind")
    _require_keys(warp, _WARP_FIELDS[kind] | {"kind"}, {"kind"}, "warp")
    warp_params = {}
    for key, val in warp.items():
        if key == "kind":
            continue
        if key == "samples":
            if (not isinstance(val, list) or
                    any(not isinstance(s, list) or len(s) != 2 for s in val)):
                raise ConfigError("samples must be a list of [t, f] pairs",
                                  "warp.samples")
            warp_params[key] = [(float(s[0]), float(s[1])) for s in val]
        elif key == "interpolation":
            warp_params[key] = str(val)
        else:
            warp_params[key] = _parse_extended(val, f"warp.{key}")

    fib = doc["fiber"]
    if not isinstance(fib, dict) or "kind" not in fib:
        raise ConfigError("missing field 'kind'", "fiber")
    fkind = fib["kind"]
    if fkind not in _FIBER_FIELDS:
        raise ConfigError(f"unknown fiber kind {fkind!r}", "fiber.kind")
    _require_keys(fib, _FIBER_FIELDS[fkind] | {"kind"}, {"kind"}, "fiber")
    fiber_params = {}
    for key, val in fib.items():
        if key == "kind":
            continue
        if key == "n":
            fiber_params[key] = int(val)
        elif key == "edges":
            fiber_params[key] = str(val)
        else:
            fiber_params[key] = _parse_extended(val, f"fiber.{key}")

    tolerances = doc.get("tolerances", {})
    _require_keys(tolerances, {"quadrature", "null_boundary", "solver", "report"},
                  set(), "tolerances")
    tolerances = {k: _parse_extended(v, f"tolerances.{k}")
                  for k, v in tolerances.items()}
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed must be an integer", "seed")

    cfg = ConeConfig((a, b), kind, warp_params, fkind, fiber_params,
                     tolerances, seed)
    cfg.build_cone()   # surface semantic errors (positivity, connectivity) now
    return cfg


def parse_point(cone: GeneralizedCone, text: str):
    """Point syntax: ``t;fiber_coords`` (semicolon separates the base time)."""
    if ";" not in text:
        raise ConfigError(f"point {text!r} must look like 't;coords'")
    t_str, rest = text.split(";", 1)
    return cone.point(float(t_str), cone.fiber.parse_point(rest))


def _fmt(x):
    return "%.9g" % x


def _cmd_tau(cone, args):
    p = parse_point(cone, args.p)
    q = parse_point(cone, args.q)
    verdict = cone.relate(p, q)
    tau = cone.time_separation(p, q)
    print(f"tau = {_fmt(tau)}")
    print(f"relation = {verdict.relation}")
    if verdict.null_param is not None:
        print(f"fiber_distance = {_fmt(verdict.fiber_distance)}")
        print(f"null_parameter = {_fmt(verdict.null_param)}")
        print(f"forward_horizon = {_fmt(verdict.horizon)}")
    return 0


def _cmd_geodesic(cone, args):
    p = parse_point(cone, args.p)
    q = parse_point(cone, args.q)
    path = cone.maximizing_geodesic(p, q, args.samples)
    cone.export_path_csv(path, args.out)
    print(f"samples = {args.samples}")
    print(f"length = {_fmt(cone.path_length(path))}")
    print(f"classification = {cone.classify_path(path)}")
    print(f"wrote {args.out}")
    return 0


def _cmd_certify(cone, cfg, args):
    spec = SamplingSpec(n_triangles=args.n, seed=cfg.seed,
                        pair_samples=args.pair_samples)
    report = certify_bound(cone, args.K, args.dir, spec,
                           report_tol=cfg.tolerances.get("report", 1e-5))
    report.to_csv(args.out)
    print(report.summary())
    print(f"wrote {args.out}")
    return 2 if report.verdict == "violated" else 0


def _cmd_singularity(cone, args):
    rep = singularity_report(cone.warp, args.K)
    print(f"lower_bound_K_consistent = {rep.lower_bound_K_consistent}")
    print(f"interval_finite = a:{rep.a_finite} b:{rep.b_finite}")
    print(f"tau_diameter_bound = {_fmt(rep.tau_diameter_bound)}")
    print(f"big_bang = {rep.big_bang}")
    print(f"big_crunch = {rep.big_crunch}")
    upper = rep.upper_bound_possible
    print(f"upper_bound_possible = {'inconclusive' if upper is None else upper}")
    for v in rep.verdicts:
        print(f"verdict: {v}")
    return 0


def _cmd_llcheck(args):
    with open(args.catalog) as fh:
        catalog = CurveCatalog.from_text(fh.read())
    verdict = check_bare_llspace(catalog)
    tt = derived_tau(catalog)
    print(f"points = {catalog.n}")
    print(f"curves = {len(catalog.curves)}")
    print(f"pairs_checked = {verdict.pairs_checked}")
    print(f"triples_checked = {verdict.triples_checked}")
    print(f"infinite_pairs = {int(tt.infinite.sum())}")
    if verdict.ok:
        print("verdict: all bare Lorentzian length space checks pass")
        return 0
    for fail in verdict.failures:
        print(f"failure: {' '.join(str(f) for f in fail)}")
    return 2


def _cmd_selftest(args):
    from . import acceptance
    ok = acceptance.run_all(quick=args.quick)
    return 0 if ok else 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lorcone",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="JSON cone configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tau = sub.add_parser("tau", help="time separation and causal relation")
    p_tau.add_argument("p", help="point: t;fiber_coords")
    p_tau.add_argument("q", help="point: t;fiber_coords")

    p_geo = sub.add_parser("geodesic", help="sampled maximizing geodesic to CSV")
    p_geo.add_argument("p")
    p_geo.add_argument("q")
    p_geo.add_argument("--out", default="geodesic.csv",
                       help="output CSV: columns t,<fiber coords>")
    p_geo.add_argument("--samples", type=int, default=129)

    p_cert = sub.add_parser("certify", help="sampled curvature-bound report")
    p_cert.add_argument("--K", type=float, required=True,
                        help="candidate bound K'")
    p_cert.add_argument("--dir", choices=("below", "above"), required=True)
    p_cert.add_argument("--n", type=int, default=100, help="triangles to sample")
    p_cert.add_argument("--pair-samples", type=int, default=4)
    p_cert.add_argument("--out", default="report.csv",
                        help="CSV: triangle,s_p,s_q,tau_cone,tau_model,gap,"
                             "violation,counted")

    p_sing = sub.add_parser("singularity", help="warp singularity verdicts")
    p_sing.add_argument("--K", type=float, required=True)

    p_ll = sub.add_parser("llcheck", help="curve-catalog length-structure checks")
    p_ll.add_argument("catalog", help="catalog file: 'curve from to length class'")

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument("--quick", action="store_true",
                        help="reduced sample counts")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "llcheck":
            return _cmd_llcheck(args)
        if args.command == "selftest":
            return _cmd_selftest(args)
        if not args.config:
            raise ConfigError(f"command {args.command!r} requires --config")
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        cone = cfg.build_cone()
        if args.command == "tau":
            return _cmd_tau(cone, args)
        if args.command == "geodesic":
            return _cmd_geodesic(cone, args)
        if args.command == "certify":
            return _cmd_certify(cone, cfg, args)
        if args.command == "singularity":
            return _cmd_singularity(cone, args)
        raise ConfigError(f"unknown command {args.command!r}")
    except LorconeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
