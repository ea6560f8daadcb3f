#!/usr/bin/env python3
"""Closed-loop benchmark of lorcone: one process, one client, no threads.

    python3 benchmark/run.py --workload tau_cold --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1

Each operation is issued only after the previous one returned.  With
``--trace 0`` the run measures for ``--seconds`` and prints the end-to-end
metrics; with ``--trace 1`` it runs a fixed prefix of the same operations
untraced and then traced, and prints the per-layer metrics.  Every output is
checked against an independent route after timing.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See benchmark/README.md for the workloads.
"""

import os
import sys
import time

# Load discipline: BLAS / OpenMP pools pinned to one thread and lorcone's own
# certification threads off, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LORCONE_THREADS", None)

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOAD_NAMES = ("tau_cold", "geodesic_sampled", "certify_mixed", "catalog_check")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Host-speed calibration.  The shared host's core speed drifts by 20-35 %
# over tens of seconds, so run-level wall times move by that much from run to
# run.  A fixed calibration slice runs once per CAL_EVERY_S of measured time,
# spread evenly through the run; the timing metrics are scaled to a host on
# which one slice takes CAL_REF_S.  Raw wall-clock values are printed too.
CAL_EVERY_S = 0.02
CAL_REF_S = 1e-3

lorcone = None   # imported from src/ by import_library

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit): counts and times from the spans, then derived ratios
PER_LAYER = (
    ("warp.eval.calls", "count"), ("warp.eval.points", "count"), ("warp.eval.self_s", "s"),
    ("warp.nt_build.calls", "count"), ("warp.nt_build.incl_s", "s"),
    ("warp.F.calls", "count"), ("warp.F.incl_s", "s"),
    ("warp.h.calls", "count"), ("warp.h.incl_s", "s"),
    ("warp.extremum.calls", "count"), ("warp.extremum.self_s", "s"),
    ("fiber.distance.calls", "count"), ("fiber.distance.self_s", "s"),
    ("fiber.geodesic_point.calls", "count"), ("fiber.geodesic_point.self_s", "s"),
    ("cone.relate.calls", "count"), ("cone.relate.self_s", "s"), ("cone.relate.incl_s", "s"),
    ("cone.tau.calls", "count"), ("cone.tau.self_s", "s"),
    ("cone.nt_reuse_ratio", "ratio"),
    ("cone.maximizer.calls", "count"), ("cone.maximizer.incl_s", "s"),
    ("cone.point_on_maximizer.calls", "count"), ("cone.point_on_maximizer.incl_s", "s"),
    ("cone.geodesic.calls", "count"), ("cone.geodesic.self_s", "s"),
    ("cone.geodesic.incl_s", "s"), ("cone.path_length.incl_s", "s"),
    ("lorentz_model.model_tau.calls", "count"), ("lorentz_model.model_tau.incl_s", "s"),
    ("lorentz_model.realize.calls", "count"), ("lorentz_model.realize.incl_s", "s"),
    ("lorentz_model.corresponding_point.calls", "count"),
    ("lorentz_model.corresponding_point.incl_s", "s"),
    ("comparison.certify.incl_s", "s"), ("comparison.lift.incl_s", "s"),
    ("comparison.compare.self_s", "s"), ("comparison.compare.incl_s", "s"),
    ("comparison.lift_accept_ratio", "ratio"),
    ("llstructure.derived_tau.incl_s", "s"), ("llstructure.derived_relations.incl_s", "s"),
    ("llstructure.check.self_s", "s"), ("llstructure.triples_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import lorcone from this checkout's src/."""
    global lorcone
    if not (SRC / "lorcone" / "__init__.py").is_file():
        sys.exit(f"error: no lorcone sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import lorcone


def import_seconds(speed):
    """Median time to import lorcone in ``IMPORT_REPEATS`` fresh interpreters,
    run one after another, each covered by calibration slices.  A process
    imports only once, and the IQR of a single import over ten runs was 20 to
    30 % of its median."""
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
             "start = time.perf_counter(); import lorcone; "
             "print(time.perf_counter() - start)")
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", probe, str(SRC)],
                              stdout=subprocess.PIPE, text=True, check=True)
        times.append(float(proc.stdout))
        speed.cover(times[-1])
    return statistics.median(times)


def machine():
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"machine: nproc={os.cpu_count()} cpu={cpu!r} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__}")


def tail(latencies, highest=TAIL_PERCENTILES[0]):
    """(percentile, value, beyond): the highest listed percentile up to
    ``highest`` (nearest rank) with at least ten operations beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if pct <= highest and (n - rank >= 10 or pct == TAIL_PERCENTILES[-1]):
            return pct, ordered[rank - 1], n - rank
    raise AssertionError("unreachable")


class HostSpeed:
    """Calibration slices interleaved with measured work.

    ``cover(seconds)`` runs one slice per ``CAL_EVERY_S`` of measured time;
    ``factor`` is the mean slice time over ``CAL_REF_S``: above 1 on a host
    slower than the reference.  The slice mixes the small numpy calls and
    scalar float arithmetic that dominate lorcone's own time.
    """

    def __init__(self):
        import numpy
        self._np = numpy
        self._x = numpy.linspace(0.1, 1.0, 32)
        self.owed = 0.0
        self.total = 0.0
        self.count = 0

    def _slice(self):
        np, x = self._np, self._x
        start = time.perf_counter()
        acc = 0.0
        for i in range(120):
            acc += float(np.sum(1.0 / np.cosh(x * (i * 1e-3))))
            acc += math.sqrt(i + 1.0) * math.log(i + 2.0)
        return time.perf_counter() - start

    def cover(self, seconds):
        self.owed += seconds
        while self.owed >= CAL_EVERY_S:
            self.owed -= CAL_EVERY_S
            self.total += self._slice()
            self.count += 1

    @property
    def factor(self):
        if not self.count:
            self.total, self.count = self._slice(), 1
        return self.total / self.count / CAL_REF_S


def set_up(wl, context, speed):
    """Build objects and warm up ``SETUP_REPEATS`` times; (state, median s)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = wl.build(context)
        wl.warmup(state)
        times.append(time.perf_counter() - start)
        speed.cover(times[-1])
    return state, statistics.median(times)


def call(wl, state, op, errors):
    """One operation; a LorconeError is recorded and yields None."""
    try:
        return wl.run(state, op)
    except lorcone.LorconeError as exc:
        errors.append(f"{type(exc).__name__}: {exc}")
        return None


def timed_run(wl, context, ops, state, seconds, speed):
    """Closed loop for ``seconds`` of busy time (the sum of operation
    latencies), extended to the end of the current round so that the run
    holds the workload's mix exactly, and for workloads with
    ``tail_repeats`` above 1 until every input ran that many times.  When
    the generated inputs run out they repeat against freshly built objects
    (untimed), so no repeat is served from a cache the first pass filled."""
    latencies, outs, errors = [], [], []
    clock = time.perf_counter
    busy = 0.0
    i = 0
    least = len(ops) * wl.tail_repeats if wl.tail_repeats > 1 else 0
    while True:
        k = i % len(ops)
        if k == 0 and i:
            state = wl.build(context)
        n_err = len(errors)
        t0 = clock()
        out = call(wl, state, ops[k], errors)
        latency = clock() - t0
        latencies.append(latency)
        outs.append(None if len(errors) > n_err else out)
        busy += latency
        speed.cover(latency)
        i += 1
        if busy >= seconds and i % wl.round_len == 0 and i >= least:
            return latencies, outs, errors, busy


def tail_latencies(wl, n_inputs, latencies):
    """Per input that ran at least ``wl.tail_repeats`` times, the fastest of
    its first ``tail_repeats`` executions; with one repeat, simply the
    latency of each input's first execution."""
    runs = [latencies[k::n_inputs][:wl.tail_repeats] for k in range(n_inputs)]
    return [min(r) for r in runs if len(r) == wl.tail_repeats]


def check_outputs(wl, ops, outs):
    """Oracle-check each distinct input once; repeats must reproduce the
    first output's digest.  Returns (failed op count, first reasons)."""
    reasons, first_digest, failed = [], {}, 0
    verdict = {}
    for i, out in enumerate(outs):
        k = i % len(ops)
        if out is None:
            failed += 1
            continue
        if k not in verdict:
            verdict[k] = wl.check(ops[k], out)
            first_digest[k] = wl.digest_lines(out)
            reason = verdict[k]
        else:
            reason = verdict[k] or (None if wl.digest_lines(out) == first_digest[k]
                                    else "repeated input gave a different output")
        if reason is not None:
            failed += 1
            reasons.append(f"op {k}: {reason}")
    return failed, reasons


def digest(wl, outs, count):
    import workloads
    lines = [line for out in outs[:count] if out is not None for line in wl.digest_lines(out)]
    return workloads.sha256_lines(lines)


def metric_block(values, units):
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def end_to_end(wl, context, ops, seconds):
    setup_speed = HostSpeed()
    import_s = import_seconds(setup_speed)
    state, setup_median = set_up(wl, context, setup_speed)
    run_speed = HostSpeed()
    latencies, outs, errors, busy = timed_run(wl, context, ops, state, seconds, run_speed)
    failed, reasons = check_outputs(wl, ops, outs)
    n = len(latencies)
    per_input = tail_latencies(wl, len(ops), latencies)
    pct, tail_value, beyond = tail(per_input, wl.tail_pct)
    raw = {
        "setup_s": import_s + setup_median,
        "ops_per_s": n / busy,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_value,
    }
    f_setup, f_run = setup_speed.factor, run_speed.factor
    values = {
        "setup_s": raw["setup_s"] / f_setup,
        "ops_per_s": raw["ops_per_s"] * f_run,
        "latency_p50_ms": raw["latency_p50_ms"] / f_run,
        "latency_tail_ms": raw["latency_tail_ms"] / f_run,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"workload {wl.name}: {n} ops in {busy:.3f} s busy (closed loop, 1 client)")
    print(f"  setup: median of {IMPORT_REPEATS} imports {import_s:.4f} s + "
          f"median of {SETUP_REPEATS} builds "
          f"{setup_median:.4f} s")
    print(f"  host speed factor (calibration slice / {1e3 * CAL_REF_S:g} ms): "
          f"set-up {f_setup:.4f} over {setup_speed.count} slices, "
          f"run {f_run:.4f} over {run_speed.count} slices")
    print("  raw wall-clock: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    print(f"  latency_tail_ms is p{pct:g} over {len(per_input)} inputs, each the fastest "
          f"of its first {wl.tail_repeats} run(s): {beyond} inputs beyond it")
    print(f"  failed_frac = {failed / n:.6g} ({failed} of {n}; "
          f"{len(errors)} raised LorconeError)")
    count = min(wl.trace_ops, n)
    print(f"  output digest of the first {count} ops: sha256 {digest(wl, outs, count)}")
    for line in (errors + reasons)[:5]:
        print(f"  failure: {line}")
    for name, unit in END_TO_END:
        print(f"  {name:<16} {values[name]:.6g} {unit}")
    return n, failed, metric_block(values, END_TO_END)


def traced(wl, context, ops):
    import tracing
    count = wl.trace_ops
    prefix = ops[:count]
    wl.warmup(wl.build(context))
    state = wl.build(context)
    start = time.perf_counter()
    for op in prefix:
        call(wl, state, op, [])
    untraced_s = time.perf_counter() - start

    tracer = tracing.Tracer()
    state = wl.build(context)
    outs, errors = [], []
    start = time.perf_counter()
    with tracing.instrument(tracer):
        for k, op in enumerate(prefix):
            tracer.op = k
            n_err = len(errors)
            out = call(wl, state, op, errors)
            outs.append(None if len(errors) > n_err else out)
    traced_s = time.perf_counter() - start
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"trace-{wl.name}.npz")

    failed, reasons = check_outputs(wl, prefix, outs)
    totals = tracing.layer_totals(tracer)
    values = {}
    fields = {"calls": 0, "self_s": 1, "incl_s": 2}
    for name, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in fields:
            values[name] = totals.get(layer, (0, 0.0, 0.0))[fields[field]]
    values["warp.eval.points"] = tracer.points
    bases = len(tracer.relate_bases)
    values["cone.nt_reuse_ratio"] = (1.0 - values["warp.nt_build.calls"] / bases) if bases else 0.0
    reports = [o for o in outs if isinstance(o, lorcone.CurvatureReport)]
    tested = sum(r.triangles_tested for r in reports)
    drawn = tested + sum(sum(r.retry_counts.values()) + r.exhausted for r in reports)
    values["comparison.lift_accept_ratio"] = tested / drawn if drawn else 0.0
    triples = sum(o[-1].triples_checked for o in outs
                  if isinstance(o, tuple) and isinstance(o[-1], lorcone.LLVerdict))
    check_s = values["llstructure.check.self_s"]
    values["llstructure.triples_per_s"] = triples / check_s if check_s else 0.0
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0

    print(f"workload {wl.name}: traced run of the first {count} ops, "
          f"{len(tracer.name)} spans; untraced {untraced_s:.3f} s, traced {traced_s:.3f} s")
    print(f"  failed_frac = {failed / count:.6g} ({failed} of {count})")
    for line in (errors + reasons)[:5]:
        print(f"  failure: {line}")
    for name, unit in PER_LAYER:
        share = f"  ({100.0 * values[name] / traced_s:.1f}% of traced wall)" if unit == "s" else ""
        print(f"  {name:<42} {values[name]:.6g} {unit}{share}")
    return count, failed, metric_block(values, PER_LAYER)


def run_all(args):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    return combined


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        import_library()
        import workloads
        print(machine())
        wl = workloads.WORKLOADS[args.workload]
        context, ops = wl.generate(args.seed)
        if args.trace:
            attempted, failed, metrics = traced(wl, context, ops)
        else:
            attempted, failed, metrics = end_to_end(wl, context, ops, args.seconds)
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
