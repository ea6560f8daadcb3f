"""Determinism and contract tests of the benchmark itself.

    python3 -m pytest benchmark/
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = run.WORKLOAD_NAMES


def fingerprint(obj, h=None):
    """sha256 over the exact values of nested tuples, lists, floats and arrays."""
    top = h is None
    h = h or hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(obj.dtype.str.encode() + obj.tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"(%d" % len(obj))
        for item in obj:
            fingerprint(item, h)
    elif isinstance(obj, float):
        h.update(float.hex(obj).encode())
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else None


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs(name):
    wl = workloads.WORKLOADS[name]
    assert fingerprint(wl.generate(3)) == fingerprint(wl.generate(3))


@pytest.mark.parametrize("name", NAMES)
def test_capacity_is_whole_rounds(name):
    wl = workloads.WORKLOADS[name]
    assert wl.capacity % wl.round_len == 0 and wl.trace_ops <= wl.capacity


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_other_inputs(name):
    wl = workloads.WORKLOADS[name]
    assert fingerprint(wl.generate(3)) != fingerprint(wl.generate(4))


def _trace_counts(wl, context, ops):
    tracer = tracing.Tracer()
    state = wl.build(context)
    with tracing.instrument(tracer):
        for k, op in enumerate(ops):
            tracer.op = k
            wl.run(state, op)
    totals = tracing.layer_totals(tracer)
    return {layer: calls for layer, (calls, _, _) in totals.items()}, tracer.points


@pytest.mark.parametrize("name,count", [("tau_cold", 42), ("geodesic_sampled", 3),
                                        ("certify_mixed", 2), ("catalog_check", 2)])
def test_same_seed_same_layer_counts(name, count):
    wl = workloads.WORKLOADS[name]
    context, ops = wl.generate(5)
    first = _trace_counts(wl, context, ops[:count])
    assert first[0] and first == _trace_counts(wl, context, ops[:count])


def test_instrument_restores_originals():
    before = (workloads.lorcone.WarpSpec.__call__, workloads.lorcone.comparison.model_tau)
    with tracing.instrument(tracing.Tracer()):
        assert workloads.lorcone.WarpSpec.__call__ is not before[0]
    assert (workloads.lorcone.WarpSpec.__call__,
            workloads.lorcone.comparison.model_tau) == before


def test_tau_cold_mix():
    wl = workloads.WORKLOADS["tau_cold"]
    context, ops = wl.generate(6)
    # one round (20 classes, 33 weighted kind x fiber picks) holds the mix exactly
    mix = wl.mix(context, ops[:wl.round_len])
    assert (mix["timelike"], mix["near_null"], mix["not_related"], mix["past"]) == \
        (396, 99, 99, 66)
    assert all(mix[k] == 60 * workloads._KIND_WEIGHT[k] for k in workloads.KINDS)
    assert all(mix[f] == 220 for f in workloads.FIBERS)
    near = [op for op in ops[:wl.round_len] if op[3] == "near_null"]
    for _, kind, fiber, _, p0, x, q0, y in near:
        F = workloads.oracles.null_parameter_closed(kind, p0, q0)
        assert abs(workloads._fiber_distance(fiber, x, y) / F - 1.0) < 5e-7


def test_certify_mix():
    wl = workloads.WORKLOADS["certify_mixed"]
    mix = wl.mix(*wl.generate(6))
    assert set(mix) == {"H2", "tripod", "S2", "AdS"}
    assert mix["H2"] == mix["tripod"] == 2 * mix["S2"] == 2 * mix["AdS"]


def test_geodesic_mix():
    wl = workloads.WORKLOADS["geodesic_sampled"]
    context, ops = wl.generate(6)
    mix = wl.mix(context, ops[:12])
    assert mix["linear"] == mix["cubic"] == 6
    assert mix["R2"] == mix["S2"] == 6
    assert {k for k in mix if k.startswith("knots")} == \
        {f"knots{n}" for n in workloads._KNOTS}


def test_catalog_mix():
    wl = workloads.WORKLOADS["catalog_check"]
    mix = wl.mix(*wl.generate(6))
    assert {k for k in mix if k.startswith("n")} == {f"n{n}" for n in workloads._PER_ROUND}
    assert mix["zero_2cycle"] == wl.capacity
    rounds = wl.capacity // wl.round_len
    assert mix["positive_cycle"] == rounds * sum(workloads._PER_ROUND[n]
                                                 for n in workloads._POSITIVE)
    assert all(mix[f"n{n}"] == rounds * k for n, k in workloads._PER_ROUND.items())


def test_tail_percentile():
    pct, value, beyond = run.tail([float(i) for i in range(1, 301)])
    assert (pct, value, beyond) == (95.0, 285.0, 15)
    assert run.tail([1.0, 2.0, 3.0])[0] == 50.0
    assert run.tail([float(i) for i in range(1, 301)], 90.0)[:2] == (90.0, 270.0)


def test_tail_takes_each_inputs_fastest_run():
    class Repeats:
        tail_repeats = 2
    # three inputs, run in passes; input 2 ran only once and is left out
    latencies = [5.0, 1.0, 7.0, 4.0, 3.0]
    assert run.tail_latencies(Repeats, 3, latencies) == [4.0, 1.0]
    Repeats.tail_repeats = 1
    assert run.tail_latencies(Repeats, 3, latencies) == [5.0, 1.0, 7.0]


def test_host_speed_slices_follow_measured_time():
    speed = run.HostSpeed()
    speed.cover(0.5 * run.CAL_EVERY_S)
    assert speed.count == 0
    speed.cover(2.6 * run.CAL_EVERY_S)
    assert speed.count == 3 and speed.factor > 0.0


def test_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tau_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
