"""Spans around lorcone's public functions, recorded from outside the library.

``instrument`` swaps each traced function or method for a wrapper that
records one span per call (name, start, end, parent span, operation id) in
memory, and puts the originals back on exit.  ``layer_metrics`` turns the
spans into per-layer counts, self times and inclusive times.  A function
nested inside another span of its own name is counted as a call but adds no
inclusive time, so recursion is timed once, at its outermost span.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

from lorcone import comparison, cone, fiber, llstructure, lorentz_model, warp

# (layer name, owner, attribute).  Fiber methods are added per concrete class.
METHODS = (
    ("warp.eval", warp.WarpSpec, "__call__"),
    ("warp.nt_build", warp.NullTransport, "__init__"),
    ("warp.F", warp.NullTransport, "null_parameter"),
    ("warp.h", warp.NullTransport, "h_solve"),
    ("warp.extremum", warp.WarpSpec, "min_on"),
    ("warp.extremum", warp.WarpSpec, "max_on"),
    ("cone.relate", cone.GeneralizedCone, "relate"),
    ("cone.tau", cone.GeneralizedCone, "time_separation"),
    ("cone.maximizer", cone.GeneralizedCone, "maximizer"),
    ("cone.point_on_maximizer", cone.GeneralizedCone, "point_on_maximizer"),
    ("cone.geodesic", cone.GeneralizedCone, "maximizing_geodesic"),
    ("cone.path_length", cone.GeneralizedCone, "path_length"),
)
FUNCTIONS = (
    ("lorentz_model.model_tau", lorentz_model, "model_tau"),
    ("lorentz_model.realize", lorentz_model, "realize_timelike_triangle"),
    ("lorentz_model.corresponding_point", lorentz_model, "corresponding_point"),
    ("comparison.certify", comparison, "certify_bound"),
    ("comparison.lift", comparison, "lift_fiber_triangle"),
    ("comparison.compare", comparison, "compare_corresponding_points"),
    ("llstructure.derived_relations", llstructure, "derived_relations"),
    ("llstructure.derived_tau", llstructure, "derived_tau"),
    ("llstructure.check", llstructure, "check_bare_llspace"),
)


def _fiber_methods():
    for cls in vars(fiber).values():
        if isinstance(cls, type) and issubclass(cls, fiber.FiberSpace) \
                and cls is not fiber.FiberSpace:
            for attr in ("distance", "geodesic_point"):
                if attr in vars(cls):
                    yield f"fiber.{attr}", cls, attr


class Tracer:
    """In-memory span store; ``op`` tags spans with the running operation."""

    def __init__(self):
        self.layers = []
        self._layer_id = {}
        self.name, self.start, self.end, self.parent = [], [], [], []
        self.op_of, self.outermost = [], []
        self._stack = []
        self._depth = []
        self.op = -1
        self.points = 0           # elements passed to WarpSpec.__call__
        self.relate_bases = set()  # (op, cone, base time) reaching a transport

    def _id(self, layer):
        if layer not in self._layer_id:
            self._layer_id[layer] = len(self.layers)
            self.layers.append(layer)
            self._depth.append(0)
        return self._layer_id[layer]

    def wrap(self, layer, fn, on_enter=None):
        lid = self._id(layer)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        ops, outer, stack, depth = self.op_of, self.outermost, self._stack, self._depth
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            idx = len(names)
            names.append(lid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            outer.append(depth[lid] == 0)
            ends.append(0.0)
            depth[lid] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                depth[lid] -= 1

        return traced

    def _count_points(self, args):
        self.points += int(np.size(args[1]))

    def _note_relate(self, args):
        Y, p, q = args[:3]
        if p.t != q.t:
            self.relate_bases.add((self.op, id(Y), min(p.t, q.t)))

    def save(self, path):
        np.savez(path, layers=np.array(self.layers), name=np.array(self.name, np.int16),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, np.int64), op=np.array(self.op_of, np.int64))


@contextlib.contextmanager
def instrument(tracer):
    """Trace every layer function while the block runs."""
    hooks = {"warp.eval": tracer._count_points, "cone.relate": tracer._note_relate}
    undo = []
    for layer, owner, attr in METHODS + tuple(_fiber_methods()):
        original = vars(owner)[attr]
        setattr(owner, attr, tracer.wrap(layer, original, hooks.get(layer)))
        undo.append((owner, attr, original))
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "lorcone" or name.startswith("lorcone."))]
    for layer, module, attr in FUNCTIONS:
        original = getattr(module, attr)
        wrapped = tracer.wrap(layer, original)
        # rebind every module that imported the function by name
        for m in modules:
            if vars(m).get(attr) is original:
                setattr(m, attr, wrapped)
                undo.append((m, attr, original))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_totals(tracer):
    """{layer: (calls, self_s, incl_s)} from the recorded spans."""
    name = np.array(tracer.name, dtype=np.int64)
    dur = np.array(tracer.end) - np.array(tracer.start)
    parent = np.array(tracer.parent, dtype=np.int64)
    outer = np.array(tracer.outermost, dtype=bool)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_t = dur - child
    n = len(tracer.layers)
    calls = np.bincount(name, minlength=n)
    self_s = np.bincount(name, weights=self_t, minlength=n)
    incl_s = np.bincount(name[outer], weights=dur[outer], minlength=n)
    return {layer: (int(calls[i]), float(self_s[i]), float(incl_s[i]))
            for i, layer in enumerate(tracer.layers)}
