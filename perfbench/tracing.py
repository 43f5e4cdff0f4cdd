"""Span recorder for the traced benchmark run.

The program is not edited: `Instrumentation` rebinds every public
function of each layer module in all `pshlab.*` module namespaces that
hold it (so intra-module and cross-module calls are both seen), plus the
listed class methods, and restores the originals on exit.  Spans stay in
memory until `SpanRecorder.drain` writes them out after each traced
command.  Counts are read from the public return values of a few
functions.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

PKG = "pshlab"
LAYERS = ("cli", "field_grid", "potential_kit", "envelope_solver", "geometry",
          "ma_measure", "geodesic_legendre", "foliation_tube")

# (module, class, method names) traced in addition to module functions
METHODS = (
    ("geodesic_legendre", "GeodesicRay", ("u_values", "eval_u")),
    ("potential_kit", "Potential",
     ("value", "grad", "hessian", "holo2", "density", "sample", "chi",
      "chi_prime", "chi_second", "log_profile")),
)


class SpanRecorder:
    """In-memory spans (id, parent, request, name, start, end) and counts."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.request = 0
        self._stack = []

    def call(self, name, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self.request, name, start, end)

    def drain(self, fh) -> list:
        """Write the finished spans as CSV rows to `fh`, forget them and
        return them; call between requests, outside any timed region."""
        spans, self.spans = self.spans, []
        fh.writelines(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]:.9f},{s[5]:.9f}\n"
                      for s in spans)
        return spans


def _covered(intervals, lo, hi) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(spans) -> dict:
    """name -> {calls, self_s, total_s}.  Self time is a span's duration
    minus the part its child spans cover; total time counts only the
    outermost span of a name, so recursion is not counted twice."""
    children = defaultdict(list)
    by_id = {}
    for sid, parent, _, name, start, end in spans:
        by_id[sid] = (parent, name)
        children[parent].append((start, end))
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for sid, parent, _, name, start, end in spans:
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - _covered(children[sid], start, end)
        anc = parent
        while anc != -1 and by_id[anc][1] != name:
            anc = by_id[anc][0]
        if anc == -1:
            row["total_s"] += end - start
    return dict(out)


def merge(total: dict, table: dict) -> dict:
    """Add the rows of one aggregate table into another."""
    for name, row in table.items():
        acc = total.setdefault(name, {"calls": 0, "self_s": 0.0,
                                      "total_s": 0.0})
        for key, val in row.items():
            acc[key] += val
    return total


def _count_grid_envelope(counts, args, kwargs, res):
    counts["envelope_solver.grid_envelope.sweeps"] += res.iterations
    counts["envelope_solver.grid_envelope.warm"] += \
        kwargs.get("warm_start") is not None
    counts["envelope_solver.grid_envelope.residual_max"] = max(
        counts["envelope_solver.grid_envelope.residual_max"], res.residual)


def _count_trace_leaf(counts, args, kwargs, leaf):
    steps = len(leaf.t_samples) - 1
    counts["foliation_tube.trace_leaf.steps"] += steps
    counts["foliation_tube.trace_leaf.rhs_evals"] += 4 * steps  # RK4 stages


def _count_save_field(counts, args, kwargs, _):
    counts["field_grid.save_field.bytes"] += os.path.getsize(args[1])


COUNTERS = {"envelope_solver.grid_envelope": _count_grid_envelope,
            "foliation_tube.trace_leaf": _count_trace_leaf,
            "field_grid.save_field": _count_save_field}


def _wrap(rec: SpanRecorder, name: str, fn):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = rec.call(name, fn, args, kwargs)
        if counter is not None:
            counter(rec.counts, args, kwargs, result)
        return result

    return traced


def layer_functions() -> dict:
    """`layer.function` -> function object for every public function a
    layer module defines (imports from other modules excluded)."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PKG}.{layer}"]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                out[f"{layer}.{name}"] = obj
    return out


class Instrumentation:
    """Context manager that routes every layer call through `rec`."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self._undo = []

    def __enter__(self):
        funcs = layer_functions()
        wrapped = {id(fn): _wrap(self.rec, name, fn)
                   for name, fn in funcs.items()}
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith(PKG + ".") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, attr, obj, wrapped[id(obj)])
        for layer, cls_name, names in METHODS:
            cls = getattr(sys.modules[f"{PKG}.{layer}"], cls_name)
            for name in names:
                fn = vars(cls)[name]
                self._set(cls, name, fn,
                          _wrap(self.rec, f"{layer}.{cls_name}.{name}", fn))
        return self

    def _set(self, owner, attr, old, new):
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()
        return False
