"""Per-layer tracing from outside the library.

``Tracing`` replaces the module-level names that each varifold-lab layer
calls through (``varifoldlab.metrics.linprog``, ``.distance_to_set``, ...)
with wrappers that record a span and work counts, and puts every original
back on exit. Library source is never edited. A name that a later version
of the library no longer has is skipped, and the layer metrics fed only by
missing names are reported as absent.

Spans nest per thread: each thread keeps its own stack, and tasks that
``run_scenario``'s per-k pool runs take the submitting span as parent. A
span's self time is its duration minus the union of its children's
intervals; counters are updated under a lock.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.spans = []  # (layer, start, end, span id, parent id, op key)
        self.counts = defaultdict(float)
        self.threads = 1
        self.op = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def note_threads(self, n):
        with self._lock:
            self.threads = max(self.threads, int(n))

    def call(self, layer, fn, args, kwargs):
        stack = self._stack()
        if any(entry[1] == layer for entry in stack):
            return fn(*args, **kwargs)  # re-entry into a layer is one span
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        parent = stack[-1][0] if stack else None
        stack.append((sid, layer))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((layer, t0, t1, sid, parent, self.op))

    def adopt(self, parent, fn, *args, **kwargs):
        """Run a pool task in this thread with ``parent`` as its parent span."""
        stack = self._stack()
        saved = stack[:]
        stack[:] = [parent] if parent is not None else []
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved


def _len(x):
    return len(x) if hasattr(x, "__len__") else 0


def _lp_counts(args, kwargs, res):
    c = np.asarray(args[0] if args else kwargs["c"])
    a_ub = kwargs.get("A_ub", args[1] if len(args) > 1 else None)
    ok = res.status == 0 and res.x is not None
    return {
        "metrics.bl_lp_calls": 1,
        "metrics.bl_lp_cols": c.size,
        "metrics.bl_lp_rows": 0 if a_ub is None else a_ub.shape[0],
        "metrics.bl_lp_iters": int(getattr(res, "nit", 0) or 0),
        "metrics.bl_lp_failed": 0 if ok else 1,
        "support": int((res.x > 1e-12).sum()) if ok else 0,
    }


def _distance_counts(args, kwargs, result):
    target = args[1] if len(args) > 1 else kwargs["target"]
    size = _len(getattr(target, "simplices", getattr(target, "points", ())))
    return {"sets.distance_calls": 1, "sets.distance_pairs": len(result) * size}


def _calls(metric):
    return lambda args, kwargs, result: {metric: 1}


def _pieces(args, kwargs, result):
    return {"unions.union_pieces": _len(args[0] if args else next(iter(kwargs.values())))}


BL_LAYERS = ("metrics.bl_dictionary", "metrics.bl_exact")


def _bl_layer(args, kwargs):
    method = kwargs.get("method", args[2] if len(args) > 2 else "exact")
    return BL_LAYERS[0] if method == "dictionary" else BL_LAYERS[1]


def _wrap(tracer, fn, layer, counts):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        name = layer(args, kwargs) if callable(layer) else layer
        result = tracer.call(name, fn, args, kwargs)
        if counts is not None:
            for key, n in counts(args, kwargs, result).items():
                tracer.count(key, n)
        return result
    return traced


def _traced_family_lookup(tracer, get_family, hook):
    """get_family whose families build their sets inside a span."""
    def lookup(name):
        fam = get_family(name)
        return dataclasses.replace(fam, make=_wrap(tracer, fam.make, hook.layer, None),
                                   limit=_wrap(tracer, fam.limit, hook.layer, None))
    return functools.wraps(get_family)(lookup)


def _traced_pool(tracer, base, hook):
    """The per-k pool class: records its size, and its tasks' spans get the
    submitting span as parent."""
    class TracedPool(base):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            tracer.note_threads(self._max_workers)

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.adopt, tracer.current(), fn, *args, **kwargs)
    return TracedPool


def _wrap_hook(tracer, fn, hook):
    return _wrap(tracer, fn, hook.layer, hook.counts)


@dataclasses.dataclass(frozen=True)
class Hook:
    """One patched name: ``layer`` is a layer name or a function of the call
    arguments; ``counts`` maps (args, kwargs, result) to counter increments;
    ``replace`` builds the replacement from (tracer, original, hook)."""

    module: str
    name: str
    layer: object
    counts: Optional[Callable] = None
    replace: Callable = _wrap_hook


HOOKS = (
    Hook("varifoldlab.metrics", "linprog", "metrics.bl_lp", _lp_counts),
    Hook("varifoldlab.metrics", "grassmann_distance_matrix", "geometry.grassmann_matrix",
         lambda a, k, r: {"geometry.grassmann_pairs": r.size}),
    Hook("varifoldlab.metrics", "distance_to_set", "sets.distance_to_set", _distance_counts),
    Hook("varifoldlab.quasimin", "distance_to_set", "sets.distance_to_set", _distance_counts),
    Hook("varifoldlab.sets", "restrict", "sets.restrict", _calls("sets.restrict_calls")),
    Hook("varifoldlab.metrics", "restrict", "sets.restrict", _calls("sets.restrict_calls")),
    Hook("varifoldlab.quasimin", "restrict", "sets.restrict", _calls("sets.restrict_calls")),
    Hook("varifoldlab.lab", "hausdorff_local", "metrics.hausdorff",
         _calls("metrics.hausdorff_calls")),
    Hook("varifoldlab.cli", "hausdorff_local_report", "metrics.hausdorff",
         _calls("metrics.hausdorff_calls")),
    Hook("varifoldlab.lab", "bl_distance", _bl_layer),
    Hook("varifoldlab.cli", "bl_distance", _bl_layer),
    Hook("varifoldlab.lab", "filling_check", "metrics.filling"),
    Hook("varifoldlab.quasimin", "triangles_union_measure", "unions.triangles_union", _pieces),
    Hook("varifoldlab.quasimin", "segments_union_measure", "unions.segments_union", _pieces),
    Hook("varifoldlab.metrics", "polygon_union_area", "unions.polygon_union", _pieces),
    Hook("varifoldlab.metrics", "interval_union_length", "unions.interval_union", _pieces),
    Hook("varifoldlab.quasimin", "qm_gap", "quasimin.qm_gap", _calls("quasimin.qm_gap_calls")),
    Hook("varifoldlab.quasimin", "make_deformation", "quasimin.make_deformation",
         lambda a, k, r: {"quasimin.skipped": int(r is None)}),
    Hook("varifoldlab.lab", "energy", "integrands.energy"),
    Hook("varifoldlab.integrands", "energy", "integrands.energy"),
    Hook("varifoldlab.cli", "semi_ellipticity_audit", "integrands.ellipticity_audit"),
    Hook("varifoldlab.lab", "var_of_set", "varifold.var_of_set",
         lambda a, k, r: {"varifold.atoms": len(r)}),
    Hook("varifoldlab.quasimin", "var_of_set", "varifold.var_of_set",
         lambda a, k, r: {"varifold.atoms": len(r)}),
    Hook("varifoldlab.integrands", "var_of_set", "varifold.var_of_set",
         lambda a, k, r: {"varifold.atoms": len(r)}),
    Hook("varifoldlab.lab", "get_family", "scenarios.make", replace=_traced_family_lookup),
    Hook("varifoldlab.lab", "run_scenario", "lab.run_scenario"),
    Hook("varifoldlab.lab", "ThreadPoolExecutor", "lab.pool", replace=_traced_pool),
    Hook("varifoldlab.cli", "main", "cli.main"),
)

# metric name -> (unit, layer whose hooks feed it)
LAYER_METRICS = {
    "metrics.bl_lp_s": ("s", "metrics.bl_lp"),
    "metrics.bl_lp_calls": ("count", "metrics.bl_lp"),
    "metrics.bl_lp_cols": ("count", "metrics.bl_lp"),
    "metrics.bl_lp_rows": ("count", "metrics.bl_lp"),
    "metrics.bl_lp_iters": ("count", "metrics.bl_lp"),
    "metrics.bl_lp_failed": ("count", "metrics.bl_lp"),
    "metrics.bl_lp_support_ratio": ("ratio", "metrics.bl_lp"),
    "geometry.grassmann_matrix_s": ("s", "geometry.grassmann_matrix"),
    "geometry.grassmann_pairs": ("count", "geometry.grassmann_matrix"),
    "sets.distance_to_set_s": ("s", "sets.distance_to_set"),
    "sets.distance_calls": ("count", "sets.distance_to_set"),
    "sets.distance_pairs": ("count", "sets.distance_to_set"),
    "sets.restrict_s": ("s", "sets.restrict"),
    "sets.restrict_calls": ("count", "sets.restrict"),
    "metrics.hausdorff_self_s": ("s", "metrics.hausdorff"),
    "metrics.hausdorff_calls": ("count", "metrics.hausdorff"),
    "metrics.bl_dictionary_s": ("s", "metrics.bl_dictionary"),
    "metrics.filling_s": ("s", "metrics.filling"),
    "unions.triangles_union_s": ("s", "unions.triangles_union"),
    "unions.segments_union_s": ("s", "unions.segments_union"),
    "unions.polygon_union_s": ("s", "unions.polygon_union"),
    "unions.interval_union_s": ("s", "unions.interval_union"),
    "unions.union_pieces": ("count", "unions"),  # any of the four union layers
    "quasimin.qm_gap_self_s": ("s", "quasimin.qm_gap"),
    "quasimin.qm_gap_calls": ("count", "quasimin.qm_gap"),
    "quasimin.make_deformation_s": ("s", "quasimin.make_deformation"),
    "quasimin.skipped": ("count", "quasimin.make_deformation"),
    "integrands.energy_s": ("s", "integrands.energy"),
    "integrands.ellipticity_audit_s": ("s", "integrands.ellipticity_audit"),
    "varifold.var_of_set_s": ("s", "varifold.var_of_set"),
    "varifold.atoms": ("count", "varifold.var_of_set"),
    "scenarios.make_s": ("s", "scenarios.make"),
    "lab.run_scenario_self_s": ("s", "lab.run_scenario"),
    "lab.threads": ("count", "lab.pool"),
    "cli.main_self_s": ("s", "cli.main"),
}

# counts that must repeat exactly from pass to pass and run to run
DETERMINISTIC = ("metrics.bl_lp_iters", "metrics.bl_lp_cols", "sets.distance_pairs",
                 "unions.union_pieces", "quasimin.qm_gap_calls")


class Tracing:
    """Context manager: install every hook on entry, restore on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved = []
        self.present = set()

    def __enter__(self):
        try:
            for hook in HOOKS:
                module = importlib.import_module(hook.module)
                original = getattr(module, hook.name, None)
                if original is None:
                    continue
                replacement = hook.replace(self.tracer, original, hook)
                self.saved.append((module, hook.name, original))
                setattr(module, hook.name, replacement)
                names = BL_LAYERS if callable(hook.layer) else (hook.layer,)
                self.present.update(names)
                self.present.update(name.split(".")[0] for name in names)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self.saved:
            module, name, original = self.saved.pop()
            setattr(module, name, original)
        return False

    def absent(self) -> list:
        """Metric names none of whose hooks could be installed."""
        return [m for m, (_, layer) in LAYER_METRICS.items() if layer not in self.present]


def self_times(spans) -> dict:
    """span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for layer, t0, t1, sid, parent, op in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for layer, t0, t1, sid, parent, op in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_values(tracer: Tracer) -> dict:
    """Per-layer metric values of one traced pass (absent ones included)."""
    selfs = self_times(tracer.spans)
    busy, own = defaultdict(float), defaultdict(float)
    for layer, t0, t1, sid, parent, op in tracer.spans:
        busy[layer] += t1 - t0
        own[layer] += selfs[sid]
    c = tracer.counts
    values = {}
    for metric, (unit, layer) in LAYER_METRICS.items():
        if metric.endswith("_self_s"):
            values[metric] = own[layer]
        elif unit == "s":
            values[metric] = busy[layer]
        else:
            values[metric] = c.get(metric, 0.0)
    cols = c.get("metrics.bl_lp_cols", 0.0)
    values["metrics.bl_lp_support_ratio"] = c.get("support", 0.0) / cols if cols else 0.0
    values["lab.threads"] = tracer.threads
    return values


def op_split(tracer: Tracer, op_key: str, layer: str):
    """(time in ``layer``, busy time) of one operation of a traced pass;
    busy time is the summed self time of all its spans, across threads."""
    selfs = self_times(tracer.spans)
    busy = sum(selfs[s[3]] for s in tracer.spans if s[5] == op_key)
    part = sum(s[2] - s[1] for s in tracer.spans if s[5] == op_key and s[0] == layer)
    return part, busy
