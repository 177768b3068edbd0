"""Outside-in tracing of the c2spider layers.

The tracer replaces the public functions and methods of every layer module
with counting, timing wrappers.  It never edits the package: wrappers are
installed by attribute assignment at run time, in every module and class
namespace that binds the original object, so a function imported by name
elsewhere (``clasp`` binds ``reduce_sum`` and friends) and a reflected alias
(``__rmul__ = __mul__``) go through the same wrapper.

Self time of a call is its duration minus the time spent in wrapped calls it
made.  Work done in private helpers lands in the self time of the public
function that called them.
"""

from __future__ import annotations

import importlib
import os
import time

# The layers are the package modules, by name.
LAYERS = ("ring", "web", "engine", "rules", "cache", "clasp", "cat", "tqft",
          "faithful", "cli")

# Workload -> layers whose public calls must be nonzero when it is traced.
EXERCISED = {
    "clasp-cold": ("ring", "web", "engine", "rules", "cache", "clasp", "cli"),
    "networks-warm": ("ring", "web", "engine", "rules", "cache", "clasp",
                      "cat", "tqft", "faithful"),
    "level-sweep": ("ring", "cat", "tqft", "faithful"),
}

# Arithmetic dunders are the public surface of the scalar classes.
_DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__"})

# Short names for the wrapped objects the per-layer metrics report.
# Every other public function is still wrapped and counts toward its layer's
# totals under its own qualified name.
ALIASES = {
    "ring.LaurentPoly.__mul__": "ring.laurent_mul",
    "ring.RationalFunction.__init__": "ring.rf_init",
    "ring.RationalFunction.__add__": "ring.rf_add",
    "ring.RationalFunction.__mul__": "ring.rf_mul",
    "ring.RationalFunction.__truediv__": "ring.rf_div",
    "ring.CycNumber.__init__": "ring.cyc_init",
    "ring.CycNumber.__mul__": "ring.cyc_mul",
    "ring.CycNumber.inverse": "ring.cyc_inverse",
    "ring.specialize": "ring.specialize",
    "web.Web.canonical_key": "web.canonical_key",
    "web.Web.faces": "web.faces",
    "web.compose": "web.compose",
    "web.plug": "web.plug",
    "engine.reduce_sum": "engine.reduce_sum",
    "engine.apply_face_rule": "engine.apply_face_rule",
    "engine.eval_closed": "engine.eval_closed",
    "engine.resolve_crossings": "engine.resolve_crossings",
    "engine.pair_closed": "engine.pair_closed",
    "engine.sum_is_zero": "engine.sum_is_zero",
    "cache.ClaspCache.get": "cache.get",
    "cache.ClaspCache.put": "cache.put",
    "clasp.clasp_expand": "clasp.clasp_expand",
    "clasp.expand_boxes": "clasp.expand_boxes",
    "clasp.prune_box_sum": "clasp.prune_box_sum",
    "cli.main": "cli.main",
    "rules.default_table": "rules.default_table",
    "cat.modular_data": "cat.modular_data",
    "cat.fusion": "cat.fusion",
    "cat.verlinde_multiplicity": "cat.verlinde_multiplicity",
    "tqft.statespace_dim": "tqft.statespace_dim",
    "tqft.mat_mul": "tqft.mat_mul",
    "faithful.certify_detection": "faithful.certify_detection",
}

# Extra per-call measurements: metric name -> (counter, fn(args, result)).
def _put_bytes(args, result):
    cache, key = args[0], args[1]
    return os.path.getsize(cache._path(key)) if cache.enabled else 0


_EXTRAS = {
    "engine.reduce_sum": ("terms_out", lambda args, result: len(result)),
    "engine.pair_closed": ("closed_evals", lambda args, result: len(args[0]) * len(args[1])),
    "cache.get": ("hits", lambda args, result: result is not None),
    "cache.put": ("bytes", _put_bytes),
}

# Per-layer metric names, in report order.  BENCHMARK.json lists the same.
PER_LAYER = []
for _name in ALIASES.values():
    if _name in ("web.plug", "engine.apply_face_rule", "engine.sum_is_zero"):
        PER_LAYER.append(f"{_name}.calls")
    elif _name in ("cli.main", "rules.default_table"):
        PER_LAYER.append(f"{_name}.self_s")
    else:
        PER_LAYER += [f"{_name}.calls", f"{_name}.self_s"]
PER_LAYER += ["engine.reduce_sum.terms_out", "engine.pair_closed.closed_evals",
              "cache.get.hits", "cache.get.hit_ratio", "cache.put.bytes"]
PER_LAYER += [f"{layer}.{m}" for layer in LAYERS for m in ("calls", "self_s")]
PER_LAYER += ["trace.overhead_frac", "trace.unaccounted_frac"]

# Metrics that must repeat exactly from run to run.
COUNT_SUFFIXES = (".calls", ".terms_out", ".closed_evals", ".hits", ".bytes")


def unit_of(metric: str) -> str:
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith((".hit_ratio", "_frac")):
        return "frac"
    return "count"


class Tracer:
    """Counting, timing wrappers over the public functions of each layer."""

    def __init__(self):
        self.enabled = False
        self.stats = {}        # name -> {"layer", "calls", "self_s", extras}
        self._stack = []       # time spent in wrapped children, per open call
        self._wrapped = {}     # id(original) -> (original, wrapper)
        self._bindings = []    # (namespace, attribute, wrapper)
        self._spaces = []      # every layer module and class namespace

    # -- installation ---------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"c2spider.{layer}")
                   for layer in LAYERS}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj)
                elif callable(obj):
                    self._wrap(f"{layer}.{name}", layer, obj)
        # rebind every namespace that holds an original, under any name
        spaces = list(modules.values())
        spaces += [c for m in modules.values() for c in vars(m).values()
                   if isinstance(c, type) and c.__module__ == m.__name__]
        self._spaces = spaces
        for space in spaces:
            for attr, value in list(vars(space).items()):
                func, kind = _unwrap_descriptor(value)
                hit = self._wrapped.get(id(func))
                if hit is not None and hit[0] is func:
                    setattr(space, attr, kind(hit[1]) if kind else hit[1])
                    self._bindings.append((space, attr, hit[1]))

    def _wrap_class(self, layer, cls):
        for name, value in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            if name == "__init__" and layer != "ring":
                continue
            func, _ = _unwrap_descriptor(value)
            if callable(func) and not isinstance(value, property):
                self._wrap(f"{layer}.{cls.__name__}.{name}", layer, func)

    def _wrap(self, qualname, layer, func):
        if id(func) in self._wrapped:     # an alias of something already wrapped
            return
        name = ALIASES.get(qualname, qualname)
        stat = self.stats.setdefault(name, {"layer": layer, "calls": 0, "self_s": 0.0})
        counter, extra = _EXTRAS.get(name, (None, None))
        if counter is not None:
            stat[counter] = 0
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat["self_s"] += elapsed - stack.pop()
                stat["calls"] += 1
                if stack:
                    stack[-1] += elapsed
            if extra is not None:
                stat[counter] += extra(args, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", qualname)
        self._wrapped[id(func)] = (func, wrapper)

    # -- self-check -------------------------------------------------------

    def coverage_errors(self, workload):
        """Names that still resolve to an unwrapped original, and layers the
        workload should exercise that made no call."""
        errors = [f"layer {layer} made no calls" for layer in EXERCISED[workload]
                  if not any(s["calls"] for s in self.stats.values() if s["layer"] == layer)]
        for space, attr, wrapper in self._bindings:
            func, _ = _unwrap_descriptor(vars(space)[attr])
            if func is not wrapper:
                errors.append(f"{_label(space)}.{attr} lost its wrapper")
        for space in self._spaces:
            for attr, value in vars(space).items():
                func, _ = _unwrap_descriptor(value)
                hit = self._wrapped.get(id(func))
                if hit is not None and hit[0] is func:
                    errors.append(f"{_label(space)}.{attr} is unwrapped")
        for alias in ALIASES.values():
            if alias not in self.stats:
                errors.append(f"{alias} was never wrapped")
        return errors

    # -- reporting --------------------------------------------------------

    def total_self(self) -> float:
        return sum(s["self_s"] for s in self.stats.values())

    def snapshot(self) -> dict:
        """Per-layer metrics (without the trace.* pair) and the full table."""
        out = {}
        for name in ALIASES.values():
            stat = self.stats[name]
            for key, value in stat.items():
                if key != "layer":
                    out[f"{name}.{key}"] = value
        get = self.stats["cache.get"]
        out["cache.get.hit_ratio"] = get["hits"] / get["calls"] if get["calls"] else 0.0
        for layer in LAYERS:
            out[f"{layer}.calls"] = sum(s["calls"] for s in self.stats.values()
                                        if s["layer"] == layer)
            out[f"{layer}.self_s"] = sum(s["self_s"] for s in self.stats.values()
                                         if s["layer"] == layer)
        return out

    def table(self):
        return {name: {k: v for k, v in s.items() if k != "layer"}
                for name, s in self.stats.items() if s["calls"]}


def _unwrap_descriptor(value):
    if isinstance(value, staticmethod):
        return value.__func__, staticmethod
    if isinstance(value, classmethod):
        return value.__func__, classmethod
    return value, None


def _label(space):
    return getattr(space, "__qualname__", None) or space.__name__
