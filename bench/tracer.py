"""In-memory span tracer that wraps fhkex's public functions from outside.

A span is recorded at each layer boundary: a call from one fhkex module into
a public function of another. Both ways of making such a call are covered.
A name imported from another layer (``experiments.key_prob`` is
``analysis.key_prob``) is rebound to the wrapper. A layer module held by
another module (``cli`` calls ``scenario.build_canonical_deployment``) is
replaced there by a view whose public functions are the wrappers. Functions
named in ``always`` are also traced when their own module calls them, so
that ``run_grid_point`` under ``sweep`` gets a span. Other calls inside one
layer go straight to the function and cost nothing.

A span holds the function, its parent span, start and end; the spans of one
operation share that operation's id. Spans are aggregated when their
operation ends; those of the first operation are kept and written out when
the benchmark ends. Nothing in fhkex is edited: a function that a later
change renames or removes is simply not found, and the metrics built on it
are reported as absent.
"""

from __future__ import annotations

import csv
import functools
import inspect
import os
import sys
import time
import types
from collections import defaultdict

LAYERS = ("scenario", "channel", "protocol", "adversary", "analysis", "experiments", "cli")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_bytes(path) -> int:
    if isinstance(path, (str, os.PathLike)):
        return os.path.getsize(path)
    raise TypeError("not a file path")


# Counters recorded at the same boundary as the span:
# function -> (args, kwargs, result) -> {counter: increment}.
COUNTERS = {
    "experiments.simulate_session_counts": lambda a, kw, r: {"slots": int(_arg(a, kw, 1, "n"))},
    "protocol.run_session": lambda a, kw, r: {"slots": r.n_rounds, "bits": len(r.key_bits)},
    "adversary.simulate_eavesdropper": lambda a, kw, r: {"rounds": len(r[0])},
    "protocol.write_transcript_csv": lambda a, kw, r: {"bytes": _file_bytes(_arg(a, kw, 1, "dest"))},
    "adversary.write_adversary_trace_csv": lambda a, kw, r: {"bytes": _file_bytes(_arg(a, kw, 3, "dest"))},
    "experiments.write_result_csv": lambda a, kw, r: {"bytes": _file_bytes(_arg(a, kw, 1, "dest"))},
    "experiments.read_result_csv": lambda a, kw, r: {"bytes": _file_bytes(_arg(a, kw, 0, "src"))},
}


class LayerView(types.ModuleType):
    """A layer module as other modules see it while traced: public functions wrapped."""

    def __init__(self, module, wrappers: dict):
        super().__init__(module.__name__, module.__doc__)
        self.__dict__.update(wrappers)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class OpStats:
    """Aggregates of one operation's spans."""

    def __init__(self):
        self.calls = defaultdict(int)  # function -> calls
        self.s = defaultdict(float)  # function -> inclusive seconds
        self.self_s = defaultdict(float)  # function -> seconds not covered by child spans
        self.nested = defaultdict(int)  # (parent function, child function) -> calls
        self.counters = defaultdict(int)  # "function.counter" -> total
        self.spans = 0


class Tracer:
    def __init__(self, always=()):
        self.always = frozenset(always)  # functions traced even when called from their own module
        self.names: list[str] = []  # function id -> "layer.function"
        self.wrapped: set[str] = set()  # every public layer function found
        self.broken_counters: set[str] = set()  # counters whose extractor no longer fits
        self.op_stats: list[OpStats] = []
        self.kept_spans: list[tuple] = []  # (op, span, parent, name, start, end) of operation 0
        self._spans: list[list] = []  # [fid, parent, start, end] of the current operation
        self._stack: list[int] = []
        self._counts = defaultdict(int)
        self._op = None

    def install(self, package_name: str = "fhkex") -> None:
        functions = {}  # id(function) -> (function, home module, "layer.function", wrapper)
        views = {}  # id(layer module) -> (module, view of it for other modules)
        for layer in LAYERS:
            mod = sys.modules.get(f"{package_name}.{layer}")
            if mod is None:
                continue
            wrappers = {}
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                qualname = f"{layer}.{name}"
                wrappers[name] = self._wrap(obj, qualname)
                functions[id(obj)] = (obj, mod, qualname, wrappers[name])
            views[id(mod)] = (mod, LayerView(mod, wrappers))
        modules = [
            m for key, m in list(sys.modules.items())
            if key == package_name or key.startswith(package_name + ".")
        ]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                layer, view = views.get(id(obj), (None, None))
                fn, home, qualname, wrapper = functions.get(id(obj), (None,) * 4)
                if layer is obj and obj is not mod:
                    setattr(mod, name, view)
                elif fn is obj and (mod is not home or qualname in self.always):
                    setattr(mod, name, wrapper)

    def _wrap(self, fn, qualname: str):
        fid = len(self.names)
        self.names.append(qualname)
        self.wrapped.add(qualname)
        spans, stack, counts = self._spans, self._stack, self._counts
        counter = COUNTERS.get(qualname)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [fid, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if counter is not None and qualname not in self.broken_counters:
                try:
                    for key, value in counter(args, kwargs, result).items():
                        counts[f"{qualname}.{key}"] += value
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    self.broken_counters.add(qualname)
            return result

        return wrapper

    def begin_op(self, op: int) -> None:
        self._op = op
        self._spans.clear()
        self._stack.clear()
        self._counts.clear()

    def end_op(self) -> OpStats:
        spans, names = self._spans, self.names
        stats = OpStats()
        child = [0.0] * len(spans)
        for fid, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (fid, parent, start, end) in enumerate(spans):
            name = names[fid]
            dur = end - start
            stats.calls[name] += 1
            stats.s[name] += dur
            stats.self_s[name] += dur - child[i]
            if parent >= 0:
                stats.nested[(names[spans[parent][0]], name)] += 1
        stats.counters.update(self._counts)
        stats.spans = len(spans)
        if self._op == 0:
            self.kept_spans = [
                (self._op, i, parent, names[fid], start, end)
                for i, (fid, parent, start, end) in enumerate(spans)
            ]
        self.op_stats.append(stats)
        self._spans.clear()
        return stats

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["op", "span", "parent", "name", "start_s", "end_s"])
            writer.writerows(self.kept_spans)
