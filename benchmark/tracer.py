"""Spans around the package's public functions, installed from outside.

Modules bind each other's functions with ``from .x import f``, so a function
is reached under several names (``gaussian.spectral_flatten``,
``entanglement.spectral_flatten``, ...).  The tracer wraps every such
binding: a span carries the name its caller looked up, and the per-layer
statistics add the spans up under the defining module's name.  scipy's
``quad`` and ``brentq`` are traced at their lookup sites too and counted as
the analysis layer's solvers.

Self time is a span's duration minus the time its traced children took.
Spans (id, name, start, end, parent, job) are kept in memory while
``record`` is on and written out by :meth:`Tracer.save`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

from workloads import graph_pairs

MODULES = ("models", "gaussian", "entanglement", "analysis", "serialize", "cli")
SOLVERS = ("quad", "brentq")
# Per-element helpers whose cost belongs to the caller's span.
UNTRACED = {"serialize.fmt", "entanglement.site_label",
            "entanglement.mode_index", "gaussian.mode_majorana_indices"}
GROUPS = {"serialize.write_csv": "serialize.write",
          "serialize.write_json_records": "serialize.write"}


class Tracer:
    def __init__(self):
        self.names = []          # span name by index
        self.layer = []          # per-layer statistic name by index
        self.calls = []
        self.self_s = []
        self.extra = {}          # derived counters, e.g. flatten dim^3
        self.record = False
        self.job = -1
        self._index = {}
        self._stack = []
        self._next_id = 0
        self._patches = []
        self.spans = {"id": array("q"), "name": array("i"),
                      "start": array("d"), "end": array("d"),
                      "parent": array("q"), "job": array("q")}

    # ------------------------------------------------------------ install

    def install(self):
        """Replace every traced binding in the package by a wrapper."""
        for modname in MODULES:
            mod = importlib.import_module(f"chainent.{modname}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                owner = getattr(obj, "__module__", None) or ""
                if owner.startswith("chainent."):
                    layer = f"{owner.rsplit('.', 1)[1]}.{obj.__name__}"
                elif attr in SOLVERS:
                    layer = f"analysis.{attr}"
                else:
                    continue
                if layer in UNTRACED:
                    continue
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(f"{modname}.{attr}",
                                              GROUPS.get(layer, layer), obj))

    def uninstall(self):
        while self._patches:
            mod, attr, obj = self._patches.pop()
            setattr(mod, attr, obj)

    def _slot(self, span, layer):
        if span not in self._index:
            self._index[span] = len(self.names)
            self.names.append(span)
            self.layer.append(layer)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._index[span]

    def _count(self, key, amount):
        self.extra[key] = self.extra.get(key, 0) + amount

    def _wrap(self, span, layer, fn):
        idx = self._slot(span, layer)
        stack = self._stack
        clock = time.perf_counter
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer == "analysis.brentq":
                args = (self._counting(args[0]),) + args[1:]
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.self_s[idx] += dur - frame[1]
                self.calls[idx] += 1
                if stack:
                    stack[-1][1] += dur
                if self.record:
                    for key, v in (("id", sid), ("name", idx), ("start", start),
                                   ("end", end), ("parent", parent),
                                   ("job", self.job)):
                        spans[key].append(v)
            self._observe(layer, args, kwargs, result)
            return result

        return traced

    def _counting(self, f):
        def counted(*a, **k):
            self._count("analysis.brentq.evals", 1)
            return f(*a, **k)
        return counted

    def _observe(self, layer, args, kwargs, result):
        if layer == "gaussian.flatten_from_fill":
            M = args[0] if args else kwargs["M"]
            self._count("gaussian.flatten_from_fill.dim3", np.shape(M)[0] ** 3)
        elif layer == "entanglement.entangled_graph":
            spec = args[0] if args else kwargs["spec"]
            per_cell = 2 if spec.family.value == "ssh" else 1
            self._count("entanglement.entangled_graph.edges", len(result.edges))
            self._count("entanglement.entangled_graph.pairs",
                        graph_pairs(spec.N, spec.boundary.value == "periodic",
                                    per_cell))

    # ------------------------------------------------------------- output

    def layer_totals(self) -> dict:
        """{layer: [calls, self seconds]} summed over lookup sites."""
        out = {}
        for layer, calls, self_s in zip(self.layer, self.calls, self.self_s):
            acc = out.setdefault(layer, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 **{k: np.asarray(v) for k, v in self.spans.items()})
