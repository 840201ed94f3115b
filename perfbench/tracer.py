"""Span recorder for traced benchmark passes.

The recorder wraps each layer's public functions from outside the package:
every module-level function named in a module's ``__all__`` (plus a few
methods and the kernel entry points), at every name a caller looks it up
by.  ``pipeline`` and ``torus`` import ``lanczos_smallest`` by name, so
the wrapper replaces ``pipeline.lanczos_smallest`` and
``torus.lanczos_smallest`` as well as ``eigensolve.lanczos_smallest``.
Uninstalling restores every replaced name, so untraced passes run the
unmodified program.

A span is ``(name, start, end, parent, job)``: ``parent`` is the index of
the enclosing span (``None`` at the top) and ``job`` the id of the
benchmark job that caused it.  Spans stay in memory until the caller
harvests them.  Span names drop a leading underscore from the module
(``_kernels`` -> ``kernels``) so they are valid metric names.
"""

from __future__ import annotations

import functools
import inspect
import os
import time

# methods and the kernel entry points (``_kernels`` has no ``__all__``),
# wrapped in addition to each module's public functions
EXTRA_TARGETS = (
    ("nodalscore._kernels", "interval_series"),
    ("nodalscore._kernels", "square_series"),
    ("nodalscore.pipeline", "Graph.components"),
    ("nodalscore.paley", "PaleyField.create"),
)

LAYER_MODULES = (
    "nodalscore.cli",
    "nodalscore.pipeline",
    "nodalscore.eigensolve",
    "nodalscore.core",
    "nodalscore.analytic",
    "nodalscore._kernels",
    "nodalscore.torus",
    "nodalscore.paley",
)

# eigenvalues kept per captured solve; callers never use more than this
CAPTURE_VALUES = 64


def span_name(module_name, qualname):
    layer = module_name.rsplit(".", 1)[-1].lstrip("_")
    return f"{layer}.{qualname}"


def _is_report(result):
    return hasattr(result, "pairs") and hasattr(result, "residuals") and hasattr(
        result, "iterations"
    )


def _count_sin_evals(args, kwargs, result):
    # interval_series(xs, n_terms) / square_series(xs, ys, ms, ns, ws)
    if len(args) == 2:
        return {"kernels.sin_evals": len(args[0]) * int(args[1])}
    return {"kernels.sin_evals": len(args[0]) * len(args[2])}


def _count_lattice(args, kwargs, result):
    return {"analytic.lattice_terms": len(result[0])}


def _count_knn(args, kwargs, result):
    n = int(args[0].width) * int(args[0].height)
    return {"pipeline.knn.pairs": n * (n - 1)}


def _count_components(args, kwargs, result):
    return {"pipeline.components.count": int(result[1])}


def _count_scored_edges(args, kwargs, result):
    graph = args[0] if args else kwargs["graph"]
    return {"pipeline.graph.edges": int(graph.n_edges)}


def _count_csv_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"pipeline.write_score_csv.bytes": os.path.getsize(path)}


COUNTERS = {
    "kernels.interval_series": _count_sin_evals,
    "kernels.square_series": _count_sin_evals,
    "analytic.square_lattice": _count_lattice,
    "pipeline.patch_graph": _count_knn,
    "pipeline.Graph.components": _count_components,
    "pipeline.score_graph": _count_scored_edges,
    "pipeline.write_score_csv": _count_csv_bytes,
}


def _targets(modules):
    """(owner, attribute, span name) for every function to wrap."""
    found = []
    for mod_name in LAYER_MODULES:
        mod = modules[mod_name]
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr, None)
            if inspect.isfunction(obj) and obj.__module__ == mod_name:
                found.append((mod, attr, span_name(mod_name, attr)))
    for mod_name, qualname in EXTRA_TARGETS:
        owner = modules[mod_name]
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        if owner is None or parts[-1] not in vars(owner):
            continue
        found.append((owner, parts[-1], span_name(mod_name, qualname)))
    return found


class Tracer:
    """Wraps the package's layers and records spans, counts and eigen solves."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.counts = {}
        self.captures = []
        self.job = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, counter, capture):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append([name, time.perf_counter(), None, parent, self.job])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            if capture and _is_report(result):
                self._capture(result, parent)
            return result

        return traced

    def _capture(self, report, parent):
        # a solve nested inside another eigensolve call is part of that one
        while parent is not None:
            if self.spans[parent][0].startswith("eigensolve."):
                return
            parent = self.spans[parent][3]
        values = [float(p.value) for p in report.pairs[:CAPTURE_VALUES]]
        residual = float(max(report.residuals, default=0.0))
        n = int(report.pairs[0].vector.size) if report.pairs else 0
        self.captures.append(
            {
                "job": self.job,
                "n": n,
                "values": values,
                "max_residual": residual,
                "iterations": int(report.iterations),
                "converged": bool(report.converged),
            }
        )
        self.counts["eigensolve.matvecs"] = (
            self.counts.get("eigensolve.matvecs", 0) + int(report.iterations)
        )
        self.counts["eigensolve.max_residual"] = max(
            self.counts.get("eigensolve.max_residual", 0.0), residual
        )

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _targets(self.modules):
            raw = vars(owner)[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            traced = self._wrap(
                name, fn, COUNTERS.get(name), capture=name.startswith("eigensolve.")
            )
            self._replace(owner, attr, raw, classmethod(traced) if is_classmethod else traced)
            if inspect.ismodule(owner):
                # callers that imported the function by name look it up there
                for mod in self.modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is fn and not (mod is owner and key == attr):
                            self._replace(mod, key, fn, traced)

    def _replace(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._restore.append((owner, attr, old))

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def harvest(self):
        """Return and clear the spans, counts and captures recorded so far."""
        spans = [tuple(s) for s in self.spans]
        counts, captures = self.counts, self.captures
        self.spans.clear()
        self.counts, self.captures = {}, []
        return spans, counts, captures


def layer_times(spans):
    """Busy time, self time and call count per span name.

    Busy time (``s``) sums the spans of a name that have no ancestor of the
    same name, so a layer that calls itself is not counted twice.  Self
    time (``self_s``) is a span's duration minus the durations of its
    direct children, which lie inside it on the one traced thread.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent, job) in enumerate(spans):
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        duration = end - start
        entry["self_s"] += duration - child[i]
        entry["calls"] += 1
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            entry["s"] += duration
    return out
