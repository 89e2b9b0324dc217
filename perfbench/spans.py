"""In-memory span tracing of the wtps layers, from outside the package.

``Tracer.install`` replaces the public functions and methods listed in
``LAYERS`` with wrappers that record a span (name, start, end, parent, trace
id) and take counts from the return value; ``uninstall`` restores them.  No
per-event function (``parse_timestamp``, ``TimeGrid.index_of``) is wrapped,
so the overhead stays per call of a layer, not per record.

Counts are taken after the span closes, so their cost lands in the parent's
self time, never in the layer's own.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from importlib import import_module


def _load_counts(result, args, kwargs):
    return {"dataset.events_parsed": len(result.events),
            "dataset.input_mb": os.path.getsize(args[0]) / 1e6}


def _save_counts(result, args, kwargs):
    return {"dataset.output_mb": os.path.getsize(args[1]) / 1e6}


def _bin_counts(result, args, kwargs):
    cells = result.forks.size
    nonzero = int((result.forks != 0).sum() + (result.stars != 0).sum())
    return {"model.bin_calls": 1, "model.cells": cells, "model.nonzero_cells": nonzero}


def _graph_counts(result, args, kwargs):
    degrees = Counter(follower for _, follower in result.edges)
    return {"graph.nodes": result.node_count, "graph.edges": result.edge_count,
            "graph.max_follower_degree": max(degrees.values(), default=0)}


def _table_counts(result, args, kwargs):
    return {"serialize.rows": len(result[1])}


def _render_counts(result, args, kwargs):
    return {"serialize.output_mb": len(result.encode("utf-8")) / 1e6}


def _calls(metric):
    return lambda result, args, kwargs: {metric: 1}


# (module, owner class or None, attribute, span name, counter)
LAYERS = (
    ("wtps.dataset", None, "load_corpus", "dataset.load", _load_counts),
    ("wtps.dataset", None, "save_corpus", "dataset.save", _save_counts),
    ("wtps.model", "Corpus", "__post_init__", "model.corpus_init", None),
    ("wtps.model", "Corpus", "regrid", "model.regrid", _calls("model.regrid_calls")),
    ("wtps.model", None, "bin_events", "model.bin", _bin_counts),
    ("wtps.scoring", None, "compute_weights", "scoring.weights", None),
    ("wtps.scoring", None, "unit_weights", "scoring.weights", None),
    ("wtps.scoring", None, "score_all", "scoring.score_all", None),
    ("wtps.scoring", None, "rank", "scoring.rank", None),
    ("wtps.stats", None, "interval_sweep", "stats.sweep", None),
    ("wtps.stats", None, "ols_line", "stats.ols", _calls("stats.ols_calls")),
    ("wtps.graph", None, "build_graph", "graph.build", _graph_counts),
    ("wtps.graph", None, "scores_for_measure", "graph.scores", None),
    ("wtps.graph", None, "clustering_coefficient", "graph.coefficient",
     _calls("graph.coefficient_calls")),
    ("wtps.graph", "FollowerGraph", "remove_repo", "graph.remove_repo", None),
    ("wtps.graph", None, "deletion_experiment", "graph.deletion", None),
    ("wtps.serialize", None, "score_table", "serialize.table", _table_counts),
    ("wtps.serialize", None, "rank_table", "serialize.table", _table_counts),
    ("wtps.serialize", None, "sweep_table", "serialize.table", _table_counts),
    ("wtps.serialize", None, "deletion_table", "serialize.table", _table_counts),
    ("wtps.serialize", None, "to_csv", "serialize.render", _render_counts),
    ("wtps.serialize", None, "to_json", "serialize.render", _render_counts),
    ("wtps.cli", None, "main", "cli.main", None),
)

# Span names reported by self time (duration minus child coverage); all
# other spans are reported inclusive of their children.
SELF_TIMED = {"scoring.rank", "stats.sweep", "graph.deletion", "cli.main"}
# Counts that describe a size rather than an amount of work.
MAX_COUNTS = {"dataset.input_mb", "graph.nodes", "graph.edges", "graph.max_follower_degree"}


class Tracer:
    """Records spans of the wrapped layers; one trace id per command."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, trace id]
        self.counts: list[tuple[str, str, float]] = []  # (trace id, metric, value)
        self.trace_id = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, self.trace_id]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for metric, value in counter(result, args, kwargs).items():
                    self.counts.append((self.trace_id, metric, value))
            return result
        return traced

    def install(self) -> None:
        originals = {}
        for module_name, owner_name, attr, name, counter in LAYERS:
            module = import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            fn = getattr(owner, attr)
            wrapper = self._wrap(fn, name, counter)
            if owner_name:
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                originals[id(fn)] = (fn, wrapper)
        # ``from .x import f`` copies the function into every importer, so
        # replace each reference in every loaded wtps module.
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "wtps" or module_name.startswith("wtps.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, originals[id(value)][1])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def layer_metrics(self, trace_ids: set[str]) -> dict[str, float]:
        """Per-layer totals over the given traces: ``<span>_s`` seconds
        (self time for ``SELF_TIMED`` spans) plus the recorded counts."""
        chosen = [i for i, s in enumerate(self.spans) if s[4] in trace_ids]
        children: dict[int, list[int]] = {}
        for i in chosen:
            children.setdefault(self.spans[i][3], []).append(i)
        totals: dict[str, float] = {}
        for i in chosen:
            name, start, end, _, _ = self.spans[i]
            seconds = end - start
            if name in SELF_TIMED:
                seconds -= _coverage([self.spans[c][1:3] for c in children.get(i, [])], start, end)
            totals[f"{name}_s"] = totals.get(f"{name}_s", 0.0) + seconds
        for trace_id, metric, value in self.counts:
            if trace_id in trace_ids:
                merge = max if metric in MAX_COUNTS else (lambda a, b: a + b)
                totals[metric] = merge(totals.get(metric, 0), value)
        return totals

    def records(self) -> list[dict]:
        return [{"trace": s[4], "name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
                for s in self.spans]


def _coverage(intervals: list[list[float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered
