"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each ``hypertime`` module on the
name its caller looks up.  Modules bind each other's functions with
``from .x import y``, so a function is wrapped once per binding that a
caller resolves at call time; the two ``logpdf`` methods are wrapped on
their classes.  Nothing under ``src/`` changes, and uninstalling the
tracer puts every original object back, so untraced operations in the
same process run the program exactly as shipped.

A span records its name, start, end, parent span and operation id.  Spans
stay in memory until the run ends.  A span's self time is its duration
minus the durations of its direct children; the benchmark opens one
``op`` span per operation, so the ``op`` span's self time is the part of
an operation that no layer accounts for.
"""

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("dataset", "projection", "clustering", "spectral", "model",
          "evaluation", "baselines", "cli")


def _point_rows(args, kwargs, result):
    return {"rows": np.atleast_2d(args[1]).shape[0]}


def _fit_counts(args, kwargs, result):
    log = result.fit_log
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    runs = log.restarts + 1 + int(log.diagonal_fallback)
    return {"calls": 1, "rows": len(args[0]),
            "~em_iterations": log.iterations, "~restarts": log.restarts,
            "~diagonal_fallbacks": int(log.diagonal_fallback),
            "~unconverged_fits": int(log.iterations > cfg.max_iter),
            "~runs": runs}


def _prominent_counts(args, kwargs, result):
    series = args[0]
    exclude = set(float(p) for p in (args[2] if len(args) > 2
                                     else kwargs.get("exclude", ())))
    remaining = sum(1 for c in args[1] if float(c) not in exclude)
    return {"calls": 1, "products": len(series) * remaining,
            "@times": series.times}


def _cell_fits(args, kwargs, result):
    spec = args[1]
    return {"calls": 1, "cell_fits": int(np.prod(spec.n_spatial))}


def _model_periods(args, kwargs, result):
    return {"@periods": [float(p) for p in result.projection.periods]}


# (span name, bindings "module:attribute", work counter or None).  A
# counter maps (args, kwargs, result) to increments; keys starting with
# "~" are layer-wide counters, keys starting with "@" are values kept for
# after the run.
TARGETS = (
    ("dataset.load_csv", ("hypertime.cli:load_csv",),
     lambda a, k, r: {"rows": len(r)}),
    ("projection.assemble", ("hypertime.model:assemble",),
     lambda a, k, r: {"rows": r[0].shape[0]}),
    ("clustering.em_fit_stable", ("hypertime.model:em_fit_stable",),
     _fit_counts),
    ("clustering.km_fit", ("hypertime.model:km_fit",), _fit_counts),
    ("clustering.component_logpdf",
     ("hypertime.clustering:GaussianComponent.logpdf",), _point_rows),
    ("clustering.mixture_logpdf",
     ("hypertime.clustering:MixtureModel.logpdf",), _point_rows),
    ("spectral.prominent_period", ("hypertime.model:prominent_period",),
     _prominent_counts),
    ("spectral.spectrum", ("hypertime.spectral:spectrum",
                           "hypertime.baselines:spectrum"), None),
    ("spectral.spectral_sum", ("hypertime.model:spectral_sum",), None),
    ("model.build", ("hypertime.cli:build",), _model_periods),
    ("model.build_event", ("hypertime.cli:build_event",), _model_periods),
    ("model.select_cluster_count", ("hypertime.model:select_cluster_count",),
     None),
    ("model.predict_counts", ("hypertime.model:predict_counts",
                              "hypertime.cli:predict_counts"),
     lambda a, k, r: {"cells": int(r.size)}),
    ("model.predict_mean", ("hypertime.model:predict_mean",
                            "hypertime.cli:predict_mean"),
     lambda a, k, r: {"rows": int(np.size(r))}),
    ("model.residuals", ("hypertime.model:residuals",), None),
    ("model.predict_cell_count", ("hypertime.model:predict_cell_count",
                                  "hypertime.cli:predict_cell_count"),
     lambda a, k, r: {"calls": 1}),
    ("model.load_model", ("hypertime.cli:load_model",), None),
    ("evaluation.per_cell_baseline", ("hypertime.cli:per_cell_baseline",),
     _cell_fits),
    ("evaluation.grid_count", ("hypertime.cli:grid_count",
                               "hypertime.model:grid_count",
                               "hypertime.evaluation:grid_count"),
     lambda a, k, r: {"events": len(a[0])}),
    ("evaluation.sweep", ("hypertime.cli:sweep",), None),
    ("evaluation.pairwise_ttests", ("hypertime.cli:pairwise_ttests",), None),
    ("baselines.make_baseline", ("hypertime.evaluation:make_baseline",),
     lambda a, k, r: {"calls": 1}),
    ("baselines.fremen_predictor", ("hypertime.cli:fremen_predictor",
                                    "hypertime.baselines:fremen_predictor"),
     None),
    ("baselines.hist_predictor", ("hypertime.cli:hist_predictor",
                                  "hypertime.baselines:hist_predictor"),
     None),
)

# Span names whose self time is reported.  The benchmark itself opens the
# "cli.main" span around each `hypertime.cli.main` call; its self time is
# the cli layer's share.
SPAN_NAMES = tuple(name for name, _, _ in TARGETS)

# Work counters reported per operation, as (span name, counter).
SPAN_COUNTERS = (
    ("dataset.load_csv", "rows"), ("projection.assemble", "rows"),
    ("clustering.em_fit_stable", "calls"), ("clustering.em_fit_stable", "rows"),
    ("clustering.km_fit", "calls"), ("clustering.component_logpdf", "rows"),
    ("clustering.mixture_logpdf", "rows"),
    ("spectral.prominent_period", "calls"),
    ("spectral.prominent_period", "products"),
    ("model.predict_counts", "cells"), ("model.predict_mean", "rows"),
    ("model.predict_cell_count", "calls"),
    ("evaluation.per_cell_baseline", "calls"),
    ("evaluation.per_cell_baseline", "cell_fits"),
    ("evaluation.grid_count", "events"), ("baselines.make_baseline", "calls"),
)


def _resolve(binding):
    module_name, attr = binding.split(":")
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory spans plus the work counts taken at the same boundaries."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self._stack = []
        self.op = -1
        self.counts = defaultdict(float)
        self.kept = defaultdict(list)
        self.missing = []
        self._saved = []

    # -- spans ---------------------------------------------------------

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def begin_op(self):
        self.op += 1
        return self.begin("op")

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    if key.startswith("@"):
                        tracer.kept[f"{name}.{key[1:]}"].append(value)
                    elif key.startswith("~"):
                        tracer.counts[f"{name.split('.')[0]}.{key[1:]}"] += value
                    else:
                        tracer.counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self):
        """Wrap every target binding that exists; record the missing ones."""
        self.missing = []
        for name, bindings, counter in TARGETS:
            for binding in bindings:
                try:
                    owner, attr = _resolve(binding)
                    original = owner.__dict__[attr]
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(binding)
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------

    def self_times(self):
        """Total self time per span name over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return totals

    def idle_layers(self, layers):
        """The layers of `layers` that no recorded span belongs to."""
        seen = {name.split(".")[0] for name, *_ in self.spans}
        return [layer for layer in layers if layer not in seen]

    def metrics(self, n_ops):
        """Per-operation per-layer metrics, keyed by metric name."""
        selfs = self.self_times()
        per_op = 1.0 / max(n_ops, 1)
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = (selfs.get(name, 0.0) * per_op, "s")
        for name, counter in SPAN_COUNTERS:
            out[f"{name}.{counter}"] = (
                self.counts.get(f"{name}.{counter}", 0.0) * per_op, "count")
        for key in ("em_iterations", "restarts", "diagonal_fallbacks",
                    "unconverged_fits"):
            out[f"clustering.{key}"] = (
                self.counts.get(f"clustering.{key}", 0.0) * per_op, "count")
        runs = self.counts.get("clustering.runs", 0.0)
        fits = (self.counts.get("clustering.em_fit_stable.calls", 0.0)
                + self.counts.get("clustering.km_fit.calls", 0.0))
        out["clustering.accepted_fit_ratio"] = (
            fits / runs if runs else 0.0, "ratio")
        times = self.kept.get("spectral.prominent_period.times", [])
        entries = sum(t.shape[0] for t in times)
        distinct = sum(np.unique(t).shape[0] for t in times)
        out["spectral.prominent_period.distinct_ratio"] = (
            distinct / entries if entries else 0.0, "ratio")
        for layer in LAYERS:
            total = sum(v for k, v in selfs.items()
                        if k.split(".")[0] == layer)
            out[f"{layer}.self_s"] = (total * per_op, "s")
        op_total = sum(end - start for name, start, end, _, _ in self.spans
                       if name == "op")
        out["trace.op_s"] = (op_total * per_op, "s")
        out["trace.unattributed_s"] = (selfs.get("op", 0.0) * per_op, "s")
        out["trace.spans"] = (len(self.spans) * per_op, "count")
        return out

    def fingerprint(self):
        """Periods kept by every traced build, in call order."""
        return {key: value for key, value in self.kept.items()
                if key.endswith(".periods")}

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
