"""Outside-in span recorder for idsforge.

``install`` replaces public functions at the module attribute where their
callers look them up (``idsforge.cli.load_csv``, ``idsforge.evaluation.rf_fit``,
...) with wrappers that record a span around each call. Nothing under ``src/``
changes: the wrappers live here and are installed only in traced child
processes.

A span holds its name, start, end, parent span and run id, plus the process's
peak RSS at start and end; each thread keeps its own span stack. Spans stay in
memory and ``Recorder.dump`` writes them out when the process ends.
``summarize`` turns the spans of one or more processes into per-layer numbers:
a layer's ``_s`` metric is self time, the span's duration minus the part its
child spans cover.

Two hot functions get a call counter instead of a span, because they run
once per candidate subset or per row and a span each would cost more than
the call: ``featsel.cfs_merit`` and ``ensemble.combine``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import resource
import threading
import time

import numpy as np

# (module, attribute, span name). The module is where callers look the
# function up, which is not always where it is defined.
SPANNED = (
    ("idsforge.cli", "load_csv", "dataset.load_csv"),
    ("idsforge.cli", "filter_table", "dataset.filter_table"),
    ("idsforge.cli", "encode", "dataset.encode"),
    ("idsforge.cli", "normalize", "dataset.normalize"),
    ("idsforge.cli", "write_dataset_artifact", "dataset.write_artifact"),
    ("idsforge.cli", "read_dataset_artifact", "dataset.read_artifact"),
    ("idsforge.dataset", "read_dataset_artifact", "dataset.read_artifact"),
    ("idsforge.cli", "cfs_ba_select", "featsel.swarm"),
    ("idsforge.featsel", "build_correlation_cache", "featsel.corr_cache"),
    ("idsforge.cli", "cross_validate", "evaluation.cross_validate"),
    ("idsforge.evaluation", "stratified_folds", "evaluation.folds"),
    ("idsforge.evaluation", "confusion_from_predictions", "evaluation.metrics"),
    ("idsforge.evaluation", "compute_metrics", "evaluation.metrics"),
    ("idsforge.evaluation", "c45_fit", "trees.c45_fit"),
    ("idsforge.evaluation", "rf_fit", "trees.rf_fit"),
    ("idsforge.evaluation", "forest_pa_fit", "trees.forest_pa_fit"),
    ("idsforge.trees", "c45_fit", "trees.c45_fit"),
    ("idsforge.trees", "rf_fit", "trees.rf_fit"),
    ("idsforge.trees", "forest_pa_fit", "trees.forest_pa_fit"),
    ("idsforge.trees", "tree_predict_batch", "trees.predict"),
    ("idsforge.trees", "save_model", "trees.save_model"),
    ("idsforge.trees", "load_model", "trees.load_model"),
    ("idsforge.evaluation", "ensemble_predict_batch", "ensemble.predict_batch"),
    ("idsforge.ensemble", "ensemble_predict_batch", "ensemble.predict_batch"),
)
COUNTED = (
    ("idsforge.featsel", "cfs_merit", "featsel.merit_evals"),
    ("idsforge.ensemble", "combine", "ensemble.combine_calls"),
)
FIT_SPANS = ("trees.c45_fit", "trees.rf_fit", "trees.forest_pa_fit")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Spans and counters of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self.fits: list[tuple] = []  # (span name, dataset, rows, model)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = len(self.spans)
                record = {"id": span_id, "parent": stack[-1] if stack else None,
                          "name": name, "run": self.run_id,
                          "thread": threading.get_ident(),
                          "rss_start": _maxrss_mb(), "start": time.perf_counter()}
                self.spans.append(record)
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                record["rss_end"] = _maxrss_mb()
                stack.pop()
            if name == "dataset.load_csv":
                record["cells"] = result.n_rows * result.n_columns
            elif name in FIT_SPANS:
                self.fits.append((name, args[0], args[1] if len(args) > 1 else kwargs.get("rows"),
                                  result))
            return result
        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counters[name] = self.counters.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        # Wrap each function object once, so two lookup sites of one function
        # share a wrapper and a call is never recorded twice.
        wrapped: dict[int, object] = {}
        for table, make in ((SPANNED, self.span), (COUNTED, self.counter)):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = make(name, fn)
                setattr(module, attr, wrapped[id(fn)])

    def dump(self, path) -> None:
        """Write spans, counters and the tree counters computed from outside."""
        start = time.perf_counter()
        trees = tree_counters(self.fits)
        doc = {"run": self.run_id, "spans": self.spans, "counters": self.counters,
               "trees": trees}
        doc["bookkeeping_s"] = time.perf_counter() - start
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _sweep(tree, X, y, n_classes, candidates) -> tuple[int, int, int]:
    """(nodes, max depth, rows x candidate features summed over every node
    where a split search ran), replaying the training rows through the tree.

    The search runs where the learner's stopping test lets it: the node is
    impure, holds at least 2 * min_leaf rows and is above max_depth.
    """
    params = tree.params
    nodes = depth = sweep = 0
    stack = [(tree.root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        nodes += 1
        depth = max(depth, node.depth)
        n = idx.size
        if n:
            counts = np.bincount(y[idx], minlength=n_classes)
            depth_ok = params.max_depth is None or node.depth < params.max_depth
            if counts.max() < n and n >= 2 * params.min_leaf and depth_ok:
                sweep += n * candidates
        if not node.is_leaf:
            go_left = X[idx, node.split_feature] <= node.threshold
            stack.append((node.left, idx[go_left]))
            stack.append((node.right, idx[~go_left]))
    return nodes, depth, sweep


def tree_counters(fits) -> dict:
    """trees_built, nodes, max_depth and sweep_row_features of fitted models.

    Forest trees are replayed on their bootstrap sample: tree t drew its
    positions first from default_rng(bootstrap_seeds[t]), as rf_fit and
    forest_pa_fit document. Random forests search ceil(sqrt(d)) sampled
    features per node, the other learners all d.
    """
    out = {"trees_built": 0, "nodes": 0, "max_depth": 0, "sweep_row_features": 0}
    for name, ds, rows, model in fits:
        rows = np.arange(ds.n_rows) if rows is None else np.asarray(rows, dtype=np.int64)
        d = ds.n_features
        if name == "trees.c45_fit":
            samples = [(model, rows, d)]
        else:
            m = math.ceil(math.sqrt(d)) if name == "trees.rf_fit" else d
            samples = []
            for tree, seed in zip(model.trees, model.bootstrap_seeds):
                positions = np.random.default_rng(seed).integers(0, rows.size, rows.size)
                samples.append((tree, rows[positions], m))
        for tree, tree_rows, m in samples:
            nodes, depth, sweep = _sweep(tree, ds.features[tree_rows], ds.labels[tree_rows],
                                         ds.n_classes, m)
            out["trees_built"] += 1
            out["nodes"] += nodes
            out["max_depth"] = max(out["max_depth"], depth)
            out["sweep_row_features"] += sweep
    return out


def self_times(spans) -> list[tuple[dict, float]]:
    """(span, self time) pairs: duration minus the time child spans cover.

    Children of one span run on its thread one after another, so their
    durations add up without overlap.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return [(s, s["end"] - s["start"] - child_time.get(s["id"], 0.0)) for s in spans]


# Per-layer time metric -> the spans whose self time it sums.
LAYER_TIMES = {
    "dataset.load_csv_s": "dataset.load_csv",
    "dataset.filter_table_s": "dataset.filter_table",
    "dataset.encode_s": "dataset.encode",
    "dataset.normalize_s": "dataset.normalize",
    "dataset.write_artifact_s": "dataset.write_artifact",
    "dataset.read_artifact_s": "dataset.read_artifact",
    "featsel.corr_cache_s": "featsel.corr_cache",
    "featsel.swarm_s": "featsel.swarm",
    "trees.c45_fit_s": "trees.c45_fit",
    "trees.rf_fit_s": "trees.rf_fit",
    "trees.forest_pa_fit_s": "trees.forest_pa_fit",
    "trees.predict_s": "trees.predict",
    "trees.save_model_s": "trees.save_model",
    "trees.load_model_s": "trees.load_model",
    "ensemble.predict_batch_s": "ensemble.predict_batch",
    "evaluation.cross_validate_s": "evaluation.cross_validate",
    "evaluation.folds_s": "evaluation.folds",
    "evaluation.metrics_s": "evaluation.metrics",
    "cli.self_s": "cli.main",
}
# Per-layer count metric -> the spans it counts.
LAYER_CALLS = {
    "trees.fit_calls": FIT_SPANS,
    "trees.predict_calls": ("trees.predict",),
    "evaluation.cross_validate_calls": ("evaluation.cross_validate",),
}


def summarize(docs) -> dict:
    """Per-layer metrics from the dumps of one or more traced processes."""
    by_span = {span: metric for metric, span in LAYER_TIMES.items()}
    out: dict[str, float] = {metric: 0.0 for metric in LAYER_TIMES}
    out.update({metric: 0 for metric in LAYER_CALLS})
    out.update({"dataset.cells": 0, "dataset.peak_rss_rise_mb": 0.0})
    out.update({f"trees.{key}": 0 for key in ("trees_built", "nodes", "max_depth",
                                               "sweep_row_features")})
    out.update({name: 0 for _, _, name in COUNTED})
    for doc in docs:
        rss_rise = 0.0
        for span, own in self_times(doc["spans"]):
            name = span["name"]
            out[by_span[name]] += own
            for metric, names in LAYER_CALLS.items():
                out[metric] += name in names
            if name.startswith("dataset."):
                rss_rise += span["rss_end"] - span["rss_start"]
            out["dataset.cells"] += span.get("cells", 0)
        out["dataset.peak_rss_rise_mb"] = max(out["dataset.peak_rss_rise_mb"], rss_rise)
        for name, count in doc["counters"].items():
            out[name] += count
        trees = doc["trees"]
        for key in ("trees_built", "nodes", "sweep_row_features"):
            out[f"trees.{key}"] += trees[key]
        out["trees.max_depth"] = max(out["trees.max_depth"], trees["max_depth"])
    return out
