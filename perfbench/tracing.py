"""Spans around esh's public functions, recorded from outside the package.

A traced run replaces module attributes with thin wrappers at the names the
callers look up at call time (``esh.cli.train``, ``esh.anchor_graph.
pairwise_sq_dists``, ...). Each call records one span: name, start, end,
parent span, thread id and workload. Spans stay in memory until the run
ends. Nothing inside ``src/`` is edited; private helpers such as
``_eval`` or ``_kmeans_pp_init`` are never wrapped, so a refactor that
renames them does not break the traced run. A listed public name that no
longer exists is skipped, and the metrics that depend on it are absent.

Per-layer metrics come from the spans:

* ``<module>.<fn>_s``: busy seconds, the summed span durations across
  threads (children included);
* ``<module>.<fn>_calls``: exact call counts;
* self times: a span's duration minus the part of it covered by its
  children on the same thread;
* computed counts (``*_gflop``, ``codes_scanned`` ...) derived from array
  shapes at call time; they repeat exactly across runs.
"""

import functools
import importlib
import json
import threading
import time
import types
from dataclasses import dataclass, replace

import numpy as np

# (module, attribute) pairs to wrap. An attribute names a function bound in
# that module's namespace or a "Class.method". A function bound under several
# names (esh.encoder.anchor_weights is esh.anchor_graph.anchor_weights) gets
# one wrapper, whose span is named after its first entry here.
WRAPPED = (
    ("dataset", "load_features"),
    ("dataset", "load_labels"),
    ("dataset", "standardize"),
    ("anchor_graph", "fit_anchors"),
    ("anchor_graph", "pairwise_sq_dists"),
    ("anchor_graph", "anchor_weights"),
    ("anchor_graph", "build_affinity_rows"),
    ("anchor_graph", "prune_dead_anchors"),
    ("anchor_graph", "similarity_matrix"),
    ("optimizer", "train"),
    ("optimizer", "init_projection"),
    ("optimizer", "auto_alpha"),
    ("optimizer", "stiefel_project"),
    ("optimizer", "tangent_gradient"),
    ("optimizer", "cayley_step"),
    ("optimizer", "bb_step"),
    ("optimizer", "orth_residual"),
    ("encoder", "pack_codes"),
    ("encoder", "anchor_weights"),
    ("encoder", "build_hash_model"),
    ("encoder", "save_model"),
    ("encoder", "load_model"),
    ("encoder", "save_codes"),
    ("encoder", "load_codes"),
    ("encoder", "HashModel.encode_linear"),
    ("encoder", "HashModel.encode_graph"),
    ("evaluation", "hamming_distances"),
    ("evaluation", "rank_database"),
    ("evaluation", "average_precision"),
    ("evaluation", "precision_at"),
    ("evaluation", "precision_within_radius"),
    ("evaluation", "pr_curve"),
    ("evaluation", "evaluate"),
    ("evaluation", "GroundTruth.positives_mask"),
    ("cli", "cmd_train"),
    ("cli", "cmd_encode"),
    ("cli", "cmd_query"),
    ("cli", "cmd_eval"),
)

@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    thread: int
    workload: str

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """Collects spans and shape-derived counts for one traced run."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self.counts = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._replaced = []  # (owner, attribute, original) undone by restore()

    def count(self, name, value):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name, fn, on_return=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._local.__dict__.setdefault("stack", [])
            with rec._lock:
                idx = len(rec.spans)
                rec.spans.append(None)  # reserve the slot so children can point at it
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                rec.spans[idx] = Span(name, start, end, parent, threading.get_ident(),
                                      rec.workload)
            if on_return is not None:
                on_return(rec, args, kwargs, result)
            return result

        return traced

    def restore(self):
        """Put back every attribute install() replaced."""
        for owner, attr, original in reversed(self._replaced):
            setattr(owner, attr, original)
        self._replaced.clear()

    def dump(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps([s.name, s.start, s.end, s.parent, s.thread, s.workload]))
                f.write("\n")


def load_spans(path):
    with open(path) as f:
        return [Span(*json.loads(line)) for line in f if line.strip()]


def offset(spans, by):
    """Spans with parent indices shifted, for appending to another list."""
    return [replace(s, parent=s.parent + by if s.parent >= 0 else -1) for s in spans]


def merge_counts(*dicts):
    out = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


# ---- computed work, from array shapes at call time --------------------------

def _pairwise_work(rec, args, kwargs, result):
    # X (a, d) against C (b, d): the X C^T product (2abd) plus both row norms
    a, d = np.shape(args[0])
    b = np.shape(args[1])[0]
    rec.count("anchor_graph.pairwise_gflop", (2 * a * b * d + 2 * (a + b) * d) / 1e9)


def _cayley_work(rec, args, kwargs, result):
    # F = G W^T - W G^T (4 d^2 k), (I - tau/2 F) W (2 d^2 k), LU of the d x d
    # system (2/3 d^3) and its triangular solves on k columns (2 d^2 k)
    d, k = np.shape(args[0])
    rec.count("optimizer.cayley_gflop", ((2 / 3) * d ** 3 + 8 * d * d * k) / 1e9)


def _train_work(rec, args, kwargs, result):
    # one loss/gradient pass per iteration plus the initial one: XW and X^T R
    # (2ndk each), SW (2d^2k); elementwise terms are left out
    n, d = np.shape(args[0])
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    _, trace = result
    evals = len(trace.iteration) + 1
    rec.count("optimizer.loss_grad_gflop", evals * (4 * n * d * cfg.bits + 2 * d * d * cfg.bits) / 1e9)
    rec.count("optimizer.iterations", len(trace.iteration))


def _prune_work(rec, args, kwargs, result):
    rec.count("anchor_graph.anchors_pruned", args[1].m - result[0].m)


def _scan_work(rec, args, kwargs, result):
    rec.count("evaluation.codes_scanned", int(args[1].n))


def _positives_work(rec, args, kwargs, result):
    rec.count("evaluation.queries_no_positives", int(not np.any(result)))


ON_RETURN = {
    "anchor_graph.pairwise_sq_dists": _pairwise_work,
    "anchor_graph.prune_dead_anchors": _prune_work,
    "optimizer.cayley_step": _cayley_work,
    "optimizer.train": _train_work,
    "evaluation.hamming_distances": _scan_work,
    "evaluation.GroundTruth.positives_mask": _positives_work,
}


def install(recorder):
    """Wrap every listed name that exists; returns the span names installed."""
    installed = []
    originals = {}
    for mod_name, attr in WRAPPED:
        module = importlib.import_module(f"esh.{mod_name}")
        owner, _, fn_name = attr.rpartition(".")
        target = getattr(module, owner, None) if owner else module
        fn = getattr(target, fn_name, None)
        if fn is None:
            continue
        if fn not in originals:
            span = f"{mod_name}.{attr}"
            originals[fn] = recorder.wrap(span, fn, ON_RETURN.get(span))
            installed.append(span)
        recorder._replaced.append((target, fn_name, fn))
        setattr(target, fn_name, originals[fn])
    # esh.cli looks up what it imports from the other modules in its own
    # namespace, so those bindings are wrapped there too
    cli = importlib.import_module("esh.cli")
    for name, fn in list(vars(cli).items()):
        if isinstance(fn, types.FunctionType) and fn in originals:
            recorder._replaced.append((cli, name, fn))
            setattr(cli, name, originals[fn])
    return installed


# ---- aggregation -------------------------------------------------------------

def self_times(spans):
    """Per span, its duration minus the union of its direct children.

    Children are linked by parent index and always live on the parent's
    thread, so work a pool thread does for a span is not subtracted from it.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.duration - covered)
    return out


def busy_seconds(spans, name):
    return sum(s.duration for s in spans if s.name == name)


def per_layer_metrics(spans, counts, installed):
    """Map spans and counts onto the per-layer metric names.

    A metric whose span was not installed is left out.
    """
    have = set(installed)
    selfs = self_times(spans)
    out = {}

    def busy(metric, span):
        if span in have:
            out[metric] = busy_seconds(spans, span)

    def calls(metric, span):
        if span in have:
            out[metric] = sum(1 for s in spans if s.name == span)

    def self_of(metric, span_names):
        if all(n in have for n in span_names):
            out[metric] = sum(t for s, t in zip(spans, selfs) if s.name in span_names)

    busy("dataset.load_features_s", "dataset.load_features")
    busy("dataset.load_labels_s", "dataset.load_labels")
    busy("dataset.standardize_s", "dataset.standardize")
    busy("anchor_graph.fit_anchors_s", "anchor_graph.fit_anchors")
    busy("anchor_graph.pairwise_sq_dists_s", "anchor_graph.pairwise_sq_dists")
    calls("anchor_graph.pairwise_sq_dists_calls", "anchor_graph.pairwise_sq_dists")
    busy("anchor_graph.build_affinity_rows_s", "anchor_graph.build_affinity_rows")
    busy("anchor_graph.similarity_matrix_s", "anchor_graph.similarity_matrix")
    busy("optimizer.train_s", "optimizer.train")
    self_of("optimizer.loss_grad_s", {"optimizer.train"})
    busy("optimizer.cayley_step_s", "optimizer.cayley_step")
    calls("optimizer.cayley_step_calls", "optimizer.cayley_step")
    busy("optimizer.tangent_gradient_s", "optimizer.tangent_gradient")
    busy("optimizer.stiefel_project_s", "optimizer.stiefel_project")
    busy("encoder.build_hash_model_s", "encoder.build_hash_model")
    busy("encoder.save_model_s", "encoder.save_model")
    busy("encoder.load_model_s", "encoder.load_model")
    busy("encoder.save_codes_s", "encoder.save_codes")
    busy("encoder.load_codes_s", "encoder.load_codes")
    busy("encoder.encode_linear_s", "encoder.HashModel.encode_linear")
    busy("encoder.pack_codes_s", "encoder.pack_codes")
    busy("encoder.encode_graph_s", "encoder.HashModel.encode_graph")
    busy("encoder.anchor_weights_s", "anchor_graph.anchor_weights")
    busy("evaluation.rank_database_s", "evaluation.rank_database")
    calls("evaluation.rank_database_calls", "evaluation.rank_database")
    busy("evaluation.hamming_distances_s", "evaluation.hamming_distances")
    busy("evaluation.evaluate_s", "evaluation.evaluate")
    busy("evaluation.average_precision_s", "evaluation.average_precision")
    busy("evaluation.positives_mask_s", "evaluation.GroundTruth.positives_mask")
    busy("cli.train_s", "cli.cmd_train")
    busy("cli.encode_s", "cli.cmd_encode")
    busy("cli.query_s", "cli.cmd_query")
    busy("cli.eval_s", "cli.cmd_eval")
    self_of("cli.self_s", {"cli.cmd_train", "cli.cmd_encode", "cli.cmd_query", "cli.cmd_eval"})

    span_for_count = {
        "anchor_graph.pairwise_gflop": "anchor_graph.pairwise_sq_dists",
        "anchor_graph.anchors_pruned": "anchor_graph.prune_dead_anchors",
        "optimizer.cayley_gflop": "optimizer.cayley_step",
        "optimizer.loss_grad_gflop": "optimizer.train",
        "optimizer.iterations": "optimizer.train",
        "evaluation.codes_scanned": "evaluation.hamming_distances",
        "evaluation.queries_no_positives": "evaluation.GroundTruth.positives_mask",
    }
    for metric, span in span_for_count.items():
        if span in have:
            out[metric] = counts.get(metric, 0)
    return out
