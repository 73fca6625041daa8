"""Per-layer tracing of ``repen`` from outside its source.

``Tracer.wrap`` replaces a module-level function with a timed wrapper that
records a span (name, parent, start, end, attributes); ``restore`` puts the
originals back. ``instrument`` wraps the functions of each ``repen`` layer
at the names the program looks them up under at call time, and
``layer_metrics`` turns one round's spans into the per-layer metrics.
Wrappers only keep references to their arguments; any derived count is
computed afterwards, outside every span.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from typing import Optional

import numpy as np
import scipy.sparse as sps

# Arrays an ADADELTA step must stream per step, each (D, M) float64: it
# reads weights, gradient and both accumulators and writes new weights and
# both accumulators.
ADADELTA_ARRAYS = 7

CLI_ARTIFACT_SPANS = ("learner.save_model", "ingest.write_csv", "cli.write_scores", "cli.write_manifest")


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``restore`` undoes every ``wrap``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        span = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Replace ``module.attr`` by a wrapper recording span ``name``.

        ``describe(args, kwargs, result)`` returns attributes to store; it
        runs after the span has closed.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_seconds(self, index: int) -> float:
        children = sum(s.seconds for s in self.spans if s.parent == index)
        return self.spans[index].seconds - children

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False


def _file_size(path) -> dict:
    return {"bytes": os.path.getsize(path)}


def _kernel_attrs(args, kwargs, result) -> dict:
    data, subsamples = args[0], args[1]
    values = getattr(data, "values", data)
    work = values.nnz if sps.issparse(values) else values.shape[0] * values.shape[1]
    members = len(subsamples)
    size = len(subsamples[0]) if members else 0
    return {"d": values.shape[1], "members": members, "flops": 2 * work * size * members}


def _threshold_attrs(args, kwargs, result) -> dict:
    scores, alpha = args[0], args[1]
    r = scores.scores
    fallback = scores.std == 0.0 or not np.any(r >= scores.mean + alpha * scores.std)
    return {"outliers": int(result.outlier_idx.size), "fallback": int(fallback)}


def _loss_grad_attrs(args, kwargs, result) -> dict:
    want_grad = kwargs.get("want_grad", args[6] if len(args) > 6 else True)
    return {"values": args[0], "batch": (args[2], args[3], args[4]), "want_grad": want_grad}


def _optimizer_attrs(args, kwargs, result) -> dict:
    d, m = args[1].shape
    return {"bytes": ADADELTA_ARRAYS * d * m * 8}


def instrument(tracer: Tracer) -> None:
    """Wrap every traced ``repen`` function where its caller looks it up."""
    import repen.cli
    import repen.ingest
    import repen.learner
    import repen.pipeline
    import repen.sp

    tracer.wrap(repen.ingest, "load_csv", "ingest.load_csv", lambda a, k, r: _file_size(a[0]))
    tracer.wrap(repen.ingest, "write_csv", "ingest.write_csv", lambda a, k, r: _file_size(a[1]))
    tracer.wrap(repen.ingest, "write_libsvm", "ingest.write_libsvm", lambda a, k, r: _file_size(a[1]))
    tracer.wrap(repen.sp, "sp_score_with_subsamples", "sp.kernel", _kernel_attrs)
    tracer.wrap(repen.pipeline, "run_pipeline", "pipeline")
    tracer.wrap(repen.pipeline, "candidate_sets", "thresholding", _threshold_attrs)
    tracer.wrap(repen.learner, "train", "learner.train")
    tracer.wrap(repen.learner, "transform", "learner.transform")
    tracer.wrap(repen.learner, "sample_batch_arrays", "sampling")
    tracer.wrap(repen.learner, "_batch_loss_grad", "learner.loss_grad", _loss_grad_attrs)
    tracer.wrap(repen.learner, "adadelta_step", "learner.optimizer", _optimizer_attrs)
    tracer.wrap(repen.learner, "save_model", "learner.save_model")
    tracer.wrap(repen.learner, "load_model", "learner.load_model")
    tracer.wrap(repen.cli, "cmd_pipeline", "cli.pipeline")
    tracer.wrap(repen.cli, "_write_scores_csv", "cli.write_scores")
    tracer.wrap(repen.cli, "write_manifest", "cli.write_manifest")


def _touched(values, batch, dense_full: dict) -> tuple[int, float]:
    """(distinct rows, share of the D columns with a nonzero in those rows)."""
    queries, positives, negatives = batch
    rows = np.unique(np.concatenate([np.ravel(queries), positives, negatives]))
    d = values.shape[1]
    if sps.issparse(values):
        return rows.size, np.unique(values[rows].indices).size / d
    key = id(values)
    if key not in dense_full:
        dense_full[key] = bool(np.all(values))
    if dense_full[key]:
        return rows.size, 1.0
    return rows.size, int(np.count_nonzero(values[rows].any(axis=0))) / d


def layer_metrics(tracer: Tracer, d_input: int) -> dict:
    """Per-layer metrics of the spans recorded in one round."""
    spans = tracer.spans
    named = defaultdict(list)
    for index, span in enumerate(spans):
        named[span.name].append(index)

    def total(name, attr=None):
        return sum(spans[i].attrs[attr] if attr else spans[i].seconds for i in named[name])

    kernels = [spans[i] for i in named["sp.kernel"]]
    original = [s.seconds for s in kernels if s.attrs["d"] == d_input]
    embedded = [s.seconds for s in kernels if s.attrs["d"] != d_input]
    flops = sum(s.attrs["flops"] for s in kernels)
    kernel_s = sum(s.seconds for s in kernels)

    dense_full: dict = {}
    touched = [
        _touched(spans[i].attrs["values"], spans[i].attrs["batch"], dense_full)
        for i in named["learner.loss_grad"]
        if spans[i].attrs["want_grad"]
    ]
    thresholds = [spans[i].attrs for i in named["thresholding"]]
    artifacts = sum(
        spans[i].seconds
        for name in CLI_ARTIFACT_SPANS
        for i in named[name]
        if tracer.has_ancestor(i, "cli.pipeline")
    )
    return {
        "ingest.load_csv_s": total("ingest.load_csv"),
        "ingest.bytes_read": total("ingest.load_csv", "bytes"),
        "ingest.write_csv_s": total("ingest.write_csv"),
        "ingest.write_libsvm_s": total("ingest.write_libsvm"),
        "ingest.bytes_written": total("ingest.write_csv", "bytes") + total("ingest.write_libsvm", "bytes"),
        "sp.original_s": median(original) if original else 0.0,
        "sp.embedded_s": median(embedded) if embedded else 0.0,
        "sp.members": sum(s.attrs["members"] for s in kernels),
        "sp.distance_flops": flops,
        "sp.gflops_per_s": flops / kernel_s / 1e9 if kernel_s > 0 else 0.0,
        "thresholding.s": total("thresholding"),
        "thresholding.outlier_candidates": sum(t["outliers"] for t in thresholds),
        "thresholding.fallback_fired": sum(t["fallback"] for t in thresholds),
        "sampling.s": total("sampling"),
        "sampling.batches": len(named["sampling"]),
        "learner.loss_grad_s": total("learner.loss_grad"),
        "learner.optimizer_s": total("learner.optimizer"),
        "learner.optimizer_bytes": total("learner.optimizer", "bytes"),
        "learner.steps": len(named["learner.optimizer"]),
        "learner.touched_cols_frac": float(np.mean([t[1] for t in touched])) if touched else 0.0,
        "learner.rows_per_batch": float(np.mean([t[0] for t in touched])) if touched else 0.0,
        "learner.train_self_s": sum(tracer.self_seconds(i) for i in named["learner.train"]),
        "learner.transform_s": total("learner.transform"),
        "pipeline.self_s": sum(tracer.self_seconds(i) for i in named["pipeline"]),
        "cli.artifacts_s": artifacts,
        "cli.load_model_s": total("learner.load_model"),
    }
