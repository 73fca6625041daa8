"""Experiment protocols: method comparison, labeled-outlier curves,
representation-dimension sweeps, and scalability measurements.

Each protocol is a loop over ``pipeline.run_pipeline``: it runs no stage
of its own and times nothing itself. Repeat r runs with ``rng_seed + r``.
The protocols' keyword defaults come from ``params.ExperimentParams``, and
its ``validate`` checks their arguments before any run starts. The
labeled-outlier curve and the dimension sweep compute the original-space
stage once per repeat and share it across every l or M, since it depends
only on the data and the seed.

Result rows follow the fixed schema of ``evaluation.RESULT_HEADER``. A
row's ``detect_seconds`` is the scoring stage of the run that produced it,
read from ``PipelineResult.stage_seconds``: ``score_original`` for an
``original_sp`` row, ``score_embedded`` for a ``repen_sp`` row.
``train_seconds`` is the run's offline phase (``offline_seconds``), which
for a shared original-space stage counts that stage's one run.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .data import Dataset
from .ingest import synth_gaussian_with_outliers
from .params import DEFAULT_M_GRID, ExperimentParams, HyperParams
from .pipeline import PipelineResult, original_stage, run_pipeline


def _require_both_classes(dataset: Dataset, protocol: str) -> None:
    labels = dataset.labels
    if labels is None or labels.all() or not labels.any():
        raise ValueError(f"{protocol} requires ground-truth labels of both classes")


def _row(method: str, m: int, repeat: int, auc, detect_seconds: float,
         n_labeled: int = 0, train_seconds: float = 0.0) -> dict:
    """One result row."""
    return {
        "method": method,
        "M": m,
        "n_labeled": n_labeled,
        "repeat": repeat,
        "auc": auc,
        "detect_seconds": detect_seconds,
        "train_seconds": train_seconds,
    }


def _repen_row(result: PipelineResult, repeat: int, n_labeled: int = 0) -> dict:
    """The learned-space row of one pipeline run."""
    return _row("repen_sp", result.embedded.n_features, repeat, result.auc_embedded,
                result.stage_seconds["score_embedded"], n_labeled, result.offline_seconds)


def run_comparison(
    dataset: Dataset,
    params: HyperParams,
    repeats: int = ExperimentParams.repeats,
) -> tuple[list[dict], list[dict]]:
    """Compare detection in the original space against the learned space.

    Returns (per-repeat rows, per-method summary). Summary rows carry the
    mean and standard deviation of AUC over repeats and the mean detection
    time.
    """
    ExperimentParams(repeats=repeats).validate()
    _require_both_classes(dataset, "comparison")
    rows: list[dict] = []
    for rep in range(repeats):
        result = run_pipeline(dataset, replace(params, rng_seed=params.rng_seed + rep))
        rows.append(_row("original_sp", dataset.n_features, rep, result.auc_original,
                         result.stage_seconds["score_original"]))
        rows.append(_repen_row(result, rep))
    summary = summarize_rows(rows)
    return rows, summary


def summarize_rows(rows: Sequence[dict]) -> list[dict]:
    """Aggregate per-repeat rows into one row per method (mean/std AUC)."""
    out = []
    for method in dict.fromkeys(row["method"] for row in rows):
        got = [row for row in rows if row["method"] == method]
        aucs = np.asarray([row["auc"] for row in got], dtype=np.float64)
        out.append(
            {
                "method": method,
                "mean_auc": float(aucs.mean()),
                "std_auc": float(aucs.std()),
                "mean_detect_seconds": float(
                    np.mean([row["detect_seconds"] for row in got])
                ),
            }
        )
    return out


def run_labeled_curve(
    dataset: Dataset,
    params: HyperParams,
    l_values: Sequence[int],
    repeats: int = ExperimentParams.repeats,
) -> list[dict]:
    """Detection quality as a function of the number of labeled outliers.

    For each l, a repeat draws l ground-truth outliers as the labeled pool;
    those rows feed the negative sampler during training and are held out of
    the reported AUC. l = 0 reproduces the comparison protocol's learned-
    space rows exactly.
    """
    ExperimentParams(repeats=repeats, l_values=l_values).validate()
    _require_both_classes(dataset, "labeled curve")
    pool = np.flatnonzero(dataset.labels)
    max_l = max(l_values)
    if max_l >= pool.size:
        raise ValueError(
            f"labeled pool too small: need more than {max_l} ground-truth outliers, "
            f"dataset has {pool.size}"
        )
    rows = []
    for rep in range(repeats):
        p = replace(params, rng_seed=params.rng_seed + rep)
        original = original_stage(dataset, p)
        for l in l_values:
            if l == 0:
                ds = dataset
            else:
                draw = np.random.default_rng([p.rng_seed, l]).choice(
                    pool, size=l, replace=False
                )
                ds = Dataset(dataset.values, dataset.labels, known_outliers=draw)
            rows.append(_repen_row(run_pipeline(ds, p, original), rep, l))
    return rows


def run_dim_sensitivity(
    dataset: Dataset,
    params: HyperParams,
    m_values: Sequence[int] = ExperimentParams.m_values,
    repeats: int = ExperimentParams.repeats,
) -> list[dict]:
    """Sweep the representation dimension over ``m_values``.

    An empty ``m_values`` sweeps ``DEFAULT_M_GRID``, the paper's grid.
    """
    ExperimentParams(repeats=repeats, m_values=m_values).validate()
    _require_both_classes(dataset, "dimension sweep")
    rows = []
    for rep in range(repeats):
        p = replace(params, rng_seed=params.rng_seed + rep)
        original = original_stage(dataset, p)
        for m in m_values or DEFAULT_M_GRID:
            rows.append(_repen_row(run_pipeline(dataset, replace(p, rep_dim=m), original), rep))
    return rows


def _scalability_cell(
    n: int, d: int, params: HyperParams, axis: str, settings: ExperimentParams
) -> dict:
    n_out = settings.n_outliers(n)
    dataset = synth_gaussian_with_outliers(
        n - n_out, n_out, settings.d_relevant, d - settings.d_relevant,
        settings.separation, seed=params.rng_seed,
    )
    runs = [run_pipeline(dataset, params).stage_seconds for _ in range(3)]
    median = {stage: float(np.median([run[stage] for run in runs])) for stage in runs[0]}
    train_s = median["score_original"] + median["threshold"] + median["train"]
    return {
        "axis": axis,
        "n_objects": n,
        "n_features": d,
        "train_seconds": train_s,
        "transform_seconds": median["transform"],
        "detect_seconds": median["score_embedded"],
        "total_seconds": sum(median.values()),
    }


def run_scalability(
    params: HyperParams,
    sizes: Sequence[int] = ExperimentParams.sizes,
    dims: Sequence[int] = ExperimentParams.dims,
    size_sweep_dim: int = ExperimentParams.size_sweep_dim,
    dim_sweep_size: int = ExperimentParams.dim_sweep_size,
    outlier_rate: float = ExperimentParams.outlier_rate,
    d_relevant: int = ExperimentParams.d_relevant,
    separation: float = ExperimentParams.separation,
) -> list[dict]:
    """Total pipeline wall time on synthetic data along the N and D axes.

    ``sizes`` sweeps the object count at ``size_sweep_dim`` features;
    ``dims`` sweeps the feature count at ``dim_sweep_size`` objects. Each
    cell is the per-stage median over three ``run_pipeline`` runs.
    """
    settings = ExperimentParams(
        sizes=sizes, dims=dims, size_sweep_dim=size_sweep_dim,
        dim_sweep_size=dim_sweep_size, outlier_rate=outlier_rate,
        d_relevant=d_relevant, separation=separation,
    )
    settings.validate()
    rows = [_scalability_cell(n, size_sweep_dim, params, "size", settings) for n in sizes]
    rows += [
        _scalability_cell(dim_sweep_size, d, params, "dimension", settings) for d in dims
    ]
    return rows
