"""Experiment protocols: method comparison, labeled-outlier curves,
representation-dimension sweeps, and scalability measurements.

Each protocol is a loop over ``pipeline.run_pipeline``: it runs no stage
of its own and times nothing itself. Every protocol takes the pipeline's
``HyperParams`` and one ``params.ExperimentParams``, which holds the
protocols' settings and their defaults; it calls ``validate`` on it before
any run starts. Repeat r runs with ``rng_seed + r``. The labeled-outlier
curve and the dimension sweep compute the original-space stage once per
repeat and share it across every l or M, since it depends only on the data
and the seed. The sweep refuses any M above the dataset's feature count
before it runs anything.

Rows are built from the header constants of ``repen.evaluation``:
``RESULT_HEADER`` for the dataset protocols, ``SUMMARY_HEADER`` for the
comparison summary and ``SCALABILITY_HEADER`` for the timing table. A
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
from .evaluation import RESULT_HEADER, SCALABILITY_HEADER, SUMMARY_HEADER
from .ingest import synth_gaussian_with_outliers
from .params import DEFAULT_M_GRID, ExperimentParams, HyperParams
from .pipeline import PipelineResult, original_stage, run_pipeline


def _require_both_classes(dataset: Dataset, protocol: str) -> None:
    labels = dataset.labels
    if labels is None or labels.all() or not labels.any():
        raise ValueError(f"{protocol} requires ground-truth labels of both classes")


def _row(*cells) -> dict:
    """One result row from its cells in ``RESULT_HEADER`` order."""
    return dict(zip(RESULT_HEADER, cells, strict=True))


def _repen_row(result: PipelineResult, repeat: int, n_labeled: int = 0) -> dict:
    """The learned-space row of one pipeline run."""
    return _row("repen_sp", result.embedded.n_features, n_labeled, repeat, result.auc_embedded,
                result.stage_seconds["score_embedded"], result.offline_seconds)


def run_comparison(
    dataset: Dataset, params: HyperParams, settings: ExperimentParams
) -> tuple[list[dict], list[dict]]:
    """Compare detection in the original space against the learned space.

    Returns (per-repeat rows, per-method summary) over ``settings.repeats``
    repeats. Summary rows carry the mean and standard deviation of AUC over
    repeats and the mean detection time.
    """
    settings.validate()
    _require_both_classes(dataset, "comparison")
    rows: list[dict] = []
    for rep in range(settings.repeats):
        result = run_pipeline(dataset, replace(params, rng_seed=params.rng_seed + rep))
        rows.append(_row("original_sp", dataset.n_features, 0, rep, result.auc_original,
                         result.stage_seconds["score_original"], 0.0))
        rows.append(_repen_row(result, rep))
    return rows, summarize_rows(rows)


def summarize_rows(rows: Sequence[dict]) -> list[dict]:
    """Aggregate per-repeat rows into one ``SUMMARY_HEADER`` row per method."""
    out = []
    for method in dict.fromkeys(row["method"] for row in rows):
        got = [row for row in rows if row["method"] == method]
        aucs = np.asarray([row["auc"] for row in got], dtype=np.float64)
        cells = (method, float(aucs.mean()), float(aucs.std()),
                 float(np.mean([row["detect_seconds"] for row in got])))
        out.append(dict(zip(SUMMARY_HEADER, cells, strict=True)))
    return out


def run_labeled_curve(
    dataset: Dataset, params: HyperParams, settings: ExperimentParams
) -> list[dict]:
    """Detection quality as a function of the number of labeled outliers.

    For each l in ``settings.l_values``, a repeat draws l ground-truth
    outliers as the labeled pool; those rows feed the negative sampler
    during training and are held out of the reported AUC. l = 0 reproduces
    the comparison protocol's learned-space rows exactly.
    """
    settings.validate()
    _require_both_classes(dataset, "labeled curve")
    pool = np.flatnonzero(dataset.labels)
    max_l = max(settings.l_values)
    if max_l >= pool.size:
        raise ValueError(
            f"labeled pool too small: need more than {max_l} ground-truth outliers, "
            f"dataset has {pool.size}"
        )
    rows = []
    for rep in range(settings.repeats):
        p = replace(params, rng_seed=params.rng_seed + rep)
        original = original_stage(dataset, p)
        for l in settings.l_values:
            ds = dataset
            if l:
                draw = np.random.default_rng([p.rng_seed, l]).choice(pool, size=l, replace=False)
                ds = Dataset(dataset.values, dataset.labels, known_outliers=draw)
            rows.append(_repen_row(run_pipeline(ds, p, original), rep, l))
    return rows


def run_dim_sensitivity(
    dataset: Dataset, params: HyperParams, settings: ExperimentParams
) -> list[dict]:
    """Sweep the representation dimension over ``settings.m_values``.

    An empty ``m_values`` sweeps ``DEFAULT_M_GRID``, the paper's grid. Every
    size must be at most the dataset's feature count.
    """
    settings.validate()
    _require_both_classes(dataset, "dimension sweep")
    grid = settings.m_values or DEFAULT_M_GRID
    if max(grid) > dataset.n_features:
        raise ValueError(
            f"every m_values entry <= n_features required, got {max(grid)} > "
            f"{dataset.n_features}{'' if settings.m_values else ' in the default grid'}"
        )
    rows = []
    for rep in range(settings.repeats):
        p = replace(params, rng_seed=params.rng_seed + rep)
        original = original_stage(dataset, p)
        for m in grid:
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
    cells = (axis, n, d, train_s, median["transform"], median["score_embedded"],
             sum(median.values()))
    return dict(zip(SCALABILITY_HEADER, cells, strict=True))


def run_scalability(params: HyperParams, settings: ExperimentParams) -> list[dict]:
    """Total pipeline wall time on synthetic data along the N and D axes.

    ``settings.sizes`` sweeps the object count at ``size_sweep_dim``
    features; ``settings.dims`` sweeps the feature count at
    ``dim_sweep_size`` objects. Each cell is the per-stage median over
    three ``run_pipeline`` runs.
    """
    settings.validate()
    rows = [
        _scalability_cell(n, settings.size_sweep_dim, params, "size", settings)
        for n in settings.sizes
    ]
    rows += [
        _scalability_cell(settings.dim_sweep_size, d, params, "dimension", settings)
        for d in settings.dims
    ]
    return rows
