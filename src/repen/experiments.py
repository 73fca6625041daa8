"""Experiment protocols: method comparison, labeled-outlier curves,
representation-dimension sweeps, and scalability measurements.

Every protocol varies only the seed across repeats (repeat r runs with
``rng_seed + r``), reports per-repeat rows under the fixed result schema,
and times each reported detection cell as the median of three runs.
Detection time covers scoring only; training, transform, and data loading
are excluded.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Sequence

import numpy as np

from . import sp
from .data import Dataset
from .evaluation import auc, timed_median
from .ingest import synth_gaussian_with_outliers
from .learner import train, transform
from .params import HyperParams
from .pipeline import evaluation_mask, run_pipeline, stage_seeds
from .thresholding import candidate_sets

# Representation sizes swept by the dimension-sensitivity protocol.
DEFAULT_M_GRID = (1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)


def _masked(dataset: Dataset, scores: np.ndarray) -> float:
    mask = evaluation_mask(dataset)
    return auc(scores[mask], dataset.labels[mask])


def run_comparison(
    dataset: Dataset,
    params: HyperParams,
    repeats: int = 10,
) -> tuple[list[dict], list[dict]]:
    """Compare detection in the original space against the learned space.

    Returns (per-repeat rows, per-method summary). Summary rows carry the
    mean and standard deviation of AUC over repeats and the mean detection
    time.
    """
    if dataset.labels is None:
        raise ValueError("comparison requires ground-truth labels")
    rows: list[dict] = []
    for rep in range(repeats):
        p = replace(params, rng_seed=params.rng_seed + rep)
        seed_orig, _, seed_emb = stage_seeds(p.rng_seed)
        result = run_pipeline(dataset, p)

        cfg_orig = p.detector(seed_orig)
        _, t_orig = timed_median(lambda: sp.sp_score(dataset, cfg_orig))
        rows.append(
            {
                "method": "original_sp",
                "M": dataset.n_features,
                "n_labeled": 0,
                "repeat": rep,
                "auc": _masked(dataset, result.original_scores.scores),
                "detect_seconds": t_orig,
                "train_seconds": 0.0,
            }
        )

        cfg_emb = p.detector(seed_emb)
        _, t_emb = timed_median(lambda: sp.sp_score(result.embedded, cfg_emb))
        rows.append(
            {
                "method": "repen_sp",
                "M": p.rep_dim,
                "n_labeled": 0,
                "repeat": rep,
                "auc": result.auc_embedded,
                "detect_seconds": t_emb,
                "train_seconds": result.train_seconds,
            }
        )
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
    repeats: int = 10,
) -> list[dict]:
    """Detection quality as a function of the number of labeled outliers.

    For each l, a repeat draws l ground-truth outliers as the labeled pool;
    those rows feed the negative sampler during training and are held out of
    the reported AUC. l = 0 reproduces the comparison protocol's learned-
    space rows exactly.
    """
    if dataset.labels is None:
        raise ValueError("labeled curve requires ground-truth labels")
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
        _, _, seed_emb = stage_seeds(p.rng_seed)
        for l in l_values:
            if l == 0:
                ds = dataset
            else:
                draw = np.random.default_rng([p.rng_seed, l]).choice(
                    pool, size=l, replace=False
                )
                ds = Dataset(dataset.values, dataset.labels, known_outliers=draw)
            result = run_pipeline(ds, p)
            cfg = p.detector(seed_emb)
            _, t_emb = timed_median(lambda: sp.sp_score(result.embedded, cfg))
            rows.append(
                {
                    "method": "repen_sp",
                    "M": p.rep_dim,
                    "n_labeled": l,
                    "repeat": rep,
                    "auc": result.auc_embedded,
                    "detect_seconds": t_emb,
                    "train_seconds": result.train_seconds,
                }
            )
    return rows


def run_dim_sensitivity(
    dataset: Dataset,
    params: HyperParams,
    m_values: Sequence[int] = DEFAULT_M_GRID,
    repeats: int = 10,
) -> list[dict]:
    """Sweep the representation dimension over ``m_values``."""
    if dataset.labels is None:
        raise ValueError("dimension sweep requires ground-truth labels")
    rows = []
    for rep in range(repeats):
        for m in m_values:
            p = replace(params, rep_dim=m, rng_seed=params.rng_seed + rep)
            _, _, seed_emb = stage_seeds(p.rng_seed)
            result = run_pipeline(dataset, p)
            cfg = p.detector(seed_emb)
            _, t_emb = timed_median(lambda: sp.sp_score(result.embedded, cfg))
            rows.append(
                {
                    "method": "repen_sp",
                    "M": m,
                    "n_labeled": 0,
                    "repeat": rep,
                    "auc": result.auc_embedded,
                    "detect_seconds": t_emb,
                    "train_seconds": result.train_seconds,
                }
            )
    return rows


def _scalability_cell(
    n: int,
    d: int,
    params: HyperParams,
    axis: str,
    outlier_rate: float,
    d_relevant: int,
    separation: float,
) -> dict:
    n_out = max(1, int(round(outlier_rate * n)))
    dataset = synth_gaussian_with_outliers(
        n - n_out, n_out, d_relevant, d - d_relevant, separation, seed=params.rng_seed
    )
    seed_orig, seed_train, seed_emb = stage_seeds(params.rng_seed)

    def one_run():
        t0 = time.perf_counter()
        scores = sp.sp_score(dataset, params.detector(seed_orig))
        sets = candidate_sets(scores, params.alpha)
        model, _ = train(dataset, sets, scores, replace(params, rng_seed=seed_train))
        t1 = time.perf_counter()
        embedded = transform(model, dataset)
        t2 = time.perf_counter()
        sp.sp_score(embedded, params.detector(seed_emb))
        t3 = time.perf_counter()
        return t1 - t0, t2 - t1, t3 - t2

    trials = [one_run() for _ in range(3)]
    train_s = float(np.median([t[0] for t in trials]))
    transform_s = float(np.median([t[1] for t in trials]))
    detect_s = float(np.median([t[2] for t in trials]))
    return {
        "axis": axis,
        "n_objects": n,
        "n_features": d,
        "train_seconds": train_s,
        "transform_seconds": transform_s,
        "detect_seconds": detect_s,
        "total_seconds": train_s + transform_s + detect_s,
    }


def run_scalability(
    params: HyperParams,
    sizes: Sequence[int] = (),
    dims: Sequence[int] = (),
    size_sweep_dim: int = 10000,
    dim_sweep_size: int = 10000,
    outlier_rate: float = 0.02,
    d_relevant: int = 10,
    separation: float = 6.0,
) -> list[dict]:
    """Total pipeline wall time on synthetic data along the N and D axes.

    ``sizes`` sweeps the object count at ``size_sweep_dim`` features;
    ``dims`` sweeps the feature count at ``dim_sweep_size`` objects. Each
    cell is the per-stage median over three full runs.
    """
    rows = []
    for n in sizes:
        rows.append(
            _scalability_cell(
                n, size_sweep_dim, params, "size",
                outlier_rate, d_relevant, separation,
            )
        )
    for d in dims:
        rows.append(
            _scalability_cell(
                dim_sweep_size, d, params, "dimension",
                outlier_rate, d_relevant, separation,
            )
        )
    return rows
