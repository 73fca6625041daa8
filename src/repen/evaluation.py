"""Ranking quality and result tables.

``auc`` is the reported detection quality, and ``masked_auc`` decides
which rows it covers and whether it is reported at all. ``RESULT_HEADER``
and ``SCALABILITY_HEADER`` fix the experiment tables' columns, which
``write_rows_csv`` writes byte-deterministically; ``write_gnuplot_script``
plots one table.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.stats import rankdata

from .data import Dataset, OutlierScores

# Fixed schema for experiment result tables.
RESULT_HEADER = (
    "method",
    "M",
    "n_labeled",
    "repeat",
    "auc",
    "detect_seconds",
    "train_seconds",
)

# Timing tables have their own schema (they report no ranking quality).
SCALABILITY_HEADER = (
    "axis",
    "n_objects",
    "n_features",
    "train_seconds",
    "transform_seconds",
    "detect_seconds",
    "total_seconds",
)


def auc(scores, labels) -> float:
    """Probability that a random outlier outscores a random inlier.

    Computed from average ranks (Mann-Whitney), so tied scores contribute
    one half. Requires both classes to be present.
    """
    if isinstance(scores, OutlierScores):
        scores = scores.scores
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have the same length")
    n_out = int(labels.sum())
    n_in = labels.size - n_out
    if n_out == 0 or n_in == 0:
        raise ValueError("AUC needs at least one outlier and one inlier label")
    ranks = rankdata(scores)
    return float((ranks[labels].sum() - n_out * (n_out + 1) / 2.0) / (n_out * n_in))


def masked_auc(scores: OutlierScores, dataset: Dataset) -> Optional[float]:
    """AUC over the labeled rows that are not known outliers; None unless both classes remain."""
    if dataset.labels is None:
        return None
    mask = np.ones(dataset.n_objects, dtype=bool)
    if dataset.known_outliers is not None:
        mask[dataset.known_outliers] = False
    labels = dataset.labels[mask]
    if labels.all() or not labels.any():
        return None
    return auc(scores.scores[mask], labels)


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    return repr(float(value))


def write_rows_csv(path, rows: Iterable[dict], header: Sequence[str] = RESULT_HEADER) -> None:
    """Write dict rows as CSV under a fixed header, byte-deterministic."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_format_cell(row.get(col)) for col in header) + "\n")


def write_gnuplot_script(
    path,
    csv_path,
    x_column: int,
    y_column: int,
    title: str,
    xlabel: str,
    ylabel: str,
    logscale: bool = False,
) -> None:
    """Emit a small gnuplot script plotting one CSV column against another.

    Column numbers are 1-based as gnuplot expects. The script is an optional
    convenience side output; nothing else depends on it.
    """
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
        "set key off",
        "set grid",
    ]
    if logscale:
        lines.append("set logscale xy")
    lines.append(
        f"plot '{csv_path}' every ::1 using {x_column}:{y_column} with linespoints pt 7"
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
