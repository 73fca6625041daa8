"""Score-weighted triplet sampling for representation training.

Queries are drawn from the inlier candidates with probability inversely
proportional to outlier score (representative inliers are preferred),
positives uniformly from the inlier candidates (diversity), and negatives
from the outlier candidates proportionally to score (likely outliers are
preferred). When labeled outliers are available, part of each batch draws
its negatives uniformly from the labeled pool instead, and labeled indices
are dropped from the inlier side so they never act as pseudo-inliers.

All draws are with replacement across triplets and come from an explicit
generator argument, so batch construction is deterministic per stream.
The pools and their weights depend only on the scores, the sets, the
labels and the labeled fraction, so a fit computes them once
(``sampling_pools``), every batch draws from them, and any warning about
degenerate scores fires once per fit, not once per batch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import CandidateSets, OutlierScores


def query_sampling_weights(scores: OutlierScores, inliers) -> np.ndarray:
    """Selection probabilities over the inlier candidates, low score favored.

    Weight of inlier i is (Z - r_i) / sum_t (Z - r_t) with Z the sum of
    inlier scores. Degenerate pools (a single inlier, or all-zero scores)
    fall back to uniform.
    """
    inliers = np.asarray(inliers, dtype=np.int64)
    if inliers.size == 0:
        raise ValueError("inlier candidate set must be non-empty")
    r = scores.scores[inliers]
    z = r.sum()
    raw = z - r
    total = raw.sum()
    if total <= 0.0:
        return np.full(inliers.size, 1.0 / inliers.size)
    return raw / total


def negative_sampling_weights(scores: OutlierScores, outliers) -> np.ndarray:
    """Selection probabilities over the outlier candidates, high score favored.

    Weight of candidate j is r_j / sum_t r_t. If every candidate scores
    zero, falls back to uniform with a warning.
    """
    outliers = np.asarray(outliers, dtype=np.int64)
    if outliers.size == 0:
        raise ValueError("outlier candidate set must be non-empty")
    r = scores.scores[outliers]
    total = r.sum()
    if total <= 0.0:
        warnings.warn(
            "all outlier-candidate scores are zero; using uniform negative weights"
        )
        return np.full(outliers.size, 1.0 / outliers.size)
    return r / total


@dataclass(frozen=True)
class SamplingPools:
    """What every batch of one fit draws from, fixed once per fit with the labeled fraction."""

    inliers: np.ndarray
    query_weights: np.ndarray
    outliers: np.ndarray
    negative_weights: np.ndarray | None
    labeled: np.ndarray | None
    labeled_fraction: float


def sampling_pools(
    sets: CandidateSets, scores: OutlierScores, labeled=None, labeled_fraction: float = 0.5
) -> SamplingPools:
    """Index pools and selection weights for ``sample_batch_arrays``.

    Labeled indices are removed from the inlier side. An empty ``labeled``
    counts as none. The negative weights are None when no negative comes
    from the outlier candidates (a labeled pool and ``labeled_fraction``
    1).
    """
    inliers = sets.inlier_idx
    labeled_arr = None
    if labeled is not None:
        labeled_arr = np.asarray(labeled, dtype=np.int64)
        if labeled_arr.size == 0:
            labeled_arr = None
    if labeled_arr is not None:
        inliers = np.setdiff1d(inliers, labeled_arr)
    if inliers.size == 0:
        raise ValueError("no inlier candidates left to sample from")
    if sets.outlier_idx.size == 0:
        raise ValueError("outlier candidate set must be non-empty")
    only_labeled = labeled_arr is not None and labeled_fraction == 1.0
    return SamplingPools(
        inliers,
        query_sampling_weights(scores, inliers),
        sets.outlier_idx,
        None if only_labeled else negative_sampling_weights(scores, sets.outlier_idx),
        labeled_arr,
        labeled_fraction,
    )


def sample_batch_arrays(
    pools: SamplingPools, n: int, b: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one batch as index arrays: queries (b, n), positives and negatives (b,).

    With a labeled pool, the last ``floor(b * pools.labeled_fraction)``
    negatives come uniformly from it and the rest from the outlier
    candidates by score weighting.
    """
    if n < 1:
        raise ValueError(f"query size >= 1 required, got {n}")
    if b < 1:
        raise ValueError(f"batch size >= 1 required, got {b}")

    queries = rng.choice(pools.inliers, size=(b, n), replace=True, p=pools.query_weights)
    positives = rng.choice(pools.inliers, size=b, replace=True)

    n_labeled = int(b * pools.labeled_fraction) if pools.labeled is not None else 0
    n_candidates = b - n_labeled
    parts = []
    if n_candidates:
        parts.append(rng.choice(pools.outliers, size=n_candidates, replace=True,
                                p=pools.negative_weights))
    if n_labeled:
        parts.append(rng.choice(pools.labeled, size=n_labeled, replace=True))
    negatives = np.concatenate(parts)
    return queries, positives, negatives
