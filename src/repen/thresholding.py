"""Score thresholding into outlier/inlier candidate sets.

The cut relies on the one-sided Chebyshev (Cantelli) inequality: for any
score distribution with mean mu and standard deviation delta, at most a
fraction 1 / (1 + alpha^2) of the objects can score at or above
mu + alpha * delta. Applied to the empirical score vector with population
moments, the bound holds exactly, so the candidate outlier set carries a
guaranteed false-positive ceiling without distributional assumptions.
"""

from __future__ import annotations

import numpy as np

from .data import CandidateSets, OutlierScores

# Share of the objects that become outlier candidates when the Cantelli
# threshold selects none.
FALLBACK_FRACTION = 0.05


def cantelli_bound(alpha: float) -> float:
    """Fraction ceiling 1 / (1 + alpha^2) on objects scoring >= mu + alpha*delta."""
    return 1.0 / (1.0 + alpha * alpha)


def cantelli_partition(scores: OutlierScores, alpha: float) -> CandidateSets:
    """Split objects at the threshold mean + alpha * std (ties included above).

    Degenerate case: with zero score spread every object is "typical", so
    the outlier candidate set comes back empty and callers fall back to
    ``candidate_sets`` for a usable partition.
    """
    if alpha < 0:
        raise ValueError(f"alpha >= 0 required, got {alpha}")
    r = scores.scores
    n = r.shape[0]
    if scores.std == 0.0:
        return CandidateSets(np.empty(0, dtype=np.int64), np.arange(n))
    threshold = scores.mean + alpha * scores.std
    mask = r >= threshold
    return CandidateSets(np.flatnonzero(mask), np.flatnonzero(~mask))


def candidate_sets(scores: OutlierScores, alpha: float) -> CandidateSets:
    """Cantelli partition with a top-k fallback guaranteeing a non-empty O.

    When the threshold selects nothing (constant scores, or an alpha beyond
    the score range), the top ``max(1, ceil(FALLBACK_FRACTION * N))``
    scorers become the outlier candidates so that downstream sampling always
    has a negative pool. Ties at the boundary break by ascending index.
    """
    sets = cantelli_partition(scores, alpha)
    if sets.outlier_idx.size:
        return sets
    n = len(scores)
    k = max(1, int(np.ceil(FALLBACK_FRACTION * n)))
    k = min(k, n - 1)
    order = np.argsort(-scores.scores, kind="stable")
    return CandidateSets(order[:k], order[k:])
