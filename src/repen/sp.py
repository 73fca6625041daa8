"""Random nearest-neighbor-distance outlier scoring with a bagging ensemble.

Each ensemble member draws a small uniform subsample of the data; an
object's outlierness is its squared Euclidean distance to the nearest
subsample member, averaged over the ensemble. Squared distance preserves
the Euclidean rank order and avoids square roots.

An object never counts as its own nearest neighbor: when a query belongs to
the subsample it is excluded from the candidates, and if the exclusion
empties the subsample the member contributes distance 0 for that object.

All ensemble members are scored by one kernel: the subsample rows of every
member are stacked, one matrix product against them gives every object's
squared distance to every subsample row through the expansion
||a - b||^2 = ||a||^2 + ||b||^2 - 2<a, b>, and each member's minimum is
taken over its own columns. The kernel works on dense and CSR input alike.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .data import Dataset, OutlierScores, RepresentationModel
from .learner import transform
from .params import SpConfig

# Entries (float64) in one block of the object-by-subsample-row distance
# matrix; rows are processed in blocks of this size to bound memory.
BLOCK_ENTRIES = 1 << 22


def draw_subsamples(n_objects: int, config: SpConfig) -> list[np.ndarray]:
    """Draw the ensemble's subsample index lists from member-indexed streams.

    Each member gets its own child stream of the config seed, so results do
    not depend on evaluation order.
    """
    config.validate()
    if config.subsample_size >= n_objects:
        raise ValueError(
            f"subsample_size must be < N, got {config.subsample_size} >= {n_objects}"
        )
    root = np.random.SeedSequence(config.rng_seed)
    return [
        np.random.default_rng(child).choice(
            n_objects, size=config.subsample_size, replace=False
        )
        for child in root.spawn(config.ensemble_size)
    ]


def member_nn_dists(values, subsamples: Sequence[np.ndarray]) -> np.ndarray:
    """(N, m) nearest-subsample-member squared distances, one column per member.

    Members may differ in size. Each object's own subsample row is excluded
    from its member's minimum; a member left empty by that gives 0.
    """
    n = values.shape[0]
    idx = np.concatenate([np.asarray(s, dtype=np.int64) for s in subsamples])
    offsets = np.cumsum([0] + [len(s) for s in subsamples[:-1]])
    if sp.issparse(values):
        norms = np.asarray(values.multiply(values).sum(axis=1)).ravel()
    else:
        norms = np.einsum("ij,ij->i", values, values)
    points_t = values[idx].T
    point_norms = norms[idx]
    columns = np.arange(idx.size)
    out = np.empty((n, len(subsamples)), dtype=np.float64)
    step = max(1, BLOCK_ENTRIES // idx.size)
    for start in range(0, n, step):
        stop = min(n, start + step)
        gram = values[start:stop] @ points_t
        if sp.issparse(gram):
            gram = gram.toarray()
        d2 = norms[start:stop, None] + point_norms[None, :] - 2.0 * gram
        np.maximum(d2, 0.0, out=d2)
        own = (idx >= start) & (idx < stop)
        d2[idx[own] - start, columns[own]] = np.inf
        out[start:stop] = np.minimum.reduceat(d2, offsets, axis=1)
    out[~np.isfinite(out)] = 0.0
    return out


def sp_score_with_subsamples(dataset, subsamples: Sequence[np.ndarray]) -> OutlierScores:
    """Score against explicit subsample index lists (no randomness).

    Accepts a Dataset or a raw matrix. This is the permutation-equivariant
    core: relabeling objects and mapping the subsample indices the same way
    permutes the scores identically.
    """
    values = dataset.values if isinstance(dataset, Dataset) else dataset
    for idx in subsamples:
        if len(idx) == 0:
            raise ValueError("subsample index lists must be non-empty")
        if np.unique(idx).size != len(idx):
            raise ValueError("subsample index lists must not contain duplicates")
    dists = member_nn_dists(values, subsamples)
    return OutlierScores.from_scores(dists.mean(axis=1))


def sp_score(dataset: Dataset, config: SpConfig) -> OutlierScores:
    """Ensemble-averaged nearest-neighbor-distance outlier scores.

    Draws ``ensemble_size`` subsamples of ``subsample_size`` objects
    (without replacement within a member, independently across members) and
    averages each object's nearest-member squared distance over the
    ensemble. Deterministic given ``config.rng_seed``.
    """
    subsamples = draw_subsamples(dataset.n_objects, config)
    return sp_score_with_subsamples(dataset, subsamples)


def sp_score_embedded(
    dataset: Dataset, model: RepresentationModel, config: SpConfig
) -> OutlierScores:
    """``sp_score`` of the dataset transformed by ``model``.

    Distances are computed in the model's M dimensions instead of the
    input's D.
    """
    return sp_score(transform(model, dataset), config)
