"""Shared test helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repen.data import Dataset
from repen.sp import nn_dist


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Exact equality of payload and labels (storage kind may differ)."""
    if a.n_objects != b.n_objects or a.n_features != b.n_features:
        return False
    if not np.array_equal(a.to_dense(), b.to_dense()):
        return False
    if (a.labels is None) != (b.labels is None):
        return False
    if a.labels is not None and not np.array_equal(a.labels, b.labels):
        return False
    return True


def pairwise_auc_oracle(scores, labels) -> float:
    """Brute-force AUC over all outlier/inlier pairs; ties count one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    out = scores[labels]
    inl = scores[~labels]
    wins = (out[:, None] > inl[None, :]).sum()
    ties = (out[:, None] == inl[None, :]).sum()
    return (wins + 0.5 * ties) / (out.size * inl.size)


def nn_dist_reference(values, subsamples) -> np.ndarray:
    """(N, m) member distances from one ``nn_dist`` call per object and member."""
    values = np.asarray(values.toarray() if hasattr(values, "toarray") else values)
    out = np.empty((values.shape[0], len(subsamples)))
    for j, sub in enumerate(subsamples):
        members = values[sub]
        for i, row in enumerate(values):
            out[i, j] = nn_dist(row, members, i, sub)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
