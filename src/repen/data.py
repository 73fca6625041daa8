"""Core domain types shared by every stage of the pipeline.

All numeric payloads are 64-bit floats. Datasets and representation models
are treated as immutable after construction: nothing in this package mutates
their arrays, and callers should not either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from .params import HyperParams  # noqa: F401  (re-exported)

Matrix = Union[np.ndarray, sp.csr_matrix]


def _as_index_array(indices) -> np.ndarray:
    """Normalize an index collection to a sorted, unique int64 array."""
    arr = np.unique(np.asarray(indices, dtype=np.int64))
    return arr


class Dataset:
    """A fixed table of N objects with D numeric features.

    Storage is either a dense row-major float64 matrix or a CSR sparse matrix
    whose per-row column indices are strictly increasing. Optional per-object
    boolean labels mark ground-truth outliers (True = outlier), and an
    optional index set marks outliers known up front as prior knowledge.

    Args:
        values: (N, D) array-like or scipy CSR matrix.
        labels: optional length-N boolean array, True for outliers.
        known_outliers: optional indices of outliers available as labels
            during training.
    """

    def __init__(self, values, labels=None, known_outliers=None):
        if sp.issparse(values):
            values = values.tocsr().astype(np.float64)
        else:
            values = np.asarray(values, dtype=np.float64)
            if values.ndim != 2:
                raise ValueError(f"values must be 2-D, got shape {values.shape}")
        self.values: Matrix = values
        if labels is not None:
            labels = np.asarray(labels, dtype=bool)
            if labels.shape != (self.n_objects,):
                raise ValueError(
                    f"labels must have shape ({self.n_objects},), got {labels.shape}"
                )
        self.labels: Optional[np.ndarray] = labels
        if known_outliers is not None:
            known_outliers = _as_index_array(known_outliers)
        self.known_outliers: Optional[np.ndarray] = known_outliers

    @property
    def n_objects(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.values)

    def take(self, indices) -> "Dataset":
        """Return a new dataset containing only the given rows, in order."""
        idx = np.asarray(indices, dtype=np.int64)
        labels = self.labels[idx] if self.labels is not None else None
        return Dataset(self.values[idx], labels, None)


def _all_finite(values: np.ndarray) -> bool:
    """True when no entry is NaN or infinite; an empty array is finite.

    NaN propagates through ``min`` and ``max`` and each infinity lands in
    one of them, so two reductions answer without a full-size boolean mask.
    """
    return values.size == 0 or bool(np.isfinite(values.min()) and np.isfinite(values.max()))


def validate(dataset: Dataset) -> list[str]:
    """Check a dataset against its structural invariants.

    Returns a list of human-readable violation messages; an empty list means
    the dataset is valid. Never mutates its argument.
    """
    issues: list[str] = []
    n, d = dataset.n_objects, dataset.n_features
    if n < 2:
        issues.append("N >= 2 required")
    if d < 1:
        issues.append("D >= 1 required")
    if dataset.is_sparse:
        m = dataset.values
        idx, ptr = m.indices, m.indptr
        if idx.size:
            if idx.min() < 0 or idx.max() >= d:
                issues.append("sparse feature index out of range [0, D)")
            steps = np.diff(idx)
            row_start = np.zeros(idx.size, dtype=bool)
            row_start[ptr[1:-1][ptr[1:-1] < idx.size]] = True
            if np.any((steps <= 0) & ~row_start[1:]):
                issues.append("unsorted sparse indices")
        if not _all_finite(m.data):
            issues.append("non-finite values")
    elif not _all_finite(dataset.values):
        issues.append("non-finite values")
    ko = dataset.known_outliers
    if ko is not None and ko.size:
        if ko.min() < 0 or ko.max() >= n:
            issues.append("known_outliers index out of range [0, N)")
        elif dataset.labels is not None and not dataset.labels[ko].all():
            issues.append("known_outliers must be labeled outliers")
    return issues


def require_valid(dataset: Dataset) -> None:
    """Raise one ValueError naming every violation ``validate`` finds."""
    issues = validate(dataset)
    if issues:
        raise ValueError("invalid dataset: " + "; ".join(issues))


@dataclass
class OutlierScores:
    """Per-object outlierness (higher = more outlying) with its moments.

    ``mean`` and ``std`` are the empirical mean and population (divide-by-N)
    standard deviation of ``scores``; the threshold bound downstream holds
    exactly only with population moments.
    """

    scores: np.ndarray
    mean: float
    std: float

    @classmethod
    def from_scores(cls, scores) -> "OutlierScores":
        scores = np.asarray(scores, dtype=np.float64)
        return cls(scores=scores, mean=float(scores.mean()), std=float(scores.std()))

    def __len__(self) -> int:
        return self.scores.shape[0]


@dataclass
class CandidateSets:
    """Disjoint outlier/inlier candidate index sets partitioning [0, N)."""

    outlier_idx: np.ndarray
    inlier_idx: np.ndarray

    def __post_init__(self):
        self.outlier_idx = _as_index_array(self.outlier_idx)
        self.inlier_idx = _as_index_array(self.inlier_idx)


class RepresentationModel:
    """A learned linear-plus-ReLU map from D input features to M features.

    The map's k-th output is max(0, w_k . x) where w_k is column k of the
    (D, M) weight matrix.
    """

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
        if not _all_finite(weights):
            raise ValueError("weights must be finite")
        d, m = weights.shape
        if m < 1:
            raise ValueError("rep_dim >= 1 required")
        if m > d:
            raise ValueError(f"rep_dim must be <= n_features, got {m} > {d}")
        self.weights = weights

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    @property
    def rep_dim(self) -> int:
        return self.weights.shape[1]
