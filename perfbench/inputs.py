"""Seeded input generators for the benchmark workloads.

The benchmark makes its own inputs, independent of the generators inside
``repen``, so that a change to the program never changes what the
benchmark feeds it. Every generator is a pure function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps


@dataclass(frozen=True)
class DenseSpec:
    """Gaussian inliers plus a shifted Gaussian outlier cluster.

    Inliers are standard normal. Outliers are standard normal shifted by
    ``separation`` per relevant feature along a random direction of the
    first ``d_relevant`` features. The remaining features are pure noise.
    """

    n_inliers: int = 1000
    n_outliers: int = 20
    d_relevant: int = 10
    d_features: int = 5000
    separation: float = 6.0


@dataclass(frozen=True)
class SparseSpec:
    """Topic-structured CSR rows with uniformly scattered outliers.

    Each inlier picks one of ``n_topics`` vocabularies (disjoint random
    column sets of ``vocab_size`` columns) and draws ``nnz_per_row``
    distinct columns from it with Zipf(``zipf_s``) weights, so inliers of
    one topic share their frequent columns. Each outlier draws its columns
    uniformly from all ``d_features`` columns and so shares almost none.
    Values are uniform on [0.5, 1.5).
    """

    n_inliers: int = 4900
    n_outliers: int = 100
    d_features: int = 1_000_000
    nnz_per_row: int = 200
    n_topics: int = 5
    vocab_size: int = 20_000
    zipf_s: float = 1.1


def dense_gaussian(spec: DenseSpec, seed: int):
    """Return (values (N, D) float64, labels (N,) bool), outliers last."""
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(spec.d_relevant)
    direction /= np.linalg.norm(direction)
    n = spec.n_inliers + spec.n_outliers
    values = rng.standard_normal((n, spec.d_features))
    values[spec.n_inliers:, : spec.d_relevant] += (
        spec.separation * np.sqrt(spec.d_relevant) * direction
    )
    labels = np.zeros(n, dtype=bool)
    labels[spec.n_inliers:] = True
    return values, labels


def sparse_topics(spec: SparseSpec, seed: int):
    """Return (values CSR (N, D), labels (N,) bool), rows shuffled."""
    rng = np.random.default_rng(seed)
    vocab = rng.permutation(spec.d_features)[: spec.n_topics * spec.vocab_size]
    vocab = vocab.reshape(spec.n_topics, spec.vocab_size)
    weights = 1.0 / np.arange(1, spec.vocab_size + 1) ** spec.zipf_s
    weights /= weights.sum()
    topic = rng.integers(spec.n_topics, size=spec.n_inliers)
    n = spec.n_inliers + spec.n_outliers
    cols = np.empty((n, spec.nnz_per_row), dtype=np.int64)
    for i in range(spec.n_inliers):
        picks = rng.choice(spec.vocab_size, size=spec.nnz_per_row, replace=False, p=weights)
        cols[i] = vocab[topic[i], picks]
    for i in range(spec.n_inliers, n):
        cols[i] = rng.choice(spec.d_features, size=spec.nnz_per_row, replace=False)
    cols.sort(axis=1)
    data = rng.uniform(0.5, 1.5, size=cols.shape)
    indptr = np.arange(0, n * spec.nnz_per_row + 1, spec.nnz_per_row)
    values = sps.csr_matrix(
        (data.ravel(), cols.ravel(), indptr), shape=(n, spec.d_features)
    )
    labels = np.zeros(n, dtype=bool)
    labels[spec.n_inliers:] = True
    order = rng.permutation(n)
    return values[order], labels[order]


def write_labeled_csv(path, values: np.ndarray, labels: np.ndarray) -> int:
    """Write a header row ``f0..f{D-1},label`` and one row per object.

    Cells use Python's shortest round-trip float form, so the file parses
    back to exactly ``values``. Returns the file size in bytes.
    """
    header = ",".join([f"f{j}" for j in range(values.shape[1])] + ["label"])
    size = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        size += handle.write(header + "\n")
        for row, label in zip(values.tolist(), labels.tolist()):
            size += handle.write(",".join(map(repr, row)) + (",1\n" if label else ",0\n"))
    return size
