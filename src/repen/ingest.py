"""Dataset loading, writing, and synthetic benchmark generation.

Supported file formats:

* svmlight/libsvm text: ``<label> <index>:<value> ...`` with 1-based,
  ascending feature indices (the reader has a ``zero_based`` switch for
  files that start at index 0); label 1 marks an outlier.
* numeric CSV with an optional header row and an optional label column.
"""

from __future__ import annotations

import csv
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .data import Dataset


def _fmt(value: float) -> str:
    """Shortest exact decimal form of a float (round-trips under float())."""
    return repr(float(value))


def load_libsvm(
    path,
    n_features_hint: Optional[int] = None,
    zero_based: bool = False,
) -> Dataset:
    """Load a sparse dataset from a libsvm-format text file.

    Feature indices are 1-based on disk and 0-based in memory unless
    ``zero_based`` is set. Out-of-order indices within a line are accepted
    and re-sorted; duplicate indices are an error. The feature count is
    ``max observed index + 1`` or ``n_features_hint``, whichever is larger.
    Label 1 marks an outlier; any other label an inlier.

    Args:
        path: file to read.
        n_features_hint: lower bound on the feature count; an index at or
            beyond the hint is an error.
        zero_based: treat on-disk indices as already 0-based.

    Raises:
        ValueError: on an empty file or a malformed line (the message names
            the 1-based line number).
    """
    indptr = [0]
    col_indices: list[np.ndarray] = []
    row_values: list[np.ndarray] = []
    labels = []
    max_index = -1
    offset = 0 if zero_based else 1
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise ValueError(f"line {lineno}: bad label {tokens[0]!r}") from None
            idx = np.empty(len(tokens) - 1, dtype=np.int64)
            val = np.empty(len(tokens) - 1, dtype=np.float64)
            for k, tok in enumerate(tokens[1:]):
                left, sep, right = tok.partition(":")
                if not sep:
                    raise ValueError(f"line {lineno}: bad feature token {tok!r}")
                try:
                    idx[k] = int(left)
                    val[k] = float(right)
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: bad feature token {tok!r}"
                    ) from None
            idx -= offset
            if idx.size and idx.min() < 0:
                raise ValueError(
                    f"line {lineno}: feature index below {offset} not allowed"
                )
            if n_features_hint is not None and idx.size and idx.max() >= n_features_hint:
                raise ValueError(
                    f"line {lineno}: feature index {idx.max() + offset} exceeds "
                    f"n_features_hint {n_features_hint}"
                )
            order = np.argsort(idx, kind="stable")
            idx, val = idx[order], val[order]
            if idx.size > 1 and np.any(np.diff(idx) == 0):
                raise ValueError(f"line {lineno}: duplicate feature index")
            if idx.size:
                max_index = max(max_index, int(idx[-1]))
            col_indices.append(idx)
            row_values.append(val)
            indptr.append(indptr[-1] + idx.size)
            labels.append(label)
    if not labels:
        raise ValueError("no records")
    d = max(max_index + 1, n_features_hint or 0, 1)
    matrix = sp.csr_matrix(
        (
            np.concatenate(row_values) if row_values else np.empty(0),
            np.concatenate(col_indices) if col_indices else np.empty(0, dtype=np.int64),
            np.asarray(indptr, dtype=np.int64),
        ),
        shape=(len(labels), d),
    )
    label_arr = np.asarray(labels) == 1.0
    return Dataset(matrix, labels=label_arr)


def write_libsvm(dataset: Dataset, path) -> None:
    """Write a dataset in libsvm format with 1-based indices.

    Outliers get label ``1``, inliers ``-1``; datasets without labels are
    written with label ``0`` (which loads back as all-inlier labels, so only
    labeled datasets round-trip exactly).
    """
    matrix = dataset.values if dataset.is_sparse else sp.csr_matrix(dataset.values)
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(dataset.n_objects):
            lo, hi = matrix.indptr[i], matrix.indptr[i + 1]
            if dataset.labels is None:
                label = "0"
            else:
                label = "1" if dataset.labels[i] else "-1"
            pairs = " ".join(
                f"{int(j) + 1}:{_fmt(v)}"
                for j, v in zip(matrix.indices[lo:hi], matrix.data[lo:hi])
            )
            handle.write(f"{label} {pairs}".rstrip() + "\n")


def load_csv(path, label_column: Optional[str] = None) -> Dataset:
    """Load a dense dataset from a rectangular numeric CSV file.

    A header row is detected when the first row contains any non-numeric
    cell. When ``label_column`` names a header column, that column is
    stripped into boolean labels (nonzero = outlier).

    Raises:
        ValueError: on ragged rows, non-numeric data cells, an empty file,
            or a missing label column.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        # (line number, cells) of each non-empty row, for error messages.
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise ValueError("no records")

    def _numeric(cell: str) -> bool:
        try:
            float(cell)
            return True
        except ValueError:
            return False

    header: Optional[list[str]] = None
    if not all(_numeric(c) for c in rows[0][1]):
        header = [c.strip() for c in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise ValueError("no records")
    label_pos = None
    if label_column is not None:
        if header is None or label_column not in header:
            raise ValueError(f"label column {label_column!r} not found in header")
        label_pos = header.index(label_column)

    width = len(rows[0][1]) if header is None else len(header)
    values = np.empty((len(rows), width), dtype=np.float64)
    for i, (lineno, row) in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"line {lineno}: expected {width} cells, got {len(row)}")
        for j, cell in enumerate(row):
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric cell {cell!r}") from None
    labels = None
    if label_pos is not None:
        labels = values[:, label_pos] != 0
        values = np.delete(values, label_pos, axis=1)
    return Dataset(values, labels=labels)


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset as CSV with a header; labels become a trailing ``label`` column."""
    values = dataset.to_dense()
    names = [f"f{j}" for j in range(dataset.n_features)]
    if dataset.labels is not None:
        names.append("label")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(names) + "\n")
        for i in range(dataset.n_objects):
            cells = [_fmt(v) for v in values[i]]
            if dataset.labels is not None:
                cells.append("1" if dataset.labels[i] else "0")
            handle.write(",".join(cells) + "\n")


def synth_gaussian_with_outliers(
    n_inliers: int,
    n_outliers: int,
    d_relevant: int,
    d_noise: int,
    separation: float,
    seed: int,
) -> Dataset:
    """Generate a labeled Gaussian benchmark with a shifted outlier cluster.

    Inliers are standard normal in the ``d_relevant`` leading features.
    Outliers are standard normal shifted along a random direction of that
    subspace, with per-relevant-feature shift magnitude ``separation``
    (shift vector norm ``separation * sqrt(d_relevant)``). Both groups are
    padded with ``d_noise`` standard-normal noise features. Rows are ordered
    inliers first, then outliers; output is deterministic given ``seed``.
    """
    if n_inliers < 1:
        raise ValueError(f"n_inliers >= 1 required, got {n_inliers}")
    if n_outliers < 0:
        raise ValueError(f"n_outliers >= 0 required, got {n_outliers}")
    if d_relevant < 1:
        raise ValueError(f"d_relevant >= 1 required, got {d_relevant}")
    if d_noise < 0:
        raise ValueError(f"d_noise >= 0 required, got {d_noise}")
    if separation <= 0:
        raise ValueError(f"separation > 0 required, got {separation}")
    if seed < 0:
        raise ValueError(f"seed >= 0 required, got {seed}")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d_relevant)
    direction /= np.linalg.norm(direction)
    shift = separation * np.sqrt(d_relevant) * direction
    n = n_inliers + n_outliers
    relevant = rng.standard_normal((n, d_relevant))
    relevant[n_inliers:] += shift
    if d_noise:
        values = np.hstack([relevant, rng.standard_normal((n, d_noise))])
    else:
        values = relevant
    labels = np.zeros(n, dtype=bool)
    labels[n_inliers:] = True
    return Dataset(values, labels=labels)


def check_downsample_settings(rate: float, seed: int) -> None:
    """Raise ValueError unless ``rate`` is in (0, 1) and ``seed`` >= 0."""
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate in (0, 1) required, got {rate}")
    if seed < 0:
        raise ValueError(f"seed >= 0 required, got {seed}")


def downsample_to_rate(dataset: Dataset, rate: float, seed: int) -> Dataset:
    """Subsample the outlier class so outliers make up ``rate`` of the data.

    Keeps every inlier and a uniform random subset of the outliers sized to
    hit the target rate (rounded down). Row order of kept objects is
    preserved.
    """
    check_downsample_settings(rate, seed)
    if dataset.labels is None:
        raise ValueError("downsampling requires labels")
    outliers = np.flatnonzero(dataset.labels)
    inliers = np.flatnonzero(~dataset.labels)
    keep = int(np.floor(rate * inliers.size / (1.0 - rate)))
    if keep < 1:
        raise ValueError("target rate keeps no outliers; increase rate")
    if keep > outliers.size:
        raise ValueError(
            f"need {keep} outliers for rate {rate}, dataset has {outliers.size}"
        )
    rng = np.random.default_rng(seed)
    chosen = rng.choice(outliers, size=keep, replace=False)
    kept = np.sort(np.concatenate([inliers, chosen]))
    return dataset.take(kept)


def minmax_scale(dataset: Dataset) -> Dataset:
    """Rescale each feature of a dense dataset to [0, 1] (constant -> 0)."""
    if dataset.is_sparse:
        raise ValueError("min-max scaling supports dense datasets only")
    values = dataset.values
    lo = values.min(axis=0)
    span = values.max(axis=0) - lo
    span[span == 0] = 1.0
    return Dataset((values - lo) / span, dataset.labels, dataset.known_outliers)
