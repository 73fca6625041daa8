"""Output checks that the benchmark computes itself, in plain numpy.

Every check compares the program's output against an independent
computation or a property the method guarantees, never against a stored
copy of an earlier output. A failed check raises ``CheckError``.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np
import scipy.sparse as sps

AUC_TOL = 1e-12
REL_TOL = 1e-9


class CheckError(Exception):
    """An output of the program is wrong."""


def pairwise_auc(scores, labels) -> float:
    """Share of (outlier, inlier) pairs in which the outlier scores higher; ties count 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    outliers, inliers = scores[labels], scores[~labels]
    if outliers.size == 0 or inliers.size == 0:
        raise CheckError("AUC needs both classes")
    wins = (outliers[:, None] > inliers[None, :]).sum()
    ties = (outliers[:, None] == inliers[None, :]).sum()
    return float((wins + 0.5 * ties) / (outliers.size * inliers.size))


def check_auc(reported: float, scores, labels, what: str) -> None:
    expected = pairwise_auc(scores, labels)
    if not abs(reported - expected) <= AUC_TOL:
        raise CheckError(f"{what}: reported AUC {reported!r} != pairwise count {expected!r}")


def check_auc_floor(auc_embedded: float, floor: float, what: str) -> None:
    if not auc_embedded >= floor:
        raise CheckError(f"{what}: learned-space AUC {auc_embedded:.4f} below floor {floor}")


def relative_error(actual, expected) -> float:
    """max |actual - expected| / max |expected|; inf when the shapes differ."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape:
        return math.inf
    if expected.size == 0:
        return 0.0
    return float(np.max(np.abs(actual - expected)) / max(np.max(np.abs(expected)), 1e-300))


def check_close(actual, expected, what: str, tol: float = REL_TOL) -> None:
    err = relative_error(actual, expected)
    if not err <= tol:
        raise CheckError(f"{what}: relative error {err:.3g} exceeds {tol:g}")


def relu_embedding(values, weights: np.ndarray) -> np.ndarray:
    """ReLU(X W) for dense or CSR X."""
    return np.maximum(np.asarray(values @ weights), 0.0)


def _squared_distances(values, i: int, cands: np.ndarray) -> np.ndarray:
    """Summed squared differences between row ``i`` and each row in ``cands``."""
    if sps.issparse(values):
        diff = values[cands] - values[np.full(cands.size, i)]
        return np.asarray(diff.multiply(diff).sum(axis=1)).ravel()
    diff = np.asarray(values[cands]) - np.asarray(values[i])
    return np.sum(diff * diff, axis=1)


def reference_scores(values, subsamples, rows) -> np.ndarray:
    """Ensemble mean of each row's minimum squared distance to a subsample.

    A row never counts as its own neighbour; a member whose only candidate
    is the row itself contributes 0. Distances are summed squared
    differences, not the norm expansion the program uses.
    """
    members = [np.asarray(m, dtype=np.int64) for m in subsamples]
    bounds = np.cumsum([0] + [m.size for m in members])
    out = np.empty(len(rows))
    for k, i in enumerate(rows):
        d2 = _squared_distances(values, int(i), np.concatenate(members))
        total = 0.0
        for j, member in enumerate(members):
            keep = member != i
            if keep.any():
                total += float(np.min(d2[bounds[j]:bounds[j + 1]][keep]))
        out[k] = total / len(members)
    return out


def sample_rows(n: int, subsamples, rng: np.random.Generator, count: int = 12) -> np.ndarray:
    """Rows to verify: some subsample members (self-exclusion) plus random rows."""
    members = [int(np.asarray(m)[0]) for m in subsamples[:4]]
    extra = rng.choice(n, size=min(count, n), replace=False)
    return np.unique(np.concatenate([members, extra]))


def check_scores(scores, values, subsamples, rows, what: str) -> None:
    scores = np.asarray(scores)
    if scores.shape != (values.shape[0],):
        raise CheckError(f"{what}: {scores.shape} scores for {values.shape[0]} rows")
    check_close(scores[rows], reference_scores(values, subsamples, rows), f"{what}: scores")


def check_candidates(outlier_idx, scores, alpha: float, what: str) -> bool:
    """Outlier candidates are the scores >= mean + alpha * std and at most
    1/(1+alpha^2) of all objects, unless the top-k fallback fired.

    Returns whether the fallback fired (no score reached the threshold).
    """
    scores = np.asarray(scores, dtype=np.float64)
    above = np.flatnonzero(scores >= scores.mean() + alpha * scores.std())
    fallback = scores.std() == 0.0 or above.size == 0
    if fallback:
        return True
    if not np.array_equal(np.sort(np.asarray(outlier_idx)), above):
        raise CheckError(f"{what}: outlier candidates are not the scores above the threshold")
    bound = 1.0 / (1.0 + alpha * alpha)
    if above.size / scores.size > bound:
        raise CheckError(f"{what}: candidate fraction {above.size / scores.size:.4f} > {bound:.4f}")
    return False


def check_violation(initial: float, final: float, what: str) -> None:
    if not final < initial:
        raise CheckError(f"{what}: final violation rate {final} not below initial {initial}")


def read_model(path) -> np.ndarray:
    """Weights of a model file: magic RPNM, <IQQ version/D/M, D*M <f8."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < 24 or blob[:4] != b"RPNM":
        raise CheckError(f"{path}: not a model file")
    version, d, m = struct.unpack("<IQQ", blob[4:24])
    if version != 1 or len(blob) != 24 + 8 * d * m:
        raise CheckError(f"{path}: bad header or size")
    return np.frombuffer(blob[24:], dtype="<f8").reshape(d, m).copy()


def read_csv_table(path):
    """(values, labels) of a CSV written with a header and a trailing label column."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, :-1], table[:, -1] != 0


def read_scores_csv(path) -> np.ndarray:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not np.array_equal(table[:, 0], np.arange(table.shape[0])):
        raise CheckError(f"{path}: index column is not 0..N-1")
    return table[:, 1]


def read_auc_txt(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            key, _, value = line.partition("=")
            out[key.strip()] = float(value)
    return out


def read_libsvm(path, n_features: int):
    """(CSR values, labels) of a 1-based libsvm file with labels 1 / -1."""
    labels, indptr, indices, data = [], [0], [], []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            label, _, rest = line.partition(" ")
            pairs = np.array(rest.replace(":", " ").split(), dtype=np.float64).reshape(-1, 2)
            labels.append(label == "1")
            indices.append(pairs[:, 0].astype(np.int64) - 1)
            data.append(pairs[:, 1])
            indptr.append(indptr[-1] + pairs.shape[0])
    values = sps.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), np.asarray(indptr)),
        shape=(len(labels), n_features),
    )
    return values, np.asarray(labels)


def check_downsample(out_values, out_labels, in_values, in_labels, rate: float, what: str) -> None:
    """Every inlier in order, plus floor(rate*inliers/(1-rate)) distinct input outliers, order kept."""
    in_labels = np.asarray(in_labels, dtype=bool)
    out_labels = np.asarray(out_labels, dtype=bool)
    n_in = int((~in_labels).sum())
    keep = math.floor(rate * n_in / (1.0 - rate))
    if int((~out_labels).sum()) != n_in or int(out_labels.sum()) != keep:
        raise CheckError(
            f"{what}: kept {int((~out_labels).sum())} inliers and {int(out_labels.sum())} "
            f"outliers, expected {n_in} and {keep}"
        )
    if sps.issparse(in_values):
        in_values, out_values = sps.csr_matrix(in_values), sps.csr_matrix(out_values)

        def key(matrix, r):
            lo, hi = matrix.indptr[r], matrix.indptr[r + 1]
            return matrix.indices[lo:hi].tobytes() + matrix.data[lo:hi].tobytes()
    else:
        in_values, out_values = np.asarray(in_values), np.asarray(out_values)

        def key(matrix, r):
            return np.ascontiguousarray(matrix[r]).tobytes()
    where = {}
    for r in range(in_values.shape[0]):
        where.setdefault((key(in_values, r), bool(in_labels[r])), []).append(r)
    source = []
    for r in range(out_values.shape[0]):
        rows = where.get((key(out_values, r), bool(out_labels[r])))
        if not rows:
            raise CheckError(f"{what}: output row {r} is not a row of the input")
        source.append(rows.pop(0))
    if np.any(np.diff(source) <= 0):
        raise CheckError(f"{what}: output rows are not in input order")


def array_digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).data).hexdigest()


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
