"""Shared test helpers and the reference oracles the suite checks against."""

from __future__ import annotations

import numpy as np
import pytest

from repen.data import Dataset
from repen.learner import OptimizerState, _batch_loss_grad


def _dense(values) -> np.ndarray:
    return values.toarray() if hasattr(values, "toarray") else np.asarray(values)


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Exact equality of payload and labels (storage kind may differ)."""
    if a.n_objects != b.n_objects or a.n_features != b.n_features:
        return False
    if not np.array_equal(_dense(a.values), _dense(b.values)):
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


def nn_dist(query, subsample, query_index=None, subsample_indices=None) -> float:
    """Minimum squared Euclidean distance from ``query`` to the subsample.

    When both ``query_index`` and ``subsample_indices`` are given, any
    subsample member with the query's own index is excluded; if that leaves
    no candidates the distance is 0.

    Raises:
        ValueError: on an empty subsample or mismatched dimensions.
    """
    query = np.asarray(query, dtype=np.float64)
    members = np.asarray(subsample, dtype=np.float64)
    if members.ndim == 1:
        members = members.reshape(1, -1)
    if members.shape[0] == 0:
        raise ValueError("subsample must be non-empty")
    if members.shape[1] != query.shape[0]:
        raise ValueError(
            f"dimension mismatch: query has {query.shape[0]} features, "
            f"subsample has {members.shape[1]}"
        )
    keep = np.ones(members.shape[0], dtype=bool)
    if query_index is not None and subsample_indices is not None:
        keep = np.asarray(subsample_indices) != query_index
        if not keep.any():
            return 0.0
    diff = members[keep] - query
    return float(np.min(np.einsum("ij,ij->i", diff, diff)))


def nn_dist_reference(values, subsamples) -> np.ndarray:
    """(N, m) member distances from one ``nn_dist`` call per object and member."""
    values = _dense(values)
    out = np.empty((values.shape[0], len(subsamples)))
    for j, sub in enumerate(subsamples):
        members = values[sub]
        for i, row in enumerate(values):
            out[i, j] = nn_dist(row, members, i, sub)
    return out


def one_triplet(query, positive, negative):
    """One triplet as the (1, n), (1,) and (1,) index arrays of ``_batch_loss_grad``."""
    return (
        np.asarray([query], dtype=np.int64),
        np.asarray([positive], dtype=np.int64),
        np.asarray([negative], dtype=np.int64),
    )


def one_triplet_loss(values, weights, batch, margin) -> float:
    """The hinge loss of a ``one_triplet`` batch."""
    return float(_batch_loss_grad(values, weights, *batch, margin, False)[0][0])


def finite_difference_gradient(values, weights, batch, margin, h=1e-5):
    """Central-difference oracle for the gradient of ``one_triplet_loss``."""
    grad = np.zeros_like(weights)
    for i in range(weights.shape[0]):
        for k in range(weights.shape[1]):
            plus = weights.copy()
            plus[i, k] += h
            minus = weights.copy()
            minus[i, k] -= h
            grad[i, k] = (
                one_triplet_loss(values, plus, batch, margin)
                - one_triplet_loss(values, minus, batch, margin)
            ) / (2 * h)
    return grad


def relative_gradient_error(analytic, numeric) -> float:
    """Max entry error relative to the gradient scale.

    A flat gradient (both sides uniformly below 1e-6) is compared with an
    absolute 1e-8 tolerance instead, since central differences of an exactly
    flat loss return roundoff crumbs that have no meaningful relative size.
    """
    diff = float(np.abs(analytic - numeric).max())
    scale = float(max(np.abs(analytic).max(), np.abs(numeric).max()))
    if scale < 1e-6:
        return 0.0 if diff < 1e-8 else diff / max(scale, 1e-8)
    return diff / scale


def reference_batch_loss_grad(values, weights, queries, positives, negatives, margin):
    """Losses (b,) and the full (D, M) batch-mean gradient, or None when no
    triplet has a positive loss: ``values[rows].T @ coeff`` over every row of
    the batch, with no cache, as ``_batch_loss_grad`` once returned it."""
    b, n = queries.shape
    rows = np.unique(np.concatenate([queries.ravel(), positives, negatives]))
    loc_q = np.searchsorted(rows, queries)
    loc_p = np.searchsorted(rows, positives)
    loc_n = np.searchsorted(rows, negatives)
    excl_pos = queries == positives[:, None]
    excl_neg = queries == negatives[:, None]
    valid = ~excl_pos.all(axis=1) & ~excl_neg.all(axis=1)
    arange = np.arange(b)

    block = values[rows]
    pre = np.asarray(block @ weights)
    emb = np.maximum(pre, 0.0)
    eq = emb[loc_q]
    epos = emb[loc_p][:, None, :]
    eneg = emb[loc_n][:, None, :]
    d_pos_all = np.where(excl_pos, np.inf, ((epos - eq) ** 2).sum(axis=2))
    d_neg_all = np.where(excl_neg, np.inf, ((eneg - eq) ** 2).sum(axis=2))
    sel_pos = np.argmin(d_pos_all, axis=1)
    sel_neg = np.argmin(d_neg_all, axis=1)
    d_pos = np.where(valid, d_pos_all[arange, sel_pos], 0.0)
    d_neg = np.where(valid, d_neg_all[arange, sel_neg], 0.0)
    losses = np.where(valid, np.maximum(0.0, margin + d_pos - d_neg), 0.0)

    active = losses > 0.0
    if not active.any():
        return losses, None
    active_mask = pre > 0.0
    qp = loc_q[arange, sel_pos]
    qn = loc_q[arange, sel_neg]
    u = (emb[loc_p] - emb[qp]) * (2.0 * active)[:, None]
    v = (emb[loc_n] - emb[qn]) * (2.0 * active)[:, None]
    coeff = np.zeros((rows.size, weights.shape[1]))
    np.add.at(coeff, loc_p, u * active_mask[loc_p])
    np.add.at(coeff, qp, -u * active_mask[qp])
    np.add.at(coeff, loc_n, -v * active_mask[loc_n])
    np.add.at(coeff, qn, v * active_mask[qn])
    grad = np.asarray(block.T @ coeff)
    grad /= b
    return losses, grad


def dense_gradient(grad, shape) -> np.ndarray:
    """A ``RowGradient`` of ``_batch_loss_grad`` as a full array of ``shape``;
    None, an exactly zero gradient, gives zeros."""
    out = np.zeros(shape)
    if grad is not None:
        out[grad.rows] = grad.values
    return out


def reference_adadelta_step(state, weights, gradient):
    """The ADADELTA update as whole-array formulas: new weights and state, inputs untouched."""
    rho, eps = state.decay, state.eps
    accum_g = rho * state.accum_grad_sq + (1.0 - rho) * gradient * gradient
    step = -np.sqrt(state.accum_update_sq + eps) / np.sqrt(accum_g + eps) * gradient
    accum_u = rho * state.accum_update_sq + (1.0 - rho) * step * step
    return weights + step, OptimizerState(accum_g, accum_u, rho, eps)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
