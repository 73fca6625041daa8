"""Representation learning with a nearest-query hinge ranking loss.

The representation is a single fully-connected layer with ReLU activation:
feature k of the embedding is max(0, w_k . x). Training pushes each
negative example's squared distance to its nearest embedded query above the
positive example's by a margin:

    J = max(0, margin + d(f(x+), Q) - d(f(x-), Q))

where d(., Q) is the minimum squared Euclidean distance to the embedded
query set. Gradients are exact subgradients: the hinge contributes nothing
when J = 0, distance terms flow only through the selected nearest query
member for each side (argmin ties break toward the lowest query position),
and the ReLU mask zeroes coordinates whose pre-activation is <= 0. A query
member with the same dataset index as the positive (or negative) is skipped
in the min; a side with every member skipped makes the whole triplet
contribute zero.

Batches average per-triplet gradients over all b triplets (zero-loss
triplets included). A batch whose triplets all meet the margin has an
exactly zero gradient, and a zero-gradient ADADELTA step leaves the
weights alone and only decays the accumulators by ``rho``, so training
skips it. On dense input every other batch takes one full-matrix ADADELTA
step, in place and one row block at a time, which first applies the k
decays skipped since the last step as k successive products on each
block. CSR input trains on its occupied columns only: a column with no
nonzero in any row has a zero gradient at every step, so its weight row
keeps its initial value and needs no optimizer state. A CSR step goes
further and updates only the rows its gradient reaches, those of the
columns of the batch rows with a nonzero coefficient. Every other row has
an exactly zero gradient, which makes its update exactly one decay of
both accumulators, so the row carries its decays until its next step and
takes them there as successive products; the decays still owed after a
row's last step only touch optimizer state that training then drops.

Model persistence format (stable): little-endian binary, magic ``RPNM``,
uint32 version (currently 1), uint64 D, uint64 M, then D*M float64 weights
in row-major order.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .data import CandidateSets, Dataset, OutlierScores, RepresentationModel
from .params import HyperParams
from .sampling import sample_batch_arrays, sampling_pools

_MODEL_MAGIC = b"RPNM"
_MODEL_VERSION = 1


def embed_matrix(weights: np.ndarray, values) -> np.ndarray:
    """ReLU(values @ weights) for a dense or CSR matrix of inputs."""
    pre = values @ weights
    pre = np.asarray(pre)
    return np.maximum(pre, 0.0)


def transform(model: RepresentationModel, dataset: Dataset) -> Dataset:
    """Embed every object, producing a dense (N, M) dataset.

    Labels and known-outlier marks carry through unchanged.
    """
    if model.n_features != dataset.n_features:
        raise ValueError(
            f"model expects {model.n_features} features, dataset has {dataset.n_features}"
        )
    return Dataset(
        embed_matrix(model.weights, dataset.values),
        dataset.labels,
        dataset.known_outliers,
    )


@dataclass
class PreActivationCache:
    """Rows of ``values @ weights`` for the current weights, filled on demand.

    ``pre[i]`` is valid only where ``fresh[i]``. ``train`` keeps one per
    call and clears ``fresh`` after every weight update.
    """

    pre: np.ndarray
    fresh: np.ndarray

    @classmethod
    def empty(cls, n: int, m: int) -> "PreActivationCache":
        return cls(np.empty((n, m)), np.zeros(n, dtype=bool))


class RowGradient(NamedTuple):
    """The rows of a weight gradient that may be nonzero.

    ``values[i]`` is the gradient of weight row ``rows[i]``; every other
    row's gradient is exactly zero. ``rows`` is ``slice(None)`` when
    ``values`` holds every row.
    """

    rows: np.ndarray | slice
    values: np.ndarray


def _batch_loss_grad(
    values,
    weights: np.ndarray,
    queries: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
    margin: float,
    want_grad: bool = True,
    *,
    cache: PreActivationCache | None = None,
):
    """Losses (b,) and the batch-mean weight gradient as a ``RowGradient``.

    ``queries`` has shape (b, n); positives/negatives have shape (b,).
    Returns ``(losses, grad)``. ``grad`` is None when ``want_grad`` is
    false, and also when no triplet has a positive loss, since the
    gradient is then exactly zero.

    The gradient is ``block.T @ coeff`` over the batch's rows of ``values``.
    On dense input it is that product, reported as every row. On CSR input
    it is the product over the batch rows with a nonzero coefficient, on
    the columns those rows occupy, and it has the same bits there: scipy
    adds each output row's terms in batch-row order, and the terms left out
    are exact zeros.

    With a ``cache`` holding some of the batch's rows, only the others are
    computed (and stored), and an inactive batch costs no more. A batch
    with a positive loss is computed again from its own rows' product, as
    without the cache, because BLAS may round a row of a product
    differently depending on the other rows in it; only a triplet within
    rounding of the margin could then be judged inactive when it is not.
    """
    b, n = queries.shape
    rows = np.unique(np.concatenate([queries.ravel(), positives, negatives]))
    loc_q = np.searchsorted(rows, queries)
    loc_p = np.searchsorted(rows, positives)
    loc_n = np.searchsorted(rows, negatives)
    excl_pos = queries == positives[:, None]
    excl_neg = queries == negatives[:, None]
    valid = ~excl_pos.all(axis=1) & ~excl_neg.all(axis=1)
    arange = np.arange(b)

    def hinge(pre):
        emb = np.maximum(pre, 0.0)
        eq = emb[loc_q]                      # (b, n, M)
        epos = emb[loc_p][:, None, :]        # (b, 1, M)
        eneg = emb[loc_n][:, None, :]
        d_pos_all = np.where(excl_pos, np.inf, ((epos - eq) ** 2).sum(axis=2))   # (b, n)
        d_neg_all = np.where(excl_neg, np.inf, ((eneg - eq) ** 2).sum(axis=2))
        sel_pos = np.argmin(d_pos_all, axis=1)
        sel_neg = np.argmin(d_neg_all, axis=1)
        d_pos = np.where(valid, d_pos_all[arange, sel_pos], 0.0)
        d_neg = np.where(valid, d_neg_all[arange, sel_neg], 0.0)
        losses = np.where(valid, np.maximum(0.0, margin + d_pos - d_neg), 0.0)
        return emb, sel_pos, sel_neg, losses

    pre = None
    if cache is not None and cache.fresh[rows].any():
        stale = rows[~cache.fresh[rows]]
        if stale.size:
            cache.pre[stale] = np.asarray(values[stale] @ weights)
            cache.fresh[stale] = True
        pre = cache.pre[rows]
        emb, sel_pos, sel_neg, losses = hinge(pre)
        # Rows from other batches' products only show that every triplet
        # meets the margin (see the docstring).
        if np.any(losses > 0.0):
            pre = None
    if pre is None:
        block = values[rows]
        pre = np.asarray(block @ weights)
        if cache is not None:
            cache.pre[rows] = pre
            cache.fresh[rows] = True
        emb, sel_pos, sel_neg, losses = hinge(pre)

    active = losses > 0.0
    if not want_grad or not active.any():
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

    if sp.issparse(block):
        live = np.flatnonzero(coeff.any(axis=1))
        part = block[live]
        cols, local = np.unique(part.indices, return_inverse=True)
        part = sp.csr_matrix((part.data, local, part.indptr), shape=(live.size, cols.size))
        grad_rows, grad = cols, part.T @ coeff[live]
    else:
        grad_rows, grad = slice(None), np.asarray(block.T @ coeff)
    grad /= b
    return losses, RowGradient(grad_rows, grad)


@dataclass
class OptimizerState:
    """ADADELTA accumulators: decayed squared gradients and squared updates.

    ``adadelta_step`` updates both arrays in place.
    """

    accum_grad_sq: np.ndarray
    accum_update_sq: np.ndarray
    decay: float = 0.95
    eps: float = 1e-4

    @classmethod
    def zeros(cls, d: int, m: int, decay: float = 0.95, eps: float = 1e-4) -> "OptimizerState":
        return cls(np.zeros((d, m)), np.zeros((d, m)), decay, eps)


# adadelta_step works through row blocks of about this many cells, so the
# arrays of one block (four operands and two temporaries) stay in cache.
STEP_BLOCK_CELLS = 1 << 15


def _decay_rows(acc_g: np.ndarray, acc_u: np.ndarray, counts: np.ndarray, rho: float) -> None:
    """Multiply row i of both accumulators by ``rho`` ``counts[i]`` times, one product each.

    The rows are taken in order of decreasing count, so every round of
    products covers a leading slice of them.
    """
    order = np.argsort(counts)[::-1]
    order = order[counts[order] > 0]
    if not order.size:
        return
    ordered = counts[order]
    # ends[s]: how many rows take an (s + 1)-th product.
    ends = np.searchsorted(-ordered, -np.arange(ordered[0]))
    for acc in (acc_g, acc_u):
        part = acc[order]
        for end in ends:
            part[:end] *= rho
        acc[order] = part


def adadelta_step(
    state: OptimizerState,
    weights: np.ndarray,
    gradient: np.ndarray,
    *,
    skipped: int | np.ndarray = 0,
) -> tuple[np.ndarray, OptimizerState]:
    """One ADADELTA update of ``weights`` and ``state``, in place; returns both.

    accum_g <- rho * accum_g + (1 - rho) * g^2
    step    <- -sqrt(accum_u + eps) / sqrt(accum_g + eps) * g
    accum_u <- rho * accum_u + (1 - rho) * step^2
    weights <- weights + step

    ``skipped`` first decays both accumulators by ``rho`` that many times,
    one product each, as that many zero-gradient steps would; an array of
    counts gives each row its own. The update is elementwise, so it runs in
    the formulas' operation order over row blocks of about
    ``STEP_BLOCK_CELLS`` cells, which stay in cache and give the bits of
    whole-array formulas; on CSR input ``train`` passes it the rows of one
    ``RowGradient`` with their own pending decays.
    """
    shapes = {gradient.shape, state.accum_grad_sq.shape, state.accum_update_sq.shape}
    if shapes != {weights.shape}:
        raise ValueError("weights, gradient, and optimizer state shapes must agree")
    rho, eps = state.decay, state.eps
    n, m = weights.shape
    counts = np.asarray(skipped)
    if counts.ndim and counts.shape != (n,):
        raise ValueError("skipped counts must give one count per weight row")
    rows = max(1, STEP_BLOCK_CELLS // max(m, 1))
    tmp_a = np.empty((min(rows, n), m))
    tmp_b = np.empty_like(tmp_a)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        acc_g, acc_u = state.accum_grad_sq[lo:hi], state.accum_update_sq[lo:hi]
        g, a, b = gradient[lo:hi], tmp_a[: hi - lo], tmp_b[: hi - lo]
        if counts.ndim:
            _decay_rows(acc_g, acc_u, counts[lo:hi], rho)
        else:
            for _ in range(skipped):
                acc_g *= rho
                acc_u *= rho
        np.multiply(1.0 - rho, g, out=a)
        a *= g
        acc_g *= rho
        acc_g += a
        np.add(acc_u, eps, out=a)
        np.sqrt(a, out=a)
        np.negative(a, out=a)
        np.add(acc_g, eps, out=b)
        np.sqrt(b, out=b)
        a /= b
        a *= g                          # the step
        np.multiply(1.0 - rho, a, out=b)
        b *= a
        acc_u *= rho
        acc_u += b
        weights[lo:hi] += a
    return weights, state


def _step_rows(
    state: OptimizerState, weights: np.ndarray, grad: RowGradient, *, skipped: np.ndarray
) -> None:
    """``adadelta_step`` on the rows of ``grad``, gathered out of ``weights``
    and ``state`` and written back. The gathered copies are freed on return,
    so they are not held while the next batch's gradient is built."""
    full = (weights, state.accum_grad_sq, state.accum_update_sq)
    w, acc_g, acc_u = (np.take(a, grad.rows, axis=0) for a in full)
    adadelta_step(OptimizerState(acc_g, acc_u, state.decay, state.eps), w, grad.values,
                  skipped=skipped)
    for a, stepped in zip(full, (w, acc_g, acc_u)):
        a[grad.rows] = stepped


@dataclass
class TrainReport:
    """Loss trajectory plus triplet-ordering quality before and after training.

    The violation rate is the fraction of a held-out evaluation batch whose
    positive-side distance plus margin still exceeds the negative-side
    distance (i.e. triplets with positive loss). ``update_steps`` counts
    the training steps that took an ADADELTA update, those whose batch had
    a triplet with positive loss; the others left the weights unchanged.
    ``last_update_step`` is the last of them (steps count from 1; 0 when
    none did).
    """

    epoch_mean_loss: list[float] = field(default_factory=list)
    final_mean_loss: float = 0.0
    violation_rate: float = 0.0
    initial_violation_rate: float = 0.0
    update_steps: int = 0
    last_update_step: int = 0


def check_rep_dim(rep_dim: int, n_features: int) -> None:
    """Raise ValueError if the representation is wider than the input."""
    if rep_dim > n_features:
        raise ValueError(f"rep_dim must be <= n_features, got {rep_dim} > {n_features}")


def initial_weights(d: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Fan-scaled uniform init on (-sqrt(6/(D+M)), sqrt(6/(D+M)))."""
    limit = math.sqrt(6.0 / (d + m))
    return rng.uniform(-limit, limit, size=(d, m))


def train(
    dataset: Dataset,
    sets: CandidateSets,
    scores: OutlierScores,
    params: HyperParams,
) -> tuple[RepresentationModel, TrainReport]:
    """Learn representation weights from candidate sets and their scores.

    Runs ``n_epochs * ceil(samples_per_epoch / batch_size)`` batches; each
    batch samples triplets and averages their gradients. Separate child
    streams drive initialization, every batch, and the held-out evaluation
    batch, so runs are reproducible from ``params.rng_seed`` alone and
    independent of evaluation order.

    A batch with no positive-loss triplet takes no step (see the module
    docs); pre-activations come from a ``PreActivationCache`` that every
    update invalidates. On CSR input the weights, the optimizer state and
    every product cover only the occupied columns, renumbered in order so
    each row keeps its column order; a step gathers the weight and
    accumulator rows of its ``RowGradient``, decays them by the steps
    since each row's last one and writes them back. The trained rows are
    written back into the full (D, M) initial draw, which dense input's
    steps update in place. The weights are bit-identical to those of the
    plain (D, M) update on every row.

    The dataset's ``known_outliers`` (if any) serve as the labeled pool.
    """
    params.validate()
    d = dataset.n_features
    m = params.rep_dim
    check_rep_dim(m, d)
    pools = sampling_pools(sets, scores, dataset.known_outliers, params.labeled_fraction)

    root = np.random.SeedSequence(params.rng_seed)
    init_ss, batch_ss, eval_ss = root.spawn(3)
    weights = initial_weights(d, m, np.random.default_rng(init_ss))
    values = dataset.values
    occupied = slice(None)
    if sp.issparse(values):
        occupied, local = np.unique(values.indices, return_inverse=True)
        values = sp.csr_matrix(
            (values.data, local, values.indptr), shape=(values.shape[0], occupied.size)
        )
        del local  # the CSR holds its own (int32) copy
    trained = weights[occupied]
    state = OptimizerState.zeros(len(trained), m, params.optimizer_decay, params.optimizer_eps)
    last = np.zeros(len(trained), dtype=np.int64)  # each CSR row's last step
    cache = PreActivationCache.empty(values.shape[0], m)
    n_batches = math.ceil(params.samples_per_epoch / params.batch_size)

    def _sample(rng: np.random.Generator):
        return sample_batch_arrays(pools, params.query_size, params.batch_size, rng)

    def _eval_losses() -> np.ndarray:
        q, p, g = _sample(np.random.default_rng(eval_ss))
        losses, _ = _batch_loss_grad(
            values, trained, q, p, g, params.margin, want_grad=False, cache=cache
        )
        return losses

    init_losses = _eval_losses()
    report = TrainReport(initial_violation_rate=float((init_losses > 0).mean()))

    streams = batch_ss.spawn(params.n_epochs * n_batches) if params.n_epochs else []
    k = 0
    for _ in range(params.n_epochs):
        epoch_losses = np.empty(n_batches)
        for j in range(n_batches):
            q, p, g = _sample(np.random.default_rng(streams[k]))
            k += 1
            losses, grad = _batch_loss_grad(
                values, trained, q, p, g, params.margin, cache=cache
            )
            epoch_losses[j] = losses.mean()
            if grad is None:  # every triplet met the margin
                continue
            if isinstance(grad.rows, slice):  # dense: every row, in place
                adadelta_step(state, trained, grad.values, skipped=k - 1 - report.last_update_step)
            else:
                _step_rows(state, trained, grad, skipped=k - 1 - last[grad.rows])
                last[grad.rows] = k
            cache.fresh[:] = False
            report.update_steps += 1
            report.last_update_step = k
        report.epoch_mean_loss.append(float(epoch_losses.mean()))

    final_losses = _eval_losses()
    report.violation_rate = float((final_losses > 0).mean())
    report.final_mean_loss = (
        report.epoch_mean_loss[-1] if report.epoch_mean_loss else float(final_losses.mean())
    )
    weights[occupied] = trained
    return RepresentationModel(weights), report


def save_model(model: RepresentationModel, path) -> None:
    """Write a model in the stable binary layout described in the module docs."""
    header = _MODEL_MAGIC + struct.pack(
        "<IQQ", _MODEL_VERSION, model.n_features, model.rep_dim
    )
    with open(path, "wb") as handle:
        handle.write(header)
        np.ascontiguousarray(model.weights, dtype="<f8").tofile(handle)


def load_model(path) -> RepresentationModel:
    """Read a model written by ``save_model``, straight into one weight array."""
    with open(path, "rb") as handle:
        header = handle.read(24)
        if header[:4] != _MODEL_MAGIC:
            raise ValueError("not a representation model file (bad magic)")
        size = os.fstat(handle.fileno()).st_size
        if size < 24:
            raise ValueError(f"model file truncated: {size} bytes, header needs 24")
        version, d, m = struct.unpack("<IQQ", header[4:24])
        if version != _MODEL_VERSION:
            raise ValueError(f"unsupported model version {version}")
        expected = 24 + d * m * 8
        if size != expected:
            raise ValueError(f"model file truncated: expected {expected} bytes, got {size}")
        weights = np.fromfile(handle, dtype="<f8", count=d * m).reshape(d, m)
    return RepresentationModel(weights)
