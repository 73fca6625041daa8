"""Representation map, ranking loss, exact gradients, optimizer, training."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sps

from repen import learner
from repen.data import (
    CandidateSets,
    Dataset,
    HyperParams,
    OutlierScores,
    RepresentationModel,
    Triplet,
)
from repen.ingest import synth_gaussian_with_outliers
from repen.learner import (
    OptimizerState,
    PreActivationCache,
    _batch_loss_grad,
    adadelta_step,
    initial_weights,
    load_model,
    loss_gradient,
    save_model,
    train,
    transform,
    triplet_loss,
)
from repen.pipeline import run_pipeline
from repen.sampling import sample_batch_arrays, sampling_pools
from repen.sp import SpConfig, sp_score
from repen.thresholding import candidate_sets


def finite_difference_gradient(model, data, triplet, margin, h=1e-5):
    """Central-difference oracle for the loss gradient."""
    w = model.weights
    grad = np.zeros_like(w)
    for i in range(w.shape[0]):
        for k in range(w.shape[1]):
            plus = w.copy()
            plus[i, k] += h
            minus = w.copy()
            minus[i, k] -= h
            grad[i, k] = (
                triplet_loss(RepresentationModel(plus), data, triplet, margin)
                - triplet_loss(RepresentationModel(minus), data, triplet, margin)
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


def random_instance(rng, d_max=30, m_max=5):
    d = int(rng.integers(2, d_max + 1))
    m = int(rng.integers(1, min(m_max, d) + 1))
    n = int(rng.integers(1, 4))
    n_rows = n + 2 + int(rng.integers(0, 3))
    data = Dataset(rng.standard_normal((n_rows, d)))
    idx = rng.choice(n_rows, size=n + 2, replace=False)
    triplet = Triplet(tuple(int(i) for i in idx[:n]), int(idx[n]), int(idx[n + 1]))
    model = RepresentationModel(rng.standard_normal((d, m)) * 0.7)
    return model, data, triplet


class TestEmbed:
    """The ReLU(XW) map, applied to whole datasets through ``transform``."""

    @staticmethod
    def _embed(weights, values):
        return transform(RepresentationModel(np.asarray(weights, dtype=float)),
                         Dataset(values)).values

    def test_identity_clips_negatives(self):
        np.testing.assert_array_equal(self._embed(np.eye(2), [[3.0, -4.0]]), [[3.0, 0.0]])

    def test_zero_weights_give_zero(self, rng):
        out = self._embed(np.zeros((5, 3)), rng.standard_normal((4, 5)))
        np.testing.assert_array_equal(out, np.zeros((4, 3)))

    def test_hand_dot_product(self):
        np.testing.assert_array_equal(self._embed([[1.0], [1.0]], [[2.0, 5.0]]), [[7.0]])

    def test_sparse_row(self):
        import scipy.sparse as sp

        row = sp.csr_matrix(np.array([[1.0, 4.0]]))
        np.testing.assert_array_equal(self._embed([[2.0], [0.5]], row), [[4.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="model expects 3 features, dataset has 2"):
            self._embed(np.eye(3), [[1.0, 2.0]])


class TestTripletLoss:
    def _identity_setup(self, points):
        # Identity weights on nonnegative points make embeddings equal inputs.
        data = Dataset(np.asarray(points, dtype=float))
        model = RepresentationModel(np.eye(data.n_features))
        return model, data

    def test_wide_separation_gives_zero_loss(self):
        model, data = self._identity_setup([[0.0, 0.0], [0.0, 0.0], [50.0, 0.0]])
        # d+ = 0, d- = 2500: max(0, 1000 + 0 - 2500) = 0.
        assert triplet_loss(model, data, Triplet((0,), 1, 2), 1000.0) == 0.0

    def test_coincident_positive_negative_gives_margin(self):
        model, data = self._identity_setup([[1.0, 2.0], [4.0, 4.0], [4.0, 4.0]])
        assert triplet_loss(model, data, Triplet((0,), 1, 2), 1000.0) == 1000.0

    def test_min_over_query_set(self):
        model, data = self._identity_setup(
            [[0.0, 0.0], [10.0, 0.0], [9.0, 0.0], [30.0, 0.0]]
        )
        # d+ = min(81, 1) = 1 against queries (0,0) and (10,0).
        loss = triplet_loss(model, data, Triplet((0, 1), 2, 3), 5.0)
        d_neg = min(900.0, 400.0)
        assert loss == max(0.0, 5.0 + 1.0 - d_neg)

    def test_self_match_skipped_in_min(self):
        model, data = self._identity_setup(
            [[0.0, 0.0], [10.0, 0.0], [30.0, 0.0]]
        )
        # Positive index 0 also appears in the query set: only query 1 counts.
        loss = triplet_loss(model, data, Triplet((0, 1), 0, 2), 10.0)
        assert loss == max(0.0, 10.0 + 100.0 - 900.0)

    def test_fully_excluded_triplet_contributes_zero(self):
        model, data = self._identity_setup([[1.0, 1.0], [9.0, 9.0]])
        assert triplet_loss(model, data, Triplet((0,), 0, 1), 1000.0) == 0.0

    def test_loss_bounds(self, rng):
        # 0 <= J <= margin + d+ always; J = 0 whenever d- >= d+ + margin.
        for _ in range(100):
            model, data, triplet = random_instance(rng)
            margin = float(rng.uniform(0.5, 50.0))
            loss = triplet_loss(model, data, triplet, margin)
            assert loss >= 0.0
            emb = np.maximum(data.values @ model.weights, 0.0)
            d_pos = min(
                ((emb[triplet.positive] - emb[q]) ** 2).sum()
                for q in triplet.query
                if q != triplet.positive
            )
            d_neg = min(
                ((emb[triplet.negative] - emb[q]) ** 2).sum()
                for q in triplet.query
                if q != triplet.negative
            )
            assert loss <= margin + d_pos + 1e-12
            if d_neg >= d_pos + margin:
                assert loss == 0.0
            else:
                assert loss == pytest.approx(margin + d_pos - d_neg)


class TestLossGradient:
    def test_zero_when_hinge_inactive(self):
        data = Dataset(np.array([[0.0, 0.0], [0.0, 0.0], [50.0, 0.0]]))
        model = RepresentationModel(np.eye(2))
        grad = loss_gradient(model, data, Triplet((0,), 1, 2), 1000.0)
        assert np.array_equal(grad, np.zeros((2, 2)))

    def test_zero_when_relu_dead(self, rng):
        # All pre-activations negative: active hinge but fully masked ReLU.
        data = Dataset(np.abs(rng.standard_normal((4, 3))))
        model = RepresentationModel(-np.ones((3, 2)))
        triplet = Triplet((0,), 1, 2)
        assert triplet_loss(model, data, triplet, 7.0) == 7.0
        grad = loss_gradient(model, data, triplet, 7.0)
        assert np.array_equal(grad, np.zeros((3, 2)))

    def test_matches_finite_differences(self, rng):
        checked = 0
        for _ in range(60):
            model, data, triplet = random_instance(rng, d_max=10, m_max=4)
            loss = triplet_loss(model, data, triplet, 5.0)
            if loss <= 1e-3:  # keep clear of the hinge kink for the oracle
                continue
            analytic = loss_gradient(model, data, triplet, 5.0)
            numeric = finite_difference_gradient(model, data, triplet, 5.0)
            assert relative_gradient_error(analytic, numeric) < 1e-4
            checked += 1
        assert checked >= 20

    def test_gradient_of_sparse_data_matches_dense(self, rng):
        values = rng.standard_normal((6, 8))
        values[rng.random((6, 8)) < 0.5] = 0.0
        dense = Dataset(values)
        sparse = dense.as_sparse()
        model = RepresentationModel(rng.standard_normal((8, 3)))
        triplet = Triplet((0, 1), 2, 3)
        g_dense = loss_gradient(model, dense, triplet, 3.0)
        g_sparse = loss_gradient(model, sparse, triplet, 3.0)
        np.testing.assert_allclose(g_dense, g_sparse, atol=1e-12)


class TestAdadelta:
    def test_zero_gradient_keeps_weights_decays_accumulators(self):
        state = OptimizerState(np.full((2, 2), 4.0), np.full((2, 2), 9.0), 0.95, 1e-6)
        weights = np.ones((2, 2))
        new_w, new_s = adadelta_step(state, weights, np.zeros((2, 2)))
        np.testing.assert_array_equal(new_w, weights)
        np.testing.assert_allclose(new_s.accum_grad_sq, 0.95 * 4.0)
        np.testing.assert_allclose(new_s.accum_update_sq, 0.95 * 9.0)

    def test_first_step_magnitude(self):
        # Fresh state, unit gradient: step = sqrt(eps) / sqrt(0.05 + eps).
        state = OptimizerState.zeros(3, 2, decay=0.95, eps=1e-6)
        weights = np.zeros((3, 2))
        new_w, _ = adadelta_step(state, weights, np.ones((3, 2)))
        expected = -np.sqrt(1e-6) / np.sqrt(0.05 + 1e-6)
        np.testing.assert_allclose(new_w, expected)
        assert abs(abs(expected) - 4.47e-3) < 5e-5

    def test_pure_function(self, rng):
        state = OptimizerState.zeros(4, 3)
        weights = rng.standard_normal((4, 3))
        grad = rng.standard_normal((4, 3))
        w1, s1 = adadelta_step(state, weights, grad)
        w2, s2 = adadelta_step(state, weights, grad)
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(s1.accum_grad_sq, s2.accum_grad_sq)
        assert np.all(state.accum_grad_sq == 0.0)  # inputs untouched

    def test_shape_mismatch_rejected(self):
        state = OptimizerState.zeros(2, 2)
        with pytest.raises(ValueError, match="shape"):
            adadelta_step(state, np.zeros((2, 2)), np.zeros((3, 2)))


def _training_inputs(n_in=120, n_out=8, d=60, seed=3):
    ds = synth_gaussian_with_outliers(n_in, n_out, 5, d - 5, 6.0, seed)
    scores = sp_score(ds, SpConfig(rng_seed=seed + 1))
    sets = candidate_sets(scores, 1.732)
    return ds, sets, scores


class TestTrain:
    def test_loss_decreases_on_separable_data(self):
        ds, sets, scores = _training_inputs()
        params = HyperParams(rep_dim=8, n_epochs=6, samples_per_epoch=1024,
                             batch_size=128, rng_seed=5)
        model, report = train(ds, sets, scores, params)
        assert report.epoch_mean_loss[-1] < report.epoch_mean_loss[0]
        assert all(l >= 0 for l in report.epoch_mean_loss)

    def test_violation_rate_improves(self):
        ds, sets, scores = _training_inputs()
        params = HyperParams(rep_dim=8, n_epochs=6, samples_per_epoch=1024,
                             batch_size=128, rng_seed=5)
        _, report = train(ds, sets, scores, params)
        assert report.violation_rate < report.initial_violation_rate

    def test_deterministic(self):
        ds, sets, scores = _training_inputs(n_in=60, n_out=5, d=30)
        params = HyperParams(rep_dim=4, n_epochs=2, samples_per_epoch=256,
                             batch_size=64, rng_seed=11)
        m1, _ = train(ds, sets, scores, params)
        m2, _ = train(ds, sets, scores, params)
        assert np.array_equal(m1.weights, m2.weights)

    def test_zero_epochs_returns_initialization(self):
        ds, sets, scores = _training_inputs(n_in=40, n_out=4, d=20)
        params = HyperParams(rep_dim=4, n_epochs=0, rng_seed=9)
        model, report = train(ds, sets, scores, params)
        rng = np.random.default_rng(np.random.SeedSequence(9).spawn(3)[0])
        limit = np.sqrt(6.0 / (20 + 4))
        expected = rng.uniform(-limit, limit, size=(20, 4))
        np.testing.assert_array_equal(model.weights, expected)
        assert report.epoch_mean_loss == []

    def test_labeled_pool_used(self):
        ds, sets, scores = _training_inputs(n_in=80, n_out=10, d=30)
        known = Dataset(ds.values, ds.labels, known_outliers=np.flatnonzero(ds.labels)[:4])
        params = HyperParams(rep_dim=4, n_epochs=1, samples_per_epoch=256,
                             batch_size=64, rng_seed=2)
        model, _ = train(known, sets, scores, params)
        unlabeled, _ = train(ds, sets, scores, params)
        assert model.rep_dim == 4
        assert not np.array_equal(model.weights, unlabeled.weights)

    def test_known_outliers_are_the_only_labeled_source(self):
        ds, sets, scores = _training_inputs(n_in=40, n_out=4, d=20)
        params = HyperParams(rep_dim=4, n_epochs=1, rng_seed=2)
        labeled = np.flatnonzero(ds.labels)[:2]
        with pytest.raises(TypeError, match="labeled"):
            train(ds, sets, scores, params, labeled=labeled)
        with pytest.raises(TypeError, match="labeled"):
            run_pipeline(ds, params, labeled=labeled)

    def test_pipeline_rejects_non_finite_data(self):
        ds, _, _ = _training_inputs(n_in=40, n_out=4, d=20)
        values = ds.values.copy()
        values[3, 7] = np.inf
        with pytest.raises(ValueError, match="non-finite values"):
            run_pipeline(Dataset(values, ds.labels), HyperParams(rep_dim=4, n_epochs=1))

    def test_rep_dim_larger_than_d_rejected(self):
        ds, sets, scores = _training_inputs(n_in=30, n_out=3, d=10)
        params = HyperParams(rep_dim=11, n_epochs=1)
        with pytest.raises(ValueError, match="rep_dim"):
            train(ds, sets, scores, params)


def _sparse_training_inputs(n=200, d=5000, nnz_per_row=10, seed=4):
    """CSR rows of random columns; the last tenth, shifted up by 4, are outliers."""
    rng = np.random.default_rng(seed)
    cols = np.concatenate([np.sort(rng.choice(d, nnz_per_row, replace=False)) for _ in range(n)])
    values = rng.uniform(0.0, 1.0, size=n * nnz_per_row)
    n_out = n // 10
    values[-n_out * nnz_per_row:] += 4.0
    indptr = np.arange(n + 1) * nnz_per_row
    labels = np.arange(n) >= n - n_out
    ds = Dataset(sps.csr_matrix((values, cols, indptr), shape=(n, d)), labels)
    scores = sp_score(ds, SpConfig(rng_seed=seed + 1))
    return ds, candidate_sets(scores, 1.732), scores


def _reference_train(ds, sets, scores, params):
    """``train``'s weights from the full (D, M) gradient and update on every step."""
    init_ss, batch_ss, _ = np.random.SeedSequence(params.rng_seed).spawn(3)
    weights = initial_weights(ds.n_features, params.rep_dim, np.random.default_rng(init_ss))
    state = OptimizerState.zeros(
        ds.n_features, params.rep_dim, params.optimizer_decay, params.optimizer_eps
    )
    n_batches = math.ceil(params.samples_per_epoch / params.batch_size)
    pools = sampling_pools(sets, scores, ds.known_outliers, params.labeled_fraction)
    for stream in batch_ss.spawn(params.n_epochs * n_batches):
        q, p, g = sample_batch_arrays(pools, params.query_size, params.batch_size,
                                      np.random.default_rng(stream))
        _, grad = _batch_loss_grad(ds.values, weights, q, p, g, params.margin)
        if grad is None:
            grad = np.zeros_like(weights)
        weights, state = adadelta_step(state, weights, grad)
    return weights


class TestTouchedRowUpdate:
    PARAMS = HyperParams(rep_dim=4, n_epochs=3, samples_per_epoch=256, batch_size=32,
                         rng_seed=7)

    def test_sparse_train_matches_full_update(self):
        ds, sets, scores = _sparse_training_inputs()
        model, _ = train(ds, sets, scores, self.PARAMS)
        reference = _reference_train(ds, sets, scores, self.PARAMS)
        assert model.weights.tobytes() == reference.tobytes()

    def test_dense_train_is_bit_identical_to_full_update(self):
        ds, sets, scores = _training_inputs(n_in=60, n_out=5, d=30)
        model, _ = train(ds, sets, scores, self.PARAMS)
        reference = _reference_train(ds, sets, scores, self.PARAMS)
        assert model.weights.tobytes() == reference.tobytes()

    def test_sparse_gradient_covers_touched_columns_only(self):
        ds, sets, scores = _sparse_training_inputs()
        rng = np.random.default_rng(3)
        q, p, g = sample_batch_arrays(sampling_pools(sets, scores), 2, 16, rng)
        weights = rng.standard_normal((ds.n_features, 4)) * 0.05
        losses, grad = _batch_loss_grad(ds.values, weights, q, p, g, 1000.0)
        rows = np.unique(np.concatenate([q.ravel(), p, g]))
        cols = np.unique(ds.values[rows].indices)
        assert grad.shape == weights.shape
        assert cols.size < ds.n_features
        dense_losses, dense = _batch_loss_grad(ds.values.toarray(), weights, q, p, g, 1000.0)
        np.testing.assert_allclose(losses, dense_losses, rtol=1e-12)
        np.testing.assert_allclose(grad, dense, rtol=1e-12, atol=1e-15)
        untouched = np.ones(ds.n_features, dtype=bool)
        untouched[cols] = False
        assert np.all(grad[untouched] == 0.0)
        assert np.any(grad != 0.0)

    def test_sparse_train_is_deterministic(self):
        ds, sets, scores = _sparse_training_inputs()
        m1, _ = train(ds, sets, scores, self.PARAMS)
        m2, _ = train(ds, sets, scores, self.PARAMS)
        assert m1.weights.tobytes() == m2.weights.tobytes()

    def test_unoccupied_columns_keep_their_initial_weights(self):
        ds, sets, scores = _sparse_training_inputs()
        model, _ = train(ds, sets, scores, self.PARAMS)
        init_ss = np.random.SeedSequence(self.PARAMS.rng_seed).spawn(3)[0]
        initial = initial_weights(ds.n_features, 4, np.random.default_rng(init_ss))
        empty = np.ones(ds.n_features, dtype=bool)
        empty[ds.values.indices] = False
        assert 0 < empty.sum() < ds.n_features
        assert model.weights.shape == (ds.n_features, 4)
        assert model.weights[empty].tobytes() == initial[empty].tobytes()
        assert not np.array_equal(model.weights[~empty], initial[~empty])

    def test_all_empty_csr_trains(self):
        n, d = 40, 30
        labels = np.arange(n) >= n - 4
        ds = Dataset(sps.csr_matrix((n, d)), labels)
        sets = CandidateSets(np.flatnonzero(labels), np.flatnonzero(~labels))
        scores = OutlierScores.from_scores(np.arange(1.0, n + 1.0))
        params = HyperParams(rep_dim=1, n_epochs=1, samples_per_epoch=64, batch_size=32,
                             rng_seed=7)
        model, report = train(ds, sets, scores, params)
        init_ss = np.random.SeedSequence(7).spawn(3)[0]
        initial = initial_weights(d, 1, np.random.default_rng(init_ss))
        assert model.weights.tobytes() == initial.tobytes()
        assert report.update_steps == 2

    def test_optimizer_state_covers_the_occupied_columns_only(self, monkeypatch):
        ds, sets, scores = _sparse_training_inputs()
        rows, zeros = [], OptimizerState.zeros.__func__

        def spy(cls, d, *args, **kwargs):
            rows.append(d)
            return zeros(cls, d, *args, **kwargs)

        monkeypatch.setattr(OptimizerState, "zeros", classmethod(spy))
        train(ds, sets, scores, self.PARAMS)
        assert rows == [np.unique(ds.values.indices).size]
        assert rows[0] < ds.n_features


class TestSkippedSteps:
    """A batch with no positive-loss triplet changes no weight and takes no step."""

    # With margin 100 the dense fit below skips steps between its updates,
    # so the catch-up decay of the accumulators runs.
    PARAMS = HyperParams(rep_dim=4, n_epochs=3, samples_per_epoch=256, batch_size=32,
                         rng_seed=7, margin=100.0)
    STEPS = 24

    @pytest.mark.parametrize("params", [TestTouchedRowUpdate.PARAMS, PARAMS])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_report_counts_the_optimizer_steps(self, monkeypatch, params, sparse):
        inputs = (_sparse_training_inputs() if sparse
                  else _training_inputs(n_in=60, n_out=5, d=30))
        # The step number (from 1) of each adadelta_step call.
        grad_calls, updates = [0], []
        loss_grad, step = learner._batch_loss_grad, learner.adadelta_step

        def counting_loss_grad(*args, **kwargs):
            grad_calls[0] += kwargs.get("want_grad", True)
            return loss_grad(*args, **kwargs)

        def counting_step(*args, **kwargs):
            updates.append(grad_calls[0])
            return step(*args, **kwargs)

        monkeypatch.setattr(learner, "_batch_loss_grad", counting_loss_grad)
        monkeypatch.setattr(learner, "adadelta_step", counting_step)
        _, report = train(*inputs, params)
        assert grad_calls[0] == self.STEPS
        assert report.update_steps == len(updates)
        assert report.last_update_step == updates[-1]
        assert 0 < report.update_steps < self.STEPS

    def test_dense_skips_between_updates_are_bit_identical_to_full_update(self):
        ds, sets, scores = _training_inputs(n_in=60, n_out=5, d=30)
        model, report = train(ds, sets, scores, self.PARAMS)
        assert report.update_steps < report.last_update_step
        reference = _reference_train(ds, sets, scores, self.PARAMS)
        assert model.weights.tobytes() == reference.tobytes()

    def test_dense_skips_on_wide_input_are_bit_identical_to_full_update(self):
        # Here OpenBLAS rounds some rows of a product of a few rows differently
        # from the same rows of a product of many, so taking an active batch's
        # rows from earlier products would change the weights.
        ds, sets, scores = _training_inputs(n_in=300, n_out=10, d=500, seed=1)
        params = HyperParams(n_epochs=3, rng_seed=0)
        model, report = train(ds, sets, scores, params)
        assert report.update_steps < report.last_update_step
        reference = _reference_train(ds, sets, scores, params)
        assert model.weights.tobytes() == reference.tobytes()

    def test_sparse_skips_between_updates_match_full_update(self):
        ds, sets, scores = _sparse_training_inputs(d=300, nnz_per_row=30)
        params = TestTouchedRowUpdate.PARAMS
        model, report = train(ds, sets, scores, params)
        assert report.update_steps < report.last_update_step
        reference = _reference_train(ds, sets, scores, params)
        assert model.weights.tobytes() == reference.tobytes()

    # With every negative drawn from the labeled pool, the outlier
    # candidates' weights are never used and nothing warns.
    @pytest.mark.parametrize("labeled_fraction, warnings_expected", [(0.5, 1), (1.0, 0)])
    def test_zero_score_warning_fires_once_per_fit(self, labeled_fraction, warnings_expected):
        ds, _, _ = _training_inputs(n_in=40, n_out=4, d=20)
        outliers = np.flatnonzero(ds.labels)
        ds = Dataset(ds.values, ds.labels, known_outliers=outliers[:2])
        sets = CandidateSets(outliers, np.flatnonzero(~ds.labels))
        scores = OutlierScores.from_scores(np.zeros(ds.n_objects))
        params = HyperParams(rep_dim=4, n_epochs=2, samples_per_epoch=256, batch_size=64,
                             rng_seed=2, labeled_fraction=labeled_fraction)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            train(ds, sets, scores, params)
        assert [str(w.message) for w in caught] == warnings_expected * [
            "all outlier-candidate scores are zero; using uniform negative weights"
        ]


class _NoGather:
    """Stands in for a data matrix whose rows must not be read."""

    def __getitem__(self, rows):
        raise AssertionError("rows of values were gathered")


class TestBatchLossGradContract:
    # Rows 0 and 1 coincide; row 2 is 50 away, so with margin 1000 the
    # batch's triplets all meet the margin.
    VALUES = np.array([[0.0, 0.0], [0.0, 0.0], [50.0, 0.0]])
    BATCH = (np.zeros((4, 1), dtype=np.int64), np.ones(4, dtype=np.int64),
             np.full(4, 2, dtype=np.int64))

    @pytest.mark.parametrize("to_values", [np.asarray, sps.csr_matrix])
    def test_inactive_batch_returns_empty_gradient(self, to_values):
        losses, grad = _batch_loss_grad(to_values(self.VALUES), np.eye(2), *self.BATCH, 1000.0)
        assert np.array_equal(losses, np.zeros(4))
        assert grad is None

    @pytest.mark.parametrize("to_values", [np.asarray, sps.csr_matrix])
    def test_inactive_batch_with_fresh_cache_reads_no_rows(self, to_values):
        cache = PreActivationCache.empty(3, 2)
        first = _batch_loss_grad(to_values(self.VALUES), np.eye(2), *self.BATCH, 1000.0,
                                 cache=cache)
        assert cache.fresh.all()
        again = _batch_loss_grad(_NoGather(), np.eye(2), *self.BATCH, 1000.0, cache=cache)
        assert first[0].tobytes() == again[0].tobytes()
        assert first[1] is None and again[1] is None

    @pytest.mark.parametrize("to_values", [np.asarray, sps.csr_matrix])
    def test_loss_gradient_of_inactive_triplet_is_zero(self, to_values):
        data = Dataset(to_values(self.VALUES))
        grad = loss_gradient(RepresentationModel(np.eye(2)), data, Triplet((0,), 1, 2), 1000.0)
        assert np.array_equal(grad, np.zeros((2, 2)))

    @pytest.mark.parametrize("sparse", [False, True])
    def test_cache_gives_the_same_losses_and_gradient(self, sparse):
        ds, sets, scores = (_sparse_training_inputs() if sparse
                            else _training_inputs(n_in=60, n_out=5, d=30))
        rng = np.random.default_rng(3)
        weights = rng.standard_normal((ds.n_features, 4)) * 0.05
        cache = PreActivationCache.empty(ds.n_objects, 4)
        pools = sampling_pools(sets, scores)
        # A first batch leaves part of the second batch's rows fresh.
        _batch_loss_grad(ds.values, weights, *sample_batch_arrays(pools, 1, 8, rng),
                         1000.0, cache=cache)
        batch = sample_batch_arrays(pools, 2, 16, rng)
        rows = np.unique(np.concatenate([batch[0].ravel(), batch[1], batch[2]]))
        assert 0 < cache.fresh[rows].sum() < rows.size
        plain = _batch_loss_grad(ds.values, weights, *batch, 1000.0)
        cached = _batch_loss_grad(ds.values, weights, *batch, 1000.0, cache=cache)
        assert plain[0].tobytes() == cached[0].tobytes()
        assert np.any(plain[0] > 0.0)
        assert plain[1].tobytes() == cached[1].tobytes()


class TestTransform:
    def test_zero_model_gives_zero_matrix(self, rng):
        ds = Dataset(rng.standard_normal((10, 5)))
        out = transform(RepresentationModel(np.zeros((5, 2))), ds)
        assert np.array_equal(out.values, np.zeros((10, 2)))

    def test_identity_on_nonnegative_data(self, rng):
        values = rng.random((12, 4))
        ds = Dataset(values, labels=rng.random(12) < 0.5)
        out = transform(RepresentationModel(np.eye(4)), ds)
        np.testing.assert_array_equal(out.values, values)
        np.testing.assert_array_equal(out.labels, ds.labels)

    def test_carries_known_outliers(self, rng):
        ds = Dataset(rng.random((8, 3)), labels=np.ones(8, bool), known_outliers=[2, 5])
        out = transform(RepresentationModel(np.eye(3)), ds)
        assert np.array_equal(out.known_outliers, [2, 5])


class TestModelPersistence:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        model = RepresentationModel(rng.standard_normal((17, 6)))
        path = tmp_path / "model.repen"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.weights, model.weights)

    def test_stable_bytes(self, tmp_path, rng):
        model = RepresentationModel(rng.standard_normal((5, 2)))
        p1, p2 = tmp_path / "a.repen", tmp_path / "b.repen"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_bytes()[:4]
        assert header == b"RPNM"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.repen"
        path.write_bytes(b"OOPS" + b"\x00" * 40)
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path, rng):
        model = RepresentationModel(rng.standard_normal((4, 2)))
        path = tmp_path / "model.repen"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    def test_io_peaks_stay_near_the_weight_bytes(self, tmp_path, rng):
        """Saving copies no weights; loading holds about one weight array."""
        model = RepresentationModel(rng.standard_normal((50_000, 20)))
        path = tmp_path / "model.repen"
        weight_bytes = model.weights.nbytes
        tracemalloc.start()
        try:
            save_model(model, path)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = load_model(path)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.weights, model.weights)
        assert save_peak < 0.25 * weight_bytes, save_peak / weight_bytes
        assert load_peak < 1.5 * weight_bytes, load_peak / weight_bytes

    def test_load_peak_is_the_weight_array(self, tmp_path, rng):
        """Loading checks finiteness without a weight-sized mask."""
        model = RepresentationModel(rng.standard_normal((50_000, 20)))
        path = tmp_path / "model.repen"
        save_model(model, path)
        tracemalloc.start()
        try:
            load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * model.weights.nbytes, peak / model.weights.nbytes
