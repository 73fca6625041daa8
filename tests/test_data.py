"""Core data type invariants."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repen.data import (
    CandidateSets,
    Dataset,
    HyperParams,
    OutlierScores,
    RepresentationModel,
    require_valid,
    validate,
)

from repen.params import ExperimentParams

from conftest import datasets_equal


class TestValidate:
    def test_clean_dense_dataset(self):
        ds = Dataset(np.arange(6, dtype=float).reshape(3, 2))
        assert validate(ds) == []

    def test_unsorted_sparse_indices_flagged(self):
        # Build the CSR buffers by hand; the constructor must not reorder them.
        matrix = sp.csr_matrix(
            (np.array([1.0, 2.0]), np.array([5, 3]), np.array([0, 2])), shape=(1, 8)
        )
        ds = Dataset(sp.vstack([matrix, sp.csr_matrix((1, 8))], format="csr"))
        assert any("unsorted" in msg for msg in validate(ds))

    def test_single_object_flagged(self):
        ds = Dataset(np.ones((1, 3)))
        assert any("N >= 2" in msg for msg in validate(ds))

    def test_non_finite_flagged(self):
        ds = Dataset(np.array([[1.0, np.nan], [0.0, 1.0]]))
        assert any("non-finite" in msg for msg in validate(ds))

    def test_sparse_index_out_of_range_flagged(self):
        matrix = sp.csr_matrix(
            (np.array([1.0]), np.array([9]), np.array([0, 1, 1])), shape=(2, 4)
        )
        ds = Dataset(matrix)
        assert any("out of range" in msg for msg in validate(ds))

    def test_known_outliers_checked_against_labels(self):
        ds = Dataset(
            np.zeros((3, 2)),
            labels=np.array([False, True, False]),
            known_outliers=[0],
        )
        assert any("known_outliers" in msg for msg in validate(ds))
        ok = Dataset(
            np.zeros((3, 2)),
            labels=np.array([False, True, False]),
            known_outliers=[1],
        )
        assert validate(ok) == []

    def test_never_mutates(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        ds = Dataset(values.copy())
        validate(ds)
        assert np.array_equal(ds.values, values)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_require_valid_rejects_each_non_finite_value(self, storage, bad):
        values = np.arange(12, dtype=float).reshape(4, 3)
        values[2, 1] = bad
        ds = Dataset(values if storage == "dense" else sp.csr_matrix(values))
        with pytest.raises(ValueError, match="^invalid dataset: non-finite values$"):
            require_valid(ds)


class TestDatasetStorage:
    def test_dense_sparse_round_trip_exact(self, rng):
        values = rng.standard_normal((20, 7))
        values[rng.random((20, 7)) < 0.6] = 0.0
        ds = Dataset(values, labels=rng.random(20) < 0.2)
        sparse = Dataset(sp.csr_matrix(values), ds.labels)
        assert sparse.is_sparse
        back = Dataset(sparse.values.toarray(), sparse.labels)
        assert datasets_equal(ds, back)
        assert np.array_equal(back.values, values)

    def test_take_preserves_rows_and_labels(self):
        ds = Dataset(np.arange(12, dtype=float).reshape(4, 3),
                     labels=np.array([0, 1, 0, 1], dtype=bool))
        sub = ds.take([2, 0])
        assert np.array_equal(sub.values, ds.values[[2, 0]])
        assert np.array_equal(sub.labels, [False, False])


class TestOutlierScores:
    def test_moments_match_recomputation(self, rng):
        values = rng.random(100)
        scores = OutlierScores.from_scores(values)
        # Population (divide-by-N) moments, which the Cantelli bound needs.
        assert scores.mean == pytest.approx(values.mean(), rel=1e-12)
        assert scores.std == pytest.approx(values.std(ddof=0), rel=1e-12)
        assert scores.std != pytest.approx(values.std(ddof=1), rel=1e-6)


class TestCandidateSets:
    def test_partition_ok(self):
        sets = CandidateSets(np.array([1]), np.array([2, 0, 2]))
        assert sets.outlier_idx.tolist() == [1]
        assert sets.inlier_idx.tolist() == [0, 2]  # sorted, duplicates dropped
        assert sets.inlier_idx.dtype == np.int64


class TestRepresentationModel:
    def test_rejects_more_outputs_than_inputs(self):
        with pytest.raises(ValueError, match="rep_dim"):
            RepresentationModel(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            RepresentationModel(np.array([[np.inf], [0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_rejects_each_non_finite_value(self, rng, bad):
        weights = rng.standard_normal((6, 2))
        weights[4, 1] = bad
        with pytest.raises(ValueError, match="^weights must be finite$"):
            RepresentationModel(weights)

    def test_empty_weights_keep_their_shape_errors(self):
        with pytest.raises(ValueError, match="^rep_dim >= 1 required$"):
            RepresentationModel(np.ones((3, 0)))
        with pytest.raises(ValueError, match="^rep_dim must be <= n_features, got 2 > 0$"):
            RepresentationModel(np.ones((0, 2)))

    def test_construction_allocates_no_weight_sized_mask(self, rng):
        weights = rng.standard_normal((50_000, 20))
        tracemalloc.start()
        try:
            RepresentationModel(weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * weights.nbytes, peak / weights.nbytes


class TestHyperParams:
    def test_defaults_are_valid(self):
        HyperParams().validate()

    def test_defaults_match_contract(self):
        p = HyperParams()
        assert (p.subsample_size, p.ensemble_size) == (8, 50)
        assert p.alpha == 1.732
        assert (p.rep_dim, p.query_size) == (20, 1)
        assert p.margin == 1000.0
        assert (p.n_epochs, p.batch_size, p.samples_per_epoch) == (30, 256, 5000)
        assert (p.optimizer_decay, p.optimizer_eps) == (0.95, 1e-4)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("rep_dim", 0),
            ("query_size", 0),
            ("subsample_size", 0),
            ("batch_size", 0),
            ("alpha", -0.1),
            ("margin", 0.0),
            ("optimizer_decay", 1.0),
            ("labeled_fraction", 1.5),
            ("rng_seed", -1),
        ],
    )
    def test_invalid_field_named_in_error(self, field, value):
        params = HyperParams(**{field: value})
        with pytest.raises(ValueError, match=field):
            params.validate()

    def test_zero_epochs_allowed(self):
        HyperParams(n_epochs=0).validate()


class TestExperimentParams:
    def test_defaults_are_valid(self):
        ExperimentParams().validate()

    def test_unused_sweep_settings_unchecked(self):
        ExperimentParams(sizes=(), dims=(), size_sweep_dim=1, dim_sweep_size=0).validate()

    @pytest.mark.parametrize(
        "setting,value",
        [
            ("repeats", 0),
            ("l_values", ()),
            ("l_values", (3, -1)),
            ("m_values", (0,)),
            ("outlier_rate", -0.1),
            ("outlier_rate", 1.0),
            ("d_relevant", 0),
            ("separation", 0.0),
            ("sizes", (1000, 1)),
            ("dim_sweep_size", 1),
            ("size_sweep_dim", 10),
            ("dims", (11, 10)),
        ],
    )
    def test_invalid_setting_named_in_error(self, setting, value):
        with pytest.raises(ValueError, match=setting):
            ExperimentParams(**{setting: value}).validate()
