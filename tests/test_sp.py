"""Random-distance detector: the scoring kernel, ensemble properties."""

import numpy as np
import pytest
import scipy.sparse as sps

from repen import sp
from repen.data import Dataset, RepresentationModel
from repen.ingest import synth_gaussian_with_outliers
from repen.sp import (
    SpConfig,
    draw_subsamples,
    member_nn_dists,
    sp_score,
    sp_score_embedded,
    sp_score_with_subsamples,
)

from conftest import nn_dist, nn_dist_reference


class TestNnDist:
    """The per-object reference that the scoring kernel is checked against."""

    def test_hand_computed_minimum(self):
        # min(|| (0,0)-(3,4) ||^2, || (0,0)-(1,0) ||^2) = min(25, 1)
        assert nn_dist([0.0, 0.0], [[3.0, 4.0], [1.0, 0.0]]) == 1.0

    def test_identical_point_different_index(self):
        assert nn_dist([1.0, 1.0], [[1.0, 1.0]], query_index=0, subsample_indices=[5]) == 0.0

    def test_self_only_subsample_gives_zero(self):
        # The query's own index empties the candidate pool.
        assert nn_dist([1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]],
                       query_index=3, subsample_indices=[3]) == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            nn_dist([1.0, 2.0], [[1.0, 2.0, 3.0]])

    def test_empty_subsample_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            nn_dist([1.0], np.empty((0, 1)))


class TestSpScore:
    def test_far_point_scores_higher(self):
        ds = Dataset(np.array([[0.0], [0.1], [10.0]]))
        scores = sp_score(ds, SpConfig(subsample_size=2, ensemble_size=1, rng_seed=0))
        assert scores.scores[2] > scores.scores[0]

    def test_outliers_outscore_inliers_on_synthetic(self):
        ds = synth_gaussian_with_outliers(200, 10, 5, 0, 8.0, seed=11)
        scores = sp_score(ds, SpConfig(rng_seed=5))
        assert scores.scores[ds.labels].mean() > scores.scores[~ds.labels].mean()

    def test_deterministic_given_seed(self):
        ds = synth_gaussian_with_outliers(60, 4, 3, 5, 6.0, seed=2)
        a = sp_score(ds, SpConfig(rng_seed=77))
        b = sp_score(ds, SpConfig(rng_seed=77))
        assert np.array_equal(a.scores, b.scores)

    def test_subsample_size_must_be_below_n(self):
        ds = Dataset(np.zeros((5, 2)))
        with pytest.raises(ValueError, match="subsample_size"):
            sp_score(ds, SpConfig(subsample_size=5, ensemble_size=1))

    def test_scores_nonnegative(self, rng):
        ds = Dataset(rng.standard_normal((80, 6)))
        scores = sp_score(ds, SpConfig(rng_seed=3))
        assert np.all(scores.scores >= 0)

    def test_sparse_matches_dense(self, rng):
        values = rng.standard_normal((70, 12))
        values[rng.random((70, 12)) < 0.5] = 0.0
        dense = Dataset(values)
        sparse = Dataset(sps.csr_matrix(values))
        a = sp_score(dense, SpConfig(rng_seed=4))
        b = sp_score(sparse, SpConfig(rng_seed=4))
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-9)


def _ragged_subsamples(rng, n, members=7):
    """Member index lists of sizes 1 to 9 (capped below n), no duplicates within one."""
    return [
        rng.choice(n, size=int(rng.integers(1, min(n, 10))), replace=False)
        for _ in range(members)
    ]


class TestKernelReference:
    def test_kernel_matches_nn_dist_on_ragged_members(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 120))
            d = int(rng.integers(1, 21))
            values = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0)
            subs = _ragged_subsamples(rng, n)
            np.testing.assert_allclose(
                member_nn_dists(values, subs), nn_dist_reference(values, subs), atol=1e-9
            )

    def test_csr_matches_nn_dist(self, rng):
        values = rng.standard_normal((60, 40))
        values[rng.random((60, 40)) < 0.8] = 0.0
        subs = _ragged_subsamples(rng, 60)
        got = member_nn_dists(sps.csr_matrix(values), subs)
        np.testing.assert_allclose(got, nn_dist_reference(values, subs), atol=1e-9)

    def test_duplicate_points_handled(self):
        values = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
        subs = [np.array([0, 1, 3])]
        a = sp_score_with_subsamples(Dataset(values), subs)
        np.testing.assert_allclose(a.scores, nn_dist_reference(values, subs)[:, 0], atol=1e-12)
        assert a.scores[0] == 0.0  # duplicate at distance zero, not itself

    def test_one_row_subsample_containing_the_query(self, rng):
        values = rng.standard_normal((5, 3))
        subs = [np.array([2]), np.array([0, 2])]
        got = member_nn_dists(values, subs)
        assert got[2, 0] == 0.0  # the member is emptied by excluding the query
        np.testing.assert_allclose(got, nn_dist_reference(values, subs), atol=1e-9)

    def test_row_blocks_match_nn_dist(self, rng, monkeypatch):
        monkeypatch.setattr(sp, "BLOCK_ENTRIES", 3)
        for subs_of in (lambda n: [np.array([4])], lambda n: _ragged_subsamples(rng, n)):
            for values in (rng.standard_normal((23, 4)), sps.random(23, 30, 0.3, format="csr", random_state=5)):
                subs = subs_of(23)
                np.testing.assert_allclose(
                    member_nn_dists(values, subs), nn_dist_reference(values, subs), atol=1e-9
                )


class TestEnsembleStructure:
    def test_scores_are_member_means(self, rng):
        values = rng.standard_normal((50, 5))
        subs = draw_subsamples(50, SpConfig(subsample_size=6, ensemble_size=9, rng_seed=8))
        per_member = member_nn_dists(values, subs)
        scores = sp_score_with_subsamples(values, subs)
        np.testing.assert_allclose(per_member.mean(axis=1), scores.scores, atol=1e-12)

    def test_member_draws_without_replacement(self):
        subs = draw_subsamples(30, SpConfig(subsample_size=10, ensemble_size=20, rng_seed=0))
        for sub in subs:
            assert np.unique(sub).size == sub.size

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_index_outside_the_objects_is_rejected(self, rng, bad):
        # -1 would alias row 5 and undo its self-exclusion; 6 is past the end.
        values = rng.standard_normal((6, 3))
        with pytest.raises(ValueError, match=f"subsample 1 has index {bad} outside 0..5"):
            sp_score_with_subsamples(values, [np.array([0, 2]), np.array([bad, 1])])

    def test_permutation_equivariance(self, rng):
        values = rng.standard_normal((40, 4))
        subs = [rng.choice(40, size=5, replace=False) for _ in range(7)]
        base = sp_score_with_subsamples(values, subs).scores

        perm = rng.permutation(40)
        # Object i moves to position inv[i]; subsample identities follow.
        inv = np.empty(40, dtype=int)
        inv[perm] = np.arange(40)
        permuted_values = values[perm]
        permuted_subs = [inv[sub] for sub in subs]
        permuted = sp_score_with_subsamples(permuted_values, permuted_subs).scores
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


class TestEmbeddedScoring:
    def test_identity_model_matches_original(self, rng):
        # ReLU is the identity on nonnegative inputs.
        values = rng.random((60, 6))
        ds = Dataset(values)
        model = RepresentationModel(np.eye(6))
        cfg = SpConfig(rng_seed=21)
        a = sp_score(ds, cfg)
        b = sp_score_embedded(ds, model, cfg)
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)

    def test_matches_score_of_transformed_dataset(self, rng):
        from repen.learner import transform

        values = rng.standard_normal((50, 8))
        ds = Dataset(values)
        model = RepresentationModel(rng.standard_normal((8, 3)))
        cfg = SpConfig(rng_seed=33)
        direct = sp_score_embedded(ds, model, cfg)
        via_transform = sp_score(transform(model, ds), cfg)
        np.testing.assert_allclose(direct.scores, via_transform.scores, atol=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        ds = Dataset(rng.standard_normal((10, 4)))
        model = RepresentationModel(rng.standard_normal((5, 2)))
        with pytest.raises(ValueError, match="features"):
            sp_score_embedded(ds, model, SpConfig(subsample_size=2))
