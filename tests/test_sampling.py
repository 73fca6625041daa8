"""Importance-sampling weights and batch construction."""

import numpy as np
import pytest
from scipy.stats import chisquare

from repen.data import CandidateSets, OutlierScores
from repen.sampling import (
    negative_sampling_weights,
    query_sampling_weights,
    sample_batch_arrays,
    sampling_pools,
)


def _scores(values):
    return OutlierScores.from_scores(np.asarray(values, dtype=float))


class TestQueryWeights:
    def test_two_element_example(self):
        # Z = 4, weights (4-1)/4 and (4-3)/4.
        w = query_sampling_weights(_scores([1.0, 3.0]), [0, 1])
        np.testing.assert_allclose(w, [0.75, 0.25])

    def test_equal_scores_uniform(self):
        w = query_sampling_weights(_scores([2.0, 2.0, 2.0]), [0, 1, 2])
        np.testing.assert_allclose(w, [1 / 3] * 3)

    def test_single_inlier_gets_everything(self):
        w = query_sampling_weights(_scores([5.0, 1.0]), [1])
        np.testing.assert_allclose(w, [1.0])

    def test_lower_score_strictly_higher_weight(self, rng):
        scores = _scores(rng.random(30) + 0.01)
        inliers = np.arange(30)
        w = query_sampling_weights(scores, inliers)
        order = np.argsort(scores.scores)
        assert np.all(np.diff(w[order]) < 0)

    def test_normalized(self, rng):
        for _ in range(50):
            pool = rng.choice(100, size=int(rng.integers(1, 40)), replace=False)
            w = query_sampling_weights(_scores(rng.random(100)), pool)
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(w >= 0)


class TestNegativeWeights:
    def test_two_element_example(self):
        w = negative_sampling_weights(_scores([1.0, 3.0]), [0, 1])
        np.testing.assert_allclose(w, [0.25, 0.75])

    def test_equal_scores_uniform(self):
        w = negative_sampling_weights(_scores([4.0, 4.0]), [0, 1])
        np.testing.assert_allclose(w, [0.5, 0.5])

    def test_zero_scores_fall_back_uniform_with_warning(self):
        with pytest.warns(UserWarning, match="uniform"):
            w = negative_sampling_weights(_scores([0.0, 0.0, 1.0]), [0, 1])
        np.testing.assert_allclose(w, [0.5, 0.5])

    def test_normalized(self, rng):
        for _ in range(50):
            pool = rng.choice(80, size=int(rng.integers(1, 30)), replace=False)
            w = negative_sampling_weights(_scores(rng.random(80) + 0.1), pool)
            assert abs(w.sum() - 1.0) < 1e-12


def _simple_sets(n_in=6, n_out=3):
    inliers = np.arange(n_in)
    outliers = np.arange(n_in, n_in + n_out)
    scores = _scores(np.concatenate([np.linspace(0.5, 1.0, n_in),
                                     np.linspace(3.0, 5.0, n_out)]))
    return CandidateSets(outliers, inliers), scores


class TestSampleBatch:
    def test_shapes_and_pools(self, rng):
        sets, scores = _simple_sets()
        q, p, g = sample_batch_arrays(sampling_pools(sets, scores), n=2, b=16, rng=rng)
        assert q.shape == (16, 2) and p.shape == (16,) and g.shape == (16,)
        assert np.isin(q, sets.inlier_idx).all()
        assert np.isin(p, sets.inlier_idx).all()
        assert np.isin(g, sets.outlier_idx).all()

    def test_single_member_queries(self, rng):
        sets, scores = _simple_sets()
        q, _, _ = sample_batch_arrays(sampling_pools(sets, scores), n=1, b=8, rng=rng)
        assert q.shape == (8, 1)

    def test_labeled_split_counts(self, rng):
        sets, scores = _simple_sets(n_in=8, n_out=4)
        labeled = np.array([20])  # outside both candidate pools
        scores = _scores(np.concatenate([scores.scores, np.zeros(9)]))
        pools = sampling_pools(sets, scores, labeled)
        q, p, g = sample_batch_arrays(pools, n=1, b=4, rng=rng)
        assert (g == 20).sum() == 2  # floor(4 / 2) from the singleton pool
        assert sum(x in sets.outlier_idx for x in g) == 2  # ceil(4 / 2)

    def test_odd_batch_rounds_candidate_side_up(self, rng):
        sets, scores = _simple_sets(n_in=8, n_out=4)
        labeled = np.array([4])
        pools = sampling_pools(sets, scores, labeled)
        q, p, g = sample_batch_arrays(pools, n=1, b=5, rng=rng)
        assert (g == 4).sum() == 2      # floor(5/2)
        assert 5 - (g == 4).sum() == 3  # ceil(5/2)

    def test_labeled_removed_from_inlier_side(self, rng):
        sets, scores = _simple_sets(n_in=6, n_out=3)
        labeled = np.array([0, 1])  # indices sitting inside the inlier pool
        pools = sampling_pools(sets, scores, labeled)
        for _ in range(20):
            q, p, g = sample_batch_arrays(pools, n=2, b=8, rng=rng)
            assert not np.isin(q, labeled).any()
            assert not np.isin(p, labeled).any()

    def test_every_batch_draws_from_labeled_pool(self, rng):
        sets, scores = _simple_sets(n_in=8, n_out=4)
        labeled = np.array([0, 3])
        pools = sampling_pools(sets, scores, labeled)
        for b in range(2, 20):
            _, _, g = sample_batch_arrays(pools, n=1, b=b, rng=rng)
            assert np.isin(g, labeled).sum() >= 1

    def test_positive_never_equals_negative(self, rng):
        sets, scores = _simple_sets()
        labeled = np.array([1, 7])
        pools = sampling_pools(sets, scores, labeled)
        for _ in range(30):
            _, p, g = sample_batch_arrays(pools, n=1, b=16, rng=rng)
            assert not np.any(p == g)

    def test_deterministic_per_stream(self):
        sets, scores = _simple_sets()
        pools = sampling_pools(sets, scores)
        a = sample_batch_arrays(pools, 1, 32, np.random.default_rng(5))
        b = sample_batch_arrays(pools, 1, 32, np.random.default_rng(5))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_pools_carry_the_labeled_fraction(self, rng):
        sets, scores = _simple_sets(n_in=8, n_out=4)
        labeled = np.array([0, 3])
        pools = sampling_pools(sets, scores, labeled, labeled_fraction=1.0)
        assert pools.labeled_fraction == 1.0 and pools.negative_weights is None
        _, _, g = sample_batch_arrays(pools, n=1, b=16, rng=rng)
        assert np.isin(g, labeled).all()

    def test_empty_pools_rejected(self, rng):
        sets, scores = _simple_sets()
        empty_out = CandidateSets(np.array([], dtype=int), sets.inlier_idx)
        with pytest.raises(ValueError, match="outlier"):
            sampling_pools(empty_out, scores)
        labeled_everything = sets.inlier_idx
        with pytest.raises(ValueError, match="inlier"):
            sampling_pools(sets, scores, labeled_everything)


class TestEmpiricalFrequencies:
    def test_query_frequency_matches_inverse_score_weighting(self):
        # Inlier scores [1, 3]: the low-score object should win 3 of 4 picks.
        sets = CandidateSets(np.array([2]), np.array([0, 1]))
        scores = _scores([1.0, 3.0, 9.0])
        rng = np.random.default_rng(123)
        picks = np.zeros(2)
        draws = 100_000
        pools = sampling_pools(sets, scores)
        for _ in range(draws // 500):
            q, _, _ = sample_batch_arrays(pools, n=1, b=500, rng=rng)
            picks[0] += (q == 0).sum()
            picks[1] += (q == 1).sum()
        freq = picks[0] / draws
        assert abs(freq - 0.75) < 0.01

    def test_chi_square_on_both_samplers(self):
        sets = CandidateSets(np.arange(6, 10), np.arange(6))
        values = np.concatenate([np.linspace(0.2, 1.4, 6), np.linspace(1.0, 4.0, 4)])
        scores = _scores(values)
        rng = np.random.default_rng(99)
        draws = 100_000
        q_counts = np.zeros(6)
        g_counts = np.zeros(4)
        pools = sampling_pools(sets, scores)
        for _ in range(draws // 1000):
            q, _, g = sample_batch_arrays(pools, n=1, b=1000, rng=rng)
            q_counts += np.bincount(q.ravel(), minlength=6)
            g_counts += np.bincount(g - 6, minlength=4)
        wq = np.array([(values[:6].sum() - v) for v in values[:6]])
        wq /= wq.sum()
        wn = values[6:] / values[6:].sum()
        assert chisquare(q_counts, wq * draws).pvalue > 0.001
        assert chisquare(g_counts, wn * draws).pvalue > 0.001
