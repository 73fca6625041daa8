"""Candidate-set thresholding and its false-positive guarantee."""

import numpy as np
import pytest

from repen.data import OutlierScores
from repen.thresholding import candidate_sets, cantelli_bound, cantelli_partition


def _scores(values):
    return OutlierScores.from_scores(np.asarray(values, dtype=float))


class TestCantelliPartition:
    def test_hand_computed_example(self):
        # mean 2.6, population std 3.2, threshold 2.6 + 1.732 * 3.2 = 8.1424
        scores = _scores([1, 1, 1, 1, 9])
        assert scores.mean == pytest.approx(2.6)
        assert scores.std == pytest.approx(3.2)
        sets = cantelli_partition(scores, 1.732)
        assert sets.outlier_idx.tolist() == [4]
        assert sets.outlier_idx.size / 5 <= cantelli_bound(1.732)

    def test_alpha_zero_cuts_at_mean(self):
        scores = _scores([0, 1, 2, 3, 10])
        sets = cantelli_partition(scores, 0.0)
        expected = np.flatnonzero(scores.scores >= scores.mean)
        assert np.array_equal(sets.outlier_idx, expected)

    def test_constant_scores_give_empty_outlier_set(self):
        scores = _scores([7, 7, 7, 7])
        sets = cantelli_partition(scores, 1.0)
        assert sets.outlier_idx.size == 0
        assert sets.inlier_idx.size == 4

    def test_threshold_ties_included(self):
        # Two-point vector: max sits exactly at mu + std.
        scores = _scores([0.0, 1.0])
        sets = cantelli_partition(scores, 1.0)
        assert sets.outlier_idx.tolist() == [1]

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            cantelli_partition(_scores([1, 2]), -0.5)


class TestFalsePositiveBound:
    def test_bound_value_for_default_alpha(self):
        # 1 / (1 + 1.732^2) rounds to 0.250: a 25% ceiling.
        assert round(cantelli_bound(1.732), 3) == 0.250

    def test_bound_holds_across_distributions(self, rng):
        alphas = (0.5, 1.0, 1.732, 3.0)
        families = (
            lambda size: rng.random(size),
            lambda size: rng.standard_normal(size) ** 2,
            lambda size: rng.lognormal(0.0, 1.5, size),
            lambda size: rng.pareto(1.5, size),
        )
        for _ in range(300):
            family = families[int(rng.integers(len(families)))]
            scores = _scores(family(int(rng.integers(2, 200))))
            if scores.std == 0.0:
                continue
            for alpha in alphas:
                sets = cantelli_partition(scores, alpha)
                assert sets.outlier_idx.size / len(scores) <= cantelli_bound(alpha)

    def test_monotone_in_alpha(self, rng):
        scores = _scores(rng.lognormal(0, 1, 150))
        previous = None
        for alpha in (0.0, 0.5, 1.0, 1.732, 3.0):
            outliers = set(cantelli_partition(scores, alpha).outlier_idx.tolist())
            if previous is not None:
                assert outliers <= previous
            previous = outliers


class TestFallback:
    def test_constant_scores_fall_back_to_top_k(self):
        scores = _scores([3.0] * 40)
        sets = candidate_sets(scores, 1.732)
        assert sets.outlier_idx.size == 2  # ceil(0.05 * 40)
        assert sets.inlier_idx.size == 38
        # The fallback partition is disjoint and covers [0, N).
        assert np.intersect1d(sets.outlier_idx, sets.inlier_idx).size == 0
        assert np.array_equal(np.union1d(sets.outlier_idx, sets.inlier_idx), np.arange(40))

    def test_extreme_alpha_falls_back(self):
        scores = _scores([0, 1, 2, 3])
        sets = candidate_sets(scores, 100.0)
        assert sets.outlier_idx.tolist() == [3]

    def test_normal_case_identical_to_partition(self, rng):
        scores = _scores(rng.lognormal(0, 1, 100))
        a = cantelli_partition(scores, 1.732)
        b = candidate_sets(scores, 1.732)
        assert np.array_equal(a.outlier_idx, b.outlier_idx)

    def test_fallback_never_empties_inliers(self):
        scores = _scores([1.0, 1.0])
        sets = candidate_sets(scores, 1.0)
        assert sets.outlier_idx.size == 1
        assert sets.inlier_idx.size == 1
