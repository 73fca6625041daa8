"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; a pytest failure line marks the corresponding criterion as
failed. The end-to-end criteria train real models and take a few minutes
each; the whole module runs in well under the summed per-criterion budgets.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chisquare

from repen.data import CandidateSets, Dataset, HyperParams, OutlierScores
from repen.evaluation import auc
from repen.experiments import run_labeled_curve
from repen.ingest import synth_gaussian_with_outliers
from repen.learner import _batch_loss_grad, train, transform
from repen.params import ExperimentParams
from repen.pipeline import run_pipeline, stage_seeds
from repen.sampling import sample_batch_arrays, sampling_pools
from repen.sp import SpConfig, draw_subsamples, sp_score
from repen.thresholding import candidate_sets, cantelli_bound, cantelli_partition
from repen.cli import main as cli_main

from conftest import (
    dense_gradient,
    finite_difference_gradient,
    nn_dist_reference,
    one_triplet,
    pairwise_auc_oracle,
    relative_gradient_error,
)


def _passline(criterion: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS")


class TestCriterion01GradientOracle:
    def test_gradients_match_central_differences(self):
        """200 random instances, D <= 30, M <= 5, n in {1,2,3}, h = 1e-5."""
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        checked = 0
        worst = 0.0
        while checked < 200:
            d = int(rng.integers(2, 31))
            m = int(rng.integers(1, min(5, d) + 1))
            n = int(rng.integers(1, 4))
            rows = n + 2
            values = rng.standard_normal((rows, d))
            order = rng.permutation(rows)
            batch = one_triplet(order[:n], order[n], order[n + 1])
            weights = rng.standard_normal((d, m)) * 0.7
            margin = float(rng.uniform(2.0, 20.0))
            losses, grad = _batch_loss_grad(values, weights, *batch, margin)
            loss = float(losses[0])
            # Keep the oracle clear of the hinge kink so h = 1e-5 cannot
            # step across it; both active and flat instances are exercised.
            emb = np.maximum(values @ weights, 0.0)
            d_pos = ((emb[order[n]] - emb[order[:n]]) ** 2).sum(1).min()
            d_neg = ((emb[order[n + 1]] - emb[order[:n]]) ** 2).sum(1).min()
            if abs(margin + d_pos - d_neg) < 0.5:
                continue
            analytic = dense_gradient(grad, weights.shape)
            numeric = finite_difference_gradient(values, weights, batch, margin)
            if loss == 0.0:
                assert np.array_equal(analytic, np.zeros_like(analytic))
                assert np.array_equal(numeric, np.zeros_like(numeric))
            else:
                worst = max(worst, relative_gradient_error(analytic, numeric))
            checked += 1
        elapsed = time.perf_counter() - start
        assert worst < 1e-4, f"max relative gradient error {worst:.3e}"
        assert elapsed < 60.0, f"gradient oracle took {elapsed:.1f}s"
        _passline(f"1 gradient-oracle (max rel err {worst:.2e}, {elapsed:.1f}s)")


class TestCriterion02KernelReference:
    def test_fused_kernel_equals_nn_dist(self):
        """50 random datasets, N <= 2000, dim <= 20, agreement with nn_dist within 1e-9."""
        rng = np.random.default_rng(202)
        start = time.perf_counter()
        worst = 0.0
        for trial in range(50):
            n = int(rng.integers(20, 2001))
            d = int(rng.integers(1, 21))
            ds = Dataset(rng.standard_normal((n, d)) * rng.uniform(0.2, 5.0))
            cfg = SpConfig(
                subsample_size=int(rng.integers(1, min(n, 17))),
                ensemble_size=int(rng.integers(1, 51)),
                rng_seed=trial,
            )
            fused = sp_score(ds, cfg)
            reference = nn_dist_reference(ds.values, draw_subsamples(n, cfg)).mean(axis=1)
            worst = max(worst, float(np.abs(fused.scores - reference).max()))
        elapsed = time.perf_counter() - start
        assert worst < 1e-9, f"max kernel-reference score difference {worst:.3e}"
        assert elapsed < 60.0, f"kernel reference check took {elapsed:.1f}s"
        _passline(f"2 sp-kernel-reference (max diff {worst:.2e}, {elapsed:.1f}s)")


class TestCriterion03AucOracle:
    def test_rank_auc_equals_pairwise_oracle(self):
        """1000 random labeled score vectors incl. tie-heavy, within 1e-12."""
        rng = np.random.default_rng(303)
        worst = 0.0
        for trial in range(1000):
            n = int(rng.integers(2, 201))
            if trial % 2:
                scores = rng.choice([0.0, 1.0, 2.0, 5.0], size=n)  # heavy ties
            else:
                scores = rng.standard_normal(n)
            labels = rng.random(n) < rng.uniform(0.1, 0.9)
            if labels.all() or not labels.any():
                continue
            worst = max(
                worst, abs(auc(scores, labels) - pairwise_auc_oracle(scores, labels))
            )
        assert worst < 1e-12, f"max AUC deviation {worst:.3e}"
        _passline(f"3 auc-oracle (max deviation {worst:.2e})")


class TestCriterion04CantelliBound:
    def test_false_positive_bound_never_violated(self):
        """10^4 score vectors x 4 families x alpha grid: zero violations."""
        rng = np.random.default_rng(404)
        alphas = (0.5, 1.0, 1.732, 3.0)
        families = (
            lambda size: rng.random(size),
            lambda size: rng.standard_normal(size),
            lambda size: rng.lognormal(0.0, 1.0, size),
            lambda size: rng.pareto(1.2, size),
        )
        violations = 0
        checked = 0
        for trial in range(10_000):
            scores = OutlierScores.from_scores(
                np.abs(families[trial % 4](int(rng.integers(2, 301))))
            )
            if scores.std == 0.0:
                continue
            for alpha in alphas:
                sets = cantelli_partition(scores, alpha)
                if sets.outlier_idx.size / len(scores) > cantelli_bound(alpha):
                    violations += 1
                checked += 1
        assert checked >= 39_000
        assert violations == 0, f"{violations} bound violations"
        assert round(cantelli_bound(1.732), 3) == 0.250
        _passline(f"4 cantelli-bound ({checked} checks, 0 violations, bound(1.732)=0.250)")


class TestCriterion05SamplingDistributions:
    def test_empirical_frequencies_and_labeled_split(self):
        """10^5 draws match analytic weights; labeled split is exact."""
        inliers = np.arange(6)
        outliers = np.arange(6, 10)
        values = np.concatenate([np.linspace(0.2, 1.4, 6), np.linspace(1.0, 4.0, 4)])
        scores = OutlierScores.from_scores(values)
        sets = CandidateSets(outliers, inliers)
        rng = np.random.default_rng(505)
        draws = 100_000
        q_counts = np.zeros(6)
        g_counts = np.zeros(4)
        pools = sampling_pools(sets, scores)
        for _ in range(draws // 1000):
            q, _, g = sample_batch_arrays(pools, n=1, b=1000, rng=rng)
            q_counts += np.bincount(q.ravel(), minlength=6)
            g_counts += np.bincount(g - 6, minlength=4)
        z = values[:6].sum()
        wq = (z - values[:6]) / (z - values[:6]).sum()
        wn = values[6:] / values[6:].sum()
        p_query = chisquare(q_counts, wq * draws).pvalue
        p_negative = chisquare(g_counts, wn * draws).pvalue
        assert p_query > 0.001, f"query sampler chi-square p = {p_query:.2e}"
        assert p_negative > 0.001, f"negative sampler chi-square p = {p_negative:.2e}"

        # Labeled mixing: exactly ceil(b/2) candidates and floor(b/2) labeled.
        labeled = np.array([3])  # member of the inlier pool
        pools = sampling_pools(sets, scores, labeled)
        for b in (256, 7):
            _, _, g = sample_batch_arrays(pools, n=1, b=b, rng=rng)
            n_labeled = int((g == 3).sum())
            assert n_labeled == b // 2
            assert b - n_labeled == -(-b // 2)
        _passline(
            f"5 sampling-distributions (chi2 p query {p_query:.3f}, negative {p_negative:.3f})"
        )


def _easy_synthetic(seed: int) -> Dataset:
    return synth_gaussian_with_outliers(1000, 20, 10, 4990, 6.0, seed)


class TestCriterion06DetectionQuality:
    def test_learned_space_detection_quality(self):
        """Mean AUC >= 0.90 and >= original-space mean - 0.02 over 10 seeds."""
        start = time.perf_counter()
        params = HyperParams()  # stock defaults, 20 representation features
        auc_orig, auc_emb = [], []
        for seed in range(10):
            ds = _easy_synthetic(seed)
            result = run_pipeline(ds, replace(params, rng_seed=seed))
            auc_orig.append(result.auc_original)
            auc_emb.append(result.auc_embedded)
        elapsed = time.perf_counter() - start
        mean_orig = float(np.mean(auc_orig))
        mean_emb = float(np.mean(auc_emb))
        assert mean_emb >= 0.90, f"learned-space mean AUC {mean_emb:.4f} < 0.90"
        assert mean_emb >= mean_orig - 0.02, (
            f"learned-space mean AUC {mean_emb:.4f} trails original-space "
            f"{mean_orig:.4f} by more than 0.02"
        )
        assert elapsed < 900.0, f"detection-quality run took {elapsed:.0f}s"
        _passline(
            f"6 detection-quality (original {mean_orig:.4f}, learned {mean_emb:.4f}, "
            f"{elapsed:.0f}s)"
        )


class TestCriterion07SpeedupDirection:
    def test_embedded_scoring_at_least_5x_faster(self):
        """Scoring-only speedup of the 20-D embedding over 10,000-D, same kernel."""
        start = time.perf_counter()
        ds = synth_gaussian_with_outliers(3920, 80, 10, 9990, 6.0, seed=1)
        params = HyperParams(n_epochs=5, rng_seed=1)
        result = run_pipeline(ds, params)

        cfg = SpConfig(rng_seed=7)
        times_orig, times_emb = [], []
        for _ in range(3):
            t0 = time.perf_counter()
            sp_score(ds, cfg)
            times_orig.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            sp_score(result.embedded, cfg)
            times_emb.append(time.perf_counter() - t0)
        t_orig = float(np.median(times_orig))
        t_emb = float(np.median(times_emb))
        speedup = t_orig / t_emb
        elapsed = time.perf_counter() - start
        assert speedup >= 5.0, f"speedup {speedup:.1f}x < 5x"
        assert elapsed < 600.0, f"speedup run took {elapsed:.0f}s"
        _passline(
            f"7 speedup-direction ({t_orig:.2f}s original vs {t_emb:.3f}s embedded, "
            f"{speedup:.0f}x, {elapsed:.0f}s)"
        )


class TestCriterion08LabeledOutlierBenefit:
    def test_labeled_outliers_raise_auc_on_hard_synthetic(self):
        """Mean AUC with l = 40 exceeds l = 0 over 10 seeds (separation 3.0)."""
        start = time.perf_counter()
        ds = synth_gaussian_with_outliers(500, 60, 10, 4990, 3.0, seed=0)
        params = HyperParams(rng_seed=0)
        rows = run_labeled_curve(ds, params, ExperimentParams(l_values=(0, 40), repeats=10))
        mean = {
            l: float(np.mean([r["auc"] for r in rows if r["n_labeled"] == l]))
            for l in (0, 40)
        }
        elapsed = time.perf_counter() - start
        assert mean[40] > mean[0], (
            f"labeled mean AUC {mean[40]:.4f} does not exceed unlabeled {mean[0]:.4f}"
        )
        _passline(
            f"8 labeled-benefit (l=0 {mean[0]:.4f} -> l=40 {mean[40]:.4f}, {elapsed:.0f}s)"
        )


class TestCriterion09DimensionStability:
    def test_auc_stable_across_representation_dims(self):
        """Mean AUC range over M in {10, 20, 50, 100} below 0.05."""
        start = time.perf_counter()
        means = {}
        for m in (10, 20, 50, 100):
            vals = []
            for seed in range(3):
                ds = _easy_synthetic(seed)
                params = HyperParams(rep_dim=m, rng_seed=seed)
                vals.append(run_pipeline(ds, params).auc_embedded)
            means[m] = float(np.mean(vals))
        spread = max(means.values()) - min(means.values())
        elapsed = time.perf_counter() - start
        assert spread < 0.05, f"mean AUC spread {spread:.4f} across M grid"
        _passline(
            "9 dimension-stability ("
            + ", ".join(f"M={m}: {v:.4f}" for m, v in means.items())
            + f", spread {spread:.4f}, {elapsed:.0f}s)"
        )


class TestCriterion10ScalabilityShape:
    def test_runtime_doubles_by_at_most_2p5(self):
        """Doubling N (at D = 10,000) or D (at N = 10,000) keeps ratio in [1, 2.5]."""
        from repen.experiments import run_scalability

        start = time.perf_counter()
        params = HyperParams(n_epochs=5, samples_per_epoch=2560, rng_seed=3)
        rows = run_scalability(
            params,
            ExperimentParams(
                sizes=(1000, 2000, 4000),
                dims=(1250, 2500, 5000),
                size_sweep_dim=10_000,
                dim_sweep_size=10_000,
            ),
        )
        size_totals = [r["total_seconds"] for r in rows if r["axis"] == "size"]
        dim_totals = [r["total_seconds"] for r in rows if r["axis"] == "dimension"]
        ratios = [b / a for a, b in zip(size_totals, size_totals[1:])]
        ratios += [b / a for a, b in zip(dim_totals, dim_totals[1:])]
        elapsed = time.perf_counter() - start
        for ratio in ratios:
            assert 1.0 <= ratio <= 2.5, (
                f"doubling ratio {ratio:.2f} outside [1.0, 2.5]; "
                f"size {size_totals}, dim {dim_totals}"
            )
        assert elapsed < 1800.0, f"scalability run took {elapsed:.0f}s"
        _passline(
            "10 scalability-shape (ratios "
            + ", ".join(f"{r:.2f}" for r in ratios)
            + f", {elapsed:.0f}s)"
        )


class TestCriterion11Determinism:
    def test_pipeline_artifacts_bit_identical(self, tmp_path):
        """Two single-threaded runs with one seed produce identical bytes."""
        data = tmp_path / "data.csv"
        assert cli_main([
            "synth", "--n-inliers", "120", "--n-outliers", "8", "--d-relevant", "5",
            "--d-noise", "75", "--separation", "6.0", "--seed", "5",
            "--format", "csv", "--output", str(data),
        ]) == 0
        outputs = []
        for run in ("one", "two"):
            out_dir = tmp_path / run
            rc = cli_main([
                "--deterministic",
                "pipeline", "--input", str(data), "--output-dir", str(out_dir),
                "--label-column", "label", "--rep-dim", "8", "--n-epochs", "3",
                "--samples-per-epoch", "512", "--batch-size", "128",
                "--rng-seed", "17",
            ])
            assert rc == 0
            outputs.append(out_dir)
        first, second = outputs
        assert (first / "model.repen").read_bytes() == (second / "model.repen").read_bytes()
        assert (first / "scores.csv").read_bytes() == (second / "scores.csv").read_bytes()
        assert (first / "embedded.csv").read_bytes() == (second / "embedded.csv").read_bytes()
        _passline("11 determinism (model and score artifacts bit-identical)")
