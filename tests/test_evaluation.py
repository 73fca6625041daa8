"""AUC metric, result tables, and experiment protocols at desk scale."""

import numpy as np
import pytest

import repen.experiments
import repen.pipeline
import repen.sp
from repen.data import Dataset, HyperParams
from repen.evaluation import (
    RESULT_HEADER,
    SCALABILITY_HEADER,
    auc,
    write_gnuplot_script,
    write_rows_csv,
)
from repen.experiments import (
    DEFAULT_M_GRID,
    run_comparison,
    run_dim_sensitivity,
    run_labeled_curve,
    run_scalability,
    summarize_rows,
)
from repen.ingest import synth_gaussian_with_outliers
from repen.params import ExperimentParams
from repen.pipeline import run_pipeline

from conftest import pairwise_auc_oracle


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([1, 2, 3, 4], [0, 0, 0, 1]) == 1.0

    def test_inverted_ranking(self):
        assert auc([4, 3, 2, 1], [0, 0, 0, 1]) == 0.0

    def test_tie_example(self):
        # Pairs (outlier vs inlier): (1 vs 1) = 0.5, (2 vs 1) = 1 -> 0.75.
        assert auc([1, 1, 2], [0, 1, 1]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="AUC needs"):
            auc([1, 2], [1, 1])

    def test_matches_pairwise_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 200))
            # Heavy ties: draw from a small set of values.
            scores = rng.choice([0.0, 0.5, 1.0, 2.0, 7.0], size=n)
            labels = rng.random(n) < 0.4
            if labels.all() or not labels.any():
                continue
            expected = pairwise_auc_oracle(scores, labels)
            assert abs(auc(scores, labels) - expected) < 1e-12

    def test_invariant_under_monotone_transform(self, rng):
        scores = rng.random(150)
        labels = rng.random(150) < 0.3
        labels[0] = True
        labels[1] = False
        base = auc(scores, labels)
        assert auc(np.exp(scores * 3), labels) == pytest.approx(base, abs=1e-12)
        assert auc(scores ** 3 + 7, labels) == pytest.approx(base, abs=1e-12)


class TestResultTables:
    def test_csv_deterministic_bytes(self, tmp_path):
        rows = [
            {"method": "repen_sp", "M": 20, "n_labeled": 0, "repeat": 0,
             "auc": 0.95, "detect_seconds": 0.125, "train_seconds": 3.0},
        ]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(p1, rows)
        write_rows_csv(p2, rows)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.splitlines()[0] == ",".join(RESULT_HEADER)
        assert "0.95" in text

    def test_gnuplot_script_emitted(self, tmp_path):
        path = tmp_path / "plot.gp"
        write_gnuplot_script(path, "rows.csv", 2, 5, "t", "x", "y")
        text = path.read_text()
        assert "set datafile separator" in text
        assert "using 2:5" in text


def _small_dataset():
    return synth_gaussian_with_outliers(150, 10, 5, 195, 6.0, seed=4)


def _fast_params(**overrides):
    base = dict(rep_dim=8, n_epochs=2, samples_per_epoch=512, batch_size=128,
                rng_seed=7)
    base.update(overrides)
    return HyperParams(**base)


class TestPipelineStages:
    def test_stage_seconds_names_every_stage_in_run_order(self):
        result = run_pipeline(_small_dataset(), _fast_params())
        seconds = result.stage_seconds
        assert list(seconds) == [
            "score_original", "threshold", "train", "transform", "score_embedded"
        ]
        assert all(s >= 0 for s in seconds.values())
        assert result.offline_seconds == pytest.approx(
            sum(seconds.values()) - seconds["score_embedded"]
        )

    def test_original_stage_runs_once_per_repeat(self, monkeypatch):
        calls = []
        real = repen.pipeline.candidate_sets

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(repen.pipeline, "candidate_sets", counting)
        ds = _small_dataset()
        run_labeled_curve(ds, _fast_params(), l_values=[0, 2, 4], repeats=2)
        assert len(calls) == 2
        calls.clear()
        run_dim_sensitivity(ds, _fast_params(), m_values=(2, 4, 8), repeats=2)
        assert len(calls) == 2

    def test_shared_stage_rows_equal_standalone_runs(self, monkeypatch):
        """Every curve and sweep cell reports what a fresh run_pipeline reports."""
        cells = []

        def recording(dataset, params, original=None):
            cells.append((dataset, params))
            return run_pipeline(dataset, params, original)

        monkeypatch.setattr(repen.experiments, "run_pipeline", recording)
        ds = _small_dataset()
        rows = run_labeled_curve(ds, _fast_params(), l_values=[0, 3], repeats=2)
        rows += run_dim_sensitivity(ds, _fast_params(), m_values=(2, 8), repeats=2)
        assert len(cells) == len(rows) == 8
        assert [c[0].known_outliers is not None for c in cells[:4]] == [False, True] * 2
        for row, (cell, params) in zip(rows, cells):
            assert row["auc"] == run_pipeline(cell, params).auc_embedded
            assert row["M"] == params.rep_dim


class TestThinLoop:
    """Protocols score each space once per run and report that run's seconds."""

    @staticmethod
    def _count_scores_and_capture_runs(monkeypatch):
        calls, results = [], []
        real_score = repen.sp.sp_score

        def counting(*args, **kwargs):
            calls.append(args)
            return real_score(*args, **kwargs)

        def capturing(*args, **kwargs):
            results.append(run_pipeline(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(repen.sp, "sp_score", counting)
        monkeypatch.setattr(repen.experiments, "run_pipeline", capturing)
        return calls, results

    def test_comparison_rows_read_their_run(self, monkeypatch):
        calls, results = self._count_scores_and_capture_runs(monkeypatch)
        rows, summary = run_comparison(_small_dataset(), _fast_params(), repeats=1)
        assert len(calls) == 2
        (result,) = results
        assert [row["detect_seconds"] for row in rows] == [
            result.stage_seconds["score_original"], result.stage_seconds["score_embedded"]
        ]
        assert [s["mean_detect_seconds"] for s in summary] == [
            row["detect_seconds"] for row in rows
        ]

    @pytest.mark.parametrize(
        "run",
        [
            lambda ds, p: run_labeled_curve(ds, p, l_values=[0, 3], repeats=1),
            lambda ds, p: run_dim_sensitivity(ds, p, m_values=(2, 4), repeats=1),
        ],
        ids=["labeled_curve", "dim_sensitivity"],
    )
    def test_shared_stage_rows_read_their_run(self, monkeypatch, run):
        calls, results = self._count_scores_and_capture_runs(monkeypatch)
        rows = run(_small_dataset(), _fast_params())
        assert len(calls) == 3
        assert [row["detect_seconds"] for row in rows] == [
            result.stage_seconds["score_embedded"] for result in results
        ]
        assert [row["train_seconds"] for row in rows] == [
            result.offline_seconds for result in results
        ]


@pytest.mark.parametrize(
    "run, setting",
    [
        (lambda ds, p: run_comparison(ds, p, repeats=0), "repeats"),
        (lambda ds, p: run_labeled_curve(ds, p, l_values=[2, -1], repeats=1), "l_values"),
        (lambda ds, p: run_dim_sensitivity(ds, p, m_values=(4, 0), repeats=1), "m_values"),
        (lambda ds, p: run_scalability(p, ExperimentParams(sizes=(), dims=(40,),
                                                           dim_sweep_size=1, d_relevant=5)),
         "dim_sweep_size"),
    ],
    ids=["comparison", "labeled_curve", "dim_sensitivity", "scalability"],
)
def test_protocols_reject_bad_settings_before_any_run(monkeypatch, run, setting):
    def no_run(*args, **kwargs):
        raise AssertionError("a stage ran before the settings were checked")

    monkeypatch.setattr(repen.experiments, "run_pipeline", no_run)
    monkeypatch.setattr(repen.experiments, "original_stage", no_run)
    with pytest.raises(ValueError, match=setting):
        run(_small_dataset(), _fast_params())


class TestComparisonProtocol:
    def test_rows_and_summary_shape(self):
        rows, summary = run_comparison(_small_dataset(), _fast_params(), repeats=2)
        assert len(rows) == 4
        methods = {row["method"] for row in rows}
        assert methods == {"original_sp", "repen_sp"}
        assert {s["method"] for s in summary} == methods
        for row in rows:
            assert set(RESULT_HEADER) <= set(row)
            assert 0.0 <= row["auc"] <= 1.0
            assert row["detect_seconds"] > 0

    def test_deterministic(self):
        ds = _small_dataset()
        r1, _ = run_comparison(ds, _fast_params(), repeats=1)
        r2, _ = run_comparison(ds, _fast_params(), repeats=1)
        for a, b in zip(r1, r2):
            assert a["auc"] == b["auc"]

    def test_requires_labels(self, rng):
        ds = Dataset(rng.standard_normal((30, 5)))
        with pytest.raises(ValueError, match="labels"):
            run_comparison(ds, _fast_params(), repeats=1)

    @pytest.mark.parametrize("protocol", [run_comparison, run_dim_sensitivity])
    def test_single_class_labels_rejected(self, protocol):
        ds = _small_dataset()
        inliers_only = Dataset(ds.values, np.zeros(ds.n_objects, dtype=bool))
        with pytest.raises(ValueError, match="labels of both classes"):
            protocol(inliers_only, _fast_params(), repeats=1)

    def test_summarize_rows(self):
        rows = [
            {"method": "m", "auc": 0.8, "detect_seconds": 1.0},
            {"method": "m", "auc": 0.6, "detect_seconds": 3.0},
        ]
        (summary,) = summarize_rows(rows)
        assert summary["mean_auc"] == pytest.approx(0.7)
        assert summary["std_auc"] == pytest.approx(0.1)
        assert summary["mean_detect_seconds"] == pytest.approx(2.0)


class TestLabeledCurveProtocol:
    def test_l_zero_matches_comparison_row(self):
        ds = _small_dataset()
        params = _fast_params()
        rows, _ = run_comparison(ds, params, repeats=1)
        repen_row = next(r for r in rows if r["method"] == "repen_sp")
        curve = run_labeled_curve(ds, params, l_values=[0], repeats=1)
        assert curve[0]["auc"] == repen_row["auc"]
        assert curve[0]["n_labeled"] == 0

    def test_labeled_rows_excluded_from_evaluation(self):
        ds = _small_dataset()
        curve = run_labeled_curve(ds, _fast_params(), l_values=[0, 4], repeats=1)
        assert [row["n_labeled"] for row in curve] == [0, 4]
        for row in curve:
            assert 0.0 <= row["auc"] <= 1.0

    def test_pool_too_small_rejected(self):
        ds = _small_dataset()  # 10 ground-truth outliers
        with pytest.raises(ValueError, match="pool"):
            run_labeled_curve(ds, _fast_params(), l_values=[10], repeats=1)


class TestDimSensitivityProtocol:
    def test_default_grid_matches_contract(self):
        assert DEFAULT_M_GRID == (1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)

    def test_rows_per_repeat(self):
        ds = _small_dataset()
        rows = run_dim_sensitivity(ds, _fast_params(), m_values=(2, 4, 8), repeats=2)
        assert len(rows) == 6
        assert [row["M"] for row in rows] == [2, 4, 8, 2, 4, 8]


class TestScalabilityProtocol:
    def test_single_configuration_row(self):
        params = _fast_params(n_epochs=1, samples_per_epoch=128, batch_size=64)
        rows = run_scalability(
            params, ExperimentParams(sizes=(150,), dims=(), size_sweep_dim=64, d_relevant=5)
        )
        assert len(rows) == 1
        row = rows[0]
        assert set(SCALABILITY_HEADER) == set(row)
        assert row["axis"] == "size"
        assert row["total_seconds"] > 0
        assert row["total_seconds"] == pytest.approx(
            row["train_seconds"] + row["transform_seconds"] + row["detect_seconds"]
        )

    def test_dimension_axis(self):
        params = _fast_params(n_epochs=1, samples_per_epoch=128, batch_size=64)
        rows = run_scalability(
            params, ExperimentParams(sizes=(), dims=(32, 64), dim_sweep_size=120, d_relevant=5)
        )
        assert [row["n_features"] for row in rows] == [32, 64]
        assert all(row["axis"] == "dimension" for row in rows)
