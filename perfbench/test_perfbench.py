"""Tests of the benchmark itself: tiny runs of every workload, and checks
that reject corrupted outputs.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sps

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import repen.cli  # noqa: E402
import repen.ingest  # noqa: E402
import repen.learner  # noqa: E402
import repen.sp  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny_run(name, tmp_path, trace=False, seed=3):
    return workloads.run(name, seed, 0.0, trace, str(tmp_path), sizes=workloads.TINY)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_passes_every_check(name, tmp_path):
    result = tiny_run(name, tmp_path)
    assert result.errors == []
    assert result.correct and result.failed == 0
    assert result.rounds == workloads.MIN_ROUNDS
    assert result.attempted % result.rounds == 0
    assert set(result.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in result.metrics.values())


@pytest.mark.parametrize("name", NAMES)
def test_tiny_traced_run_reports_every_layer_and_restores(name, tmp_path):
    originals = (repen.learner.adadelta_step, repen.sp.sp_score_with_subsamples)
    result = tiny_run(name, tmp_path, trace=True)
    assert result.correct and result.failed == 0, result.errors
    assert set(result.metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert (repen.learner.adadelta_step, repen.sp.sp_score_with_subsamples) == originals
    metrics = result.metrics
    assert metrics["learner.steps"] > 0 and metrics["sampling.batches"] >= metrics["learner.steps"]
    assert 0 < metrics["learner.touched_cols_frac"] <= 1
    if name == "cli-csv":
        assert metrics["ingest.bytes_read"] > 0 and metrics["cli.artifacts_s"] > 0
    else:
        assert metrics["ingest.load_csv_s"] == 0


def test_attempted_counts_whole_rounds_and_failures(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(repen.ingest, "write_csv", broken)
    result = tiny_run("dense-5k", tmp_path)
    per_round = 1 + workloads.TINY.score_passes + workloads.TINY.original_passes + 1
    assert result.attempted == result.rounds * per_round
    assert result.failed == result.rounds
    assert result.correct
    assert "downsample_s" not in result.metrics and "fit_s" in result.metrics


@pytest.mark.parametrize(
    "target, corrupt",
    [
        ("sp_score_embedded", lambda out: out.from_scores(out.scores * (1 + 1e-6))),
        ("sp_score", lambda out: out.from_scores(out.scores[::-1].copy())),
    ],
)
def test_corrupted_scores_make_the_run_incorrect(tmp_path, monkeypatch, target, corrupt):
    original = getattr(repen.sp, target)
    monkeypatch.setattr(repen.sp, target, lambda *a, **k: corrupt(original(*a, **k)))
    result = tiny_run("dense-5k", tmp_path)
    assert not result.correct
    assert any("score" in error for error in result.errors)


def test_wrong_embedding_makes_the_run_incorrect(tmp_path, monkeypatch):
    original = repen.learner.transform

    def no_relu(model, dataset):
        out = original(model, dataset)
        out.values[0, 0] += 1.0
        return out

    monkeypatch.setattr(repen.learner, "transform", no_relu)
    result = tiny_run("dense-5k", tmp_path)
    assert not result.correct
    assert any("embedding" in error for error in result.errors)


def test_corrupted_cli_scores_make_the_run_incorrect(tmp_path, monkeypatch):
    original = repen.cli._write_scores_csv

    def shifted(path, scores):
        original(path, scores.from_scores(scores.scores + 1e-3))

    monkeypatch.setattr(repen.cli, "_write_scores_csv", shifted)
    result = tiny_run("cli-csv", tmp_path)
    assert not result.correct
    assert any("scores.csv" in error for error in result.errors)
    assert any("score file" in error for error in result.errors)


@pytest.mark.parametrize("name", ["dense-5k", "cli-csv"])
def test_dropped_downsample_row_makes_the_run_incorrect(name, tmp_path, monkeypatch):
    original = repen.ingest.downsample_to_rate

    def drop_first(dataset, rate, seed):
        out = original(dataset, rate, seed)
        return out.take(np.arange(1, out.n_objects))

    monkeypatch.setattr(repen.ingest, "downsample_to_rate", drop_first)
    result = tiny_run(name, tmp_path)
    assert not result.correct
    assert any("downsample" in error for error in result.errors)


def test_reference_scores_match_the_program_on_dense_and_sparse():
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((40, 7))
    sparse = sps.random(40, 300, density=0.05, random_state=1, format="csr")
    config = repen.sp.SpConfig(subsample_size=3, ensemble_size=6, rng_seed=4)
    for values in (dense, sparse):
        subsamples = repen.sp.draw_subsamples(40, config)
        program = repen.sp.sp_score_with_subsamples(values, subsamples).scores
        checks.check_scores(program, values, subsamples, np.arange(40), "ok")


def test_score_check_rejects_perturbed_scores():
    values = np.random.default_rng(1).standard_normal((30, 5))
    subsamples = repen.sp.draw_subsamples(30, repen.sp.SpConfig(subsample_size=4, ensemble_size=5))
    scores = checks.reference_scores(values, subsamples, np.arange(30))
    checks.check_scores(scores, values, subsamples, np.arange(30), "ok")
    scores[7] *= 1 + 1e-8
    with pytest.raises(checks.CheckError):
        checks.check_scores(scores, values, subsamples, np.arange(30), "bad")
    with pytest.raises(checks.CheckError):
        checks.check_scores(scores[:-1], values, subsamples, np.arange(29), "short")


def test_embedding_check_rejects_missing_relu_and_wrong_weights():
    rng = np.random.default_rng(2)
    values, weights = rng.standard_normal((20, 6)), rng.standard_normal((6, 3))
    expected = checks.relu_embedding(sps.csr_matrix(values), weights)
    checks.check_close(np.maximum(values @ weights, 0.0), expected, "ok")
    with pytest.raises(checks.CheckError):
        checks.check_close(values @ weights, expected, "no relu")
    with pytest.raises(checks.CheckError):
        checks.check_close(np.maximum(values @ (weights * 1.01), 0.0), expected, "weights")
    with pytest.raises(checks.CheckError):
        checks.check_close(expected[:-1], expected, "shape")


def test_auc_check_rejects_an_auc_that_does_not_match_its_scores():
    scores = np.array([0.1, 0.4, 0.35, 0.8, 0.8])
    labels = np.array([False, False, True, True, False])
    # outlier 0.35 beats one inlier; outlier 0.8 beats two and ties one
    assert checks.pairwise_auc(scores, labels) == pytest.approx(3.5 / 6)
    checks.check_auc(repen.auc(scores, labels), scores, labels, "ok")
    with pytest.raises(checks.CheckError):
        checks.check_auc(repen.auc(scores, labels) + 1e-9, scores, labels, "bad")


def test_quality_and_violation_checks():
    checks.check_auc_floor(0.95, 0.9, "ok")
    with pytest.raises(checks.CheckError):
        checks.check_auc_floor(0.89, 0.9, "floor")
    checks.check_violation(0.5, 0.1, "ok")
    with pytest.raises(checks.CheckError):
        checks.check_violation(0.5, 0.5, "bad")


def test_candidate_check():
    scores = np.array([1.0] * 18 + [5.0, 9.0])
    alpha = 1.732
    # threshold = 1.6 + 1.732 * 1.908 = 4.90, so rows 18 and 19 are above it
    assert not checks.check_candidates(np.array([18, 19]), scores, alpha, "ok")
    with pytest.raises(checks.CheckError):
        checks.check_candidates(np.array([19]), scores, alpha, "wrong set")
    assert checks.check_candidates(np.array([0]), np.ones(10), alpha, "constant scores") is True


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_downsample_check(kind):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((30, 4))
    labels = np.zeros(30, dtype=bool)
    labels[[3, 10, 20, 25]] = True
    if kind == "sparse":
        values = sps.csr_matrix(values)
    dataset = repen.Dataset(values, labels)
    rate = 0.1  # keeps floor(0.1 * 26 / 0.9) = 2 outliers
    out = repen.ingest.downsample_to_rate(dataset, rate, 0)
    checks.check_downsample(out.values, out.labels, values, labels, rate, "ok")

    def rows(idx):
        return values[idx], labels[idx]

    kept = np.flatnonzero(np.isin(np.arange(30), np.flatnonzero(~labels)) | np.isin(np.arange(30), [3, 20]))
    checks.check_downsample(*rows(kept), values, labels, rate, "by hand")
    for bad in (kept[1:], kept[::-1], np.append(kept, 10), np.sort(np.append(kept[kept != 20], 0))):
        with pytest.raises(checks.CheckError):
            checks.check_downsample(*rows(bad), values, labels, rate, "bad")
    changed = values[kept].copy() if kind == "dense" else values[kept].toarray()
    changed[0, 0] += 1.0
    with pytest.raises(checks.CheckError):
        checks.check_downsample(changed, labels[kept], values if kind == "dense" else values.toarray(),
                                labels, rate, "changed")


def test_model_reader_and_digest(tmp_path):
    weights = np.arange(12.0).reshape(4, 3)
    path = tmp_path / "model.repen"
    repen.learner.save_model(repen.RepresentationModel(weights), path)
    assert np.array_equal(checks.read_model(path), weights)
    path.write_bytes(path.read_bytes()[:30])
    with pytest.raises(checks.CheckError):
        checks.read_model(path)
    workload = workloads.Dense5k(workloads.TINY, 0, str(tmp_path))
    out = tmp_path / "a.bin"
    out.write_bytes(b"one")
    assert workload.file_same_as_first("a", out) is False
    assert workload.file_same_as_first("a", out) is True
    out.write_bytes(b"two")
    with pytest.raises(checks.CheckError):
        workload.file_same_as_first("a", out)
    assert workload.same_as_first("b", np.arange(3)) is False
    assert workload.same_as_first("b", np.arange(3)) is True
    with pytest.raises(checks.CheckError):
        workload.same_as_first("b", np.arange(1, 4))


def test_inputs_depend_only_on_the_seed(tmp_path):
    spec = workloads.TINY.sparse
    a, la = inputs.sparse_topics(spec, 7)
    b, lb = inputs.sparse_topics(spec, 7)
    assert (a != b).nnz == 0 and np.array_equal(la, lb)
    assert np.all(np.diff(a.indptr) == spec.nnz_per_row) and la.sum() == spec.n_outliers
    c, _ = inputs.sparse_topics(spec, 8)
    assert (a != c).nnz > 0
    values, labels = inputs.dense_gaussian(workloads.TINY.dense, 7)
    size = inputs.write_labeled_csv(tmp_path / "d.csv", values, labels)
    assert size == (tmp_path / "d.csv").stat().st_size
    parsed, parsed_labels = checks.read_csv_table(tmp_path / "d.csv")
    assert np.array_equal(parsed, values) and np.array_equal(parsed_labels, labels)


def test_tracer_self_time_and_restore():
    import types

    module = types.SimpleNamespace(work=lambda x: x + 1)
    t = tracer.Tracer()
    t.wrap(module, "work", "child", lambda a, k, r: {"arg": a[0]})
    with t.span("parent"):
        assert module.work(1) == 2
    t.restore()
    assert module.work.__name__ == "<lambda>" and not hasattr(module.work, "__wrapped__")
    parent, child = t.spans
    assert child.parent == 0 and child.attrs == {"arg": 1}
    assert math.isclose(t.self_seconds(0), parent.seconds - child.seconds)
    assert t.has_ancestor(1, "parent") and not t.has_ancestor(0, "parent")
