"""Command-line interface: subcommands, config handling, artifacts."""

import argparse
import csv
import hashlib
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import repen
from repen import ingest
from repen.cli import (
    _EXPERIMENT_DEFAULTS,
    _PIPELINE_DEFAULTS,
    _THREAD_ENV_VARS,
    _write_scores_csv,
    main,
    write_manifest,
    parse_config_file,
    resolve_settings,
)
from repen.data import Dataset, RepresentationModel
from repen.ingest import load_csv, load_libsvm, synth_gaussian_with_outliers, write_libsvm
from repen.learner import save_model
from repen.params import ExperimentParams, HyperParams, SpConfig
from repen.sp import sp_score_embedded

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def thread_env(monkeypatch):
    """Give the BLAS thread variables a marker value and unset REPEN_THREADS.

    The CLI writes the thread variables into ``os.environ``; monkeypatch puts
    every one back as it was when the test ends.
    """
    for var in _THREAD_ENV_VARS:
        monkeypatch.setenv(var, "marker")
    monkeypatch.delenv("REPEN_THREADS", raising=False)
    return monkeypatch


def _write_synth(tmp_path, fmt="csv", n_inliers=80, n_outliers=6, d_noise=45):
    out = tmp_path / f"data.{fmt if fmt == 'csv' else 'libsvm'}"
    rc = main([
        "synth",
        "--n-inliers", str(n_inliers),
        "--n-outliers", str(n_outliers),
        "--d-relevant", "5",
        "--d-noise", str(d_noise),
        "--separation", "6.0",
        "--seed", "42",
        "--format", fmt,
        "--output", str(out),
    ])
    assert rc == 0
    return out


def _write_nan_csv(tmp_path):
    """A synthetic CSV whose sixth line has a ``nan`` in its first cell."""
    data = _write_synth(tmp_path, "csv")
    lines = data.read_text().splitlines()
    cells = lines[5].split(",")
    cells[0] = "nan"
    lines[5] = ",".join(cells)
    data.write_text("\n".join(lines) + "\n")
    return data


class TestSynthCommand:
    def test_csv_shape_and_rate(self, tmp_path):
        path = _write_synth(tmp_path, "csv", n_inliers=100, n_outliers=5, d_noise=95)
        ds = load_csv(path, label_column="label")
        assert (ds.n_objects, ds.n_features) == (105, 100)
        assert int(ds.labels.sum()) == 5

    def test_identical_files_for_identical_args(self, tmp_path):
        a = _write_synth(tmp_path / "a", "libsvm")
        b = _write_synth(tmp_path / "b", "libsvm")
        assert a.read_bytes() == b.read_bytes()

    def test_libsvm_output_loads(self, tmp_path):
        path = _write_synth(tmp_path, "libsvm")
        ds = load_libsvm(path)
        assert ds.n_objects == 86


class TestPipelineCommand:
    def _run(self, tmp_path, extra=()):
        data = _write_synth(tmp_path, "csv")
        out_dir = tmp_path / "run"
        rc = main([
            "pipeline",
            "--input", str(data),
            "--output-dir", str(out_dir),
            "--label-column", "label",
            "--rep-dim", "6",
            "--n-epochs", "2",
            "--samples-per-epoch", "256",
            "--batch-size", "64",
            "--rng-seed", "3",
            *extra,
        ])
        return rc, out_dir

    def test_artifacts_written(self, tmp_path):
        rc, out_dir = self._run(tmp_path)
        assert rc == 0
        for name in ("model.repen", "embedded.csv", "scores.csv", "auc.txt",
                     "manifest.cfg"):
            assert (out_dir / name).exists(), name

    def test_manifest_echoes_defaults(self, tmp_path):
        rc, out_dir = self._run(tmp_path)
        manifest = parse_config_file(out_dir / "manifest.cfg")
        assert manifest["subsample_size"] == "8"
        assert manifest["ensemble_size"] == "50"
        assert manifest["alpha"] == "1.732"
        assert manifest["margin"] == "1000.0"
        assert manifest["query_size"] == "1"
        assert manifest["rep_dim"] == "6"  # explicit flag wins
        assert manifest["rng_seed"] == "3"

    def test_invalid_hyperparameter_names_field(self, tmp_path, capsys):
        data = _write_synth(tmp_path, "csv")
        rc = main([
            "pipeline", "--input", str(data), "--output-dir", str(tmp_path / "o"),
            "--rep-dim", "0",
        ])
        assert rc != 0
        assert "rep_dim >= 1" in capsys.readouterr().err

    def test_negative_seed_names_it(self, tmp_path, capsys):
        data = _write_synth(tmp_path, "csv")
        out_dir = tmp_path / "o"
        capsys.readouterr()
        rc = main(["pipeline", "--input", str(data), "--output-dir", str(out_dir),
                   "--rng-seed", "-1"])
        assert rc == 1
        assert capsys.readouterr().err == "error: rng_seed >= 0 required, got -1\n"
        assert not (out_dir / "model.repen").exists()

    def test_unparsable_setting_names_it(self, capsys):
        rc = main(["pipeline", "--rep-dim", "abc"])
        assert rc == 1
        assert capsys.readouterr().err == "error: invalid value for rep_dim: 'abc'\n"

    def test_missing_input_fails(self, tmp_path, capsys):
        rc = main([
            "pipeline", "--input", str(tmp_path / "nope.csv"),
            "--output-dir", str(tmp_path / "o"),
        ])
        assert rc != 0
        assert "not found" in capsys.readouterr().err

    def test_rerun_is_bit_identical(self, tmp_path):
        rc1, dir1 = self._run(tmp_path)
        data = tmp_path / "data.csv"
        dir2 = tmp_path / "run2"
        rc2 = main([
            "pipeline", "--input", str(data), "--output-dir", str(dir2),
            "--label-column", "label", "--rep-dim", "6", "--n-epochs", "2",
            "--samples-per-epoch", "256", "--batch-size", "64", "--rng-seed", "3",
        ])
        assert rc1 == rc2 == 0
        assert (dir1 / "scores.csv").read_bytes() == (dir2 / "scores.csv").read_bytes()
        assert (dir1 / "model.repen").read_bytes() == (dir2 / "model.repen").read_bytes()

    def test_manifest_reproduces_the_run(self, tmp_path, thread_env):
        data = _write_synth(tmp_path, "csv")
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([
            "--deterministic", "pipeline", "--input", str(data), "--output-dir", str(first),
            "--label-column", "label", "--rep-dim", "6", "--n-epochs", "2",
            "--samples-per-epoch", "256", "--batch-size", "64", "--rng-seed", "3",
        ]) == 0
        assert main([
            "--deterministic", "pipeline", "--config", str(first / "manifest.cfg"),
            "--output-dir", str(second),
        ]) == 0
        for name in ("model.repen", "scores.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_manifest_with_hash_in_paths_reproduces_the_run(self, tmp_path, thread_env):
        """A '#' inside a path is part of the value, so the manifest reruns."""
        data = _write_synth(tmp_path, "csv")
        (tmp_path / "d#1").mkdir()
        data.rename(tmp_path / "d#1" / "mix.csv")
        thread_env.chdir(tmp_path)
        assert main([
            "--deterministic", "pipeline", "--input", "d#1/mix.csv", "--output-dir", "run#a",
            "--label-column", "label", "--rep-dim", "6", "--n-epochs", "2",
            "--samples-per-epoch", "256", "--batch-size", "64", "--rng-seed", "3",
        ]) == 0
        manifest = parse_config_file("run#a/manifest.cfg")
        assert (manifest["input"], manifest["output_dir"]) == ("d#1/mix.csv", "run#a")
        names = ("model.repen", "scores.csv", "embedded.csv", "auc.txt")
        first = {n: hashlib.sha256(Path("run#a", n).read_bytes()).hexdigest() for n in names}
        for n in names:
            Path("run#a", n).unlink()
        assert main(["--deterministic", "pipeline", "--config", "run#a/manifest.cfg"]) == 0
        again = {n: hashlib.sha256(Path("run#a", n).read_bytes()).hexdigest() for n in names}
        assert again == first

    def test_sparse_libsvm_input_end_to_end(self, tmp_path):
        data = _write_synth(tmp_path, "libsvm")
        out_dir = tmp_path / "run_sparse"
        rc = main([
            "pipeline", "--input", str(data), "--output-dir", str(out_dir),
            "--rep-dim", "6", "--n-epochs", "2", "--samples-per-epoch", "256",
            "--batch-size", "64", "--rng-seed", "3",
        ])
        assert rc == 0
        assert (out_dir / "scores.csv").exists()
        assert (out_dir / "auc.txt").exists()  # libsvm labels present

    def test_config_file_with_flag_override(self, tmp_path):
        data = _write_synth(tmp_path, "csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input = {data}\n"
            f"output_dir = {tmp_path / 'cfg_run'}\n"
            "label_column = label\n"
            "rep_dim = 4\n"
            "n_epochs = 1\n"
            "samples_per_epoch = 128\n"
            "batch_size = 64\n"
        )
        rc = main(["pipeline", "--config", str(cfg), "--rep-dim", "5"])
        assert rc == 0
        manifest = parse_config_file(tmp_path / "cfg_run" / "manifest.cfg")
        assert manifest["rep_dim"] == "5"

    def test_hash_starts_a_comment_at_line_start_or_after_whitespace(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# a whole-line comment\n"
            "  # an indented one\n"
            "input = d#1/mix.csv # trailing comment\n"
            "output_dir = run#a\t# after a tab\n"
            "label_column = label#\n"
        )
        assert parse_config_file(cfg) == {
            "input": "d#1/mix.csv", "output_dir": "run#a", "label_column": "label#",
        }

    @pytest.mark.parametrize("key, value", [
        ("output_dir", "#out"),
        ("input", "runs #2/mix.csv"),
        ("label_column", "label\t#y"),
        ("output_dir", "run\nrep_dim = 3"),
        ("output_dir", "run\rb"),
        ("input", " mix.csv"),
        ("label_column", "label "),
    ])
    @pytest.mark.parametrize("command", [["pipeline"], ["experiment", "--kind", "comparison"]])
    def test_setting_the_manifest_cannot_read_back_is_rejected_first(
        self, tmp_path, monkeypatch, capsys, key, value, command
    ):
        monkeypatch.chdir(tmp_path)
        settings = {"input": "absent.csv", "output_dir": "out", "label_column": "label"}
        settings[key] = value
        flags = [f"--{name.replace('_', '-')}={text}" for name, text in settings.items()]
        assert main([*command, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} = {value!r} would not read back")
        assert err.count("\n") == 1
        # Rejected before the output directory is made or the input read.
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("defaults", [_PIPELINE_DEFAULTS, _EXPERIMENT_DEFAULTS])
    def test_accepted_settings_read_back_from_the_manifest(self, tmp_path, defaults):
        settings = dict(defaults, input="d#1/a b=c.csv", output_dir="run#a", label_column="",
                        format="csv", alpha=0.1 + 0.2, rep_dim=7, rng_seed=2**40)
        if "kind" in defaults:
            settings.update(kind="comparison", l_values=(), m_values=(3, 5, 9))
        path = tmp_path / "manifest.cfg"
        write_manifest(path, settings)
        assert resolve_settings(argparse.Namespace(config=str(path)), defaults) == settings

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("inpoot = x\n")
        rc = main(["pipeline", "--config", str(cfg)])
        assert rc != 0
        assert "unknown config key" in capsys.readouterr().err

    def test_retired_normalize_key_rejected(self, tmp_path, capsys):
        data = _write_synth(tmp_path, "csv")
        cfg = tmp_path / "old_manifest.cfg"
        cfg.write_text(f"input = {data}\nlabel_column = label\nnormalize = false\n")
        rc = main(["pipeline", "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == "error: unknown config key 'normalize'\n"

    def test_non_finite_input_rejected_before_training(self, tmp_path, capsys):
        data = _write_nan_csv(tmp_path)
        out_dir = tmp_path / "run"
        rc = main(["pipeline", "--input", str(data), "--output-dir", str(out_dir),
                   "--label-column", "label", "--rep-dim", "6"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "non-finite values" in err
        assert not (out_dir / "model.repen").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--rep-dim", "0", "rep_dim >= 1 required, got 0"),
        ("--margin", "nan", "finite margin > 0 required, got nan"),
        ("--alpha", "nan", "finite alpha >= 0 required, got nan"),
        ("--optimizer-eps", "inf", "finite optimizer_eps > 0 required, got inf"),
    ], ids=["rep_dim", "margin_nan", "alpha_nan", "optimizer_eps_inf"])
    def test_bad_setting_reported_before_the_file_is_read(
        self, tmp_path, capsys, flag, value, message
    ):
        data = _write_nan_csv(tmp_path)
        out_dir = tmp_path / "run"
        capsys.readouterr()
        rc = main(["pipeline", "--input", str(data), "--output-dir", str(out_dir),
                   "--label-column", "label", flag, value])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_sparse_deterministic_rerun_is_bit_identical(self, tmp_path, thread_env):
        data = _write_synth(tmp_path, "libsvm")
        runs = (tmp_path / "first", tmp_path / "second")
        for out_dir in runs:
            assert main([
                "--deterministic", "pipeline", "--input", str(data),
                "--output-dir", str(out_dir), "--rep-dim", "6", "--n-epochs", "2",
                "--samples-per-epoch", "256", "--batch-size", "64", "--rng-seed", "3",
            ]) == 0
        for name in ("model.repen", "scores.csv", "embedded.csv"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


class TestScoreCommand:
    def test_scores_saved_model(self, tmp_path, capsys):
        data = _write_synth(tmp_path, "csv")
        out_dir = tmp_path / "run"
        assert main([
            "pipeline", "--input", str(data), "--output-dir", str(out_dir),
            "--label-column", "label", "--rep-dim", "6", "--n-epochs", "1",
            "--samples-per-epoch", "128", "--batch-size", "64",
        ]) == 0
        scores_out = tmp_path / "fresh_scores.csv"
        rc = main([
            "score", "--model", str(out_dir / "model.repen"),
            "--input", str(data), "--label-column", "label",
            "--output", str(scores_out), "--seed", "4",
        ])
        assert rc == 0
        assert re.search(r"^auc = [01]\.\d{4}$", capsys.readouterr().out, re.M)
        lines = scores_out.read_text().splitlines()
        assert lines[0] == "index,score"
        assert len(lines) == 87

    @pytest.mark.parametrize("label", [False, True], ids=["inliers", "outliers"])
    def test_one_class_labels_score_without_an_auc(self, tmp_path, capsys, label):
        """With one class there is no AUC to print; the scores are still written."""
        rng = np.random.default_rng(7)
        data = tmp_path / "one_class.csv"
        ingest.write_csv(Dataset(rng.standard_normal((200, 30)), np.full(200, label)), data)
        weights = RepresentationModel(rng.standard_normal((30, 6)))
        model = tmp_path / "model.repen"
        save_model(weights, model)
        scores_out = tmp_path / "scores.csv"
        capsys.readouterr()
        rc = main(["score", "--model", str(model), "--input", str(data),
                   "--label-column", "label", "--output", str(scores_out)])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        assert "auc" not in out
        expected = tmp_path / "expected.csv"
        _write_scores_csv(expected, sp_score_embedded(
            load_csv(data, label_column="label"), weights,
            SpConfig(HyperParams.subsample_size, HyperParams.ensemble_size, 0),
        ))
        assert scores_out.read_bytes() == expected.read_bytes()

    def test_libsvm_read_at_the_model_width(self, tmp_path, capsys):
        """A libsvm file whose rows lack the model's last feature still scores."""
        ds = synth_gaussian_with_outliers(80, 6, 5, 45, 6.0, seed=42)
        values = ds.values.copy()
        values[1:, -1] = 0.0
        full, tail = tmp_path / "full.libsvm", tmp_path / "tail.libsvm"
        write_libsvm(Dataset(values, ds.labels), full)
        write_libsvm(Dataset(values[1:], ds.labels[1:]), tail)
        out_dir = tmp_path / "run"
        assert main([
            "pipeline", "--input", str(full), "--output-dir", str(out_dir),
            "--rep-dim", "6", "--n-epochs", "1", "--samples-per-epoch", "128",
            "--batch-size", "64",
        ]) == 0
        model = str(out_dir / "model.repen")
        scores_out = tmp_path / "tail_scores.csv"
        assert main(["score", "--model", model, "--input", str(tail),
                     "--output", str(scores_out)]) == 0
        assert len(scores_out.read_text().splitlines()) == 86
        wide = tmp_path / "wide.libsvm"
        wide.write_text("1 51:1.0\n")
        capsys.readouterr()
        assert main(["score", "--model", model, "--input", str(wide),
                     "--output", str(tmp_path / "wide_scores.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "51" in err
        assert len(err.strip().splitlines()) == 1

    def test_libsvm_index_beyond_the_model_names_the_model(self, tmp_path, capsys):
        model = tmp_path / "model.repen"
        save_model(RepresentationModel(np.ones((200, 4))), model)
        data = tmp_path / "wide.libsvm"
        data.write_text("1 3:1.0 201:0.5\n-1 7:2.0\n")
        rc = main(["score", "--model", str(model), "--input", str(data),
                   "--output", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: line 1: feature index 201 exceeds the model's 200 features\n"

    def test_normalize_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["score", "--model", str(tmp_path / "model.repen"),
                  "--input", str(tmp_path / "data.csv"),
                  "--output", str(tmp_path / "s.csv"), "--normalize"])
        assert exc_info.value.code == 2  # argparse usage error
        assert "unrecognized arguments: --normalize" in capsys.readouterr().err

    def test_model_shorter_than_header_is_a_clean_error(self, tmp_path, capsys):
        data = _write_synth(tmp_path, "csv")
        model = tmp_path / "model.repen"
        model.write_bytes(b"RPNM\x01\x00")
        rc = main(["score", "--model", str(model), "--input", str(data),
                   "--label-column", "label", "--output", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "truncated" in err
        assert len(err.strip().splitlines()) == 1


def test_importing_the_cli_does_not_load_numpy():
    # The BLAS thread settings only take effect if numpy is not loaded yet.
    src = os.path.dirname(os.path.dirname(os.path.abspath(repen.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, repen.cli; repen.cli.build_parser(); print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_every_public_name_resolves():
    for name in repen.__all__:
        assert getattr(repen, name) is not None, name


@pytest.mark.parametrize(
    "flags, env, message",
    [
        ([], "abc", "REPEN_THREADS must be an integer, got 'abc'"),
        (["--threads", "0"], None, "thread count >= 1 required, got 0"),
    ],
)
def test_bad_thread_setting_is_a_clean_error(tmp_path, capsys, thread_env, flags, env, message):
    if env is not None:
        thread_env.setenv("REPEN_THREADS", env)
    out = tmp_path / "data.csv"
    rc = main([*flags, "synth", "--n-inliers", "20", "--n-outliers", "2", "--d-relevant", "2",
               "--d-noise", "3", "--separation", "6.0", "--output", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: {message}\n"
    assert all(os.environ[var] == "marker" for var in _THREAD_ENV_VARS)
    assert not out.exists()


@pytest.mark.parametrize(
    "heading, keys, defaults, params",
    [
        ("Config keys", set(_PIPELINE_DEFAULTS), _PIPELINE_DEFAULTS, HyperParams()),
        ("Experiment keys", set(_EXPERIMENT_DEFAULTS) - set(_PIPELINE_DEFAULTS),
         _EXPERIMENT_DEFAULTS, ExperimentParams()),
    ],
    ids=["pipeline", "experiment"],
)
def test_readme_config_examples_list_every_key(tmp_path, heading, keys, defaults, params):
    readme = README.read_text(encoding="utf-8")
    block = re.search(heading + r" .*?```\n(.*?)```", readme, re.DOTALL)
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(block.group(1), encoding="utf-8")
    assert set(parse_config_file(cfg)) == keys
    settings = resolve_settings(argparse.Namespace(config=str(cfg)), defaults)
    assert {key: settings[key] for key in asdict(params)} == asdict(params)


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("score", ["--model", "{model}", "--input", "{data}", "--label-column", "label"],
         "rng_seed >= 0 required, got -1"),
        ("downsample", ["--input", "{data}", "--label-column", "label"],
         "seed >= 0 required, got -1"),
        ("synth", ["--n-inliers", "20", "--n-outliers", "2", "--d-relevant", "2",
                   "--d-noise", "3", "--separation", "6.0"],
         "seed >= 0 required, got -1"),
    ],
)
def test_negative_seed_is_a_clean_error(tmp_path, capsys, command, flags, message):
    data = _write_synth(tmp_path, "csv")
    model = tmp_path / "model.repen"
    save_model(RepresentationModel(np.ones((50, 2))), model)
    out = tmp_path / "out.csv"
    capsys.readouterr()
    rc = main([command, *(f.format(data=data, model=model) for f in flags),
               "--seed", "-1", "--output", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


class TestDownsampleCommand:
    def test_rate_conversion(self, tmp_path):
        data = _write_synth(tmp_path, "csv", n_inliers=98, n_outliers=20)
        out = tmp_path / "down.csv"
        rc = main([
            "downsample", "--input", str(data), "--output", str(out),
            "--rate", "0.02", "--seed", "1", "--label-column", "label",
        ])
        assert rc == 0
        ds = load_csv(out, label_column="label")
        assert int(ds.labels.sum()) == 2  # floor(0.02 * 98 / 0.98)

    @pytest.mark.parametrize(
        "flags, message",
        [(["--rate", "1.5"], "rate in (0, 1) required, got 1.5"),
         (["--seed", "-1"], "seed >= 0 required, got -1")],
        ids=["rate", "seed"],
    )
    def test_bad_setting_reported_before_the_file_is_read(
        self, tmp_path, capsys, flags, message
    ):
        data = _write_nan_csv(tmp_path)
        out = tmp_path / "down.csv"
        capsys.readouterr()
        rc = main(["downsample", "--input", str(data), "--output", str(out),
                   "--label-column", "label", *flags])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # 131,073 characters is one over the csv module's default field limit.
    @pytest.mark.parametrize(
        "lines, line",
        [(["x" * 131_073 + ",label", "1.0,0"], 1),
         (["f0,label", "1.0,0", '"' + "1" * 131_073 + '",1'], 3)],
        ids=["header-cell", "quoted-data-cell"],
    )
    def test_cell_over_the_csv_field_limit_is_a_clean_error(self, tmp_path, capsys, lines, line):
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "down.csv"
        rc = main(["downsample", "--input", str(data), "--output", str(out),
                   "--label-column", "label"])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith(f"error: line {line}: field larger")
        assert not out.exists()


def test_forked_csv_reader_writes_identical_artifacts(tmp_path, monkeypatch, thread_env):
    """pipeline, score and downsample write the same bytes whether the CSV reader forks."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method")
    data = _write_synth(tmp_path, "csv", n_inliers=98, n_outliers=20)
    size = data.stat().st_size
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forked, parse = [], ingest._parse_forked

    def recorded(*args):
        values = parse(*args)
        forked.append(values is not None)
        return values

    monkeypatch.setattr(ingest, "_parse_forked", recorded)
    digests = []
    # The data rows are below the first threshold and above the second.
    for threshold in (size, size // 2):
        monkeypatch.setattr(ingest, "PARSE_MIN_BYTES", threshold)
        out = tmp_path / f"t{threshold}"
        assert main([
            "--deterministic", "pipeline", "--input", str(data), "--output-dir",
            str(out / "run"), "--label-column", "label", "--rep-dim", "6", "--n-epochs", "2",
            "--samples-per-epoch", "256", "--batch-size", "64", "--rng-seed", "3",
        ]) == 0
        assert main([
            "--deterministic", "score", "--model", str(out / "run" / "model.repen"),
            "--input", str(data), "--label-column", "label", "--output",
            str(out / "scores.csv"), "--seed", "4",
        ]) == 0
        assert main([
            "--deterministic", "downsample", "--input", str(data), "--label-column", "label",
            "--rate", "0.05", "--seed", "1", "--output", str(out / "down.csv"),
        ]) == 0
        names = ["run/model.repen", "run/scores.csv", "run/embedded.csv", "run/auc.txt",
                 "scores.csv", "down.csv"]
        digests.append({n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names})
    assert forked == [False] * 3 + [True] * 3
    assert digests[0] == digests[1]
    assert multiprocessing.active_children() == []


class TestExperimentCommand:
    def test_comparison_kind(self, tmp_path):
        data = _write_synth(tmp_path, "csv")
        out_dir = tmp_path / "exp"
        rc = main([
            "experiment", "--kind", "comparison", "--input", str(data),
            "--label-column", "label", "--output-dir", str(out_dir),
            "--repeats", "1", "--rep-dim", "4", "--n-epochs", "1",
            "--samples-per-epoch", "128", "--batch-size", "64",
        ])
        assert rc == 0
        rows = (out_dir / "comparison_rows.csv").read_text().splitlines()
        assert rows[0].startswith("method,")
        assert len(rows) == 3  # header + 2 methods x 1 repeat
        assert (out_dir / "comparison_summary.csv").exists()
        assert (out_dir / "comparison.gp").exists()

    def test_dim_sensitivity_default_grid_row_count(self, tmp_path):
        data = _write_synth(tmp_path, "csv", n_inliers=150, n_outliers=8, d_noise=195)
        out_dir = tmp_path / "exp"
        rc = main([
            "experiment", "--kind", "dim_sensitivity", "--input", str(data),
            "--label-column", "label", "--output-dir", str(out_dir),
            "--repeats", "1", "--n-epochs", "1",
            "--samples-per-epoch", "128", "--batch-size", "64",
        ])
        assert rc == 0
        rows = (out_dir / "dim_sensitivity_rows.csv").read_text().splitlines()
        assert len(rows) == 1 + 11  # header + default grid per repeat

    def test_scalability_kind(self, tmp_path):
        out_dir = tmp_path / "exp"
        rc = main([
            "experiment", "--kind", "scalability", "--output-dir", str(out_dir),
            "--sizes", "120,240", "--dims", "", "--size-sweep-dim", "64",
            "--d-relevant", "5", "--rep-dim", "4", "--n-epochs", "1",
            "--samples-per-epoch", "128", "--batch-size", "64",
        ])
        assert rc == 0
        rows = (out_dir / "scalability_rows.csv").read_text().splitlines()
        assert len(rows) == 3  # header + 2 sizes

    def test_unknown_kind_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["experiment", "--kind", "nonsense"])
        assert exc_info.value.code == 2  # argparse usage error
        assert "invalid choice" in capsys.readouterr().err

    def test_labeled_curve_kind(self, tmp_path):
        data = _write_synth(tmp_path, "csv", n_inliers=120, n_outliers=12)
        out_dir = tmp_path / "exp"
        rc = main([
            "experiment", "--kind", "labeled_curve", "--input", str(data),
            "--label-column", "label", "--output-dir", str(out_dir),
            "--repeats", "1", "--l-values", "0,4", "--rep-dim", "4",
            "--n-epochs", "1", "--samples-per-epoch", "128", "--batch-size", "64",
        ])
        assert rc == 0
        rows = (out_dir / "labeled_curve_rows.csv").read_text().splitlines()
        assert len(rows) == 3

    @pytest.mark.parametrize(
        "kind, flags, message",
        [
            ("comparison", ["--repeats", "0"], "repeats >= 1 required, got 0"),
            ("labeled_curve", ["--l-values", ""], "l_values must hold at least one count"),
            ("scalability", ["--sizes", "100", "--dims", "", "--size-sweep-dim", "5"],
             "size_sweep_dim > d_relevant required, got 5 <= 10"),
            ("scalability", ["--sizes", "", "--dims", "40,5", "--dim-sweep-size", "60",
                             "--n-epochs", "0"],
             "every dims entry > d_relevant required, got 5 <= 10"),
            ("labeled_curve", ["--l-values=-1,2"], "every l_values entry >= 0 required, got -1"),
            ("scalability", ["--sizes", "1", "--dims", "", "--size-sweep-dim", "40"],
             "every sizes entry > its outlier count required, got 1 <= 1"),
            ("scalability", ["--sizes", "60", "--outlier-rate", "1.5"],
             "outlier_rate in [0, 1) required, got 1.5"),
            ("dim_sensitivity", ["--m-values", "0,4"], "every m_values entry >= 1 required, got 0"),
            ("dim_sensitivity", [],
             "every m_values entry <= n_features required, got 100 > 50 in the default grid"),
        ],
    )
    def test_bad_experiment_setting_names_it(self, tmp_path, capsys, kind, flags, message):
        data = _write_synth(tmp_path, "csv")
        out_dir = tmp_path / "exp"
        capsys.readouterr()
        rc = main([
            "experiment", "--kind", kind, "--input", str(data), "--label-column", "label",
            "--output-dir", str(out_dir), "--d-relevant", "10", *flags,
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(out_dir.glob("*.csv"))

    @pytest.mark.parametrize("kind, columns", [
        ("comparison", "4:5"),
        ("labeled_curve", "3:5"),
        ("dim_sensitivity", "2:5"),
        ("scalability", "2:7"),
    ])
    def test_gnuplot_script_plots_the_kind_columns(self, tmp_path, kind, columns):
        data = _write_synth(tmp_path, "csv")
        out_dir = tmp_path / "exp"
        assert main([
            "experiment", "--kind", kind, "--input", str(data), "--label-column", "label",
            "--output-dir", str(out_dir), "--repeats", "1", "--l-values", "0,2",
            "--m-values", "2,4", "--sizes", "120", "--dims", "", "--size-sweep-dim", "64",
            "--d-relevant", "5", "--rep-dim", "4", "--n-epochs", "1",
            "--samples-per-epoch", "128", "--batch-size", "64",
        ]) == 0
        script = (out_dir / f"{kind}.gp").read_text()
        assert f"'{kind}_rows.csv' every ::1 using {columns} with" in script
        assert ("set logscale xy" in script) == (kind == "scalability")

    def test_manifest_reproduces_the_run(self, tmp_path, thread_env):
        data = _write_synth(tmp_path, "csv", n_inliers=120, n_outliers=12)
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([
            "--deterministic", "experiment", "--kind", "labeled_curve", "--input", str(data),
            "--label-column", "label", "--output-dir", str(first), "--repeats", "2",
            "--l-values", "0,3", "--rep-dim", "4", "--n-epochs", "1",
            "--samples-per-epoch", "128", "--batch-size", "64",
        ]) == 0
        assert main([
            "--deterministic", "experiment", "--config", str(first / "manifest.cfg"),
            "--output-dir", str(second),
        ]) == 0

        def untimed_columns(run):
            with open(run / "labeled_curve_rows.csv", newline="") as handle:
                table = list(csv.DictReader(handle))
            return [{k: v for k, v in row.items() if not k.endswith("_seconds")}
                    for row in table]

        def settings(run):
            lines = (run / "manifest.cfg").read_text().splitlines()
            lines.remove(f"output_dir = {run}")
            return lines

        assert len(untimed_columns(first)) == 4
        assert untimed_columns(first) == untimed_columns(second)
        assert settings(first) == settings(second)
