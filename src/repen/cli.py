"""Command-line interface.

Subcommands:
    pipeline    run score -> threshold -> train -> transform -> detect on a file
    synth       generate a synthetic benchmark dataset file
    experiment  run a protocol (comparison, labeled_curve, dim_sensitivity,
                scalability) and write CSV tables plus gnuplot scripts
    downsample  subsample the outlier class of a labeled dataset to a target rate
    score       apply a saved model and the detector to a dataset

Configuration is a flat ``key = value`` text file ('#' starts a comment);
command-line flags override file values. The settings, their types and
their defaults come from ``repen.params``. Every pipeline or experiment run
writes a ``manifest.cfg`` of all resolved settings, sufficient to reproduce
the run bit-exactly in single-threaded mode.

Thread count comes from --threads or the REPEN_THREADS environment variable
and is applied to the BLAS thread pools before numpy loads;
--deterministic forces one BLAS thread. The CSV reader parses large files,
and the file writers format large tables, in worker processes whatever the
count; the values read and the bytes written do not depend on it.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .params import ExperimentParams, HyperParams, SpConfig

_THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_BOOLEANS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def parse_config_file(path: str) -> dict:
    """Read a flat key = value config file into a string dict."""
    settings = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            settings[key.strip()] = value.strip()
    return settings


def _coerce(key: str, value, default):
    """Parse a string setting to the type of its default (tuples hold ints)."""
    if not isinstance(value, str):
        return value
    try:
        if isinstance(default, bool):
            return _BOOLEANS[value.lower()]
        if isinstance(default, tuple):
            return tuple(int(tok) for tok in value.replace(",", " ").split())
        return type(default)(value)
    except (KeyError, ValueError):
        raise ValueError(f"invalid value for {key}: {value!r}") from None


def resolve_settings(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults, the config file, and explicit flags (flags win)."""
    settings = dict(defaults)
    if getattr(args, "config", None):
        for key, value in parse_config_file(args.config).items():
            if key not in defaults:
                raise ValueError(f"unknown config key {key!r}")
            settings[key] = _coerce(key, value, defaults[key])
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = _coerce(key, flag, default)
    return settings


def write_manifest(path: Path, settings: dict) -> None:
    """Write the resolved settings as a config file that reproduces the run."""
    lines = [f"{key} = {_manifest_value(settings[key])}" for key in sorted(settings)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _manifest_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def _validated(cls, settings: dict):
    """Build the settings dataclass ``cls`` from resolved settings and validate it."""
    params = cls(**{field.name: settings[field.name] for field in fields(cls)})
    params.validate()
    return params


def _load_dataset(path: str, fmt: str, label_column: str | None,
                  n_features: int | None = None):
    """Load and validate a data file; an empty ``fmt`` means ``auto``."""
    from . import ingest
    from .data import require_valid

    if not path:
        raise ValueError("input path is required")
    if not os.path.exists(path):
        raise FileNotFoundError(f"input file not found: {path}")
    fmt = fmt or "auto"
    if fmt == "auto":
        fmt = "csv" if path.endswith(".csv") else "libsvm"
    if fmt == "csv":
        dataset = ingest.load_csv(path, label_column=label_column or None)
    elif fmt == "libsvm":
        dataset = ingest.load_libsvm(path, n_features)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    require_valid(dataset)
    return dataset


def _write_scores_csv(path: Path, scores) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("index,score\n")
        for i, value in enumerate(scores.scores.tolist()):
            handle.write(f"{i},{value!r}\n")


_PIPELINE_DEFAULTS = {
    "input": "",
    "output_dir": "",
    "format": "auto",
    "label_column": "",
    **asdict(HyperParams()),
}


def cmd_pipeline(args: argparse.Namespace) -> int:
    from . import ingest, learner
    from .pipeline import run_pipeline

    settings = resolve_settings(args, _PIPELINE_DEFAULTS)
    params = _validated(HyperParams, settings)
    out_dir = Path(settings["output_dir"] or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = _load_dataset(settings["input"], settings["format"], settings["label_column"])

    result = run_pipeline(dataset, params)

    learner.save_model(result.model, out_dir / "model.repen")
    ingest.write_csv(result.embedded, out_dir / "embedded.csv")
    _write_scores_csv(out_dir / "scores.csv", result.embedded_scores)
    if result.auc_embedded is not None:
        (out_dir / "auc.txt").write_text(
            f"auc_original = {result.auc_original!r}\n"
            f"auc_embedded = {result.auc_embedded!r}\n",
            encoding="utf-8",
        )
    write_manifest(out_dir / "manifest.cfg", settings)
    print(
        f"pipeline done: train {result.offline_seconds:.2f}s, "
        f"detect {result.stage_seconds['score_embedded']:.3f}s"
    )
    if result.auc_embedded is not None:
        print(
            f"auc original {result.auc_original:.4f} -> embedded {result.auc_embedded:.4f}"
        )
    print(f"artifacts written to {out_dir}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from . import ingest

    dataset = ingest.synth_gaussian_with_outliers(
        args.n_inliers, args.n_outliers, args.d_relevant, args.d_noise,
        args.separation, args.seed,
    )
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        ingest.write_csv(dataset, out)
    else:
        ingest.write_libsvm(dataset, out)
    print(f"wrote {dataset.n_objects}x{dataset.n_features} dataset to {out}")
    return 0


def cmd_downsample(args: argparse.Namespace) -> int:
    from . import ingest

    ingest.check_downsample_settings(args.rate, args.seed)
    dataset = _load_dataset(args.input, args.format, args.label_column)
    result = ingest.downsample_to_rate(dataset, args.rate, args.seed)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.suffix == ".csv":
        ingest.write_csv(result, out)
    else:
        ingest.write_libsvm(result, out)
    kept = int(result.labels.sum())
    print(f"kept {kept} outliers of {result.n_objects} objects -> {out}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    from . import learner, sp

    config = SpConfig(args.subsample_size, args.ensemble_size, args.seed)
    config.validate()
    model = learner.load_model(args.model)
    # A libsvm file is only as wide as its largest index; read it at the model's.
    dataset = _load_dataset(args.input, args.format, args.label_column, model.n_features)
    scores = sp.sp_score_embedded(dataset, model, config)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_scores_csv(out, scores)
    if dataset.labels is not None:
        from .evaluation import auc

        print(f"auc = {auc(scores.scores, dataset.labels):.4f}")
    print(f"wrote scores to {out}")
    return 0


_EXPERIMENT_DEFAULTS = {**_PIPELINE_DEFAULTS, "kind": "", **asdict(ExperimentParams())}

_EXPERIMENT_KINDS = ("comparison", "labeled_curve", "dim_sensitivity", "scalability")


def cmd_experiment(args: argparse.Namespace) -> int:
    from . import experiments
    from .evaluation import (
        RESULT_HEADER,
        SCALABILITY_HEADER,
        write_gnuplot_script,
        write_rows_csv,
    )

    settings = resolve_settings(args, _EXPERIMENT_DEFAULTS)
    kind = settings["kind"]
    if kind not in _EXPERIMENT_KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}; choose from {_EXPERIMENT_KINDS}")
    params = _validated(HyperParams, settings)
    exp = _validated(ExperimentParams, settings)
    out_dir = Path(settings["output_dir"] or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = []

    if kind == "scalability":
        rows = experiments.run_scalability(
            params,
            sizes=exp.sizes,
            dims=exp.dims,
            size_sweep_dim=exp.size_sweep_dim,
            dim_sweep_size=exp.dim_sweep_size,
            outlier_rate=exp.outlier_rate,
            d_relevant=exp.d_relevant,
            separation=exp.separation,
        )
        csv_path = out_dir / "scalability_rows.csv"
        write_rows_csv(csv_path, rows, SCALABILITY_HEADER)
        write_gnuplot_script(
            out_dir / "scalability.gp", csv_path.name, 2, 7,
            "total runtime vs data size", "objects", "seconds", logscale=True,
        )
        artifacts += [csv_path.name, "scalability.gp"]
    else:
        dataset = _load_dataset(settings["input"], settings["format"], settings["label_column"])
        if kind == "comparison":
            rows, summary = experiments.run_comparison(dataset, params, repeats=exp.repeats)
            write_rows_csv(out_dir / "comparison_summary.csv", summary,
                           ("method", "mean_auc", "std_auc", "mean_detect_seconds"))
            artifacts.append("comparison_summary.csv")
            csv_path = out_dir / "comparison_rows.csv"
            plot = ("comparison.gp", 4, 5, "AUC per repeat", "repeat", "auc")
        elif kind == "labeled_curve":
            rows = experiments.run_labeled_curve(
                dataset, params, exp.l_values, repeats=exp.repeats
            )
            csv_path = out_dir / "labeled_curve_rows.csv"
            plot = ("labeled_curve.gp", 3, 5, "AUC vs labeled outliers", "labeled outliers", "auc")
        else:
            rows = experiments.run_dim_sensitivity(
                dataset, params, exp.m_values, repeats=exp.repeats
            )
            csv_path = out_dir / "dim_sensitivity_rows.csv"
            plot = ("dim_sensitivity.gp", 2, 5, "AUC vs representation dimension",
                    "representation dimension", "auc")
        write_rows_csv(csv_path, rows, RESULT_HEADER)
        name, x, y, title, xlabel, ylabel = plot
        write_gnuplot_script(out_dir / name, csv_path.name, x, y, title, xlabel, ylabel)
        artifacts += [csv_path.name, name]

    write_manifest(out_dir / "manifest.cfg", settings)
    print(f"experiment '{kind}' wrote {', '.join(artifacts)} to {out_dir}")
    return 0


def _add_setting_flags(parser: argparse.ArgumentParser, defaults: dict) -> None:
    """Add --config and one flag per setting; an absent flag keeps the config value."""
    parser.add_argument("--config", help="flat key = value config file")
    for key, default in defaults.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            parser.add_argument(flag, action="store_const", const=True, default=None)
        else:
            parser.add_argument(flag, default=None, metavar=_manifest_value(default))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repen",
        description="Representation learning for random-distance outlier detection",
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="BLAS thread count (default: REPEN_THREADS or library default)")
    parser.add_argument("--deterministic", action="store_true",
                        help="force one BLAS thread for bit-reproducible execution")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pipe = sub.add_parser("pipeline", help="run the full pipeline on a dataset file")
    _add_setting_flags(p_pipe, _PIPELINE_DEFAULTS)
    p_pipe.set_defaults(func=cmd_pipeline)

    p_synth = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    p_synth.add_argument("--n-inliers", type=int, required=True)
    p_synth.add_argument("--n-outliers", type=int, required=True)
    p_synth.add_argument("--d-relevant", type=int, required=True)
    p_synth.add_argument("--d-noise", type=int, required=True)
    p_synth.add_argument("--separation", type=float, required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--format", choices=("libsvm", "csv"), default="libsvm")
    p_synth.add_argument("--output", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_exp = sub.add_parser("experiment", help="run an experiment protocol")
    p_exp.add_argument("--kind", choices=_EXPERIMENT_KINDS, default=None)
    _add_setting_flags(
        p_exp, {key: value for key, value in _EXPERIMENT_DEFAULTS.items() if key != "kind"}
    )
    p_exp.set_defaults(func=cmd_experiment)

    p_down = sub.add_parser("downsample", help="downsample outliers to a target rate")
    p_down.add_argument("--input", required=True)
    p_down.add_argument("--output", required=True)
    p_down.add_argument("--rate", type=float, default=0.02)
    p_down.add_argument("--seed", type=int, default=0)
    p_down.add_argument("--format", default="auto")
    p_down.add_argument("--label-column", default=None)
    p_down.set_defaults(func=cmd_downsample)

    p_score = sub.add_parser("score", help="apply a saved model and the detector")
    p_score.add_argument("--model", required=True)
    p_score.add_argument("--input", required=True)
    p_score.add_argument("--output", required=True)
    p_score.add_argument("--format", default="auto")
    p_score.add_argument("--label-column", default=None)
    p_score.add_argument("--subsample-size", type=int, default=HyperParams.subsample_size)
    p_score.add_argument("--ensemble-size", type=int, default=HyperParams.ensemble_size)
    p_score.add_argument("--seed", type=int, default=0)
    p_score.set_defaults(func=cmd_score)

    return parser


def _apply_thread_settings(args: argparse.Namespace) -> None:
    threads = 1 if args.deterministic else args.threads
    if threads is None:
        env = os.environ.get("REPEN_THREADS")
        if not env:
            return
        try:
            threads = int(env)
        except ValueError:
            raise ValueError(f"REPEN_THREADS must be an integer, got {env!r}") from None
    if threads < 1:
        raise ValueError(f"thread count >= 1 required, got {threads}")
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(threads)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_thread_settings(args)
        return args.func(args)
    except (ValueError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
