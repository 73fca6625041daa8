"""The benchmark's workloads: seeded inputs, rounds of operations, checks.

A run sets its inputs up ``SETUP_REPEATS`` times, then repeats whole
rounds of the same operations until at least ``MIN_ROUNDS`` rounds are
done and ``seconds`` have passed. Each operation is timed alone; its
output is checked afterwards, outside the timed region. Every timing
metric is the median over the run's operations of that kind.

With tracing on, each round first runs one untraced fit, then runs the
whole round with every ``repen`` layer wrapped (see ``tracer.py``). The
per-layer metrics are medians over rounds, and the tracing overhead is the
traced fit's median minus the untraced fit's.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Optional

import numpy as np

import checks
import inputs
import tracer as tracing

SETUP_REPEATS = 3
MIN_ROUNDS = 3

# Learned-space AUC floor of one fit, set by the planted outliers. How far
# the learned AUC may trail the raw-space one is a property of a mean over
# seeds (acceptance criterion 6), not of one fit, so a run does not check it.
AUC_FLOOR = 0.90


@dataclass(frozen=True)
class Sizes:
    """Input sizes and per-round operation counts of every workload."""

    dense: inputs.DenseSpec = inputs.DenseSpec()
    sparse: inputs.SparseSpec = inputs.SparseSpec()
    # HyperParams overrides; an empty dict keeps the stock settings.
    dense_params: dict = field(default_factory=dict)
    sparse_params: dict = field(default_factory=lambda: {"n_epochs": 2})
    downsample_rate: float = 0.01
    score_passes: int = 10
    original_passes: int = 3


FULL = Sizes()
TINY = Sizes(
    dense=inputs.DenseSpec(n_inliers=60, n_outliers=6, d_relevant=5, d_features=300),
    sparse=inputs.SparseSpec(
        n_inliers=190, n_outliers=10, d_features=20_000, nnz_per_row=20, n_topics=3, vocab_size=400
    ),
    dense_params={"n_epochs": 3, "samples_per_epoch": 512, "batch_size": 64, "rep_dim": 5},
    downsample_rate=0.05,
    score_passes=2,
    original_passes=2,
)


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    errors: list
    rounds: int
    samples: dict


def _sp_config(params, seed: int):
    from repen.sp import SpConfig

    return SpConfig(
        subsample_size=params.subsample_size, ensemble_size=params.ensemble_size, rng_seed=seed
    )


class Workload:
    """One workload: its inputs, the operations of a round and their checks."""

    name = ""
    params_field = "dense_params"

    def __init__(self, sizes: Sizes, seed: int, workdir: str):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.tracer: Optional[tracing.Tracer] = None
        self.round = 0
        self.times: dict = defaultdict(list)
        self.auc_embedded: list = []
        # The latest output of each kind; every later one must repeat it.
        self.latest: dict = {}
        self.check_rng = np.random.default_rng(seed)

    # -- set-up ---------------------------------------------------------
    def generate(self) -> None:
        """Make the inputs; timed as set-up."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Wrap the generated inputs for the program; not timed."""
        from repen.data import Dataset, HyperParams

        self.dataset = Dataset(self.values, self.labels)
        self.params = HyperParams(rng_seed=self.seed, **getattr(self.sizes, self.params_field))

    def ops(self) -> list:
        """The round: a list of (name, callable), one timed operation each."""
        raise NotImplementedError

    @property
    def d_input(self) -> int:
        return self.values.shape[1]

    # -- helpers --------------------------------------------------------
    def timed(self, op: str, fn: Callable):
        span = self.tracer.span(f"op.{op}") if self.tracer else contextlib.nullcontext()
        with span:
            start = time.perf_counter()
            out = fn()
            elapsed = time.perf_counter() - start
        self.times[op].append(elapsed)
        return out

    def round_dir(self, index: int) -> str:
        return os.path.join(self.workdir, f"round-{index}")

    def path(self, name: str) -> str:
        """Where the current round writes ``name``.

        Each round writes fresh files, so no timed operation pays for
        truncating an earlier round's large output.
        """
        os.makedirs(self.round_dir(self.round), exist_ok=True)
        return os.path.join(self.round_dir(self.round), name)

    def same_as_first(self, key: str, output) -> bool:
        """False for the first ``output`` under ``key``; afterwards True when it
        equals the previous one exactly, and CheckError when it does not.

        Only the latest output is kept (equal to the previous one, so to the
        first), so a reference never adds to the program's peak memory.
        """
        previous = self.latest.get(key)
        self.latest[key] = output
        if previous is None:
            return False
        if not np.array_equal(previous, output):
            raise checks.CheckError(f"{key}: differs from the first output of its kind")
        return True

    def file_same_as_first(self, key: str, path: str) -> bool:
        return self.same_as_first(key, checks.file_digest(path))

    def check_pass(self, what: str, scores, cfg, points: Callable) -> None:
        """The first pass against reference scores over ``points()``; later
        passes must repeat it.
        """
        from repen.sp import draw_subsamples

        if self.same_as_first(what, scores):
            return
        values = points()
        subsamples = draw_subsamples(values.shape[0], cfg)
        rows = checks.sample_rows(values.shape[0], subsamples, self.check_rng)
        checks.check_scores(scores, values, subsamples, rows, what)

    def original_pass(self) -> None:
        import repen.sp

        cfg = _sp_config(self.params, self.seed + 2)
        scores = self.timed("score_original", lambda: repen.sp.sp_score(self.dataset, cfg))
        self.check_pass("score_original", scores.scores, cfg, lambda: self.values)

    def check_fit(self, result) -> None:
        """Every output of one ``run_pipeline`` call, against the benchmark's own numbers."""
        from repen.pipeline import stage_seeds
        from repen.sp import draw_subsamples

        what = "fit"
        n = self.values.shape[0]
        seed_orig, _, seed_emb = stage_seeds(self.params.rng_seed)
        weights = result.model.weights
        self.same_as_first("fit weights", checks.array_digest(weights))
        embedded = checks.relu_embedding(self.values, weights)
        checks.check_close(result.embedded.values, embedded, f"{what}: embedding vs ReLU(XW)")
        for label, scores, values, seed in (
            ("original", result.original_scores.scores, self.values, seed_orig),
            ("embedded", result.embedded_scores.scores, embedded, seed_emb),
        ):
            subsamples = draw_subsamples(n, _sp_config(self.params, seed))
            rows = checks.sample_rows(n, subsamples, self.check_rng)
            checks.check_scores(scores, values, subsamples, rows, f"{what} {label}")
        checks.check_auc(result.auc_original, result.original_scores.scores, self.labels, f"{what} original")
        checks.check_auc(result.auc_embedded, result.embedded_scores.scores, self.labels, f"{what} embedded")
        checks.check_candidates(
            result.sets.outlier_idx, result.original_scores.scores, self.params.alpha, what
        )
        checks.check_violation(
            result.report.initial_violation_rate, result.report.violation_rate, what
        )
        checks.check_auc_floor(result.auc_embedded, AUC_FLOOR, what)


class InMemory(Workload):
    """The library path: run_pipeline, online passes, raw-space passes, downsample."""

    def ops(self) -> list:
        sizes = self.sizes
        return (
            [("fit", self.fit)]
            + [("score", self.score_pass)] * sizes.score_passes
            + [("score_original", self.original_pass)] * sizes.original_passes
            + [("downsample", self.downsample)]
        )

    def fit(self) -> None:
        import repen.pipeline

        self.model = None  # the previous fit's weights must not count in this fit's peak RSS
        result = self.timed("fit", lambda: repen.pipeline.run_pipeline(self.dataset, self.params))
        self.model = result.model
        self.auc_embedded.append(result.auc_embedded)
        self.check_fit(result)

    def score_pass(self) -> None:
        import repen.sp

        cfg = _sp_config(self.params, self.seed + 1)
        scores = self.timed("score", lambda: repen.sp.sp_score_embedded(self.dataset, self.model, cfg))
        self.check_pass(
            "score", scores.scores, cfg, lambda: checks.relu_embedding(self.values, self.model.weights)
        )

    def downsample(self) -> None:
        import repen.ingest

        rate = self.sizes.downsample_rate
        out = self.path(self.downsample_file)
        writer = getattr(repen.ingest, self.writer)

        def run():
            writer(repen.ingest.downsample_to_rate(self.dataset, rate, self.seed + 3), out)

        self.timed("downsample", run)
        if self.file_same_as_first("downsample", out):
            return
        if self.writer == "write_csv":
            values, labels = checks.read_csv_table(out)
        else:
            values, labels = checks.read_libsvm(out, self.d_input)
        checks.check_downsample(values, labels, self.values, self.labels, rate, "downsample")


class Dense5k(InMemory):
    name = "dense-5k"
    writer, downsample_file = "write_csv", "down.csv"

    def generate(self) -> None:
        self.values, self.labels = inputs.dense_gaussian(self.sizes.dense, self.seed)


class Sparse1m(InMemory):
    name = "sparse-1m"
    writer, downsample_file = "write_libsvm", "down.svm"
    params_field = "sparse_params"

    def generate(self) -> None:
        self.values, self.labels = inputs.sparse_topics(self.sizes.sparse, self.seed)


class CliCsv(Workload):
    """The command-line path on the dense-5k data written as a CSV file.

    ``fit`` is ``repen pipeline``, ``score`` is ``repen score`` with the saved
    model and ``downsample`` is ``repen downsample`` to a CSV file, each run
    in process through ``repen.cli.main``. Raw-space passes run on the same
    data in memory.
    """

    name = "cli-csv"

    def __init__(self, sizes: Sizes, seed: int, workdir: str):
        super().__init__(sizes, seed, workdir)
        self.csv_paths: list = []

    def generate(self) -> None:
        self.values, self.labels = inputs.dense_gaussian(self.sizes.dense, self.seed)
        self.csv_path = os.path.join(self.workdir, f"data-{len(self.csv_paths)}.csv")
        self.csv_paths.append(self.csv_path)
        inputs.write_labeled_csv(self.csv_path, self.values, self.labels)

    def prepare(self) -> None:
        super().prepare()
        for path in self.csv_paths[:-1]:
            os.remove(path)
        self.pipeline_flags = ["--rng-seed", str(self.seed)]
        for key, value in self.sizes.dense_params.items():
            self.pipeline_flags += ["--" + key.replace("_", "-"), str(value)]

    def ops(self) -> list:
        return [
            ("fit", self.pipeline),
            ("score", self.score),
            ("downsample", self.downsample),
        ] + [("score_original", self.original_pass)] * self.sizes.original_passes

    def cli(self, op: str, argv: list) -> None:
        import repen.cli

        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = self.timed(op, lambda: repen.cli.main(argv))
        if code != 0:
            raise RuntimeError(f"repen {argv[0]} exited {code}: {captured.getvalue().strip()}")

    def pipeline(self) -> None:
        from repen.pipeline import stage_seeds
        from repen.sp import draw_subsamples

        out_dir = self.path("run")
        self.cli("fit", ["pipeline", "--input", self.csv_path, "--label-column", "label",
                         "--output-dir", out_dir, *self.pipeline_flags])
        model_path = os.path.join(out_dir, "model.repen")
        aucs = checks.read_auc_txt(os.path.join(out_dir, "auc.txt"))
        self.auc_embedded.append(aucs["auc_embedded"])
        repeats = [
            self.file_same_as_first(f"fit {name}", os.path.join(out_dir, name))
            for name in ("model.repen", "embedded.csv", "scores.csv", "auc.txt")
        ]
        if all(repeats):
            return
        weights = checks.read_model(model_path)
        embedded = checks.relu_embedding(self.values, weights)
        written, labels = checks.read_csv_table(os.path.join(out_dir, "embedded.csv"))
        checks.check_close(written, embedded, "fit: embedded.csv vs model applied to input")
        if not np.array_equal(labels, self.labels):
            raise checks.CheckError("fit: embedded.csv labels differ from the input's")
        scores = checks.read_scores_csv(os.path.join(out_dir, "scores.csv"))
        subsamples = draw_subsamples(len(scores), _sp_config(self.params, stage_seeds(self.seed)[2]))
        rows = checks.sample_rows(len(scores), subsamples, self.check_rng)
        checks.check_scores(scores, embedded, subsamples, rows, "fit: scores.csv")
        checks.check_auc(aucs["auc_embedded"], scores, self.labels, "fit: auc.txt vs scores.csv")
        checks.check_auc_floor(aucs["auc_embedded"], AUC_FLOOR, "fit")

    def score(self) -> None:
        out, model = self.path("rescored.csv"), self.path("run/model.repen")
        self.cli("score", ["score", "--model", model, "--input", self.csv_path, "--label-column",
                           "label", "--output", out, "--seed", str(self.seed + 1)])
        if self.file_same_as_first("score", out):
            return
        self.check_pass(
            "score file", checks.read_scores_csv(out), _sp_config(self.params, self.seed + 1),
            lambda: checks.relu_embedding(self.values, checks.read_model(model)),
        )

    def downsample(self) -> None:
        out = self.path("down.csv")
        rate = self.sizes.downsample_rate
        self.cli("downsample", ["downsample", "--input", self.csv_path, "--label-column",
                                "label", "--rate", repr(rate), "--seed", str(self.seed + 3),
                                "--output", out])
        if self.file_same_as_first("downsample", out):
            return
        values, labels = checks.read_csv_table(out)
        checks.check_downsample(values, labels, self.values, self.labels, rate, "downsample")


WORKLOADS = {cls.name: cls for cls in (Dense5k, Sparse1m, CliCsv)}


def _run_op(workload: Workload, name: str, fn: Callable, result: RunResult) -> None:
    result.attempted += 1
    try:
        fn()
    except checks.CheckError as exc:
        result.correct = False
        result.errors.append(f"check failed in {name}: {exc}")
    except Exception as exc:  # an operation of the program failed; keep running
        result.failed += 1
        result.errors.append(f"{name} failed: {type(exc).__name__}: {exc}")


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str, sizes: Sizes = FULL) -> RunResult:
    """Run one workload and return its checks, counts and metrics."""
    workload = WORKLOADS[name](sizes, seed, workdir)
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.generate()
        setup.append(time.perf_counter() - start)
    workload.prepare()

    result = RunResult(True, 0, 0, {}, [], 0, {})
    fit_op = dict(workload.ops())["fit"]
    layers = []
    untraced_fit = []
    start = time.perf_counter()
    while result.rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        if trace:
            done = len(workload.times["fit"])
            _run_op(workload, "fit", fit_op, result)
            if len(workload.times["fit"]) > done:
                untraced_fit.append(workload.times["fit"].pop())
            workload.tracer = tracing.Tracer()
            tracing.instrument(workload.tracer)
        try:
            for op, fn in workload.ops():
                _run_op(workload, op, fn, result)
        finally:
            if trace:
                workload.tracer.restore()
        if trace:
            layers.append(tracing.layer_metrics(workload.tracer, workload.d_input))
            workload.tracer = None
        shutil.rmtree(workload.round_dir(result.rounds - 1), ignore_errors=True)
        result.rounds += 1
        workload.round = result.rounds

    times = workload.times
    result.samples = {op: list(values) for op, values in times.items()}
    result.samples["setup"] = setup
    # A metric whose every operation failed is left out.
    if trace:
        result.samples["fit_untraced"] = untraced_fit
        metrics = {key: median(layer[key] for layer in layers) for key in layers[0]}
        if times["fit"] and untraced_fit:
            metrics["trace.fit_s"] = median(times["fit"])
            metrics["trace.overhead_s"] = median(times["fit"]) - median(untraced_fit)
    else:
        metrics = {"setup_s": median(setup)}
        for op in ("fit", "score", "score_original", "downsample"):
            if times[op]:
                metrics[f"{op}_s"] = median(times[op])
        if workload.auc_embedded:
            metrics["auc_embedded"] = median(workload.auc_embedded)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.metrics = metrics
    return result
