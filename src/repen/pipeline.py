"""End-to-end orchestration: score, threshold, train, transform, re-score.

Stage seeds all derive from the run seed, so a pipeline run is reproducible
bit-for-bit from its hyperparameters in single-threaded mode. Known
outliers (prior knowledge) are used as the labeled negative pool during
training and are excluded from reported detection quality, since they act
as supervision rather than test objects.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from . import learner, sp
from .data import CandidateSets, Dataset, OutlierScores, RepresentationModel, require_valid
from .evaluation import masked_auc
from .params import HyperParams
from .thresholding import candidate_sets


def stage_seeds(rng_seed: int) -> tuple[int, int, int]:
    """Derive (original scoring, training, embedded scoring) sub-seeds."""
    state = np.random.SeedSequence(rng_seed).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


class OriginalStage(NamedTuple):
    """Original-space scores, their candidate sets, and both stages' wall seconds."""

    scores: OutlierScores
    sets: CandidateSets
    seconds: dict


@dataclass
class PipelineResult:
    """Everything a pipeline run produces.

    ``stage_seconds`` holds the wall seconds of each stage, in run order:
    ``score_original``, ``threshold``, ``train``, ``transform`` and
    ``score_embedded``.
    """

    original_scores: OutlierScores
    sets: CandidateSets
    model: RepresentationModel
    report: learner.TrainReport
    embedded: Dataset
    embedded_scores: OutlierScores
    auc_original: Optional[float]
    auc_embedded: Optional[float]
    stage_seconds: dict

    @property
    def offline_seconds(self) -> float:
        """Seconds of every stage before embedded scoring (the offline phase)."""
        return sum(self.stage_seconds.values()) - self.stage_seconds["score_embedded"]


def original_stage(dataset: Dataset, params: HyperParams) -> OriginalStage:
    """Score ``dataset`` in its input space and threshold the scores.

    The result depends only on the data values, the detector settings,
    ``alpha`` and the run seed, so runs that differ in anything else (the
    representation size, the known outliers) can share one.
    """
    seed_orig, _, _ = stage_seeds(params.rng_seed)
    t0 = time.perf_counter()
    scores = sp.sp_score(dataset, params.detector(seed_orig))
    t1 = time.perf_counter()
    sets = candidate_sets(scores, params.alpha)
    t2 = time.perf_counter()
    return OriginalStage(scores, sets, {"score_original": t1 - t0, "threshold": t2 - t1})


def run_pipeline(
    dataset: Dataset, params: HyperParams, original: Optional[OriginalStage] = None
) -> PipelineResult:
    """Run the full pipeline on one dataset with one seed.

    ``original`` is a precomputed ``original_stage(dataset, params)``; its
    seconds are reported as this run's. ``stage_seconds`` times every stage;
    ``offline_seconds`` sums all but ``score_embedded``, the online scoring
    pass a deployed detector repeats.
    """
    params.validate()
    require_valid(dataset)
    if original is None:
        original = original_stage(dataset, params)
    _, seed_train, seed_emb = stage_seeds(params.rng_seed)

    t0 = time.perf_counter()
    model, report = learner.train(
        dataset, original.sets, original.scores, replace(params, rng_seed=seed_train)
    )
    t1 = time.perf_counter()
    embedded = learner.transform(model, dataset)
    t2 = time.perf_counter()
    embedded_scores = sp.sp_score(embedded, params.detector(seed_emb))
    t3 = time.perf_counter()

    return PipelineResult(
        original_scores=original.scores,
        sets=original.sets,
        model=model,
        report=report,
        embedded=embedded,
        embedded_scores=embedded_scores,
        auc_original=masked_auc(original.scores, dataset),
        auc_embedded=masked_auc(embedded_scores, embedded),
        stage_seconds={
            **original.seconds,
            "train": t1 - t0,
            "transform": t2 - t1,
            "score_embedded": t3 - t2,
        },
    )
