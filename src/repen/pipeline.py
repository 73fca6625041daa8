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
from typing import Optional

import numpy as np

from . import learner, sp
from .data import CandidateSets, Dataset, OutlierScores, RepresentationModel, require_valid
from .evaluation import auc
from .params import HyperParams
from .thresholding import candidate_sets


def stage_seeds(rng_seed: int) -> tuple[int, int, int]:
    """Derive (original scoring, training, embedded scoring) sub-seeds."""
    state = np.random.SeedSequence(rng_seed).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


@dataclass
class PipelineResult:
    """Everything a pipeline run produces, plus stage wall times in seconds."""

    original_scores: OutlierScores
    sets: CandidateSets
    model: RepresentationModel
    report: learner.TrainReport
    embedded: Dataset
    embedded_scores: OutlierScores
    auc_original: Optional[float]
    auc_embedded: Optional[float]
    train_seconds: float
    detect_seconds: float


def evaluation_mask(dataset: Dataset) -> Optional[np.ndarray]:
    """Rows that count toward detection quality (known outliers excluded)."""
    if dataset.labels is None:
        return None
    mask = np.ones(dataset.n_objects, dtype=bool)
    if dataset.known_outliers is not None:
        mask[dataset.known_outliers] = False
    return mask


def _masked_auc(scores: OutlierScores, dataset: Dataset) -> Optional[float]:
    mask = evaluation_mask(dataset)
    if mask is None:
        return None
    labels = dataset.labels[mask]
    if labels.all() or not labels.any():
        return None
    return auc(scores.scores[mask], labels)


def run_pipeline(dataset: Dataset, params: HyperParams) -> PipelineResult:
    """Run the full pipeline on one dataset with one seed.

    ``train_seconds`` covers the offline phase (original-space scoring,
    thresholding, training, transform); ``detect_seconds`` covers only the
    online scoring of the embedded data, which is what a deployed detector
    repeats per scoring pass.
    """
    params.validate()
    require_valid(dataset)
    seed_orig, seed_train, seed_emb = stage_seeds(params.rng_seed)

    t0 = time.perf_counter()
    original_scores = sp.sp_score(dataset, params.detector(seed_orig))
    sets = candidate_sets(original_scores, params.alpha)
    model, report = learner.train(
        dataset, sets, original_scores, _with_seed(params, seed_train)
    )
    embedded = learner.transform(model, dataset)
    train_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    embedded_scores = sp.sp_score(embedded, params.detector(seed_emb))
    detect_seconds = time.perf_counter() - t1

    return PipelineResult(
        original_scores=original_scores,
        sets=sets,
        model=model,
        report=report,
        embedded=embedded,
        embedded_scores=embedded_scores,
        auc_original=_masked_auc(original_scores, dataset),
        auc_embedded=_masked_auc(embedded_scores, embedded),
        train_seconds=train_seconds,
        detect_seconds=detect_seconds,
    )


def _with_seed(params: HyperParams, seed: int) -> HyperParams:
    return replace(params, rng_seed=seed)
