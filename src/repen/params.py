"""Every tunable setting, defined once.

``SpConfig`` holds the random-distance detector's settings,
``HyperParams`` the pipeline's and ``ExperimentParams`` the experiment
protocols'; the CLI derives its flags, config keys, types and defaults
from them. This module uses only the standard library, so the CLI can
build its parser before numpy loads and still set the BLAS thread count
in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class SpConfig:
    """Detector settings: subsample size, ensemble size, seed."""

    subsample_size: int = 8
    ensemble_size: int = 50
    rng_seed: int = 0

    def validate(self) -> None:
        if self.subsample_size < 1:
            raise ValueError(f"subsample_size >= 1 required, got {self.subsample_size}")
        if self.ensemble_size < 1:
            raise ValueError(f"ensemble_size >= 1 required, got {self.ensemble_size}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed >= 0 required, got {self.rng_seed}")


# n_epochs is allowed to be 0 (a no-op training run); the other counts are >= 1.
_COUNT_FIELDS = (
    "subsample_size",
    "ensemble_size",
    "rep_dim",
    "query_size",
    "batch_size",
    "samples_per_epoch",
)


@dataclass
class HyperParams:
    """Pipeline hyperparameters with their defaults.

    Defaults: subsample size 8 and ensemble size 50 for the random-distance
    detector (taken from ``SpConfig``), threshold multiplier 1.732 (a 25%
    false-positive bound), 20 representation features, single-member query
    sets, margin 1000, 30 epochs of 5000 samples in batches of 256, and
    ADADELTA with decay 0.95 / epsilon 1e-4. The epsilon default is
    deliberately larger than the optimizer literature's 1e-6: at 1e-6 the
    per-coordinate step equalization lets many-dimensional noise signatures
    of individual outlier candidates out-accumulate the few shared
    discriminative coordinates, hurting generalization to outliers the
    thresholding missed.
    """

    subsample_size: int = SpConfig.subsample_size
    ensemble_size: int = SpConfig.ensemble_size
    alpha: float = 1.732
    rep_dim: int = 20
    query_size: int = 1
    margin: float = 1000.0
    n_epochs: int = 30
    batch_size: int = 256
    samples_per_epoch: int = 5000
    optimizer_decay: float = 0.95
    optimizer_eps: float = 1e-4
    rng_seed: int = 0
    labeled_fraction: float = 0.5

    def validate(self) -> None:
        """Raise ValueError naming the first invalid field."""
        for name in _COUNT_FIELDS:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} >= 1 required, got {getattr(self, name)}")
        if self.n_epochs < 0:
            raise ValueError(f"n_epochs >= 0 required, got {self.n_epochs}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"finite alpha >= 0 required, got {self.alpha}")
        if not (math.isfinite(self.margin) and self.margin > 0):
            raise ValueError(f"finite margin > 0 required, got {self.margin}")
        if not 0.0 < self.optimizer_decay < 1.0:
            raise ValueError(
                f"optimizer_decay in (0, 1) required, got {self.optimizer_decay}"
            )
        if not (math.isfinite(self.optimizer_eps) and self.optimizer_eps > 0):
            raise ValueError(f"finite optimizer_eps > 0 required, got {self.optimizer_eps}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed >= 0 required, got {self.rng_seed}")
        if not 0.0 <= self.labeled_fraction <= 1.0:
            raise ValueError(
                f"labeled_fraction in [0, 1] required, got {self.labeled_fraction}"
            )

    def detector(self, rng_seed: int) -> SpConfig:
        """The detector settings of these hyperparameters, seeded with ``rng_seed``."""
        return SpConfig(self.subsample_size, self.ensemble_size, rng_seed)


# Representation sizes the dimension sweep uses when ``m_values`` is empty.
DEFAULT_M_GRID = (1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)


@dataclass
class ExperimentParams:
    """Experiment-protocol settings with their defaults.

    The comparison, the labeled-outlier curve and the dimension sweep run
    ``repeats`` times, repeat r with seed ``rng_seed + r``. The curve labels
    each count in ``l_values``; the sweep learns each size in ``m_values``
    (empty: ``DEFAULT_M_GRID``). The scalability protocol sweeps ``sizes``
    objects at ``size_sweep_dim`` features and ``dims`` features at
    ``dim_sweep_size`` objects, on synthetic data with ``outlier_rate``
    outliers, ``d_relevant`` informative features and outlier shift
    ``separation``.
    """

    repeats: int = 10
    l_values: tuple[int, ...] = (0, 1, 5, 10, 20, 40, 80)
    m_values: tuple[int, ...] = ()
    sizes: tuple[int, ...] = (1000, 2000, 4000)
    dims: tuple[int, ...] = (1250, 2500, 5000)
    size_sweep_dim: int = 10000
    dim_sweep_size: int = 10000
    outlier_rate: float = 0.02
    d_relevant: int = 10
    separation: float = 6.0

    def validate(self) -> None:
        """Raise ValueError naming the first invalid setting."""
        if self.repeats < 1:
            raise ValueError(f"repeats >= 1 required, got {self.repeats}")
        if not self.l_values:
            raise ValueError("l_values must hold at least one count")
        for l in self.l_values:
            if l < 0:
                raise ValueError(f"every l_values entry >= 0 required, got {l}")
        for m in self.m_values:
            if m < 1:
                raise ValueError(f"every m_values entry >= 1 required, got {m}")
        if not 0.0 <= self.outlier_rate < 1.0:
            raise ValueError(f"outlier_rate in [0, 1) required, got {self.outlier_rate}")
        if self.d_relevant < 1:
            raise ValueError(f"d_relevant >= 1 required, got {self.d_relevant}")
        if not (math.isfinite(self.separation) and self.separation > 0):
            raise ValueError(f"finite separation > 0 required, got {self.separation}")
        for n in self.sizes:
            if n <= self.n_outliers(n):
                raise ValueError(
                    f"every sizes entry > its outlier count required, "
                    f"got {n} <= {self.n_outliers(n)}"
                )
        if self.dims and self.dim_sweep_size <= self.n_outliers(self.dim_sweep_size):
            raise ValueError(
                f"dim_sweep_size > its outlier count required, got "
                f"{self.dim_sweep_size} <= {self.n_outliers(self.dim_sweep_size)}"
            )
        if self.sizes and self.size_sweep_dim <= self.d_relevant:
            raise ValueError(
                f"size_sweep_dim > d_relevant required, "
                f"got {self.size_sweep_dim} <= {self.d_relevant}"
            )
        for d in self.dims:
            if d <= self.d_relevant:
                raise ValueError(
                    f"every dims entry > d_relevant required, got {d} <= {self.d_relevant}"
                )

    def n_outliers(self, n_objects: int) -> int:
        """Outliers in a synthetic scalability dataset of ``n_objects`` rows (at least 1)."""
        return max(1, int(round(self.outlier_rate * n_objects)))
