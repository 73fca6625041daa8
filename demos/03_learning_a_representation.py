"""The full loop: score, threshold, learn a 20-D representation, re-score.

The detector's own scores pseudo-label the data (likely outliers vs likely
inliers), triplets sampled from those pools train a single ReLU layer so
that pseudo-outliers end up far from inlier queries, and the detector then
runs in the learned 20-D space instead of the raw high-dimensional one.
Only 10 of the 2000 raw features carry signal here; the representation
learns to keep them.
"""

import numpy as np

from repen import HyperParams, run_pipeline, synth_gaussian_with_outliers

data = synth_gaussian_with_outliers(
    n_inliers=600, n_outliers=12, d_relevant=10, d_noise=1990,
    separation=6.0, seed=3,
)
print(f"dataset: {data.n_objects} objects x {data.n_features} features, "
      f"{int(data.labels.sum())} outliers")

params = HyperParams(rep_dim=20, n_epochs=10, samples_per_epoch=2560, rng_seed=3)
result = run_pipeline(data, params)

print(f"\ncandidate sets: {result.sets.outlier_idx.size} likely outliers, "
      f"{result.sets.inlier_idx.size} likely inliers")
print(f"training loss: {result.report.epoch_mean_loss[0]:.1f} (first epoch) -> "
      f"{result.report.final_mean_loss:.1f} (last)")
print(f"triplet violation rate: {result.report.initial_violation_rate:.2f} -> "
      f"{result.report.violation_rate:.2f}")

print(f"\nAUC in the original {data.n_features}-D space: {result.auc_original:.4f}")
print(f"AUC in the learned {params.rep_dim}-D space:   {result.auc_embedded:.4f}")
print(f"offline phase {result.offline_seconds:.1f}s, "
      f"online detection {result.stage_seconds['score_embedded'] * 1000:.0f}ms")
