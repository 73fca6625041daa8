"""Why a 20-D representation makes detection fast, not just accurate.

The detector computes every object's distance to every subsample row, so
its cost grows with the number of features. The same scoring kernel runs
in the original D dimensions and in the learned M = 20 dimensions; the
speedup comes from the smaller dimension alone. This demo times scoring
only (training happens once, offline).
"""

import time

import numpy as np

from repen import HyperParams, SpConfig, run_pipeline, sp_score, synth_gaussian_with_outliers

data = synth_gaussian_with_outliers(
    n_inliers=1960, n_outliers=40, d_relevant=10, d_noise=4990,
    separation=6.0, seed=2,
)
print(f"dataset: {data.n_objects} x {data.n_features}")

params = HyperParams(rep_dim=20, n_epochs=5, rng_seed=2)
result = run_pipeline(data, params)

def median_time(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))

config = SpConfig(rng_seed=11)
t_orig = median_time(lambda: sp_score(data, config))
t_emb = median_time(lambda: sp_score(result.embedded, config))

print(f"\nscoring in {data.n_features}-D: {t_orig * 1000:7.1f} ms")
print(f"scoring in {params.rep_dim}-D:   {t_emb * 1000:7.1f} ms")
print(f"speedup: {t_orig / t_emb:.0f}x, at AUC {result.auc_embedded:.4f} "
      f"(original space: {result.auc_original:.4f})")
