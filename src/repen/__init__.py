"""repen: outlier-detector-aware representation learning.

Learns a low-dimensional ReLU representation of (ultra)high-dimensional
data tailored to random nearest-neighbor-distance outlier scoring, so that
detection in the learned space is both more accurate and faster, because
distances are computed in M dimensions instead of D.

The public names below load their module on first access (PEP 562), so
importing a submodule such as ``repen.cli`` does not load numpy; the CLI
relies on that to set the BLAS thread count before numpy starts.
"""

from importlib import import_module

# Public name -> submodule that defines it.
_EXPORTS = {
    "CandidateSets": "data",
    "Dataset": "data",
    "OutlierScores": "data",
    "RepresentationModel": "data",
    "Triplet": "data",
    "validate": "data",
    "auc": "evaluation",
    "downsample_to_rate": "ingest",
    "load_csv": "ingest",
    "load_libsvm": "ingest",
    "minmax_scale": "ingest",
    "synth_gaussian_with_outliers": "ingest",
    "write_csv": "ingest",
    "write_libsvm": "ingest",
    "OptimizerState": "learner",
    "TrainReport": "learner",
    "adadelta_step": "learner",
    "load_model": "learner",
    "loss_gradient": "learner",
    "save_model": "learner",
    "train": "learner",
    "transform": "learner",
    "triplet_loss": "learner",
    "HyperParams": "params",
    "SpConfig": "params",
    "PipelineResult": "pipeline",
    "run_pipeline": "pipeline",
    "negative_sampling_weights": "sampling",
    "query_sampling_weights": "sampling",
    "nn_dist": "sp",
    "sp_score": "sp",
    "sp_score_embedded": "sp",
    "sp_score_with_subsamples": "sp",
    "candidate_sets": "thresholding",
    "cantelli_bound": "thresholding",
    "cantelli_partition": "thresholding",
}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
