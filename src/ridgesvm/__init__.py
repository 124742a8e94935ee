"""Online multiple incremental/decremental ridge support vector learning.

Train a ridge SVM or ridge SVR once, then apply batches of arriving and
leaving samples without retraining: new multipliers are predicted in one
shot from the model's weight-error curve, and a bounded repair loop, whose
first pass is the single bordered solve that keeps the unbounded support
vectors in equilibrium, restores the optimality regions exactly.  A
step-size path follower and a from-scratch batch solver are included as
comparison arms.
"""
from . import bench, data, kernels, linalg, model
from .batch import SolverConfig, train_svm_batch, train_svr_batch
from .bench import BenchReport, run_bench
from .data import (
    DatasetSpec,
    RoundSchedule,
    SplitPlan,
    StandardizationStats,
    apply_standardizer,
    fit_standardizer,
    load_csv,
    load_model,
    save_model,
    schedule_rounds,
    split,
)
from .kernels import KernelSpec, decision_value, decision_values, kernel_eval
from .model import Hyperparams, Sample, SvmState, SvrState, UpdateBatch, validate
from .online_svm import update_multi_svm, wec_predict_svm
from .online_svr import update_multi_svr, wec_predict_svr
from .path import path_update_svm, path_update_svr

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "DatasetSpec",
    "Hyperparams",
    "KernelSpec",
    "RoundSchedule",
    "Sample",
    "SolverConfig",
    "SplitPlan",
    "StandardizationStats",
    "SvmState",
    "SvrState",
    "UpdateBatch",
    "apply_standardizer",
    "bench",
    "data",
    "decision_value",
    "decision_values",
    "fit_standardizer",
    "kernel_eval",
    "kernels",
    "linalg",
    "load_csv",
    "load_model",
    "model",
    "path_update_svm",
    "path_update_svr",
    "run_bench",
    "save_model",
    "schedule_rounds",
    "split",
    "train_svm_batch",
    "train_svr_batch",
    "update_multi_svm",
    "update_multi_svr",
    "validate",
    "wec_predict_svm",
    "wec_predict_svr",
]
