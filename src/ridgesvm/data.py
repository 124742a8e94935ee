"""Dataset ingestion, standardization, splitting, scheduling, persistence.

CSV files are plain comma-separated reals with a configurable label column.
Model files are versioned JSON documents written atomically; floats survive
the round trip exactly (shortest-repr serialization).
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from . import model
from .errors import (
    ConstantColumn,
    CorruptFile,
    InvalidParameter,
    LabelDomainError,
    ParseError,
    PoolExhausted,
    SchemaVersionMismatch,
    TooFewSamples,
)
from .kernels import KernelSpec
from .model import Hyperparams, Sample, UpdateBatch

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class DatasetSpec:
    """Where a CSV lives and how to read it."""

    path: str
    label_column: int | str = "last"
    has_header: bool = False
    task: str = "classification"

    def __post_init__(self):
        if self.task not in ("classification", "regression"):
            raise ValueError(f"unknown task {self.task!r}")


@dataclass
class StandardizationStats:
    """Per-feature population mean/std, plus label stats for regression."""

    feature_mean: np.ndarray
    feature_std: np.ndarray
    label_mean: float | None = None
    label_std: float | None = None


@dataclass(frozen=True)
class SplitPlan:
    """Train / incremental-pool / test fractions plus the shuffle seed."""

    train_fraction: float = 0.8
    incremental_fraction: float = 0.1
    test_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        # each test is written to fail for NaN, which compares False
        fractions = (self.train_fraction, self.incremental_fraction, self.test_fraction)
        if not all(0 <= f <= 1 for f in fractions):
            raise InvalidParameter(f"fractions {fractions} must each lie in [0, 1]")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise InvalidParameter(f"fractions sum to {sum(fractions)}, expected 1")


@dataclass(frozen=True)
class RoundSchedule:
    """How many samples arrive and leave per update round."""

    rounds: int
    add_per_round: int
    remove_per_round: int
    seed: int = 0

    def __post_init__(self):
        for name, least in (("rounds", 1), ("add_per_round", 0), ("remove_per_round", 0)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= least):
                raise InvalidParameter(f"{name} must be an integer >= {least}, got {value!r}")


def load_csv(spec: DatasetSpec) -> list[Sample]:
    """Read samples with stable sequential ids.

    Classification labels {0,1} map to {-1,+1}; labels already in {-1,+1}
    are kept.  Any other label domain raises :class:`LabelDomainError`, and
    a cell that is not a finite number :class:`ParseError`.
    """
    rows = []
    with open(spec.path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = 1 if spec.has_header else 0
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        cells = line.split(",")
        values = []
        for col, cell in enumerate(cells):
            try:
                value = float(cell)
                if not math.isfinite(value):
                    raise ValueError("not finite")
            except ValueError as err:
                raise ParseError(
                    f"line {lineno}, column {col + 1}: cannot parse {cell!r} as a finite number",
                    row=lineno, column=col + 1,
                ) from err
            values.append(value)
        rows.append(values)
    if not rows:
        raise ParseError("no data rows", row=None, column=None)
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ParseError(f"inconsistent row widths {sorted(widths)}")
    width = widths.pop()
    label_col = width - 1 if spec.label_column == "last" else int(spec.label_column)
    if not 0 <= label_col < width:
        raise ParseError(f"label column {label_col} out of range for width {width}")

    data = np.asarray(rows, dtype=float)
    labels = data[:, label_col]
    features = np.delete(data, label_col, axis=1)
    if spec.task == "classification":
        uniq = set(np.unique(labels))
        if uniq <= {0.0, 1.0}:
            labels = np.where(labels > 0.5, 1.0, -1.0)
        elif uniq <= {-1.0, 1.0}:
            pass
        else:
            raise LabelDomainError(f"labels {sorted(uniq)} not in {{0,1}} or {{-1,+1}}")
    return [
        Sample(id=i, features=features[i].copy(), target=float(labels[i]))
        for i in range(len(labels))
    ]


def fit_standardizer(train_samples, task: str = "classification") -> StandardizationStats:
    """Population mean/std per feature, fitted on the training portion only."""
    train_samples = list(train_samples)
    if len(train_samples) < 2:
        raise TooFewSamples("need at least two samples to standardize")
    X = np.array([s.features for s in train_samples], dtype=float)
    mean = X.mean(axis=0)
    std = X.std(axis=0)  # population convention
    tiny = std <= 1e-12
    if tiny.any():
        raise ConstantColumn(f"feature column(s) {np.flatnonzero(tiny).tolist()} constant")
    stats = StandardizationStats(feature_mean=mean, feature_std=std)
    if task == "regression":
        y = np.array([s.target for s in train_samples], dtype=float)
        label_std = float(y.std())
        if label_std <= 1e-12:
            raise ConstantColumn("label column is constant")
        stats.label_mean = float(y.mean())
        stats.label_std = label_std
    return stats


def apply_standardizer(samples, stats: StandardizationStats, task: str = "classification"):
    """Transform samples with previously fitted statistics."""
    out = []
    for s in samples:
        features = (np.asarray(s.features, dtype=float) - stats.feature_mean) / stats.feature_std
        target = s.target
        if task == "regression" and stats.label_std is not None:
            target = (target - stats.label_mean) / stats.label_std
        out.append(Sample(id=s.id, features=features, target=float(target)))
    return out


def split(samples, plan: SplitPlan):
    """Seeded shuffle then contiguous slices: (train, incremental_pool, test)."""
    samples = list(samples)
    order = np.random.default_rng(plan.seed).permutation(len(samples))
    shuffled = [samples[i] for i in order]
    n = len(samples)
    n_train = int(round(plan.train_fraction * n))
    n_inc = int(round(plan.incremental_fraction * n))
    return (
        shuffled[:n_train],
        shuffled[n_train:n_train + n_inc],
        shuffled[n_train + n_inc:],
    )


def schedule_rounds(pool, model_ids, schedule: RoundSchedule) -> list[UpdateBatch]:
    """Draw per-round arrival/removal batches.

    Arrivals come from the unused pool without replacement across rounds;
    removals are drawn uniformly from the ids the model will hold when the
    round starts (without replacement within a round).
    """
    pool = list(pool)
    need = schedule.rounds * schedule.add_per_round
    if need > len(pool):
        raise PoolExhausted(
            f"{schedule.rounds} rounds x {schedule.add_per_round} adds "
            f"need {need} samples, pool has {len(pool)}"
        )
    rng = np.random.default_rng(schedule.seed)
    current = [int(i) for i in model_ids]
    batches = []
    cursor = 0
    for _ in range(schedule.rounds):
        adds = pool[cursor:cursor + schedule.add_per_round]
        cursor += schedule.add_per_round
        if schedule.remove_per_round > len(current):
            raise PoolExhausted("more removals requested than samples in the model")
        removed = rng.choice(len(current), size=schedule.remove_per_round, replace=False)
        remove_ids = [current[i] for i in sorted(removed)]
        batches.append(UpdateBatch(add=list(adds), remove=remove_ids))
        gone = set(remove_ids)
        current = [i for i in current if i not in gone] + [s.id for s in adds]
    return batches


# -- synthetic data ----------------------------------------------------------

def two_gaussians(n, seed=0, center=1.0, spread=1.0, start_id=0) -> list[Sample]:
    """Binary classification blobs around (+c,+c) and (-c,-c)."""
    if not n >= 0:
        raise InvalidParameter(f"sample count must be >= 0, got {n!r}")
    rng = np.random.default_rng(seed)
    half = n // 2
    xp = rng.normal(loc=(center, center), scale=spread, size=(half, 2))
    xn = rng.normal(loc=(-center, -center), scale=spread, size=(n - half, 2))
    X = np.vstack([xp, xn])
    y = np.concatenate([np.ones(half), -np.ones(n - half)])
    order = rng.permutation(n)
    return [
        Sample(id=start_id + i, features=X[order[i]].copy(), target=float(y[order[i]]))
        for i in range(n)
    ]


def noisy_sine(n, seed=0, noise=0.25, start_id=0) -> list[Sample]:
    """One-dimensional regression: sin(x) on [0, 2*pi] plus Gaussian noise."""
    if not n >= 0:
        raise InvalidParameter(f"sample count must be >= 0, got {n!r}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 2.0 * np.pi, n)
    y = np.sin(x) + noise * rng.standard_normal(n)
    return [
        Sample(id=start_id + i, features=np.array([x[i]]), target=float(y[i]))
        for i in range(n)
    ]


# -- model persistence -------------------------------------------------------

def _stats_to_doc(stats: StandardizationStats | None):
    if stats is None:
        return None
    return {
        "feature_mean": stats.feature_mean.tolist(),
        "feature_std": stats.feature_std.tolist(),
        "label_mean": stats.label_mean,
        "label_std": stats.label_std,
    }


def _stats_from_doc(doc):
    if doc is None:
        return None
    return StandardizationStats(
        feature_mean=np.asarray(doc["feature_mean"], dtype=float),
        feature_std=np.asarray(doc["feature_std"], dtype=float),
        label_mean=doc.get("label_mean"),
        label_std=doc.get("label_std"),
    )


_STATE_CLASSES = {"classification": model.SvmState, "regression": model.SvrState}


def save_model(state, path, spec: KernelSpec, hyper: Hyperparams,
               standardizer: StandardizationStats | None = None) -> None:
    """Write a versioned JSON model document (atomic whole-file replace);
    the task follows the state's class."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "task": "classification" if isinstance(state, model.SvmState) else "regression",
        "kernel": asdict(spec),
        "hyper": asdict(hyper),
        "standardizer": _stats_to_doc(standardizer),
        "samples": [
            {"id": int(s.id), "features": list(map(float, s.features)),
             "target": float(s.target)}
            for s in state.samples
        ],
        "multipliers": list(map(float, state.mult)),
        "bias": float(state.b),
        "partition": list(state.partition),
    }
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_model(path):
    """Read a model document; returns (state, spec, hyper, standardizer, task)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise CorruptFile(f"{path}: {err}") from err
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise CorruptFile(f"{path}: missing format_version")
    if doc["format_version"] != MODEL_FORMAT_VERSION:
        raise SchemaVersionMismatch(
            f"format_version {doc['format_version']} unsupported "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    try:
        task = doc["task"]
        spec = KernelSpec(**doc["kernel"])
        hyper = Hyperparams(**doc["hyper"])
        samples = [
            Sample(id=int(s["id"]),
                   features=np.asarray(s["features"], dtype=float),
                   target=float(s["target"]))
            for s in doc["samples"]
        ]
        multipliers = np.asarray(doc["multipliers"], dtype=float)
        bias = float(doc["bias"])
        partition = np.asarray(doc["partition"], dtype="<U1")
        if len(multipliers) != len(samples) or len(partition) != len(samples):
            raise KeyError("length mismatch")
        if task not in _STATE_CLASSES:
            raise ValueError(f"unknown task {task!r}")
        if not set(doc["partition"]) <= {model.REGION_S, model.REGION_B, model.REGION_O}:
            raise ValueError("a region tag is not S, B or O")
        standardizer = _stats_from_doc(doc.get("standardizer"))
        state = _STATE_CLASSES[task](samples, multipliers, bias)
    except (KeyError, TypeError, ValueError) as err:
        raise CorruptFile(f"{path}: {err}") from err

    state.partition = partition
    state.resid = model.compute_residuals(state, spec)
    return state, spec, hyper, standardizer, task
