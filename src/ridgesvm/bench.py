"""Round-based benchmark harness: one-shot engine vs path following vs retrain.

All arms start from the same trained base model and replay the same
seeded add/remove schedule; only the update work is timed (a monotonic
clock around the update or retrain call), and every round asserts that the
arms still agree on the test set before any timing is trusted.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import batch as batch_solver
from . import kernels
from .data import schedule_rounds
from .errors import InvalidParameter, RidgeSvmError
from .online import update_multi
from .path import path_update

ARMS = ("proposed", "baseline", "retrain")
ARM_LABELS = {"proposed": "Proposed", "baseline": "Baseline",
              "retrain": "Nonincremental"}
PARITY_TOL = 1e-3


@dataclass
class RoundRecord:
    round: int
    arm: str
    n_samples: int
    wall_seconds: float
    cumulative_seconds: float
    accuracy_or_mse: float


@dataclass
class BenchReport:
    records: list = field(default_factory=list)
    parity: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    incomplete: bool = False
    failure: str | None = None


def _metric(preds, targets, task):
    if task == "classification":
        signs = np.where(preds >= 0, 1.0, -1.0)
        return float(100.0 * np.mean(signs == targets))
    return float(np.mean((preds - targets) ** 2))


def run_bench(task, train_samples, pool, test_samples, spec, hyper, schedule,
              arms=ARMS) -> BenchReport:
    """Replay the schedule once per arm from a shared base model.

    Raises :class:`InvalidParameter` for an arm outside :data:`ARMS`, before
    any training.
    """
    if not arms or not set(arms) <= set(ARMS):
        raise InvalidParameter(f"arms must be a nonempty subset of {ARMS}, got {tuple(arms)}")
    train_samples = list(train_samples)
    train = (batch_solver.train_svm_batch if task == "classification"
             else batch_solver.train_svr_batch)

    report = BenchReport(metadata={
        "task": task,
        "kernel": asdict(spec),
        "hyper": asdict(hyper),
        "schedule": asdict(schedule),
        "n_train": len(train_samples),
        "n_pool": len(pool),
        "n_test": len(test_samples),
        "arms": list(arms),
    })

    base = train(train_samples, spec, hyper)
    batches = schedule_rounds(pool, [s.id for s in train_samples], schedule)
    x_test = np.array([s.features for s in test_samples], dtype=float)
    y_test = np.array([s.target for s in test_samples], dtype=float)

    preds = {}
    try:
        for arm in arms:
            state = base
            current = list(train_samples)
            cumulative = 0.0
            for rnd, upd in enumerate(batches, start=1):
                gone = set(upd.remove)
                current = [s for s in current if s.id not in gone] + list(upd.add)
                start = time.perf_counter()
                if arm == "proposed":
                    state = update_multi(state, upd, spec, hyper)
                elif arm == "baseline":
                    state = path_update(state, upd, spec, hyper)
                else:
                    state = train(current, spec, hyper)
                wall = time.perf_counter() - start
                cumulative += wall
                p = kernels.decision_values(x_test, state, spec)
                preds[(arm, rnd)] = p
                report.records.append(RoundRecord(
                    round=rnd, arm=arm, n_samples=state.n,
                    wall_seconds=wall, cumulative_seconds=cumulative,
                    accuracy_or_mse=_metric(p, y_test, task),
                ))
    except RidgeSvmError as err:
        report.incomplete = True
        report.failure = f"{type(err).__name__}: {err}"
        return report

    for rnd in range(1, len(batches) + 1):
        vals = [preds[(arm, rnd)] for arm in arms if (arm, rnd) in preds]
        gap = 0.0
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                gap = max(gap, float(np.max(np.abs(vals[i] - vals[j]))))
        report.parity.append(
            {"round": rnd, "max_gap": gap, "passed": gap <= PARITY_TOL}
        )
    return report


def format_table(report: BenchReport) -> str:
    """Paper-style per-round wall-clock table plus the parity verdicts."""
    arms = report.metadata.get("arms", list(ARMS))
    rounds = sorted({r.round for r in report.records})
    by = {(r.arm, r.round): r for r in report.records}
    width = 12
    lines = []
    header = "#Samples".ljust(16)
    for rnd in rounds:
        rec = next((by[(a, rnd)] for a in arms if (a, rnd) in by), None)
        header += (str(rec.n_samples) if rec else "-").rjust(width)
    lines.append(header)
    for arm in arms:
        row = ARM_LABELS.get(arm, arm).ljust(16)
        for rnd in rounds:
            rec = by.get((arm, rnd))
            row += (f"{rec.wall_seconds:.4f}" if rec else "-").rjust(width)
        lines.append(row)
    lines.append("")
    lines.append("Unit is seconds")
    metric = "accuracy %" if report.metadata.get("task") == "classification" else "MSE"
    lines.append("")
    lines.append(f"Final-round {metric}:")
    if rounds:
        last = rounds[-1]
        for arm in arms:
            rec = by.get((arm, last))
            if rec:
                lines.append(f"  {ARM_LABELS.get(arm, arm)}: {rec.accuracy_or_mse:.4f}")
    lines.append("")
    for p in report.parity:
        verdict = "pass" if p["passed"] else "FAIL"
        lines.append(
            f"parity round {p['round']}: max gap {p['max_gap']:.3e} [{verdict}]"
        )
    if report.incomplete:
        lines.append(f"INCOMPLETE: {report.failure}")
    return "\n".join(lines)


def write_report(report: BenchReport, out_dir: str) -> None:
    """Emit report.csv (machine), report.txt (human), metadata.json."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write("round,arm,n_samples,wall_seconds,cumulative_seconds,accuracy_or_mse\n")
        for r in report.records:
            fh.write(f"{r.round},{r.arm},{r.n_samples},"
                     f"{r.wall_seconds!r},{r.cumulative_seconds!r},"
                     f"{r.accuracy_or_mse!r}\n")
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(format_table(report) + "\n")
    doc = {
        "metadata": report.metadata,
        "parity": report.parity,
        "incomplete": report.incomplete,
        "failure": report.failure,
        "records": [asdict(r) for r in report.records],
    }
    with open(os.path.join(out_dir, "metadata.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
