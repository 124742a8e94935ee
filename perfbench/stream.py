"""The closed-loop update stream and its correctness gate.

A single caller applies round r+1 only after round r's update returns.
Each round times the one-shot update and then a prediction on the query
batch against the new model.  Every ``checkpoint_every`` rounds the same
input state and batch also go through the path follower, the sample set
the update produced is retrained from scratch, ``validate`` checks the
proposed state, and the three arms' query predictions must agree within
``bench.PARITY_TOL``.  A ``ridgesvm.errors`` exception, a validation
violation or a parity miss counts as one failed operation; the run goes on.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

from ridgesvm import kernels, model
from ridgesvm.bench import PARITY_TOL
from ridgesvm.errors import RidgeSvmError

from workloads import Stream, Workload

_FAILURES_KEPT = 10


@dataclass
class Record:
    """What one pass over the stream measured and checked."""

    update_s: list = field(default_factory=list)
    predict_s: list = field(default_factory=list)
    path_s: list = field(default_factory=list)
    retrain_s: list = field(default_factory=list)
    absorbed: int = 0
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    oracle_gap_max: float = 0.0
    path_gap_max: float = 0.0
    sizes: list = field(default_factory=list)
    final_predictions: np.ndarray | None = None

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < _FAILURES_KEPT:
            self.failures.append(f"round {self.rounds}: {what}: {detail}")


def setup(workload: Workload, stream: Stream):
    """Generate the base set and batch-train it.

    Returns the trained state and the wall time this took.
    """
    t0 = time.perf_counter()
    state = workload.train(stream.base())
    return state, time.perf_counter() - t0


def _survivors(state, upd):
    gone = set(upd.remove)
    return [s for s in state.samples if s.id not in gone] + list(upd.add)


def _sizes(state) -> tuple[int, int, int]:
    p = state.partition
    return (int(np.count_nonzero(p == model.REGION_S)),
            int(np.count_nonzero(p == model.REGION_B)),
            int(np.count_nonzero(p == model.REGION_O)))


def run(workload: Workload, stream: Stream, base, queries, *, deadline=None,
        cycles=None, tracer=None, after_checkpoint=None) -> Record:
    """Replay the stream from ``base`` in cycles of ``checkpoint_every``
    rounds, each ending in a checkpoint, until ``deadline`` (a
    ``perf_counter`` value) has passed or ``cycles`` cycles are done.
    ``after_checkpoint``, if given, is called untimed after each checkpoint;
    the time it takes is added to ``deadline``."""
    rec = Record()
    arm = tracer.arm if tracer is not None else (lambda name: contextlib.nullcontext())
    spec = workload.spec
    state = base
    done = 0
    while (cycles is None or done < cycles) and (
            deadline is None or time.perf_counter() < deadline):
        for step in range(workload.checkpoint_every):
            rnd = rec.rounds
            upd = stream.next_batch(rnd, state)
            if tracer is not None:
                tracer.round = rnd
            rec.attempted += 1
            try:
                t0 = time.perf_counter()
                with arm("update"):
                    new = workload.update(state, upd)
                rec.update_s.append(time.perf_counter() - t0)
                rec.absorbed += len(upd.add) + len(upd.remove)
            except RidgeSvmError as err:
                rec.fail("update", f"{type(err).__name__}: {err}")
                new = workload.train(_survivors(state, upd))

            rec.attempted += 1
            t0 = time.perf_counter()
            with arm("predict"):
                predicted = kernels.decision_values(queries, new, spec)
            rec.predict_s.append(time.perf_counter() - t0)
            rec.sizes.append(_sizes(new))

            if step == workload.checkpoint_every - 1:
                _checkpoint(workload, rec, arm, state, upd, new, predicted, queries)
                if after_checkpoint is not None:
                    t0 = time.perf_counter()
                    after_checkpoint()
                    if deadline is not None:
                        deadline += time.perf_counter() - t0
            state = new
            rec.rounds += 1
        done += 1
    rec.final_predictions = kernels.decision_values(queries, state, spec)
    return rec


def _checkpoint(workload, rec, arm, before, upd, proposed, predicted, queries):
    spec, hyper = workload.spec, workload.hyper
    arms = {"proposed": predicted}

    rec.attempted += 1
    try:
        t0 = time.perf_counter()
        with arm("path"):
            followed = workload.follow(before, upd)
        rec.path_s.append(time.perf_counter() - t0)
        arms["path"] = kernels.decision_values(queries, followed, spec)
    except RidgeSvmError as err:
        rec.fail("path", f"{type(err).__name__}: {err}")

    rec.attempted += 1
    try:
        t0 = time.perf_counter()
        with arm("retrain"):
            retrained = workload.train(proposed.samples)
        rec.retrain_s.append(time.perf_counter() - t0)
        arms["retrain"] = kernels.decision_values(queries, retrained, spec)
    except RidgeSvmError as err:
        rec.fail("retrain", f"{type(err).__name__}: {err}")

    rec.attempted += 1
    with arm("check"):
        violations = model.validate(proposed, spec=spec, C=hyper.C, epsilon=hyper.epsilon)
    if violations:
        worst = max(violations, key=lambda v: v.magnitude)
        rec.fail("validate", f"{len(violations)} violation(s), worst {worst.kind} "
                             f"{worst.magnitude:.3e}: {worst.detail}")

    rec.attempted += 1
    if "retrain" in arms:
        rec.oracle_gap_max = max(rec.oracle_gap_max, float(
            np.max(np.abs(arms["proposed"] - arms["retrain"]))))
        if "path" in arms:
            rec.path_gap_max = max(rec.path_gap_max, float(
                np.max(np.abs(arms["path"] - arms["retrain"]))))
    names = sorted(arms)
    gaps = [float(np.max(np.abs(arms[a] - arms[b])))
            for i, a in enumerate(names) for b in names[i + 1:]]
    if len(arms) < 3 or max(gaps) > PARITY_TOL:
        rec.fail("parity", f"arms {names}, pairwise gaps {gaps}, tolerance {PARITY_TOL}")
