"""The benchmark's workloads and their seeded input generator.

Every workload keeps the model size fixed: each round removes as many
stored samples as it adds, so per-update figures do not depend on how long
a run lasts.  All inputs -- the base training set, every round's arrivals
and removals, and the held-out query batch -- are drawn from the run's
seed; the engines only ever see the generated samples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ridgesvm import batch, data, online_svm, online_svr, path
from ridgesvm.kernels import KernelSpec
from ridgesvm.model import Hyperparams, UpdateBatch

# A seed never used while the benchmark was tuned; confirm claims on it.
HELD_OUT_SEED = 9001

QUERY_COUNT = 256

# Id ranges keep arrivals and queries disjoint from the base set and
# from each other for any realistic run length.
_ARRIVAL_ID_BASE = 10_000_000
_QUERY_ID_BASE = 90_000_000

# Stream tags for the seed sequence of each input kind.
_BASE, _ARRIVALS, _REMOVALS, _QUERIES = 0, 1, 2, 3


@dataclass(frozen=True)
class Workload:
    """One steady-state add/remove stream against one engine."""

    name: str
    why: str
    task: str  # "svm" or "svr"
    n: int
    batch: int
    spec: KernelSpec
    hyper: Hyperparams
    center: float = 0.0  # two_gaussians class-centre offset (svm only)
    noise: float = 0.0  # noisy_sine noise level (svr only)
    checkpoint_every: int = 10  # rounds between path/retrain/parity checkpoints

    def samples(self, count, seed, start_id):
        if self.task == "svm":
            return data.two_gaussians(count, seed=seed, center=self.center,
                                      start_id=start_id)
        return data.noisy_sine(count, seed=seed, noise=self.noise,
                               start_id=start_id)

    def train(self, samples):
        trainer = batch.train_svm_batch if self.task == "svm" else batch.train_svr_batch
        return trainer(samples, self.spec, self.hyper)

    def update(self, state, upd):
        engine = (online_svm.update_multi_svm if self.task == "svm"
                  else online_svr.update_multi_svr)
        return engine(state, upd, self.spec, self.hyper)

    def follow(self, state, upd):
        follower = path.path_update_svm if self.task == "svm" else path.path_update_svr
        return follower(state, upd, self.spec, self.hyper)


class Stream:
    """Seeded inputs of one run: base set, per-round batches, query batch."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = int(seed)

    def base(self):
        return self.workload.samples(self.workload.n, [self.seed, _BASE], 0)

    def queries(self) -> np.ndarray:
        qs = self.workload.samples(QUERY_COUNT, [self.seed, _QUERIES], _QUERY_ID_BASE)
        return np.array([s.features for s in qs], dtype=float)

    def next_batch(self, rnd: int, state) -> UpdateBatch:
        """Round ``rnd``'s batch: fresh arrivals, removals from ``state``."""
        k = self.workload.batch
        adds = self.workload.samples(k, [self.seed, _ARRIVALS, rnd],
                                     _ARRIVAL_ID_BASE + rnd * k)
        rng = np.random.default_rng([self.seed, _REMOVALS, rnd])
        remove = rng.choice(state.ids, size=k, replace=False)
        return UpdateBatch(add=adds, remove=[int(i) for i in remove])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="svm_trickle",
            why=("large well-separated SVM with tiny batches: most rounds only "
                 "splice rows, so per-row bookkeeping and n-wide prediction dominate"),
            task="svm", n=8000, batch=8, center=2.0,
            spec=KernelSpec(family="rbf", sigma=3.0, ridge=0.5),
            hyper=Hyperparams(C=1.0), checkpoint_every=20,
        ),
        Workload(
            name="svr_dense",
            why=("regression with two thirds of rows unbounded: |S|^2 inverse "
                 "patching and n x |S| column blocks dominate; the online claim is weakest here"),
            task="svr", n=800, batch=20, noise=0.25,
            spec=KernelSpec(family="rbf", sigma=1.0, ridge=0.5),
            hyper=Hyperparams(C=1.0, epsilon=0.1), checkpoint_every=5,
        ),
    )
}
