"""Long-stream soak: 300 add/remove rounds per task and engine on a small model.

Membership changes pile up on the cached inverse in factored form, across
updates, until a rewrite absorbs them, and each engine hands its inverse on
to the next round; over a long stream that must neither leave an
inconsistent state nor let the carried inverse drift from a fresh one.
"""
import numpy as np
import pytest

from ridgesvm import batch, bench, data, kernels, linalg, model
from ridgesvm.kernels import KernelSpec
from ridgesvm.model import Hyperparams, UpdateBatch
from ridgesvm.online import update_multi
from ridgesvm.path import path_update

SPEC = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
ROUNDS = 300
PER_ROUND = 3
PROBE_EVERY = 25

TASKS = {
    "svm": (lambda k, seed, start: data.two_gaussians(k, seed=seed, center=0.7, start_id=start),
            batch.train_svm_batch, Hyperparams(C=1.0)),
    "svr": (lambda k, seed, start: data.noisy_sine(k, seed=seed, noise=0.3, start_id=start),
            batch.train_svr_batch, Hyperparams(C=1.0, epsilon=0.1)),
}
# (chained engine, engine that replays the last round for the parity check)
ENGINES = {"": (update_multi, path_update), "-path": (path_update, update_multi)}


def inverse_residual(state, inverse) -> float:
    """max |M inverse - I| for M = [[0, 1^T], [1, G_SS]] over the current S."""
    s = state.s_rows
    m = np.zeros((s.size + 1, s.size + 1))
    m[0, 1:] = m[1:, 0] = 1.0
    m[1:, 1:] = kernels.q_matrix_svr(state.X[s], SPEC)
    return float(np.max(np.abs(m @ inverse - np.eye(s.size + 1))))


@pytest.mark.parametrize("task, engine", [(t, e) for e in ENGINES for t in sorted(TASKS)],
                         ids=[t + e for e in ENGINES for t in sorted(TASKS)])
def test_long_stream_stays_consistent(task, engine):
    make, train, hyper = TASKS[task]
    chained, replay = ENGINES[engine]
    state = train(make(40, 1, 0), SPEC, hyper)
    rng = np.random.default_rng(2)
    for rnd in range(ROUNDS):
        before = state
        upd = UpdateBatch(add=make(PER_ROUND, 100 + rnd, 1000 + PER_ROUND * rnd),
                          remove=[int(i) for i in rng.choice(state.ids, PER_ROUND,
                                                             replace=False)])
        state = chained(state, upd, SPEC, hyper)
        assert model.validate(state, spec=SPEC, C=hyper.C, epsilon=hyper.epsilon) == [], rnd
        cache = state.cached_inverse
        pending = 0 if cache is None or cache.pending is None else cache.pending.rows.size
        assert pending <= linalg._pending_limit(cache.order if cache else 0), rnd
        if rnd % PROBE_EVERY == PROBE_EVERY - 1 and cache is not None:
            fresh = state.copy()
            model.refresh_cached_inverse(fresh, SPEC)
            rebuilt = inverse_residual(fresh, fresh.cached_inverse.inv)
            # the solves the engines run, and the array a rewrite would make
            for patched in (inverse_residual(state, cache.apply(np.eye(cache.order + 1))),
                            inverse_residual(state, cache.compact().inv)):
                assert patched <= 10.0 * rebuilt, (rnd, patched, rebuilt)

    # the last round again through the other engine, against a retrain
    followed = replay(before, upd, SPEC, hyper)
    oracle = train(state.samples, SPEC, hyper)
    queries = np.array([s.features for s in make(64, 7, 10_000)])
    f_online = kernels.decision_values(queries, state, SPEC)
    assert np.max(np.abs(f_online - kernels.decision_values(queries, followed, SPEC))) \
        <= bench.PARITY_TOL
    assert np.max(np.abs(f_online - kernels.decision_values(queries, oracle, SPEC))) \
        <= bench.PARITY_TOL
