"""The persistent column cache: hand-over between states, and what it evaluates.

An update hands its input's column cache to the state it returns; the input
is stale from then on and must behave exactly as a state that never held a
cache.  Results with the persistent cache are compared against the same
updates run with the cache dropped, which evaluates every column afresh.
"""
import numpy as np
import pytest

from ridgesvm import batch, data, kernels, model, online
from ridgesvm.kernels import KernelSpec
from ridgesvm.model import Hyperparams, Sample, UpdateBatch
from ridgesvm.online import update_multi
from ridgesvm.path import path_update

SPEC = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
TASKS = {
    "svm": (batch.train_svm_batch, Hyperparams(C=1.0),
            lambda count, seed, start: data.two_gaussians(count, seed=seed, center=1.0,
                                                          start_id=start)),
    "svr": (batch.train_svr_batch, Hyperparams(C=1.0, epsilon=0.1),
            lambda count, seed, start: data.noisy_sine(count, seed=seed, noise=0.25,
                                                       start_id=start)),
}
QUERIES = {"svm": np.random.default_rng(5).standard_normal((30, 2)) * 2.0,
           "svr": np.linspace(0.0, 2 * np.pi, 30)[:, None]}


class Stream:
    """A base model of 60 samples and seeded +6/-6 batches against any state."""

    def __init__(self, task, seed=0):
        self.task = task
        train, self.hyper, self.make = TASKS[task]
        self.base = train(self.make(60, [seed, 0], 0), SPEC, self.hyper)
        self.seed = seed

    def batch(self, rnd, state, size=6):
        add = self.make(size, [self.seed, 1, rnd], 1000 + 100 * rnd)
        rng = np.random.default_rng([self.seed, 2, rnd])
        remove = [int(i) for i in rng.choice(state.ids, size=size, replace=False)]
        return UpdateBatch(add=add, remove=remove)

    def update(self, state, rnd, engine=update_multi):
        return engine(state, self.batch(rnd, state), SPEC, self.hyper)


def dropped(state):
    """A copy holding no column cache, so its next update evaluates every column."""
    out = state.copy()
    out.column_cache = None
    return out


def assert_same_model(got, want, task):
    assert np.array_equal(got.ids, want.ids)
    assert np.array_equal(got.partition, want.partition)
    gap = np.max(np.abs(kernels.decision_values(QUERIES[task], got, SPEC)
                        - kernels.decision_values(QUERIES[task], want, SPEC)))
    assert gap <= 1e-12


def arrays(state):
    return [a.copy() for a in (state.X, state.ids, state.targets, state.partition,
                               state.mult, state.resid, state.cache_slots)] + [state.b]


def assert_unchanged(state, before):
    for a, b in zip(arrays(state), before):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("task", sorted(TASKS))
class TestHandOver:
    def test_stale_input_starts_a_new_cache_and_leaves_the_holder_alone(self, task):
        s = Stream(task)
        state = s.update(s.base, 0)  # holds a cache
        new = s.update(state, 1)
        assert new.column_cache is state.column_cache
        cache, lease, entries = new.column_cache, new.column_cache.lease, new.column_cache.entries

        for engine in (update_multi, path_update):
            stale = s.update(state, 2, engine)
            assert_same_model(stale, s.update(dropped(state), 2, engine), task)
            assert stale.column_cache is not cache
        assert (cache.lease, cache.entries) == (lease, entries)

        assert_same_model(s.update(new, 3), s.update(dropped(new), 3), task)

    def test_rounds_that_only_splice_rows_hand_over_too(self, task):
        s = Stream(task)
        state = s.update(s.base, 0)
        quiet = UpdateBatch(remove=[int(state.ids[state.o_rows[0]])])
        spliced = update_multi(state, quiet, SPEC, s.hyper)
        assert spliced.column_cache is state.column_cache
        assert model.validate(spliced, SPEC, s.hyper.C, s.hyper.epsilon) == []
        assert_same_model(s.update(state, 1), s.update(dropped(state), 1), task)
        assert_same_model(s.update(spliced, 1), s.update(dropped(spliced), 1), task)

    def test_two_branches_from_one_state_stay_consistent(self, task):
        s = Stream(task)
        state = s.update(s.base, 0)
        left, right = s.update(state, 1), s.update(state, 2)
        left_ref, right_ref = s.update(dropped(state), 1), s.update(dropped(state), 2)
        for rnd in range(3, 7):
            left, left_ref = s.update(left, rnd), s.update(dropped(left_ref), rnd)
            right, right_ref = s.update(right, rnd + 10), s.update(dropped(right_ref), rnd + 10)
            assert_same_model(left, left_ref, task)
            assert_same_model(right, right_ref, task)

    def test_a_failed_update_leaves_its_input_usable(self, task, monkeypatch):
        s = Stream(task)
        state = s.update(s.base, 0)
        before = arrays(state)
        walk = online._walk
        calls = []

        def fails_once(*args):
            calls.append(None)
            if len(calls) == 1:
                raise RuntimeError("solve failed")
            return walk(*args)

        monkeypatch.setattr(online, "_walk", fails_once)
        with pytest.raises(RuntimeError, match="solve failed"):
            s.update(state, 1)
        assert_unchanged(state, before)
        got = s.update(state, 1)
        assert len(calls) > 1
        assert_same_model(got, s.update(dropped(state), 1), task)
        assert model.validate(got, SPEC, s.hyper.C, s.hyper.epsilon) == []

    def test_shared_sample_arrays_cannot_be_written(self, task):
        s = Stream(task)
        state = s.update(s.base, 0)
        new = s.update(state, 1)
        for holder in (state, new, state.copy()):
            for name in ("X", "ids", "targets"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(holder, name)[0] = 0

    def test_stale_input_keeps_its_rows_while_the_lineage_splices_on(self, task):
        s = Stream(task)
        state = s.update(s.base, 0)
        before = arrays(state)
        want = kernels.decision_values(QUERIES[task], state, SPEC)
        kept = state
        for rnd in range(1, 31):
            kept = s.update(kept, rnd)
        assert not np.isin(state.ids, kept.ids).all()
        assert_unchanged(state, before)
        assert np.array_equal(kernels.decision_values(QUERIES[task], state, SPEC), want)
        assert_same_model(s.update(state, 99), s.update(dropped(state), 99), task)

    def test_long_chain_matches_the_chain_without_a_cache(self, task):
        s = Stream(task, seed=3)
        kept = fresh = s.base
        for rnd in range(30):
            kept, fresh = s.update(kept, rnd), s.update(dropped(fresh), rnd)
            assert_same_model(kept, fresh, task)
        assert model.validate(kept, SPEC, s.hyper.C, s.hyper.epsilon) == []


@pytest.mark.parametrize("task", sorted(TASKS))
def test_a_warm_solving_update_evaluates_less_than_the_support_columns(task):
    s = Stream(task)
    state = s.update(s.base, 0)
    cache = state.column_cache
    before = cache.entries
    new = s.update(state, 1)
    assert new.column_cache is cache
    assert 0 < cache.entries - before < new.n * new.s_rows.size


@pytest.mark.parametrize("task", sorted(TASKS))
def test_a_solving_update_syncs_its_cache_once(task, monkeypatch):
    """The repair works on the cache its update has just taken over and synced."""
    s = Stream(task)
    synced, sync = [], kernels.ColumnCache.sync
    monkeypatch.setattr(kernels.ColumnCache, "sync",
                        lambda cache, *args: synced.append(cache) or sync(cache, *args))
    state = s.base  # a cold start of the cache first, then warm rounds
    for rnd in range(3):
        leaving = [int(i) for i in state.ids[state.s_rows[:2]]]  # a solve is needed
        upd = UpdateBatch(add=s.make(6, [0, 1, rnd], 1000 + 100 * rnd), remove=leaving)
        synced.clear()
        state = update_multi(state, upd, SPEC, s.hyper)
        assert synced == [state.column_cache]


def test_one_moving_arrival_evaluates_one_new_column():
    s = Stream("svm")
    state = s.update(s.base, 0)
    cache = model.column_cache(state, SPEC)
    s_rows = state.s_rows
    cache.apply(s_rows, np.ones(s_rows.size))  # every S column is cached
    # a small margin violation (y f - 1 = -0.05) predicts a small S multiplier;
    # a copy of the O member with the widest margin predicts 0
    line = np.linspace(-2.0, 2.0, 401)[:, None] * np.ones(2)
    f = kernels.decision_values(line, state, SPEC)
    moving = Sample(5000, line[np.argmin(np.abs(f - 0.95))], 1.0)
    widest = state.o_rows[np.argmax(state.resid[state.o_rows])]
    still = Sample(5001, state.X[widest] + 1e-3, state.targets[widest])
    leavers = [int(i) for i in state.ids[state.o_rows[:2]]]  # multipliers 0; slots stay
    before = cache.entries
    new = update_multi(state, UpdateBatch(add=[moving, still], remove=leavers), SPEC, s.hyper)
    assert new.column_cache is cache
    assert new.mult[new.rows_of([5001])[0]] == 0.0
    assert new.partition[new.rows_of([5000])[0]] == model.REGION_S
    # the repair released nobody into S, so no other column was needed
    assert np.isin(new.ids[new.s_rows], np.append(state.ids[s_rows], 5000)).all()
    # both arrivals' entries of the kept S columns, and one column over every slot
    assert cache.entries - before == 2 * s_rows.size + new.n
