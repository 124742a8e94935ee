"""Both update arms against a batch retrain on two small differential corpora.

Corpus A draws Gaussian SVM features and uniform SVR features; corpus B
uses ``data.two_gaussians`` and ``data.noisy_sine`` rescaled to [-1, 1].
Each trial trains 50 samples, then runs 8 rounds of +8/-6 through the
one-shot engine and, separately, through the path follower.  After every
round each arm's state must validate, predict within ``bench.PARITY_TOL``
of a batch retrain on the same samples, and have reached the batch solver
not once: an empty unbounded set is left by the exact empty-S step, never
by a sub-solve or a retrain.  Small C puts many rounds through that step.
Degenerate batches (every row removed, all of S removed, duplicate
features, one class wiped out, the end of a free bias's interval removed)
get their defined outcomes on both arms.
"""
import itertools

import numpy as np
import pytest

from ridgesvm import batch, bench, data, kernels, model
from ridgesvm.errors import SingleClassInput
from ridgesvm.kernels import KernelSpec
from ridgesvm.model import Hyperparams, Sample, UpdateBatch
from ridgesvm.online import update_multi
from ridgesvm.path import path_update

ARMS = {"online": update_multi, "path": path_update}
TRAIN = {"svm": batch.train_svm_batch, "svr": batch.train_svr_batch}
KERNELS = {"rbf": dict(family="rbf", sigma=1.0), "linear": dict(family="linear"),
           "cubic": dict(family="polynomial", degree=3, offset=1.0)}
START, ROUNDS, ADD, REMOVE = 50, 8, 8, 6


def draw(task, n, seed, source="A"):
    """Corpus A: N(0, I) SVM features labelled by sign(x0 + noise), SVR sin(3 x0) + noise
    on [-1, 1]^2.  Corpus B: blobs centred at +-(1, 1), and the noisy sine on [-1, 1]."""
    if source == "B" and task == "svm":
        return data.two_gaussians(n, seed=seed, center=1.0)
    if source == "B":
        return [Sample(s.id, s.features / np.pi - 1.0, s.target)
                for s in data.noisy_sine(n, seed=seed)]
    rng = np.random.default_rng(seed)
    if task == "svm":
        x = rng.normal(size=(n, 2))
        t = np.where(x[:, 0] + 0.5 * rng.normal(size=n) >= 0, 1.0, -1.0)
    else:
        x = rng.uniform(-1.0, 1.0, size=(n, 2))
        t = np.sin(3.0 * x[:, 0]) + 0.1 * rng.normal(size=n)
    return [Sample(i, x[i], float(t[i])) for i in range(n)]


def corpus(task, seed=0, source="A"):
    """The starting samples, the round batches and every drawn feature vector."""
    pool = draw(task, START + ROUNDS * ADD, seed, source)
    ids = [s.id for s in pool[:START]]
    rng = np.random.default_rng([seed, 1])
    batches = []
    for rnd in range(ROUNDS):
        add = pool[START + rnd * ADD:START + (rnd + 1) * ADD]
        remove = [int(i) for i in rng.choice(ids, size=REMOVE, replace=False)]
        batches.append(UpdateBatch(add=add, remove=remove))
        ids = [i for i in ids if i not in remove] + [s.id for s in add]
    return pool[:START], batches, np.array([s.features for s in pool])


@pytest.fixture
def batch_calls(monkeypatch):
    """Names of the batch trainers called since the list was last cleared."""
    calls = []
    for name in ("train_svm_batch", "train_svr_batch"):
        train = getattr(batch, name)
        monkeypatch.setattr(batch, name, lambda *a, _f=train, _n=name, **kw:
                            calls.append(_n) or _f(*a, **kw))
    return calls


# the cubic kernel runs at the small ridge only: its worst-conditioned case, at a bounded cost
TRIALS = [(task, source, kernel, ridge, C)
          for task, source, (kernel, ridge), C in itertools.product(
              ("svm", "svr"), ("A", "B"),
              [("rbf", 0.05), ("rbf", 0.5), ("linear", 0.05), ("linear", 0.5), ("cubic", 0.05)],
              (0.1, 1.0))]


@pytest.mark.parametrize("arm", sorted(ARMS))
@pytest.mark.parametrize("task, source, kernel, ridge, C", TRIALS,
                         ids=[f"{t}{'-B' if src == 'B' else ''}-{k}-rho{r}-C{c}"
                              for t, src, k, r, c in TRIALS])
def test_every_round_matches_the_oracle_without_the_batch_solver(task, source, kernel, ridge, C,
                                                                 arm, batch_calls):
    spec = KernelSpec(ridge=ridge, **KERNELS[kernel])
    hyper = Hyperparams(C=C, epsilon=0.1 if task == "svr" else 0.0)
    start, batches, points = corpus(task, source=source)
    state = TRAIN[task](start, spec, hyper)
    for rnd, upd in enumerate(batches):
        batch_calls.clear()
        state = ARMS[arm](state, upd, spec, hyper)
        assert batch_calls == [], rnd
        assert model.validate(state, spec=spec, C=C, epsilon=hyper.epsilon) == [], rnd
        oracle = TRAIN[task](state.samples, spec, hyper)
        gap = np.max(np.abs(kernels.decision_values(points, state, spec)
                            - kernels.decision_values(points, oracle, spec)))
        assert gap <= bench.PARITY_TOL, (rnd, gap)


@pytest.mark.parametrize("arm", ["online", "path"])
def test_cubic_svm_round_that_cycles_the_repair(arm):
    """Round 7 of the cubic-kernel SVM trial at seed 2: the repair releases one
    violator alone, and a solve move at roundoff (2e-14 where the exact one is
    0) would snap it straight back to C, where it breaks its region again, on
    every pass.  The repair takes such a move as none and settles the round."""
    spec = KernelSpec(ridge=0.05, **KERNELS["cubic"])
    hyper = Hyperparams(C=1.0)
    start, batches, points = corpus("svm", seed=2)
    state = TRAIN["svm"](start, spec, hyper)
    for upd in batches:
        state = ARMS[arm](state, upd, spec, hyper)
    assert model.validate(state, spec=spec, C=hyper.C) == []
    oracle = TRAIN["svm"](state.samples, spec, hyper)
    assert np.max(np.abs(kernels.decision_values(points, state, spec)
                         - kernels.decision_values(points, oracle, spec))) <= bench.PARITY_TOL


@pytest.mark.parametrize("arm", sorted(ARMS))
class TestDegenerateBatches:
    spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)

    @pytest.mark.parametrize("task", ["svm", "svr"])
    def test_removing_every_row_leaves_an_empty_state_then_cold_starts(self, task, arm,
                                                                       batch_calls):
        hyper = Hyperparams(C=1.0, epsilon=0.1 if task == "svr" else 0.0)
        start, batches, _ = corpus(task)
        state = TRAIN[task](start, self.spec, hyper)
        empty = ARMS[arm](state, UpdateBatch(remove=[int(i) for i in state.ids]),
                          self.spec, hyper)
        assert type(empty) is type(state) and empty.n == 0
        assert model.validate(empty, spec=self.spec, C=hyper.C, epsilon=hyper.epsilon) == []

        batch_calls.clear()
        arrivals = batches[0].add
        cold = ARMS[arm](empty, UpdateBatch(add=arrivals), self.spec, hyper)
        assert batch_calls == [TRAIN[task].__name__]
        oracle = TRAIN[task](arrivals, self.spec, hyper)
        assert np.array_equal(cold.ids, oracle.ids)
        assert np.array_equal(cold.mult, oracle.mult) and cold.b == oracle.b
        assert model.validate(cold, spec=self.spec, C=hyper.C, epsilon=hyper.epsilon) == []

    @pytest.mark.parametrize("task", ["svm", "svr"])
    def test_removing_all_of_s_with_duplicate_arrivals(self, task, arm, batch_calls):
        """Every unbounded member leaves, and the arrivals repeat stored features."""
        hyper = Hyperparams(C=1.0, epsilon=0.1 if task == "svr" else 0.0)
        start, _, points = corpus(task)
        state = TRAIN[task](start, self.spec, hyper)
        kept = state.samples_at(np.flatnonzero(state.partition != "S")[:6])
        twins = [Sample(900 + k, s.features, s.target) for k, s in enumerate(kept)]
        upd = UpdateBatch(add=twins, remove=[int(i) for i in state.ids[state.s_rows]])
        assert upd.remove and len(twins) == 6
        out = ARMS[arm](state, upd, self.spec, hyper)
        assert batch_calls == []
        assert model.validate(out, spec=self.spec, C=hyper.C, epsilon=hyper.epsilon) == []
        oracle = TRAIN[task](out.samples, self.spec, hyper)
        assert np.max(np.abs(kernels.decision_values(points, out, self.spec)
                             - kernels.decision_values(points, oracle, self.spec))) <= 1e-5

    def test_one_class_wipeout_raises_and_leaves_the_input_usable(self, arm):
        hyper = Hyperparams(C=1.0)
        start, batches, points = corpus("svm")
        state = TRAIN["svm"](start, self.spec, hyper)
        before = (state.mult.copy(), state.b, state.partition.copy(),
                  kernels.decision_values(points, state, self.spec))
        negatives = [int(i) for i in state.ids[state.y < 0]]
        positives = [s for s in batches[0].add if s.target > 0]
        for wipeout in (UpdateBatch(remove=negatives),
                        UpdateBatch(add=positives, remove=negatives)):
            with pytest.raises(SingleClassInput):
                ARMS[arm](state, wipeout, self.spec, hyper)
        assert np.array_equal(state.mult, before[0]) and state.b == before[1]
        assert np.array_equal(state.partition, before[2])
        assert np.array_equal(kernels.decision_values(points, state, self.spec), before[3])

        out = ARMS[arm](state, batches[0], self.spec, hyper)
        assert model.validate(out, spec=self.spec, C=hyper.C) == []
        oracle = TRAIN["svm"](out.samples, self.spec, hyper)
        assert np.max(np.abs(kernels.decision_values(points, out, self.spec)
                             - kernels.decision_values(points, oracle, self.spec))) <= 1e-5

    @pytest.mark.parametrize("task", ["svm", "svr"])
    def test_removing_the_zero_row_at_an_end_of_a_free_bias(self, task, arm, batch_calls):
        """Without an interior multiplier the bias sits at the middle of its interval.
        Removing the zero row that defines one end moves no multiplier, but it
        widens the interval, and the bias follows to the new middle."""
        spec, samples, hyper = {
            "svm": (KernelSpec(family="linear", ridge=0.05),
                    data.two_gaussians(40, seed=3, spread=1.0), Hyperparams(C=0.2)),
            "svr": (self.spec, data.noisy_sine(40, seed=1), Hyperparams(C=0.02, epsilon=0.2)),
        }[task]
        state = TRAIN[task](samples, spec, hyper)
        size = np.abs(state.mult)
        assert not ((size > model.BOUND_TOL) & (size < hyper.C - model.BOUND_TOL)).any()
        lower, upper = model.bias_bounds(state, hyper)
        row = next(r for r in (int(np.argmax(lower)), int(np.argmin(upper)))
                   if state.mult[r] == 0.0)
        out = ARMS[arm](state, UpdateBatch(remove=[int(state.ids[row])]), spec, hyper)
        assert batch_calls == []
        assert model.validate(out, spec=spec, C=hyper.C, epsilon=hyper.epsilon) == []
        oracle = TRAIN[task](out.samples, spec, hyper)
        assert abs(oracle.b - state.b) > bench.PARITY_TOL
        points = np.array([s.features for s in samples])
        assert np.max(np.abs(kernels.decision_values(points, out, spec)
                             - kernels.decision_values(points, oracle, spec))) <= 1e-9
