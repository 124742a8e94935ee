import time

import numpy as np
import pytest

from ridgesvm import batch, data, kernels, model
from ridgesvm.errors import (DimensionMismatch, InvalidParameter, InvalidSample, NoConvergence,
                             SingleClassInput)
from ridgesvm.kernels import KernelSpec
from ridgesvm.model import Hyperparams, Sample


def make_samples(X, y, start_id=0):
    return [
        Sample(start_id + i, np.atleast_1d(np.asarray(x, dtype=float)), float(t))
        for i, (x, t) in enumerate(zip(X, y))
    ]


def gaussian_blobs(n, seed, spread=1.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    xp = rng.normal(loc=(1.0, 1.0), scale=spread, size=(half, 2))
    xn = rng.normal(loc=(-1.0, -1.0), scale=spread, size=(n - half, 2))
    X = np.vstack([xp, xn])
    y = np.concatenate([np.ones(half), -np.ones(n - half)])
    order = rng.permutation(n)
    return make_samples(X[order], y[order])


def noisy_sine(n, seed, noise=0.25):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 2 * np.pi, n)
    y = np.sin(x) + noise * rng.standard_normal(n)
    return make_samples(x[:, None], y)


class TestTrainSvmBatch:
    def test_two_point_closed_form(self):
        # dual reduces to 2a - 2.5a^2 -> a = 0.4
        samples = make_samples([[1.0], [-1.0]], [1.0, -1.0])
        spec = KernelSpec(family="linear", ridge=0.5)
        state = batch.train_svm_batch(samples, spec, Hyperparams(C=1.0))
        assert np.allclose(state.alpha, [0.4, 0.4], atol=1e-9)
        assert state.b == pytest.approx(0.0, abs=1e-9)
        assert list(state.partition) == ["S", "S"]

    def test_two_point_box_clamped(self):
        # unconstrained optimum 0.4 exceeds C = 0.3
        samples = make_samples([[1.0], [-1.0]], [1.0, -1.0])
        spec = KernelSpec(family="linear", ridge=0.5)
        state = batch.train_svm_batch(samples, spec, Hyperparams(C=0.3))
        assert np.allclose(state.alpha, [0.3, 0.3], atol=1e-9)
        assert state.b == pytest.approx(0.0, abs=1e-9)
        assert list(state.partition) == ["B", "B"]

    def test_symmetric_pairs(self):
        samples = make_samples(
            [[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]],
            [1.0, 1.0, -1.0, -1.0],
        )
        spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
        state = batch.train_svm_batch(samples, spec, Hyperparams(C=1.0))
        assert state.b == pytest.approx(0.0, abs=1e-9)
        assert state.alpha[0] == pytest.approx(state.alpha[2], abs=1e-9)

    def test_single_class_rejected(self):
        samples = make_samples([[1.0], [2.0]], [1.0, 1.0])
        with pytest.raises(SingleClassInput):
            batch.train_svm_batch(samples, KernelSpec(family="linear"), Hyperparams(C=1.0))

    def test_validate_clean_on_random_instances(self):
        spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
        hyper = Hyperparams(C=1.0)
        for seed in (0, 1, 2):
            samples = gaussian_blobs(120, seed)
            state = batch.train_svm_batch(samples, spec, hyper)
            report = model.validate(state, spec=spec, C=hyper.C)
            assert report == []

    def test_dual_objective_beats_random_feasible(self):
        spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
        hyper = Hyperparams(C=1.0)
        samples = gaussian_blobs(40, 5)
        state = batch.train_svm_batch(samples, spec, hyper)
        gram = kernels.q_matrix_svr(state.X, spec)

        def dual(alpha):
            beta = state.y * alpha
            return alpha.sum() - 0.5 * beta @ gram @ beta

        best = dual(state.alpha)
        rng = np.random.default_rng(17)
        for _ in range(1000):
            cand = rng.uniform(0, hyper.C, len(samples))
            # project onto the equality constraint along the label direction
            cand -= state.y * (state.y @ cand) / len(samples)
            cand = np.clip(cand, 0, hyper.C)
            cand -= state.y * (state.y @ cand) / len(samples)
            cand = np.clip(cand, 0, hyper.C)
            if abs(state.y @ cand) > 1e-9:
                continue
            assert dual(cand) <= best + 1e-9

    def test_deterministic(self):
        spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
        hyper = Hyperparams(C=1.0)
        samples = gaussian_blobs(60, 9)
        s1 = batch.train_svm_batch(samples, spec, hyper)
        s2 = batch.train_svm_batch(samples, spec, hyper)
        assert np.array_equal(s1.alpha, s2.alpha)
        assert s1.b == s2.b


def reference_svm_dual(samples, spec, C, tol=1e-6, max_passes=10000):
    """Label-coordinate SVM pair ascent and bias rule, kept as the reference.

    The solver works on alpha in [0, C] with the gradient of the signed
    dual; ``train_svm_batch`` solves the same problem over beta = y alpha.
    It stops at the first-order gap and picks ``j`` by the second-order
    gain, scanning the low set row by row.
    Returns (alpha, b, margins).
    """
    box_eps = 1e-12
    x = np.array([s.features for s in samples], dtype=float)
    y = np.array([s.target for s in samples], dtype=float)
    gram = kernels.q_matrix_svr(x, spec)
    n = y.shape[0]
    alpha = np.zeros(n)
    grad = np.full(n, -1.0)
    pos = y > 0
    for _ in range(max_passes * n):
        vals = -y * grad
        up = (pos & (alpha < C - box_eps)) | (~pos & (alpha > box_eps))
        low = (pos & (alpha > box_eps)) | (~pos & (alpha < C - box_eps))
        if not up.any() or not low.any():
            break
        i = int(np.argmax(np.where(up, vals, -np.inf)))
        gap = vals[i] - np.min(vals[low])
        if gap <= tol:
            break
        # second-order choice of j: the largest exact pair-step gain
        best, j, step_gain, quad = -np.inf, -1, 0.0, 0.0
        for t in np.flatnonzero(low):
            gain = vals[i] - vals[t]
            if gain <= 0:
                continue
            curv = gram[i, i] + gram[t, t] - 2.0 * gram[i, t]
            score = gain * gain / max(curv, box_eps)
            if score > best:
                best, j, step_gain, quad = score, t, gain, curv
        delta = step_gain / quad if quad > box_eps else np.inf
        delta = min(
            delta,
            (C - alpha[i]) if pos[i] else alpha[i],
            alpha[j] if pos[j] else (C - alpha[j]),
        )
        alpha[i] += y[i] * delta
        alpha[j] -= y[j] * delta
        grad += y * (delta * (gram[:, i] - gram[:, j]))

    vals = -y * grad
    interior = (alpha > model.BOUND_TOL) & (alpha < C - model.BOUND_TOL)
    if interior.any():
        b = float(np.mean(vals[interior]))
    else:
        up = (pos & (alpha < C - box_eps)) | (~pos & (alpha > box_eps))
        low = (pos & (alpha > box_eps)) | (~pos & (alpha < C - box_eps))
        hi = np.max(vals[up]) if up.any() else 0.0
        lo = np.min(vals[low]) if low.any() else 0.0
        b = float(0.5 * (hi + lo))
    return alpha, b, grad + y * b


class TestSignedSolverMatchesLabelSolver:
    @pytest.mark.parametrize("samples, spec, C", [
        (gaussian_blobs(60, 1), KernelSpec(family="rbf", sigma=1.0, ridge=0.5), 1.0),
        (gaussian_blobs(50, 2), KernelSpec(family="linear", ridge=0.05), 10.0),
        (gaussian_blobs(40, 3), KernelSpec(family="polynomial", degree=2, ridge=0.5), 0.1),
        # every multiplier at C: the bias is the middle of the feasible range
        (gaussian_blobs(40, 0, spread=2.0), KernelSpec(family="rbf", sigma=1.0, ridge=0.5),
         0.02),
    ])
    def test_bit_identical(self, samples, spec, C):
        alpha, b, margins = reference_svm_dual(samples, spec, C)
        state = batch.train_svm_batch(samples, spec, Hyperparams(C=C))
        assert np.array_equal(state.alpha, alpha)
        assert state.b == b
        assert np.array_equal(state.margins, margins)
        assert list(state.partition) == list(model.classify_regions(alpha, margins, C))

    def test_all_bounded_instance_takes_the_midpoint_rule(self):
        state = batch.train_svm_batch(
            gaussian_blobs(40, 0, spread=2.0),
            KernelSpec(family="rbf", sigma=1.0, ridge=0.5), Hyperparams(C=0.02),
        )
        assert set(state.partition) == {"B"}


class TestTrainSvrBatch:
    def test_constant_targets_inside_tube(self):
        samples = make_samples([[0.0], [1.0], [2.0]], [3.0, 3.0, 3.0])
        spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
        state = batch.train_svr_batch(samples, spec, Hyperparams(C=1.0, epsilon=0.1))
        assert np.allclose(state.theta, 0.0)
        assert state.b == pytest.approx(3.0)
        assert list(state.partition) == ["O", "O", "O"]

    def test_two_point_hand_reduction(self):
        # theta = (t, -t) reduces the dual to 2.5 t^2 - 2t -> t = 0.4
        samples = make_samples([[1.0], [-1.0]], [1.0, -1.0])
        spec = KernelSpec(family="linear", ridge=0.5)
        state = batch.train_svr_batch(samples, spec, Hyperparams(C=1.0, epsilon=0.0))
        assert np.allclose(state.theta, [0.4, -0.4], atol=1e-9)
        assert state.b == pytest.approx(0.0, abs=1e-9)
        # tube residuals vanish on the active set when epsilon = 0
        assert np.allclose(state.outputs, 0.0, atol=1e-8)

    def test_wide_tube_swallows_data(self):
        samples = make_samples([[0.0], [1.0], [2.0]], [0.0, 0.1, -0.1])
        spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
        state = batch.train_svr_batch(samples, spec, Hyperparams(C=1.0, epsilon=5.0))
        assert np.allclose(state.theta, 0.0)

    def test_validate_clean_on_sine(self):
        spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
        hyper = Hyperparams(C=1.0, epsilon=0.2)
        for seed in (0, 3):
            samples = noisy_sine(100, seed)
            state = batch.train_svr_batch(samples, spec, hyper)
            report = model.validate(state, spec=spec, C=hyper.C, epsilon=hyper.epsilon)
            assert report == []

    def test_second_order_selection_converges_within_three_passes(self):
        # largest-violator pairs need 5.8 passes here; second-order pairs need 2.4
        spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
        hyper = Hyperparams(C=1.0, epsilon=0.1)
        state = batch.train_svr_batch(noisy_sine(200, 0), spec, hyper,
                                      batch.SolverConfig(max_passes=3))
        assert model.validate(state, spec=spec, C=hyper.C, epsilon=hyper.epsilon) == []

    def test_balance(self):
        samples = noisy_sine(50, 7)
        spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
        state = batch.train_svr_batch(samples, spec, Hyperparams(C=1.0, epsilon=0.1))
        assert abs(state.theta.sum()) <= 1e-9

    def test_deterministic(self):
        samples = noisy_sine(60, 11)
        spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
        hyper = Hyperparams(C=1.0, epsilon=0.2)
        s1 = batch.train_svr_batch(samples, spec, hyper)
        s2 = batch.train_svr_batch(samples, spec, hyper)
        assert np.array_equal(s1.theta, s2.theta)
        assert s1.b == s2.b


class TestNonFiniteInput:
    def test_an_overflowing_gram_stops_at_the_first_non_finite_gap(self):
        """A valid spec whose Gram overflows to inf: the gap turns NaN at once, and the
        solver stops there instead of running its whole step budget."""
        spec = KernelSpec(family="polynomial", degree=400, offset=10.0, ridge=0.5)
        start = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NoConvergence):
            batch.train_svm_batch(data.two_gaussians(40, seed=1), spec, Hyperparams(C=1.0))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("params", [{"C": float("nan")}, {"C": 0.0},
                                        {"C": 1.0, "epsilon": float("nan")},
                                        {"C": 1.0, "epsilon": float("inf")},
                                        {"C": 1.0, "epsilon": -0.1}])
    def test_hyperparameters_outside_the_domain(self, params):
        with pytest.raises(InvalidParameter):
            Hyperparams(**params)

    def test_nan_tolerance_is_rejected(self):
        with pytest.raises(InvalidParameter):
            batch.SolverConfig(kkt_tolerance=float("nan"))

    @pytest.mark.parametrize("passes", [1.5, float("nan"), 0, -1])
    def test_max_passes_outside_the_domain_is_rejected(self, passes):
        with pytest.raises(InvalidParameter):
            batch.SolverConfig(max_passes=passes)


class TestInadmissibleSamples:
    """A state is built only from admissible samples, so training stops before any work."""

    SPEC = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)

    @staticmethod
    def spoiled(task, how):
        samples = data.two_gaussians(20, seed=1) if task == "svm" else data.noisy_sine(20, seed=2)
        sid, x, t = samples[3].id, np.array(samples[3].features, dtype=float), samples[3].target
        if how == "repeated-id":
            sid = samples[0].id
        elif how == "fractional-id":
            sid = 3.5
        elif how == "nan-feature":
            x[0] = np.nan
        elif how == "nan-target":
            t = np.nan
        elif how == "label":
            t = 0.5
        samples[3] = Sample(sid, x, t)
        return samples

    @pytest.mark.parametrize("task", ["svm", "svr"])
    @pytest.mark.parametrize("how", ["repeated-id", "fractional-id", "nan-feature", "nan-target"])
    def test_training_rejects(self, task, how):
        train = batch.train_svm_batch if task == "svm" else batch.train_svr_batch
        hyper = Hyperparams(C=1.0, epsilon=0.0 if task == "svm" else 0.2)
        with pytest.raises(InvalidSample):
            train(self.spoiled(task, how), self.SPEC, hyper)

    def test_svm_label_other_than_plus_or_minus_one(self):
        with pytest.raises(InvalidSample, match="label 0.5 is not -1 or"):
            batch.train_svm_batch(self.spoiled("svm", "label"), self.SPEC, Hyperparams(C=1.0))
        # any finite target is a regression target
        batch.train_svr_batch(self.spoiled("svr", "label"), self.SPEC, Hyperparams(C=1.0))

    def test_feature_rows_of_unequal_widths(self):
        with pytest.raises(DimensionMismatch):
            model.SvrState([Sample(0, np.zeros(2), 0.0), Sample(1, np.zeros(3), 0.0)])

    @pytest.mark.parametrize("mult, b", [([0.0, np.inf], 0.0), ([0.0, 0.0], np.nan)])
    def test_non_finite_multiplier_or_bias(self, mult, b):
        samples = [Sample(0, np.zeros(2), 0.0), Sample(1, np.ones(2), 1.0)]
        with pytest.raises(InvalidSample, match="not finite"):
            model.SvrState(samples, np.array(mult), b)


def reference_pair_values(beta, resid, epsilon):
    """Gains of raising and of lowering each beta, tube term included."""
    if not epsilon:
        return -resid, resid
    up_sub = np.where(beta >= 0, epsilon, -epsilon)
    dn_sub = np.where(beta <= 0, epsilon, -epsilon)
    return -(resid + up_sub), resid - dn_sub


def reference_pair_ascent(gram, targets, lo, hi, epsilon, tol, max_iter):
    """Signed pair ascent that rebuilds its masks and tube terms every step,
    kept as the reference for ``batch._pair_ascent``.

    Returns (beta, resid, gap, clips): ``clips`` counts the steps whose length
    the box cut short and those that stopped at the kink of ``|beta|``.
    """
    box_eps = 1e-12
    beta = np.zeros(targets.shape[0])
    resid = -targets.astype(float)
    gap = np.inf
    up_limit = hi - box_eps
    down_limit = lo + box_eps
    diag = gram.diagonal().copy()
    clips = {"box": 0, "kink": 0}
    for _ in range(max_iter):
        vals_up, vals_dn = reference_pair_values(beta, resid, epsilon)
        can_up = beta < up_limit
        can_dn = beta > down_limit
        if not can_up.any() or not can_dn.any():
            gap = 0.0
            break
        i = int(np.argmax(np.where(can_up, vals_up, -np.inf)))
        dn = np.where(can_dn, vals_dn, -np.inf)
        gap = vals_up[i] + dn.max()
        if gap <= tol:
            break
        if not np.isfinite(gap):
            raise NoConvergence(f"pair solver met the optimality gap {gap}", worst_gap=gap)
        cand = np.flatnonzero(dn > -vals_up[i])
        gain = vals_up[i] + dn.take(cand)
        curv = diag[i] + diag.take(cand) - 2.0 * gram[i].take(cand)
        k = int(np.argmax(gain * gain / np.maximum(curv, box_eps)))
        j, quad = int(cand[k]), curv[k]
        step = gain[k] / quad if quad > box_eps else np.inf
        delta = min(step, hi[i] - beta[i], beta[j] - lo[j])
        clips["box"] += delta < step
        step = delta
        if beta[i] < 0:
            delta = min(delta, -beta[i])
        if beta[j] > 0:
            delta = min(delta, beta[j])
        clips["kink"] += delta < step
        beta[i] += delta
        beta[j] -= delta
        resid += delta * (gram[i] - gram[j])
    return beta, resid, gap, clips


class TestPairAscentMatchesReference:
    """The solver keeps its selection bookkeeping between steps; the reference
    rebuilds it from beta every step.  Neither benchmark stream's solve stops
    at the kink of ``|beta|``, so these instances are chosen to."""

    @pytest.mark.parametrize("seed, spec, C, epsilon, max_iter, clipped", [
        (1, KernelSpec(family="rbf", sigma=0.5, ridge=0.05), 1.0, 0.0, None, "kink"),
        (5, KernelSpec(family="polynomial", degree=2, ridge=0.5), 1.0, 0.05, None, "kink"),
        (2, KernelSpec(family="rbf", sigma=1.0, ridge=0.5), 0.05, 0.1, None, "box"),
        # cut off by the step budget after two of its nine kink stops
        (5, KernelSpec(family="polynomial", degree=2, ridge=0.5), 1.0, 0.05, 300, "kink"),
    ])
    def test_svr_iterates_are_bit_identical(self, seed, spec, C, epsilon, max_iter, clipped):
        samples = noisy_sine(60, seed, noise=0.3)
        x = np.array([s.features for s in samples])
        t = np.array([s.target for s in samples])
        gram = kernels.q_matrix_svr(x, spec)
        lo, hi = np.full(t.shape, -C), np.full(t.shape, C)
        budget = max_iter or 10000 * t.shape[0]
        beta, resid, gap, clips = reference_pair_ascent(gram, t, lo, hi, epsilon, 1e-6, budget)
        assert clips[clipped] > 0
        assert (gap <= 1e-6) == (max_iter is None)
        got_beta, got_resid, got_gap = batch._pair_ascent(gram, t, lo, hi, epsilon, 1e-6, budget)
        assert np.array_equal(got_beta, beta)
        assert np.array_equal(got_resid, resid)
        assert got_gap == gap
