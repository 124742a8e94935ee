import functools

import numpy as np
import pytest

from ridgesvm import batch, data, kernels, linalg, model, online
from ridgesvm.errors import (DimensionMismatch, InconsistentState, InvalidBatch, InvalidParameter,
                             UnknownId)
from ridgesvm.kernels import KernelSpec
from ridgesvm.model import Hyperparams, Sample, UpdateBatch
from ridgesvm.online_svm import update_multi_svm
from ridgesvm.online_svr import update_multi_svr
from ridgesvm.path import path_update_svm, path_update_svr


def two_point_samples():
    return [
        Sample(id=0, features=np.array([1.0]), target=1.0),
        Sample(id=1, features=np.array([-1.0]), target=-1.0),
    ]


def two_point_state():
    """Hand-solved model: alpha = (0.4, 0.4), b = 0 for linear, ridge 0.5."""
    spec = KernelSpec(family="linear", ridge=0.5)
    state = model.SvmState(two_point_samples(), alpha=[0.4, 0.4], b=0.0)
    state.margins = model.compute_residuals(state, spec)
    state.partition = model.classify_regions(state.alpha, state.margins, C=1.0)
    return state, spec


class TestDecisionValues:
    def test_all_zero_multipliers(self):
        spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
        state = model.SvmState(two_point_samples(), alpha=[0.0, 0.0], b=0.7)
        assert kernels.decision_value([0.3], state, spec) == pytest.approx(0.7)

    def test_two_point_test_form(self):
        state, spec = two_point_state()
        # hand evaluation: 0.4*1*1 + 0.4*(-1)*(-1) = 0.8
        assert kernels.decision_value([1.0], state, spec) == pytest.approx(0.8)

    def test_training_index_gains_ridge_self_term(self):
        state, spec = two_point_state()
        f_train = kernels.training_decision_values(state, spec)
        assert f_train[0] == pytest.approx(1.0)  # 0.8 + 0.5*1*0.4
        assert state.y[0] * f_train[0] - 1.0 == pytest.approx(0.0)

    def test_train_test_gap_equals_ridge_self_term(self):
        state, spec = two_point_state()
        f_train = kernels.training_decision_values(state, spec)
        f_test = kernels.decision_values(state.X, state, spec)
        gap = f_train - f_test
        assert np.allclose(gap, spec.ridge * state.y * state.alpha, atol=1e-12)


class TestMargins:
    def test_empty_model_margins(self):
        spec = KernelSpec(family="linear", ridge=0.5)
        state = model.SvmState(two_point_samples())
        assert np.allclose(model.compute_residuals(state, spec), [-1.0, -1.0])

    def test_two_point_equilibrium(self):
        state, spec = two_point_state()
        assert np.allclose(state.margins, 0.0, atol=1e-12)

    def test_bias_shift_linearity(self):
        state, spec = two_point_state()
        shifted = state.copy()
        shifted.b += 0.25
        new = model.compute_residuals(shifted, spec)
        assert np.allclose(new - state.margins, state.y * 0.25, atol=1e-12)

    def test_margin_superposition(self):
        # margins(a1 + a2 jointly) = margins(a1) + margins(a2) + 1
        rng = np.random.default_rng(8)
        samples = [
            Sample(i, rng.standard_normal(2), 1.0 if i % 2 else -1.0)
            for i in range(6)
        ]
        spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
        a1, a2 = rng.uniform(0, 1, 6), rng.uniform(0, 1, 6)
        b1, b2 = 0.3, -0.2
        s1 = model.SvmState(samples, alpha=a1, b=b1)
        s2 = model.SvmState(samples, alpha=a2, b=b2)
        joint = model.SvmState(samples, alpha=a1 + a2, b=b1 + b2)
        lhs = model.compute_residuals(joint, spec)
        rhs = (
            model.compute_residuals(s1, spec)
            + model.compute_residuals(s2, spec)
            + 1.0
        )
        assert np.allclose(lhs, rhs, atol=1e-12)


def classify_regions_svm_reference(alpha, margins, C):
    """The SVM-only classifier that :func:`model.classify_regions` replaced."""
    alpha = np.asarray(alpha, dtype=float)
    margins = np.asarray(margins, dtype=float)
    tags = np.full(alpha.shape[0], "O", dtype="<U1")
    at_zero = alpha <= model.BOUND_TOL
    at_c = alpha >= C - model.BOUND_TOL
    interior = ~at_zero & ~at_c
    bad = interior & (np.abs(margins) > model.HARD_TOL)
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise InconsistentState(
            f"interior multiplier at row {row} has margin {margins[row]:.3e}"
        )
    tags[interior] = "S"
    on_margin = np.abs(margins) <= model.REGION_TOL
    tags[at_zero & on_margin] = "S"
    tags[at_c & on_margin] = "S"
    tags[at_zero & ~on_margin] = "O"
    tags[at_c & ~on_margin & ~interior] = "B"
    return tags


def _tags_or_raised(classify, *args, **kwargs):
    try:
        return classify(*args, **kwargs).tolist()
    except InconsistentState:
        return "raised"


class TestClassifyRegionsMatchesSvmReference:
    """At epsilon = 0 the merged classifier is the SVM one for in-box alpha."""

    @pytest.mark.parametrize("seed", range(12))
    def test_same_tags_and_same_raises(self, seed):
        rng = np.random.default_rng(seed)
        C = [0.05, 1.0, 10.0][seed % 3]
        tol, region, hard = model.BOUND_TOL, model.REGION_TOL, model.HARD_TOL
        n = 60
        # exact ties at 0, at C and on the margin, next to draws off them
        alpha = rng.choice([0.0, C, tol, C - tol, 0.5 * tol, C - 0.5 * tol, 2 * tol,
                            C - 2 * tol, 0.5 * C], size=n)
        interior = rng.uniform(0.0, C, n)
        alpha = np.where(rng.random(n) < 0.3, interior, alpha)
        ties = rng.choice([0.0, region, -region, 2 * region, -2 * region, hard, -hard,
                           0.5, -0.5], size=n)
        margins = np.where(rng.random(n) < 0.3, rng.uniform(-1.0, 1.0, n), ties)
        inside = (alpha > tol) & (alpha < C - tol)
        calm = np.where(inside, rng.choice([0.0, region, -hard, hard, 1e-4], size=n),
                        margins)
        # both outcomes of the strict check are exercised
        assert _tags_or_raised(classify_regions_svm_reference, alpha, calm, C) != "raised"
        assert _tags_or_raised(classify_regions_svm_reference, alpha, margins, C) == "raised"
        for m in (margins, calm):
            expected = _tags_or_raised(classify_regions_svm_reference, alpha, m, C)
            got = _tags_or_raised(model.classify_regions, alpha, m, C, epsilon=0.0)
            assert got == expected


class TestClassifyRegions:
    def test_zero_alpha_positive_margin(self):
        tags = model.classify_regions([0.0], [0.5], C=1.0)
        assert tags[0] == "O"

    def test_bound_alpha_negative_margin(self):
        tags = model.classify_regions([1.0], [-0.2], C=1.0)
        assert tags[0] == "B"

    def test_interior_alpha_zero_margin(self):
        tags = model.classify_regions([0.5], [0.0], C=1.0)
        assert tags[0] == "S"

    def test_boundary_tie_resolves_to_s(self):
        tags = model.classify_regions([0.0, 1.0], [0.0, 0.0], C=1.0)
        assert list(tags) == ["S", "S"]

    def test_interior_with_large_margin_raises(self):
        with pytest.raises(InconsistentState):
            model.classify_regions([0.5], [0.01], C=1.0)

    def test_svr_inside_tube(self):
        tags = model.classify_regions([0.0], [0.1], C=1.0, epsilon=0.2)
        assert tags[0] == "O"

    def test_svr_saturated_above_tube(self):
        tags = model.classify_regions([-1.0], [0.5], C=1.0, epsilon=0.2)
        assert tags[0] == "B"

    def test_svr_on_lower_edge(self):
        tags = model.classify_regions([0.3], [-0.2], C=1.0, epsilon=0.2)
        assert tags[0] == "S"

    def test_partition_is_exact(self):
        rng = np.random.default_rng(3)
        alpha = np.concatenate([np.zeros(5), np.full(5, 1.0), rng.uniform(0.1, 0.9, 5)])
        margins = np.concatenate([rng.uniform(0.1, 1, 5), -rng.uniform(0.1, 1, 5), np.zeros(5)])
        tags = model.classify_regions(alpha, margins, C=1.0)
        assert set(tags) <= {"S", "B", "O"}
        assert len(tags) == 15


class TestValidate:
    def test_fresh_batch_state_is_clean(self):
        spec = KernelSpec(family="linear", ridge=0.5)
        hyper = Hyperparams(C=1.0)
        state = batch.train_svm_batch(two_point_samples(), spec, hyper)
        assert validate_empty(state, spec, hyper)

    def test_balance_violation_reported(self):
        state, spec = two_point_state()
        state.alpha = np.array([0.5, 0.4])  # sum y alpha = 0.1
        report = model.validate(state, C=1.0)
        kinds = {v.kind for v in report}
        assert "balance" in kinds
        balance = [v for v in report if v.kind == "balance"][0]
        assert balance.magnitude == pytest.approx(0.1)
        assert "orthogonal-hyperplane" in balance.detail

    def test_box_violation_reported(self):
        state, spec = two_point_state()
        state.alpha = np.array([1.5, 1.5])
        report = model.validate(state, C=1.0)
        assert any(v.kind == "box" and v.magnitude == pytest.approx(0.5) for v in report)

    def test_residual_cache_drift_reported(self):
        state, spec = two_point_state()
        assert model.validate(state, spec=spec) == []
        state.margins[1] += 1e-3
        report = model.validate(state, spec=spec)
        assert [v.kind for v in report] == ["residual-cache"]
        assert report[0].magnitude == pytest.approx(1e-3, abs=1e-12)


class TestValidateNonFinite:
    # NaN fails every comparison, so no region or cache check sees these states
    spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
    hyper = Hyperparams(C=1.0)

    def trained(self):
        state = batch.train_svm_batch(data.two_gaussians(30, seed=0), self.spec, self.hyper)
        assert validate_empty(state, self.spec, self.hyper)
        return state

    def test_nan_residuals_name_every_row(self):
        state = self.trained()
        state.resid = np.full(state.n, np.nan)
        report = model.validate(state, spec=self.spec, C=self.hyper.C)
        non_finite = [v for v in report if v.kind == "non-finite"]
        assert [v.index for v in non_finite] == list(range(state.n))
        assert all(v.magnitude == np.inf for v in non_finite)

    def test_a_nan_multiplier_is_named(self):
        state = self.trained()
        mult = state.mult.copy()
        mult[3] = np.nan
        state.mult = mult
        report = model.validate(state, spec=self.spec)
        assert [(v.kind, v.index) for v in report if v.kind == "non-finite"] == [
            ("non-finite", 3)]

    def test_a_nan_bias_is_named(self):
        state = self.trained()
        state.b = np.nan
        report = model.validate(state)
        assert [(v.kind, v.index) for v in report] == [("non-finite", None)]


def validate_empty(state, spec, hyper):
    report = model.validate(
        state, spec=spec, C=hyper.C, epsilon=hyper.epsilon
    )
    return report == []


def stored_state(kind, n=8):
    """State with ids 10, 20, ... and row-distinct multipliers and residuals."""
    rng = np.random.default_rng(4)
    samples = [Sample(10 * (i + 1), rng.standard_normal(2), 1.0 if i % 2 else -1.0)
               for i in range(n)]
    if kind == "svm":
        state = model.SvmState(samples, alpha=np.linspace(0.1, 0.8, n))
        state.margins = np.arange(n, dtype=float)
    else:
        state = model.SvrState(samples, theta=np.linspace(-0.8, 0.8, n))
        state.outputs = np.arange(n, dtype=float)
    state.partition = np.array(["S", "B", "O", "S"] * (n // 4), dtype="<U1")
    return state


class TestNativeStorage:
    """The task-named views alias the one stored multiplier/residual pair."""

    @pytest.mark.parametrize("kind, mult_name, resid_name", [
        ("svm", "alpha", "margins"), ("svr", "theta", "outputs"),
    ])
    def test_task_names_write_through(self, kind, mult_name, resid_name):
        state = stored_state(kind)
        before = state.mult.copy()
        getattr(state, mult_name)[[0, 2]] += 0.25
        assert np.array_equal(state.mult, before + np.array([0.25, 0, 0.25] + [0] * 5))
        fresh = np.full(state.n, -1.0)
        setattr(state, resid_name, fresh)
        assert state.resid is fresh
        assert getattr(state, resid_name) is fresh

    def test_svm_labels_are_the_targets(self):
        state = stored_state("svm")
        assert state.y is state.targets
        assert state.signs_of(state.targets) is state.targets
        assert np.array_equal(state.dual_coefficients, state.y * state.alpha)

    @pytest.mark.parametrize("kind", ["svm", "svr"])
    def test_copy_shares_the_inverse_and_no_writable_array(self, kind):
        state = stored_state(kind)
        state.cached_inverse = linalg.bordered_inverse(np.eye(2) * 2.0, np.ones(2))
        model.column_cache(state, KernelSpec())
        out = state.copy()
        assert type(out) is type(state)
        assert out.cached_inverse is state.cached_inverse
        assert out.column_cache is state.column_cache
        assert out.cache_lease == state.cache_lease
        for name in ("X", "ids", "targets"):
            assert getattr(out, name) is getattr(state, name)
            assert not getattr(out, name).flags.writeable
        for name in ("partition", "mult", "resid", "cache_slots"):
            assert np.array_equal(getattr(out, name), getattr(state, name))
            assert getattr(out, name).flags.writeable
            assert not np.shares_memory(getattr(out, name), getattr(state, name))
        assert out.b == state.b
        # samples are derived from the arrays, row by row, as copies
        derived = out.samples
        assert [s.id for s in derived] == out.ids.tolist()
        assert [s.target for s in derived] == out.targets.tolist()
        assert all(np.array_equal(s.features, x) for s, x in zip(derived, out.X))
        x_before = out.X.copy()
        derived[0].features[:] = 99.0
        assert np.array_equal(out.X, x_before)

    def test_samples_at_derives_requested_rows(self):
        state = stored_state("svr")
        picked = state.samples_at([5, 0, 5])
        assert [s.id for s in picked] == state.ids[[5, 0, 5]].tolist()
        assert np.array_equal(np.array([s.features for s in picked]), state.X[[5, 0, 5]])
        picked[0].features[:] = 99.0
        assert not np.any(state.X == 99.0)
        assert state.samples_at([]) == []


class TestRowsOf:
    def test_request_order_kept(self):
        state = stored_state("svm")
        assert list(state.rows_of([50, 10, 80, 20])) == [4, 0, 7, 1]

    def test_repeated_ids(self):
        state = stored_state("svm")
        assert list(state.rows_of([30, 30, 10, 30])) == [2, 2, 0, 2]

    def test_empty_request(self):
        rows = stored_state("svr").rows_of([])
        assert rows.shape == (0,) and rows.dtype.kind == "i"

    def test_after_splice(self):
        state = stored_state("svr")
        state.delete_rows([0, 3])
        state.append_samples([Sample(5, np.zeros(2), 0.0)], [0.0], ["O"])
        assert list(state.rows_of([5, 20, 80])) == [6, 0, 5]

    @pytest.mark.parametrize("request_ids, missing", [
        ([10, 15, 20], 15), ([999], 999), ([80, 81], 81), ([0, 10], 0),
    ])
    def test_missing_id_named(self, request_ids, missing):
        with pytest.raises(UnknownId, match=f"sample id {missing} "):
            stored_state("svm").rows_of(request_ids)

    def test_missing_id_in_empty_state(self):
        with pytest.raises(UnknownId, match="sample id 3 "):
            model.SvmState([]).rows_of([3])


class TestDeleteRows:
    @pytest.mark.parametrize("kind", ["svm", "svr"])
    def test_columns_stay_row_aligned(self, kind):
        state = stored_state(kind)
        model.column_cache(state, KernelSpec())  # every row gets a slot
        before = state.copy()
        state.delete_rows([6, 1, 2])
        kept = [0, 3, 4, 5, 7]
        assert np.array_equal(state.cache_slots, before.cache_slots[kept])
        assert [s.id for s in state.samples] == list(state.ids)
        assert list(state.ids) == list(before.ids[kept])
        assert np.array_equal(state.X, np.array([s.features for s in state.samples]))
        assert np.array_equal(state.X, before.X[kept])
        assert np.array_equal(state.partition, before.partition[kept])
        if kind == "svm":
            assert np.array_equal(state.y, before.y[kept])
            assert np.array_equal(state.alpha, before.alpha[kept])
            assert np.array_equal(state.margins, before.margins[kept])
        else:
            assert np.array_equal(state.targets, before.targets[kept])
            assert np.array_equal(state.theta, before.theta[kept])
            assert np.array_equal(state.outputs, before.outputs[kept])

    def test_delete_nothing(self):
        state = stored_state("svm")
        state.delete_rows([])
        assert state.n == 8


def svm_with_inverse(spec):
    """A trained SVM state with at least four S members and two O rows, and its
    inverse over S (batch training leaves it to the first solve)."""
    state = batch.train_svm_batch(data.two_gaussians(40, seed=3), spec, Hyperparams(C=1.0))
    assert state.s_rows.size >= 4 and state.o_rows.size >= 2
    model.ensure_cached_inverse(state, model.column_cache(state, spec))
    return state


class TestCachedInverseMembership:
    """The tags are the one record of S: the inverse follows them when a solve reads it."""

    spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)

    @staticmethod
    def rebuilt(state, spec):
        fresh = state.copy()
        model.refresh_cached_inverse(fresh, spec)
        return fresh.cached_inverse

    def ensured(self, state):
        """``ensure_cached_inverse``, checked against the tags and a rebuild."""
        inv = model.ensure_cached_inverse(state, model.column_cache(state, self.spec))
        assert inv is state.cached_inverse
        assert list(inv.ids) == list(state.ids[state.s_rows])
        fresh = self.rebuilt(state, self.spec)
        assert np.max(np.abs(inv.apply(np.eye(inv.order + 1)) - fresh.inv)) <= 1e-10
        return inv

    def test_an_equal_size_swap_is_patched(self):
        state = svm_with_inverse(self.spec)
        stale = state.cached_inverse
        leaver, joiner = int(state.s_rows[0]), int(state.o_rows[0])
        state.partition[leaver], state.partition[joiner] = "O", "S"
        inv = self.ensured(state)
        assert inv.order == stale.order and inv.inv is stale.inv
        assert list(inv.pending.rows) == [1, -1]  # a drop of base row 1 (after the border), a join
        assert not np.allclose(inv.apply(np.eye(inv.order + 1)), stale.inv, atol=1e-6)

    def test_tags_flipped_between_solves(self):
        """Only the net change of the tags since the last solve reaches the inverse."""
        state = svm_with_inverse(self.spec)
        s, o = state.s_rows, state.o_rows
        flips = {
            "a join, then a leave": ([(o[0], "S"), (o[0], "O")], False),
            "a leave, then a rejoin": ([(s[1], "O"), (s[1], "S")], False),
            "a swap at equal size": ([(s[0], "O"), (o[1], "S")], True),
            "a leave, a join, a rejoin": ([(s[2], "O"), (o[0], "S"), (s[0], "S")], True),
        }
        for name, (changes, patched) in flips.items():
            before = model.ensure_cached_inverse(state, model.column_cache(state, self.spec))
            for row, tag in changes:
                state.partition[row] = tag
            inv = self.ensured(state)
            assert (inv is not before) == patched, name
            assert inv.inv is before.inv or inv.pending is None, name

    def test_rebuilt_only_without_a_member_left(self):
        state = svm_with_inverse(self.spec)
        stale, s, o = state.cached_inverse, state.s_rows, state.o_rows
        state.partition[s], state.partition[o[:3]] = "O", "S"
        inv = self.ensured(state)
        assert inv.inv is not stale.inv and inv.pending is None
        state.cached_inverse = None
        assert self.ensured(state).pending is None

    def test_patches_track_members(self):
        state = svm_with_inverse(self.spec)
        leaver = int(state.s_rows[0])
        state.partition[leaver] = "O"
        assert self.ensured(state).pending.rows.size == 1
        state.partition[leaver] = "S"
        assert np.allclose(self.ensured(state).compact().inv,
                           self.rebuilt(state, self.spec).inv, atol=1e-8)

    def test_an_arrival_reusing_a_held_id_drops_the_inverse(self):
        """A member that left before any solve stays in the inverse; an arrival
        with its id is another sample, so the inverse is dropped at the splice."""
        state = svm_with_inverse(self.spec)
        leaver = int(state.s_rows[0])
        reused = int(state.ids[leaver])
        state.partition[leaver] = "O"
        state.delete_rows([leaver])
        assert reused in state.cached_inverse.ids
        state.append_samples([Sample(reused, state.X[0] + 1.0, 1.0)], [0.0], ["S"])
        assert state.cached_inverse is None
        self.ensured(state)

    def test_inverse_is_the_same_for_both_tasks(self):
        """The cached inverse is over the unsigned ridge Gram: labels do not enter it."""
        samples = data.two_gaussians(24, seed=4)
        assert len({s.target for s in samples}) == 2
        svm, svr = model.SvmState(samples), model.SvrState(samples)
        for state in (svm, svr):
            state.partition[:] = "O"
            state.partition[[1, 2, 5, 8, 13, 21]] = "S"
            model.refresh_cached_inverse(state, self.spec)
        assert np.array_equal(svm.cached_inverse.inv, svr.cached_inverse.inv)
        for state in (svm, svr):  # a drop and a join, in one patch
            state.partition[[5, 10]] = "O", "S"
            self.ensured(state)
        assert np.array_equal(svm.cached_inverse.compact().inv, svr.cached_inverse.compact().inv)
        assert np.array_equal(svm.cached_inverse.ids, svr.cached_inverse.ids)


class TestDeferredInversePatches:
    """Drops and joins are carried in factored form; compaction rewrites them."""

    spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)

    def state(self):
        return svm_with_inverse(self.spec)

    def leave(self, state, rows):
        state.partition[rows] = "O"
        model.ensure_cached_inverse(state, model.column_cache(state, self.spec))

    def test_shrink_records_drops_and_solves_over_s(self):
        state = self.state()
        stored = state.cached_inverse.inv
        self.leave(state, state.s_rows[[0, 2]])
        self.leave(state, state.s_rows[[1]])
        cache = state.cached_inverse
        assert cache.inv is stored and cache.pending.rows.size == 3
        assert cache.order == state.s_rows.size
        assert list(cache.ids) == list(state.ids[state.s_rows])
        fresh = TestCachedInverseMembership.rebuilt(state, self.spec)
        rhs = np.random.default_rng(0).standard_normal(cache.order + 1)
        assert np.max(np.abs(cache.apply(rhs) - fresh.apply(rhs))) <= 1e-10
        compact = cache.compact()
        assert compact.pending is None
        assert np.max(np.abs(compact.inv - fresh.inv)) <= 1e-10

    def test_leaver_rejoins_with_an_interleaved_join(self):
        state = self.state()
        s, o = state.s_rows, state.o_rows
        leaver, stays_out = int(s[1]), int(s[2])
        self.leave(state, [leaver, stays_out])
        state.partition[[leaver, int(o[0])]] = "S"
        cache = model.ensure_cached_inverse(state, model.column_cache(state, self.spec))
        assert list(cache.ids) == list(state.ids[state.s_rows])
        fresh = TestCachedInverseMembership.rebuilt(state, self.spec)
        assert np.max(np.abs(cache.apply(np.eye(cache.order + 1)) - fresh.inv)) <= 1e-10
        assert np.max(np.abs(cache.compact().inv - fresh.inv)) <= 1e-10

    @pytest.mark.parametrize("task", ["svm", "svr"])
    def test_updates_return_an_exact_inverse_over_s(self, task):
        """Pending changes are handed on, within the rewrite limit."""
        make, train, engine, hyper = ENGINE_TASKS[task]
        state = train(make(40, seed=1), self.spec, hyper)
        leaving = [int(state.ids[r]) for r in state.s_rows[:3]]
        for upd in (UpdateBatch(remove=leaving), UpdateBatch(add=make(5, seed=52, start_id=600),
                                                             remove=leaving)):
            out = engine(state, upd, self.spec, hyper)
            cache = out.cached_inverse
            assert cache.pending.rows.size <= linalg._pending_limit(cache.order)
            assert list(cache.ids) == list(out.ids[out.s_rows])
            fresh = TestCachedInverseMembership.rebuilt(out, self.spec)
            assert np.max(np.abs(cache.apply(np.eye(cache.order + 1)) - fresh.inv)) <= 1e-10
            assert np.max(np.abs(cache.compact().inv - fresh.inv)) <= 1e-10


def engine_cases():
    """(engine, trained state, spec, hyperparameters) for every update engine."""
    spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
    svm_hyper = Hyperparams(C=1.0)
    svr_hyper = Hyperparams(C=1.0, epsilon=0.2)
    svm = batch.train_svm_batch(data.two_gaussians(20, seed=1), spec, svm_hyper)
    svr = batch.train_svr_batch(data.noisy_sine(20, seed=2), spec, svr_hyper)
    return [
        (update_multi_svm, svm, spec, svm_hyper),
        (path_update_svm, svm, spec, svm_hyper),
        (update_multi_svr, svr, spec, svr_hyper),
        (path_update_svr, svr, spec, svr_hyper),
    ]


@pytest.mark.parametrize("case", range(4))
class TestBatchCheck:
    """Every engine rejects a malformed batch before touching the state."""

    @staticmethod
    def run(case, add_ids, remove):
        engine, state, spec, hyper = engine_cases()[case]
        x = np.zeros(state.X.shape[1])
        add = [Sample(sid, x, 1.0 if k % 2 else -1.0) for k, sid in enumerate(add_ids)]
        engine(state, UpdateBatch(add=add, remove=remove), spec, hyper)

    def test_arrival_id_clashes_with_stored(self, case):
        with pytest.raises(ValueError, match="id 3 is not fresh"):
            self.run(case, [901, 3], [])

    def test_arrival_id_repeated_in_batch(self, case):
        with pytest.raises(ValueError, match="id 901 is not fresh"):
            self.run(case, [902, 901, 903, 901], [])

    def test_unknown_removal_id(self, case):
        with pytest.raises(UnknownId, match="sample id 777 "):
            self.run(case, [904], [1, 777])

    @staticmethod
    def rejected(case, exc, match, add=(), remove=()):
        """Run a batch that must raise ``exc``, and check the input state is unchanged."""
        engine, state, spec, hyper = engine_cases()[case]
        before = state.copy()
        x = np.zeros(state.X.shape[1])
        add = [Sample(sid, x if feats is None else feats, target) for sid, feats, target in add]
        with pytest.raises(exc, match=match):
            engine(state, UpdateBatch(add=add, remove=list(remove)), spec, hyper)
        for name in ("X", "ids", "targets", "partition", "mult", "resid"):
            assert np.array_equal(getattr(state, name), getattr(before, name))
        assert state.b == before.b

    def test_removal_id_repeated_leaves_state_unchanged(self, case):
        self.rejected(case, InvalidBatch, "removal id 3 is named twice", remove=[5, 3, 3])

    def test_arrival_with_a_nan_feature(self, case):
        x = np.zeros(engine_cases()[case][1].X.shape[1])
        x[0] = np.nan
        self.rejected(case, InvalidBatch, "not finite", add=[(900, None, 1.0), (901, x, -1.0)])

    def test_arrival_with_a_nan_target(self, case):
        self.rejected(case, InvalidBatch, "not finite", add=[(900, None, np.nan)])

    def test_fractional_removal_id(self, case):
        self.rejected(case, InvalidBatch, "id 3.7 is not an integer", remove=[5, 3.7])

    def test_fractional_arrival_id(self, case):
        self.rejected(case, InvalidBatch, "id 500.9 is not an integer",
                      add=[(500.9, None, 1.0)])

    def test_arrivals_of_unequal_widths(self, case):
        self.rejected(case, DimensionMismatch, "feature rows of unequal widths",
                      add=[(900, None, 1.0), (901, np.zeros(7), -1.0)])

    def test_arrivals_wider_than_the_stored_rows(self, case):
        width = engine_cases()[case][1].X.shape[1]
        self.rejected(case, DimensionMismatch, rf"feature rows of shape \({width + 1},\), stored",
                      add=[(900, np.zeros(width + 1), 1.0), (901, np.zeros(width + 1), -1.0)])

    def test_svm_label_other_than_plus_or_minus_one(self, case):
        if case >= 2:  # any finite target is a regression target
            engine, state, spec, hyper = engine_cases()[case]
            x = np.zeros(state.X.shape[1])
            engine(state, UpdateBatch(add=[Sample(900, x, 0.5)]), spec, hyper)
            return
        self.rejected(case, InvalidBatch, "label 0.5 is not -1 or", add=[(900, None, 0.5)])


@pytest.mark.parametrize("case", [0, 2])
def test_open_update_stages_arrivals(case):
    """Arrivals become the last rows: multiplier 0, tag O, their exact residual."""
    _, state, spec, hyper = engine_cases()[case]
    make = data.two_gaussians if case == 0 else data.noisy_sine
    arrivals = make(5, seed=7, start_id=900)
    upd = UpdateBatch(add=arrivals, remove=[int(state.ids[0])])
    work, remove_rows, resid_d = online.open_update(state, upd, spec, hyper)
    assert work.n == state.n and np.array_equal(remove_rows, [0])
    staged = online.stage_arrivals(work, upd, resid_d)
    assert np.array_equal(staged, np.arange(state.n, state.n + 5))
    assert np.array_equal(work.ids[staged], [s.id for s in arrivals])
    assert np.all(work.mult[staged] == 0.0)
    assert np.all(work.partition[staged] == model.REGION_O)
    fresh = model.compute_residuals(work, spec)[staged]
    assert np.max(np.abs(work.resid[staged] - fresh)) <= 1e-12


def loop_validate(state, C, epsilon=0.0, tol=model.REGION_TOL, ignore_rows=()):
    """Row-by-row box and region checks, kept as the reference for validate."""
    report = []
    is_svm = isinstance(state, model.SvmState)
    mult = state.alpha if is_svm else state.theta
    resid = state.margins if is_svm else state.outputs
    ignore = set(int(r) for r in ignore_rows)
    lo = -C if not is_svm else 0.0
    for row in range(state.n):
        v = mult[row]
        if row not in ignore and (v < lo - model.BOUND_TOL or v > C + model.BOUND_TOL):
            report.append(("box", row, max(lo - v, v - C)))
    eps = 0.0 if is_svm else epsilon
    for row in range(state.n):
        if row in ignore:
            continue
        tag, v = state.partition[row], mult[row]
        g = resid[row] if is_svm else abs(resid[row]) - eps
        if tag == "S":
            if abs(g) > tol:
                report.append(("region:S", row, abs(g)))
        elif tag == "B":
            sat = abs(abs(v) - C) <= model.BOUND_TOL if not is_svm \
                else abs(v - C) <= model.BOUND_TOL
            if not sat:
                report.append(("region:B", row, abs(abs(v) - C)))
            if is_svm and g > tol:
                report.append(("region:B", row, g))
            if not is_svm and g < -tol:
                report.append(("region:B", row, -g))
        else:
            if abs(v) > model.BOUND_TOL:
                report.append(("region:O", row, abs(v)))
            if is_svm and g < -tol:
                report.append(("region:O", row, -g))
            if not is_svm and g > tol:
                report.append(("region:O", row, g))
        if not is_svm and tag in ("S", "B") and abs(v) > model.BOUND_TOL \
                and abs(resid[row]) > tol and v * resid[row] > 0:
            report.append(("sign", row, abs(v * resid[row])))
    return report


def row_reports(state, C, epsilon=None, ignore_rows=()):
    report = model.validate(state, C=C, epsilon=epsilon, ignore_rows=ignore_rows)
    return [(v.kind, v.index, v.magnitude) for v in report if v.index is not None]


class TestValidateEachKind:
    """One state holding every row-level breach, each reported once."""

    @staticmethod
    def svm_state():
        samples = [Sample(i, np.array([float(i)]), 1.0 if i % 2 else -1.0)
                   for i in range(6)]
        state = model.SvmState(samples, alpha=[1.25, 0.5, 0.5, 0.0, 0.25, 0.0])
        state.margins = np.array([0.0, 0.0, 0.25, 0.0, -0.5, 0.0])
        state.partition = np.array(["O", "S", "S", "S", "B", "O"], dtype="<U1")
        return state

    @staticmethod
    def svr_state():
        samples = [Sample(i, np.array([float(i)]), 0.0) for i in range(6)]
        state = model.SvrState(samples, theta=[-1.5, 0.5, -0.5, 0.5, 0.0, 0.25])
        state.outputs = np.array([0.2, 0.75, 0.2, 0.2, 0.5, 0.2])
        state.partition = np.array(["B", "S", "S", "B", "O", "O"], dtype="<U1")
        return state

    def test_svm(self):
        got = row_reports(self.svm_state(), C=1.0)
        assert got == pytest.approx([
            ("box", 0, 0.25),
            ("region:O", 0, 1.25),
            ("region:S", 2, 0.25),
            ("region:B", 4, 0.75),
        ])

    def test_svr(self):
        got = row_reports(self.svr_state(), C=1.0, epsilon=0.2)
        assert got == pytest.approx([
            ("box", 0, 0.5),
            ("region:B", 0, 0.5),
            ("region:S", 1, 0.55),
            ("sign", 1, 0.375),
            ("region:B", 3, 0.5),
            ("sign", 3, 0.1),
            ("region:O", 4, 0.3),
            ("region:O", 5, 0.25),
        ])

    def test_ignored_rows_are_skipped(self):
        got = row_reports(self.svr_state(), C=1.0, epsilon=0.2, ignore_rows=[0, 3, 99])
        assert {row for _, row, _ in got} == {1, 4, 5}

    @pytest.mark.parametrize("kind", ["svm", "svr"])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_row_loop(self, kind, seed):
        rng = np.random.default_rng(seed)
        n = 200
        samples = [Sample(i, rng.standard_normal(2), 1.0 if i % 2 else -1.0)
                   for i in range(n)]
        mult = rng.choice([0.0, 1.0, 0.5, 1.0 + 1e-6, -1e-6], size=n)
        if kind == "svm":
            state = model.SvmState(samples, alpha=mult)
            state.margins = rng.choice([0.0, 1e-3, -1e-3, 1e-8], size=n)
        else:
            state = model.SvrState(samples, theta=mult * rng.choice([-1.0, 1.0], size=n))
            state.outputs = rng.choice([0.2, -0.2, 0.1, -0.3, 0.2 + 1e-8], size=n)
        state.partition = rng.choice(np.array(["S", "B", "O"]), size=n).astype("<U1")
        ignore = rng.choice(n, size=10, replace=False)
        assert row_reports(state, 1.0, 0.2, ignore) == loop_validate(state, 1.0, 0.2,
                                                                     ignore_rows=ignore)


ENGINE_TASKS = {
    "svm": (data.two_gaussians, batch.train_svm_batch, update_multi_svm, Hyperparams(C=1.0)),
    # noisy enough that bounded rows sit between zero-multiplier rows
    "svr": (functools.partial(data.noisy_sine, noise=0.6), batch.train_svr_batch,
            update_multi_svr, Hyperparams(C=1.0, epsilon=0.2)),
}


@pytest.mark.parametrize("task", ["svm", "svr"])
class TestEngineInverseAndFallback:
    spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)

    def test_input_inverse_is_never_written(self, task):
        make, train, engine, hyper = ENGINE_TASKS[task]
        state = train(make(40, seed=1), self.spec, hyper)
        model.ensure_cached_inverse(state, model.column_cache(state, self.spec))
        # an input whose inverse carries pending changes from its own update
        state = engine(state, UpdateBatch(remove=[int(state.ids[state.s_rows[-1]])]),
                       self.spec, hyper)
        pending = state.cached_inverse.pending
        assert pending is not None
        watched_arrays = [state.cached_inverse.inv, pending.rows, pending.live, pending.ht,
                          pending.cap, *pending.lu]
        before = [a.copy() for a in watched_arrays]
        arrivals = make(6, seed=51, start_id=500)
        leaving = [int(state.ids[r]) for r in state.s_rows[:2]]
        for upd in (UpdateBatch(add=arrivals, remove=leaving), UpdateBatch(add=arrivals)):
            engine(state, upd, self.spec, hyper)
            assert state.cached_inverse.pending is pending
            assert all(np.array_equal(a, b) for a, b in zip(watched_arrays, before))

    def test_a_batch_trained_state_builds_its_inverse_at_the_first_solve(self, task):
        """Training leaves no inverse; the first update matches one from an eager inverse."""
        make, train, engine, hyper = ENGINE_TASKS[task]
        lazy = train(make(40, seed=1), self.spec, hyper)
        assert lazy.cached_inverse is None
        eager = lazy.copy()
        model.refresh_cached_inverse(eager, self.spec)
        upd = UpdateBatch(add=make(6, seed=51, start_id=500),
                          remove=[int(lazy.ids[r]) for r in lazy.s_rows[:2]])
        got, want = (engine(state, upd, self.spec, hyper) for state in (lazy, eager))
        assert lazy.cached_inverse is None and got.cached_inverse is not None
        assert np.array_equal(got.ids, want.ids)
        assert np.array_equal(got.partition, want.partition)
        queries = np.array([x.features for x in make(20, seed=52, start_id=700)])
        gap = np.abs(kernels.decision_values(queries, got, self.spec)
                     - kernels.decision_values(queries, want, self.spec))
        assert gap.max() <= 1e-10
        inv = model.ensure_cached_inverse(got, model.column_cache(got, self.spec))
        fresh = TestCachedInverseMembership.rebuilt(got, self.spec)
        assert np.max(np.abs(inv.apply(np.eye(inv.order + 1)) - fresh.inv)) <= 1e-10


@pytest.mark.parametrize("task", ["svm", "svr"])
class TestPenaltyFloor:
    """At ``C <= BOUND_TOL`` the region rule reads every multiplier as at its
    bound, zero included, so such a C is refused; just above it both tasks
    train and update cleanly."""

    spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)

    @pytest.mark.parametrize("C", [1e-13, 1e-10, model.BOUND_TOL])
    def test_refused_at_or_below_the_bound_tolerance(self, task, C):
        with pytest.raises(InvalidParameter):
            Hyperparams(C=C, epsilon=ENGINE_TASKS[task][3].epsilon)

    @pytest.mark.parametrize("C", [2e-9, 3e-9])
    def test_just_above_trains_and_updates_cleanly(self, task, C):
        make, train, engine, base = ENGINE_TASKS[task]
        hyper = Hyperparams(C=C, epsilon=base.epsilon)
        state = train(make(40, seed=1), self.spec, hyper)
        for round_no in range(2):
            assert model.validate(state, self.spec, C, hyper.epsilon) == []
            upd = UpdateBatch(add=make(6, seed=51 + round_no, start_id=500 + 10 * round_no),
                              remove=[int(i) for i in state.ids[:2]])
            state = engine(state, upd, self.spec, hyper)
        assert model.validate(state, self.spec, C, hyper.epsilon) == []


class TestBiasInterval:
    """``bias_interval`` against ``validate``, on batch states without an interior multiplier.

    The oracle takes its bias from the same rule as the engines, so the
    interval is checked here by the region conditions alone.
    """

    spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
    cases = {
        "svm": (batch.train_svm_batch, data.two_gaussians(40, seed=0, spread=2.0),
                Hyperparams(C=0.02)),
        "svr": (batch.train_svr_batch, data.noisy_sine(40, seed=1),
                Hyperparams(C=0.02, epsilon=0.2)),
    }

    def with_bias(self, state, b, hyper):
        out = state.copy()
        out.resid = out.resid + out.signs_of(out.targets) * (b - state.b)
        out.b = b
        out.partition = model.classify_regions(out.mult, out.resid, hyper.C, hyper.epsilon)
        return out

    @pytest.mark.parametrize("task", ["svm", "svr"])
    def test_ends_bound_the_feasible_bias_and_the_oracle_takes_the_middle(self, task):
        train, samples, hyper = self.cases[task]
        state = train(samples, self.spec, hyper)
        size = np.abs(state.mult)
        assert not ((size > model.BOUND_TOL) & (size < hyper.C - model.BOUND_TOL)).any()
        lower, upper = model.bias_interval(state, hyper)
        assert lower < upper
        assert state.b == pytest.approx(0.5 * (lower + upper), abs=1e-12)
        for b in (lower, 0.5 * (lower + upper), upper):
            shifted = self.with_bias(state, b, hyper)
            assert model.validate(shifted, self.spec, hyper.C, hyper.epsilon) == [], b
        for b in (lower - 1e-4, upper + 1e-4):
            report = model.validate(self.with_bias(state, b, hyper), self.spec, hyper.C,
                                    hyper.epsilon)
            assert report and all(v.kind.startswith("region") for v in report), b
