import numpy as np
import pytest

from ridgesvm import batch, data, kernels, model, path
from ridgesvm.kernels import KernelSpec
from ridgesvm.model import Hyperparams, Sample, UpdateBatch
from ridgesvm.online import open_update, stage_arrivals
from ridgesvm.online_svm import update_multi_svm
from ridgesvm.online_svr import update_multi_svr
from ridgesvm.path import (
    PathState,
    migrate,
    path_update_svm,
    path_update_svr,
    sensitivity_phi,
    step_select,
)

SPEC = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
HYPER = Hyperparams(C=1.0)
SVR_HYPER = Hyperparams(C=1.0, epsilon=0.2)


def svm_path_fixture(seed=0, n=30, n_add=4, n_rem=2):
    samples = data.two_gaussians(n, seed=seed)
    state = batch.train_svm_batch(samples, SPEC, HYPER)
    arrivals = data.two_gaussians(n_add, seed=seed + 100, start_id=5000)
    rng = np.random.default_rng(seed + 7)
    remove_ids = [int(i) for i in rng.choice([s.id for s in samples],
                                             size=n_rem, replace=False)]
    return samples, state, arrivals, remove_ids


def prepared_path(state, arrivals, remove_ids, spec=SPEC, hyper=HYPER):
    """Stage the batch, take the leavers out of S and mark transit sets, like the loop."""
    upd = UpdateBatch(add=arrivals, remove=remove_ids)
    work, remove_rows, resid_d = open_update(state, upd, spec, hyper)
    staged = stage_arrivals(work, upd, resid_d)
    work.partition[remove_rows[work.partition[remove_rows] == model.REGION_S]] = model.REGION_O
    lo, _, eps = work.box(hyper)
    reach = np.abs(work.resid[staged]) if lo < 0 else -work.resid[staged]
    return work, PathState(drive_rows=staged[reach > eps + 1e-12], removal_rows=remove_rows)


class TestDirections:
    def test_completed_path_has_zero_directions(self):
        _, state, _, _ = svm_path_fixture()
        work = state.copy()
        ps = PathState(drive_rows=np.zeros(0, dtype=int),
                       removal_rows=np.zeros(0, dtype=int))
        d = path._direction(work, ps, HYPER, kernels.ColumnCache(work.X, SPEC))
        assert d.db == 0.0
        assert np.allclose(d.dalpha_s, 0.0)

    def test_matches_equilibrium_solve_linearity(self):
        # single S member toy: direction equals the one-shot solve per unit step
        spec = KernelSpec(family="linear", ridge=1.0)
        state = model.SvmState(
            [Sample(0, np.array([1.0]), 1.0), Sample(1, np.array([0.5]), -1.0)],
            alpha=[0.5, 0.0], b=0.0,
        )
        state.partition = np.array(["S", "O"])
        state.margins = model.compute_residuals(state, spec)
        hyper = Hyperparams(C=0.3)
        ps = PathState(drive_rows=np.array([1]), removal_rows=np.zeros(0, dtype=int))
        d = path._direction(state, ps, hyper, kernels.ColumnCache(state.X, spec))
        # driving 0 -> C=0.3 mirrors the worked equilibrium example scaled by C
        assert d.d_add[0] == pytest.approx(0.3)
        assert d.dalpha_s[0] == pytest.approx(0.3)
        assert d.db == pytest.approx(-0.45)

    def test_label_balance_per_unit_step(self):
        _, state, arrivals, remove_ids = svm_path_fixture(seed=3)
        work, ps = prepared_path(state, arrivals, remove_ids)
        d = path._direction(work, ps, HYPER, kernels.ColumnCache(work.X, SPEC))
        total = (
            work.y[work.s_rows] @ d.dalpha_s
            + work.y[ps.drive_rows] @ d.d_add
            + work.y[ps.removal_rows] @ d.d_rem
        )
        assert abs(total) <= 1e-9


class TestSensitivity:
    def test_zero_directions_zero_phi(self):
        _, state, _, _ = svm_path_fixture(seed=1)
        work = state.copy()
        ps = PathState(drive_rows=np.zeros(0, dtype=int),
                       removal_rows=np.zeros(0, dtype=int))
        columns = kernels.ColumnCache(work.X, SPEC)
        d = path._direction(work, ps, HYPER, columns)
        phi = sensitivity_phi(work, ps, d, columns)
        assert np.max(np.abs(phi)) <= 1e-12

    def test_s_members_are_pinned(self):
        _, state, arrivals, remove_ids = svm_path_fixture(seed=2)
        work, ps = prepared_path(state, arrivals, remove_ids)
        columns = kernels.ColumnCache(work.X, SPEC)
        d = path._direction(work, ps, HYPER, columns)
        phi = sensitivity_phi(work, ps, d, columns)
        assert np.max(np.abs(phi[work.s_rows])) <= 1e-10

    def test_matches_finite_differences(self):
        _, state, arrivals, remove_ids = svm_path_fixture(seed=4)
        work, ps = prepared_path(state, arrivals, remove_ids)
        columns = kernels.ColumnCache(work.X, SPEC)
        d = path._direction(work, ps, HYPER, columns)
        phi = sensitivity_phi(work, ps, d, columns)
        h = 1e-6
        bumped = work.copy()
        bumped.alpha[bumped.s_rows] += h * d.dalpha_s
        bumped.alpha[ps.drive_rows] += h * d.d_add
        bumped.alpha[ps.removal_rows] += h * d.d_rem
        bumped.b += h * d.db
        fd = (model.compute_residuals(bumped, SPEC) - work.margins) / h
        assert np.max(np.abs(fd - phi)) <= 1e-6


class TestStepSelect:
    def test_minimum_ratio_arithmetic(self):
        # two synthetic crossings at 0.2 and 0.55; the smaller fires first
        spec = KernelSpec(family="linear", ridge=1.0)
        state = model.SvmState(
            [Sample(0, np.array([1.0]), 1.0),
             Sample(1, np.array([-1.0]), -1.0),
             Sample(2, np.array([0.9]), 1.0)],
            alpha=[0.0, 0.0, 0.0], b=0.0,
        )
        state.partition = np.array(["O", "O", "O"])
        state.margins = np.array([-0.1, -0.11, 0.4])
        ps = PathState(drive_rows=np.array([0, 1]),
                       removal_rows=np.zeros(0, dtype=int))
        d = path.Directions(db=0.0, dalpha_s=np.zeros(0),
                            d_add=np.array([1.0, 1.0]), d_rem=np.zeros(0))
        phi = np.array([0.5, 0.2, 0.1])
        eta, event = step_select(state, phi, d, ps, HYPER)
        assert eta == pytest.approx(0.2)
        assert event.kind == "capture"
        assert event.sample_id == 0

    def test_all_crossings_beyond_cap(self):
        state = model.SvmState([Sample(0, np.array([1.0]), 1.0)], alpha=[0.0])
        state.partition = np.array(["O"])
        state.margins = np.array([5.0])
        ps = PathState(drive_rows=np.zeros(0, dtype=int),
                       removal_rows=np.zeros(0, dtype=int))
        d = path.Directions(0.0, np.zeros(0), np.zeros(0), np.zeros(0))
        eta, event = step_select(state, np.array([-1.0]), d, ps, HYPER)
        assert eta == 1.0
        assert event.kind == "end"


class TestMigrate:
    """An event only retags its row; the next solve's inverse follows the tags."""

    @staticmethod
    def assert_inverse_follows_tags(work, before):
        assert work.cached_inverse is before  # migrate writes no inverse
        inv = model.ensure_cached_inverse(work, model.column_cache(work, SPEC))
        assert list(inv.ids) == list(work.ids[work.s_rows])
        fresh = work.copy()
        model.refresh_cached_inverse(fresh, SPEC)
        assert np.max(np.abs(inv.apply(np.eye(inv.order + 1))
                             - fresh.cached_inverse.inv)) <= 1e-10

    def test_box_event_moves_s_to_bound(self):
        _, state, _, _ = svm_path_fixture(seed=5)
        work = state.copy()
        s = int(work.s_rows[0])
        ps = PathState(drive_rows=np.zeros(0, dtype=int),
                       removal_rows=np.zeros(0, dtype=int))
        ev = path.PathEvent(kind="box", sample_id=int(work.ids[s]), eta=0.1,
                            row=s, bound=HYPER.C)
        migrate(work, ps, ev)
        assert work.partition[s] == "B"
        assert work.alpha[s] == HYPER.C
        self.assert_inverse_follows_tags(work, state.cached_inverse)

    def test_release_event_moves_o_to_s(self):
        _, state, _, _ = svm_path_fixture(seed=6)
        work = state.copy()
        o = int(work.o_rows[0])
        ps = PathState(drive_rows=np.zeros(0, dtype=int),
                       removal_rows=np.zeros(0, dtype=int))
        ev = path.PathEvent(kind="release", sample_id=int(work.ids[o]), eta=0.0,
                            row=o)
        migrate(work, ps, ev)
        assert work.partition[o] == "S"
        # the joining row is placed among the members by row, through the permuted grow
        self.assert_inverse_follows_tags(work, state.cached_inverse)

    def test_inconsistent_event_rejected(self):
        from ridgesvm.errors import InconsistentEvent
        _, state, _, _ = svm_path_fixture(seed=7)
        work = state.copy()
        o = int(work.o_rows[0])
        ps = PathState(drive_rows=np.zeros(0, dtype=int),
                       removal_rows=np.zeros(0, dtype=int))
        with pytest.raises(InconsistentEvent):
            migrate(work, ps,
                    path.PathEvent(kind="box", sample_id=0, eta=0.0, row=o, bound=0.0))


class TestPathUpdateSvm:
    def test_empty_batch_noop(self):
        _, state, _, _ = svm_path_fixture(seed=8)
        out = path_update_svm(state, UpdateBatch(), SPEC, HYPER)
        assert np.array_equal(out.alpha, state.alpha)

    def test_matches_batch_retrain(self):
        samples, state, arrivals, remove_ids = svm_path_fixture(seed=9)
        out = path_update_svm(
            state, UpdateBatch(add=arrivals, remove=remove_ids), SPEC, HYPER
        )
        survivors = [s for s in samples if s.id not in set(remove_ids)] + arrivals
        oracle = batch.train_svm_batch(survivors, SPEC, HYPER)
        grid = np.column_stack([np.linspace(-3, 3, 25), np.linspace(-3, 3, 25)])
        gap = np.abs(kernels.decision_values(grid, out, SPEC)
                     - kernels.decision_values(grid, oracle, SPEC)).max()
        assert gap <= 1e-6
        report = model.validate(out, spec=SPEC, C=HYPER.C)
        assert report == []

    def test_single_arrival_no_removals(self):
        samples, state, arrivals, _ = svm_path_fixture(seed=10, n_add=1)
        out = path_update_svm(state, UpdateBatch(add=arrivals[:1]), SPEC, HYPER)
        oracle = batch.train_svm_batch(samples + arrivals[:1], SPEC, HYPER)
        grid = np.column_stack([np.linspace(-3, 3, 25), np.linspace(3, -3, 25)])
        gap = np.abs(kernels.decision_values(grid, out, SPEC)
                     - kernels.decision_values(grid, oracle, SPEC)).max()
        assert gap <= 1e-6

    def test_agrees_with_one_shot_engine(self):
        samples, state, arrivals, remove_ids = svm_path_fixture(seed=11, n=40, n_add=6)
        upd = UpdateBatch(add=arrivals, remove=remove_ids)
        via_path = path_update_svm(state, upd, SPEC, HYPER)
        via_oneshot = update_multi_svm(state, upd, SPEC, HYPER)
        assert np.max(np.abs(
            np.sort(via_path.alpha) - np.sort(via_oneshot.alpha)
        )) <= 1e-6
        grid = np.column_stack([np.linspace(-3, 3, 25), np.linspace(-3, 3, 25)])
        gap = np.abs(kernels.decision_values(grid, via_path, SPEC)
                     - kernels.decision_values(grid, via_oneshot, SPEC)).max()
        assert gap <= 1e-6

    def test_event_budget_is_modest(self):
        samples, state, arrivals, remove_ids = svm_path_fixture(seed=12, n=60, n_add=6)
        work, ps = prepared_path(state, arrivals, remove_ids)
        out = path_update_svm(
            state, UpdateBatch(add=arrivals, remove=remove_ids), SPEC, HYPER
        )
        # indirect: the path must terminate well under the hard cap
        assert out.n == 60 + 6 - 2

    def test_event_boundaries_stay_on_the_kkt_manifold(self, monkeypatch):
        samples, state, arrivals, remove_ids = svm_path_fixture(seed=14, n=40, n_add=6)
        real_migrate = path.migrate
        boundary_reports, events = [], []

        def recording(state_, ps_, event_):
            transit = list(ps_.drive_rows) + list(ps_.removal_rows)
            boundary_reports.append(
                model.validate(state_, spec=SPEC, C=HYPER.C, ignore_rows=transit)
            )
            events.append(event_)
            return real_migrate(state_, ps_, event_)

        monkeypatch.setattr(path, "migrate", recording)
        path_update_svm(
            state, UpdateBatch(add=arrivals, remove=remove_ids), SPEC, HYPER
        )
        assert events, "expected at least one membership event"
        for rep in boundary_reports:
            assert rep == []
        assert len(events) <= 10 * (40 + 6 + 2)


class TestPathUpdateSvr:
    def test_empty_batch_noop(self):
        samples = data.noisy_sine(30, seed=20)
        state = batch.train_svr_batch(samples, SPEC, SVR_HYPER)
        out = path_update_svr(state, UpdateBatch(), SPEC, SVR_HYPER)
        assert np.array_equal(out.theta, state.theta)

    def test_matches_batch_retrain(self):
        samples = data.noisy_sine(30, seed=21)
        state = batch.train_svr_batch(samples, SPEC, SVR_HYPER)
        arrivals = data.noisy_sine(5, seed=22, start_id=9000)
        remove_ids = [samples[1].id, samples[8].id]
        out = path_update_svr(
            state, UpdateBatch(add=arrivals, remove=remove_ids), SPEC, SVR_HYPER
        )
        survivors = [s for s in samples if s.id not in set(remove_ids)] + arrivals
        oracle = batch.train_svr_batch(survivors, SPEC, SVR_HYPER)
        grid = np.linspace(0, 2 * np.pi, 30)[:, None]
        gap = np.abs(kernels.decision_values(grid, out, SPEC)
                     - kernels.decision_values(grid, oracle, SPEC)).max()
        assert gap <= 1e-6
        report = model.validate(out, spec=SPEC, C=SVR_HYPER.C,
                                epsilon=SVR_HYPER.epsilon)
        assert report == []

    def test_phi_matches_finite_differences(self):
        samples = data.noisy_sine(30, seed=23)
        state = batch.train_svr_batch(samples, SPEC, SVR_HYPER)
        arrivals = data.noisy_sine(4, seed=24, start_id=9100)
        work, ps = prepared_path(state, arrivals, [samples[0].id],
                                 hyper=SVR_HYPER)
        columns = kernels.ColumnCache(work.X, SPEC)
        d = path._direction(work, ps, SVR_HYPER, columns)
        phi = sensitivity_phi(work, ps, d, columns)
        h = 1e-6
        bumped = work.copy()
        bumped.theta[bumped.s_rows] += h * d.dalpha_s
        bumped.theta[ps.drive_rows] += h * d.d_add
        bumped.theta[ps.removal_rows] += h * d.d_rem
        bumped.b += h * d.db
        fd = (model.compute_residuals(bumped, SPEC) - work.outputs) / h
        assert np.max(np.abs(fd - phi)) <= 1e-6

    def test_agrees_with_one_shot_engine(self):
        samples = data.noisy_sine(40, seed=25)
        state = batch.train_svr_batch(samples, SPEC, SVR_HYPER)
        arrivals = data.noisy_sine(6, seed=26, start_id=9200)
        upd = UpdateBatch(add=arrivals, remove=[samples[2].id, samples[7].id])
        via_path = path_update_svr(state, upd, SPEC, SVR_HYPER)
        via_oneshot = update_multi_svr(state, upd, SPEC, SVR_HYPER)
        grid = np.linspace(0, 2 * np.pi, 30)[:, None]
        gap = np.abs(kernels.decision_values(grid, via_path, SPEC)
                     - kernels.decision_values(grid, via_oneshot, SPEC)).max()
        assert gap <= 1e-6
