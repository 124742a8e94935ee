import numpy as np
import pytest

from ridgesvm import batch, data, kernels, linalg, model, online, online_svr
from ridgesvm.errors import NonpositiveRho, RepairDivergence, SingularCornerBlock
from ridgesvm.kernels import KernelSpec
from ridgesvm.model import Hyperparams, Sample, UpdateBatch
from ridgesvm.online import equilibrium_solve, wec_predict
from ridgesvm.online_svr import update_multi_svr, wec_predict_svr
from test_online_svm import counted_repair

SPEC = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
HYPER = Hyperparams(C=1.0, epsilon=0.2)


def clean(state, spec=SPEC, hyper=HYPER):
    return model.validate(state, spec=spec, C=hyper.C, epsilon=hyper.epsilon) == []


class TestWecPredictSvr:
    def test_on_tube_edge_gives_zero(self):
        assert wec_predict_svr(0.2, 0.0, rho=0.5, C=1.0, epsilon=0.2) == 0.0

    def test_clamped_at_negative_c(self):
        # (0.2 - 0.7) / 0.5 = -1, the box corner
        assert wec_predict_svr(0.7, 0.0, rho=0.5, C=1.0, epsilon=0.2) == pytest.approx(-1.0)
        # clearly beyond the corner the clamp binds exactly
        assert wec_predict_svr(2.0, 0.0, rho=0.5, C=1.0, epsilon=0.2) == -1.0

    def test_below_tube_formula(self):
        # (-0.2 + 0.5) / 0.5 = 0.6
        assert wec_predict_svr(-0.5, 0.0, rho=0.5, C=1.0, epsilon=0.2) == pytest.approx(0.6)

    def test_inside_tube_zero(self):
        assert wec_predict_svr(0.1, 0.0, rho=0.5, C=1.0, epsilon=0.2) == 0.0

    def test_zero_epsilon_allowed(self):
        assert wec_predict_svr(0.1, 0.0, rho=0.5, C=1.0, epsilon=0.0) == pytest.approx(-0.2)

    def test_nonpositive_rho(self):
        with pytest.raises(NonpositiveRho):
            wec_predict_svr(0.5, 0.0, rho=0.0, C=1.0, epsilon=0.1)

    @pytest.mark.parametrize("epsilon", [0.0, 0.25])
    def test_engine_vector_path_matches(self, epsilon):
        # dyadic errors hit both tube edges and both clip ends exactly
        target = 0.5
        f = target + np.arange(-48, 49) / 16.0
        t = np.full(f.size, target)
        scalar = [wec_predict_svr(v, target, rho=0.5, C=1.0, epsilon=epsilon) for v in f]
        vector = wec_predict(f - t, 0.5, -1.0, 1.0, epsilon)
        assert np.array_equal(vector, scalar)
        assert {-1.0, 0.0, 1.0} <= set(scalar)


def one_member_s_state(ridge=1.0):
    """Single unbounded SV with gram entry 2 under a linear kernel."""
    spec = KernelSpec(family="linear", ridge=ridge)
    state = model.SvrState([Sample(0, np.array([1.0]), 0.5)], theta=[-0.3], b=0.0)
    state.partition = np.array(["S"])
    return state, spec


def arrival_solve(state, spec, arrivals, deltas):
    """The bordered solve for arrivals whose multipliers move by ``deltas``."""
    signed = np.asarray(deltas, dtype=float)
    x_d = np.array([s.features for s in arrivals], dtype=float)
    pull = kernels.kernel_matrix(state.X[state.s_rows], x_d, spec) @ signed
    return equilibrium_solve(state, model.column_cache(state, spec), float(signed.sum()), pull)


def pinning_round():
    """``(state, batch, hyper)`` of a round whose first repair pass blocks three times."""
    hyper = Hyperparams(C=1.0, epsilon=0.1)
    state = batch.train_svr_batch(data.noisy_sine(40, seed=1, noise=0.25), SPEC, hyper)
    leaving = np.random.default_rng(0).choice(state.ids, size=8, replace=False)
    return state, UpdateBatch(add=data.noisy_sine(8, seed=100, noise=0.25, start_id=1000),
                              remove=[int(i) for i in leaving]), hyper


class TestEquilibriumSolveSvr:
    def test_null_update(self):
        state, spec = one_member_s_state()
        db, dtheta = equilibrium_solve(state, model.column_cache(state, spec), 0.0, np.zeros(1))
        assert db == 0.0
        assert np.allclose(dtheta, 0.0)

    def test_single_arrival(self):
        # gram_S = [[2]], cross entry 0.5, delta 0.3
        # solve [0,1;1,2][db;dth] = -[0.3;0.15] -> dth = -0.3, db = 0.45
        state, spec = one_member_s_state(ridge=1.0)
        d = Sample(1, np.array([0.5]), 0.0)
        db, dtheta = arrival_solve(state, spec, [d], [0.3])
        assert dtheta[0] == pytest.approx(-0.3)
        assert db == pytest.approx(0.45)

    def test_symmetric_pair_splits_evenly(self):
        spec = KernelSpec(family="rbf", sigma=1.0, ridge=1.0)
        samples = [
            Sample(0, np.array([1.0, 0.0]), 0.4),
            Sample(1, np.array([-1.0, 0.0]), -0.4),
        ]
        state = model.SvrState(samples, theta=[0.1, -0.1], b=0.0)
        state.partition = np.array(["S", "S"])
        d = Sample(2, np.array([0.0, 5.0]), 0.0)  # equidistant from both
        db, dtheta = arrival_solve(state, spec, [d], [0.4])
        assert dtheta[0] == pytest.approx(dtheta[1])
        assert dtheta.sum() + 0.4 == pytest.approx(0.0, abs=1e-12)

    def test_balance(self):
        state = batch.train_svr_batch(data.noisy_sine(40, seed=1), SPEC, HYPER)
        arrivals = data.noisy_sine(5, seed=2, start_id=900)
        deltas = np.array([0.1, -0.2, 0.3, 0.0, 0.05])
        db, dtheta_s = arrival_solve(state, SPEC, arrivals, deltas)
        assert abs(dtheta_s.sum() + deltas.sum()) <= 1e-9


class TestUpdateMultiSvr:
    def test_empty_batch_is_noop(self):
        state = batch.train_svr_batch(data.noisy_sine(30, seed=3), SPEC, HYPER)
        out = update_multi_svr(state, UpdateBatch(), SPEC, HYPER)
        assert np.array_equal(out.theta, state.theta)
        assert out.b == state.b

    def test_inside_tube_arrival_keeps_model(self):
        state = batch.train_svr_batch(data.noisy_sine(40, seed=4), SPEC, HYPER)
        grid = np.linspace(0, 2 * np.pi, 30)[:, None]
        preds = kernels.decision_values(grid, state, SPEC)
        # construct a point exactly on the current curve: error zero
        x_new = np.array([3.0])
        f_new = kernels.decision_value(x_new, state, SPEC)
        arrival = Sample(id=5000, features=x_new, target=f_new)
        out = update_multi_svr(state, UpdateBatch(add=[arrival]), SPEC, HYPER)
        assert out.partition[out.rows_of([5000])[0]] == "O"
        after = kernels.decision_values(grid, out, SPEC)
        assert np.max(np.abs(preds - after)) <= 1e-9

    def test_round_matches_batch_retrain(self):
        samples = data.noisy_sine(30, seed=5)
        state = batch.train_svr_batch(samples, SPEC, HYPER)
        arrivals = data.noisy_sine(6, seed=6, start_id=800)
        remove_ids = [samples[0].id, samples[9].id]
        out = update_multi_svr(
            state, UpdateBatch(add=arrivals, remove=remove_ids), SPEC, HYPER
        )
        survivors = [s for s in samples if s.id not in set(remove_ids)] + arrivals
        oracle = batch.train_svr_batch(survivors, SPEC, HYPER)
        grid = np.linspace(0, 2 * np.pi, 30)[:, None]
        gap = np.abs(
            kernels.decision_values(grid, out, SPEC)
            - kernels.decision_values(grid, oracle, SPEC)
        ).max()
        assert gap <= 1e-3
        assert clean(out)

    def test_rows_outside_s_catch_up_once_per_release_check(self, monkeypatch):
        """Passes move the residuals of S alone.  All n catch up in one product
        before each release check -- the exit's, which finds none, included --
        and each empty-S step, and the returned residuals are exact."""
        hyper = Hyperparams(C=0.05, epsilon=0.05)
        state = batch.train_svr_batch(data.noisy_sine(40, seed=1), SPEC, hyper)
        upd = UpdateBatch(add=data.noisy_sine(8, seed=101, start_id=900),
                          remove=[int(i) for i in state.ids[:6]])
        out, counts = counted_repair(monkeypatch, state, upd, SPEC, hyper)
        assert counts["_snap"] >= 3 and counts["enter_bias_end"] >= 1
        assert counts["apply"] == counts["_release_candidates"] + counts["enter_bias_end"]
        assert np.max(np.abs(out.outputs - model.compute_residuals(out, SPEC))) <= 1e-9
        assert clean(out, hyper=hyper)

    def test_blocked_members_are_pinned_in_the_pass_solve(self, monkeypatch):
        """A round whose first repair pass blocks three times: the blocked
        members are pinned in that pass's one solve, so the update solves no
        more than once per release check and refinement, and each direction
        after pinning is the fresh solve over the reduced S."""
        state, upd, hyper = pinning_round()
        solves, snapped, walks, pins = [0], [], [], []
        apply, snap, walk, pinned_direction = (linalg.BorderedInverse.apply, online._snap,
                                               online._walk, online._pinned_direction)

        def counted_apply(inv, rhs):
            solves[0] += 1
            return apply(inv, rhs)

        def kept_snap(work, *args):
            snap(work, *args)
            snapped.append(work.copy())

        def counted_walk(*args):
            before = len(snapped)
            out = walk(*args)
            walks.append(len(snapped) - before)
            return out

        def kept_direction(x, z, pinned, scale):
            out = pinned_direction(x, z, pinned, scale)
            pins.append((out, pinned, snapped[-1]))
            return out

        monkeypatch.setattr(linalg.BorderedInverse, "apply", counted_apply)
        monkeypatch.setattr(online, "_snap", kept_snap)
        monkeypatch.setattr(online, "_walk", counted_walk)
        monkeypatch.setattr(online, "_pinned_direction", kept_direction)
        out, counts = counted_repair(monkeypatch, state, upd, SPEC, hyper)
        assert max(walks) >= 3 and len(pins) >= 2
        refinements = counts["apply"] - counts["_release_candidates"] - counts["enter_bias_end"]
        assert solves[0] <= counts["_release_candidates"] + refinements
        assert clean(out, hyper=hyper)

        for direction, pinned, work in pins:
            live = np.delete(np.arange(direction.size - 1), pinned)
            model.refresh_cached_inverse(work, SPEC)
            s = work.s_rows
            assert s.size == live.size
            edge = model.tube_segments(work, hyper, s)[0]
            rhs = np.concatenate(([work.mult.sum()], work.resid[s] - edge))
            fresh = -work.cached_inverse.apply(rhs)
            assert np.max(np.abs(direction[np.r_[0, 1 + live]] - fresh)) <= 1e-10
            assert np.max(np.abs(direction[1 + pinned])) <= 1e-10

    def test_a_tiny_pivot_leaves_the_rest_to_a_fresh_solve(self, monkeypatch):
        """When ``Z_PP`` has a tiny pivot the walk stops after its snaps and the
        next pass solves afresh over the members left: the round ends with the
        tags and predictions of the round whose walk pinned them."""
        state, upd, hyper = pinning_round()
        want = online.update_multi(state, upd, SPEC, hyper)
        pinned_direction, walk = online._pinned_direction, online._walk
        raised, exits = [], []

        def singular_once(*args):
            if not raised:
                raised.append(args)
                raise SingularCornerBlock("a tiny pivot in the pinned block")
            return pinned_direction(*args)

        def kept_walk(*args):
            before = len(raised)
            out = walk(*args)
            if len(raised) > before:
                exits.append(out)
            return out

        monkeypatch.setattr(online, "_pinned_direction", singular_once)
        monkeypatch.setattr(online, "_walk", kept_walk)
        got = online.update_multi(state, upd, SPEC, hyper)
        assert len(raised) == 1 and len(exits) == 1
        events, step = exits[0]
        assert events >= 1 and 1e-12 < step < 1.0  # the walk stopped short of its target
        assert clean(got, hyper=hyper)
        assert np.array_equal(got.ids, want.ids)
        assert np.array_equal(got.partition, want.partition)
        grid = np.linspace(0, 2 * np.pi, 25)[:, None]
        gap = np.abs(kernels.decision_values(grid, got, SPEC)
                     - kernels.decision_values(grid, want, SPEC))
        assert gap.max() <= 1e-10

    def test_each_pinned_event_draws_on_the_budget(self, monkeypatch):
        """The round above needs one unit of the repair budget per pass and per
        pinned event: as many as it would take passes with a solve after every block."""
        state, upd, hyper = pinning_round()
        events = []
        walk, repair = online._walk, online.kkt_repair
        monkeypatch.setattr(online, "_walk", lambda *a: (lambda r: events.append(r[0]) or r)(walk(*a)))
        online.update_multi(state, upd, SPEC, hyper)
        needed = sum(events)
        assert needed > len(events)
        monkeypatch.setattr(online, "kkt_repair",
                            lambda *a: repair(*a, max_repair_passes=needed - 1))
        with pytest.raises(RepairDivergence):
            online.update_multi(state, upd, SPEC, hyper)
        monkeypatch.setattr(online, "kkt_repair", lambda *a: repair(*a, max_repair_passes=needed))
        assert clean(online.update_multi(state, upd, SPEC, hyper), hyper=hyper)

    def test_cold_start(self):
        arrivals = data.noisy_sine(20, seed=7)
        out = update_multi_svr(model.SvrState([]), UpdateBatch(add=arrivals), SPEC, HYPER)
        oracle = batch.train_svr_batch(arrivals, SPEC, HYPER)
        assert np.allclose(out.theta, oracle.theta, atol=1e-6)

    def test_ten_mixed_rounds_track_the_oracle(self):
        rng = np.random.default_rng(40)
        samples = data.noisy_sine(80, seed=41)
        pool = data.noisy_sine(80, seed=42, start_id=4000)
        state = batch.train_svr_batch(samples, SPEC, HYPER)
        current = list(samples)
        grid = np.linspace(0, 2 * np.pi, 25)[:, None]
        cursor = 0
        for round_no in range(10):
            adds = pool[cursor:cursor + 6]
            cursor += 6
            remove_ids = [
                int(i) for i in rng.choice([s.id for s in current], size=2, replace=False)
            ]
            state = update_multi_svr(
                state, UpdateBatch(add=adds, remove=remove_ids), SPEC, HYPER
            )
            current = [s for s in current if s.id not in set(remove_ids)] + list(adds)

            assert abs(state.theta.sum()) <= 1e-9
            s_rows = state.s_rows
            tube_err = np.abs(np.abs(state.outputs[s_rows]) - HYPER.epsilon)
            assert np.max(tube_err, initial=0.0) <= 1e-6
            assert clean(state)

            oracle = batch.train_svr_batch(current, SPEC, HYPER)
            gap = np.abs(
                kernels.decision_values(grid, state, SPEC)
                - kernels.decision_values(grid, oracle, SPEC)
            ).max()
            assert gap <= 1e-3, f"round {round_no}: gap {gap}"

    def test_wec_ramp_exact_on_unbounded_svs(self):
        from ridgesvm.batch import SolverConfig
        samples = data.noisy_sine(60, seed=50)
        state = batch.train_svr_batch(
            samples, SPEC, HYPER, SolverConfig(kkt_tolerance=1e-9)
        )
        s_rows = state.s_rows
        assert s_rows.size > 0
        f_test = kernels.decision_values(state.X[s_rows], state, SPEC)
        errors = f_test - state.targets[s_rows]
        predicted = [
            wec_predict_svr(f, t, SPEC.ridge, HYPER.C, HYPER.epsilon)
            for f, t in zip(f_test, state.targets[s_rows])
        ]
        assert np.max(np.abs(np.asarray(predicted) - state.theta[s_rows])) <= 1e-6
        # ramp geometry: slope -1/rho through the tube edges
        assert np.max(np.abs(errors + SPEC.ridge * state.theta[s_rows])
                      - HYPER.epsilon) <= 1e-6

    def test_zero_epsilon_rounds(self):
        hyper = Hyperparams(C=1.0, epsilon=0.0)
        samples = data.noisy_sine(40, seed=60, noise=0.05)
        state = batch.train_svr_batch(samples, SPEC, hyper)
        arrivals = data.noisy_sine(6, seed=61, start_id=6000, noise=0.05)
        out = update_multi_svr(
            state, UpdateBatch(add=arrivals, remove=[samples[3].id]), SPEC, hyper
        )
        survivors = [s for s in samples if s.id != samples[3].id] + arrivals
        oracle = batch.train_svr_batch(survivors, SPEC, hyper)
        grid = np.linspace(0, 2 * np.pi, 20)[:, None]
        gap = np.abs(
            kernels.decision_values(grid, out, SPEC)
            - kernels.decision_values(grid, oracle, SPEC)
        ).max()
        assert gap <= 1e-3
        assert clean(out, hyper=hyper)

    def test_determinism(self):
        samples = data.noisy_sine(40, seed=70)
        pool = data.noisy_sine(12, seed=71, start_id=7000)
        outs = []
        for _ in range(2):
            state = batch.train_svr_batch(samples, SPEC, HYPER)
            state = update_multi_svr(
                state, UpdateBatch(add=pool[:6], remove=[samples[0].id]), SPEC, HYPER
            )
            state = update_multi_svr(
                state, UpdateBatch(add=pool[6:], remove=[samples[5].id]), SPEC, HYPER
            )
            outs.append(state)
        assert np.array_equal(outs[0].theta, outs[1].theta)
        assert outs[0].b == outs[1].b
