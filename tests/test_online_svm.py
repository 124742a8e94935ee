import numpy as np
import pytest

from ridgesvm import batch, data, kernels, model, online, online_svm
from ridgesvm.batch import SolverConfig
from ridgesvm.errors import EmptyS, NonpositiveRho, RepairDivergence
from ridgesvm.kernels import KernelSpec
from ridgesvm.model import Hyperparams, Sample, UpdateBatch
from ridgesvm.online import (_release_candidates, enter_bias_end, equilibrium_solve, kkt_repair,
                             wec_predict)
from ridgesvm.online_svm import update_multi_svm, wec_predict_svm
from test_differential import corpus

SPEC = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
HYPER = Hyperparams(C=1.0)


def clean(state, spec=SPEC, hyper=HYPER):
    return model.validate(state, spec=spec, C=hyper.C, epsilon=hyper.epsilon) == []


class TestWecPredict:
    def test_on_margin_gives_zero(self):
        assert wec_predict_svm(1.0, 1.0, rho=0.5, C=1.0) == 0.0

    def test_clamped_at_C(self):
        # (1 - 0.5) / 0.5 = 1.0, the ramp endpoint
        assert wec_predict_svm(0.5, 1.0, rho=0.5, C=1.0) == 1.0

    def test_beyond_margin_clamped_to_zero(self):
        assert wec_predict_svm(2.0, 1.0, rho=0.5, C=1.0) == 0.0

    def test_negative_label_mirror(self):
        assert wec_predict_svm(-0.75, -1.0, rho=0.5, C=1.0) == pytest.approx(0.5)

    def test_nonpositive_rho(self):
        with pytest.raises(NonpositiveRho):
            wec_predict_svm(0.5, 1.0, rho=0.0, C=1.0)

    def test_engine_vector_path_matches(self):
        # dyadic outputs hit the margin (y f = 1) and both clip ends exactly
        f = np.arange(-48, 49) / 16.0
        for label in (1.0, -1.0):
            y = np.full(f.size, label)
            scalar = [wec_predict_svm(v, label, rho=0.5, C=1.0) for v in f]
            vector = wec_predict(y * (f - y), 0.5, 0.0, 1.0, 0.0)
            assert np.array_equal(vector, scalar)
            assert {0.0, 1.0} <= set(scalar) and len(set(scalar)) > 4


def counted_repair(monkeypatch, state, upd, spec, hyper):
    """Run one update and count, inside its repair, the n-wide
    ``ColumnCache.apply`` calls, the snaps, release checks and empty-S steps."""
    counts = dict.fromkeys(("apply", "_snap", "_release_candidates", "enter_bias_end"), 0)
    repairing = []

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += bool(repairing)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(kernels.ColumnCache, "apply",
                        counted("apply", kernels.ColumnCache.apply))
    for name in ("_snap", "_release_candidates", "enter_bias_end"):
        monkeypatch.setattr(online, name, counted(name, getattr(online, name)))
    repair = online.kkt_repair
    monkeypatch.setattr(online, "kkt_repair", lambda *args: repairing.append(1) or repair(*args))
    return online.update_multi(state, upd, spec, hyper), counts


def one_member_s_state(ridge=1.0):
    """Single unbounded SV with x=1, y=+1 under a linear kernel."""
    spec = KernelSpec(family="linear", ridge=ridge)
    state = model.SvmState([Sample(0, np.array([1.0]), 1.0)], alpha=[0.5], b=0.0)
    state.partition = np.array(["S"])
    return state, spec


def arrival_solve(state, spec, arrivals, deltas):
    """The bordered solve for arrivals whose multipliers move by ``deltas``."""
    signed = np.array([s.target for s in arrivals]) * np.asarray(deltas, dtype=float)
    x_d = np.array([s.features for s in arrivals], dtype=float)
    pull = kernels.kernel_matrix(state.X[state.s_rows], x_d, spec) @ signed
    return equilibrium_solve(state, model.column_cache(state, spec), float(signed.sum()), pull)


class TestEquilibriumSolve:
    def test_null_update(self):
        state, spec = one_member_s_state()
        db, dalpha = equilibrium_solve(state, model.column_cache(state, spec), 0.0, np.zeros(1))
        assert db == 0.0
        assert np.allclose(dalpha, 0.0)

    def test_opposite_label_arrival(self):
        # Q_S = [[2]], arrival with K_sd = 0.5, y_d = -1, delta 0.3
        state, spec = one_member_s_state(ridge=1.0)
        d = Sample(1, np.array([0.5]), -1.0)
        db, dalpha = arrival_solve(state, spec, [d], [0.3])
        assert db == pytest.approx(-0.45)
        assert dalpha[0] == pytest.approx(0.3)

    def test_same_label_arrival_cancels(self):
        state, spec = one_member_s_state(ridge=1.0)
        d = Sample(1, np.array([0.5]), 1.0)
        db, dalpha = arrival_solve(state, spec, [d], [0.3])
        assert dalpha[0] == pytest.approx(-0.3)
        assert db == pytest.approx(0.45)

    def test_balance_holds(self):
        samples = data.two_gaussians(40, seed=1)
        state = batch.train_svm_batch(samples, SPEC, HYPER)
        arrivals = data.two_gaussians(6, seed=2, start_id=1000)
        deltas = np.full(6, 0.2)
        db, dalpha_s = arrival_solve(state, SPEC, arrivals, deltas)
        y_d = np.array([s.target for s in arrivals])
        total = state.y[state.s_rows] @ dalpha_s + y_d @ deltas
        assert abs(total) <= 1e-9

    def test_empty_s_raises(self):
        state, spec = one_member_s_state()
        state.partition = np.array(["B"])
        with pytest.raises(EmptyS):
            equilibrium_solve(state, model.column_cache(state, spec), 0.0, np.zeros(0))


class TestKktRepair:
    def test_exact_state_is_fixed_point(self):
        spec = KernelSpec(family="linear", ridge=0.5)
        samples = [Sample(0, np.array([1.0]), 1.0), Sample(1, np.array([-1.0]), -1.0)]
        state = model.SvmState(samples, alpha=[0.4, 0.4], b=0.0)
        state.margins = model.compute_residuals(state, spec)
        state.partition = np.array(["S", "S"])
        out = kkt_repair(state, model.column_cache(state, spec), HYPER)
        assert np.allclose(out.alpha, [0.4, 0.4], atol=1e-12)
        assert out.b == pytest.approx(0.0, abs=1e-12)

    def test_box_violation_clamped_and_recovered(self):
        samples = data.two_gaussians(30, seed=4)
        reference = batch.train_svm_batch(samples, SPEC, HYPER)
        perturbed = reference.copy()
        s = perturbed.s_rows[0]
        perturbed.alpha[s] = HYPER.C + 0.2
        perturbed.margins = model.compute_residuals(perturbed, SPEC)
        out = kkt_repair(perturbed, model.column_cache(perturbed, SPEC), HYPER)
        assert clean(out)
        grid = np.linspace(-3, 3, 10)
        pts = np.column_stack([grid, grid[::-1]])
        ref = kernels.decision_values(pts, reference, SPEC)
        got = kernels.decision_values(pts, out, SPEC)
        assert np.max(np.abs(ref - got)) <= 1e-6

    def test_budget_scales_with_the_instance(self):
        """A shrinking cubic-kernel stream whose rounds need 7, 15 and 13 passes and
        pinned events at 77, 74 and 71 rows, each within the budget its size sets."""
        spec = KernelSpec(family="polynomial", degree=3, offset=1.0, ridge=0.5)
        hyper = Hyperparams(C=20.0)
        state = batch.train_svm_batch(data.two_gaussians(80, seed=3, center=1.0), spec, hyper)
        rng = np.random.default_rng(11)
        for rnd in range(3):
            arrivals = data.two_gaussians(6, seed=100 + rnd, center=1.0, start_id=1000 + 6 * rnd)
            leaving = [int(i) for i in rng.choice(state.ids, size=9, replace=False)]
            state = update_multi_svm(state, UpdateBatch(add=arrivals, remove=leaving),
                                     spec, hyper)
            assert clean(state, spec, hyper)
        oracle = batch.train_svm_batch(state.samples, spec, hyper)
        pts = np.array([s.features for s in state.samples])
        gap = np.max(np.abs(kernels.decision_values(pts, state, spec)
                            - kernels.decision_values(pts, oracle, spec)))
        assert gap <= 1e-4

    def test_unbalanced_state_without_s_is_repaired(self):
        """Two +1 rows at C = 0.1 in B and a -1 row at 0 in O: no violator, balance 0.2.

        The empty-S step moves the bias to the end of its feasible interval
        and enters the row defining it into S, so the repair restores the
        balance from |S| = 1 and meets the batch oracle.
        """
        spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.05)
        hyper = Hyperparams(C=0.1)
        samples = [Sample(0, np.array([0.0, 0.0]), 1.0), Sample(1, np.array([0.5, 0.0]), 1.0),
                   Sample(2, np.array([3.0, 3.0]), -1.0)]
        state = model.SvmState(samples, alpha=[0.1, 0.1, 0.0], b=-5.0)
        state.margins = model.compute_residuals(state, spec)
        state.partition = np.array(["B", "B", "O"])
        assert [v.kind for v in model.validate(state, spec, hyper.C)] == ["balance"]
        work = state.copy()
        out = kkt_repair(work, model.column_cache(work, spec), hyper)
        assert clean(out, spec, hyper)
        oracle = batch.train_svm_batch(samples, spec, hyper)
        pts = np.vstack([state.X, np.linspace(-3.0, 4.0, 15)[:, None].repeat(2, axis=1)])
        gap = np.max(np.abs(kernels.decision_values(pts, out, spec)
                            - kernels.decision_values(pts, oracle, spec)))
        assert gap <= 1e-6

    def test_empty_s_step_needs_a_row_bounding_the_bias(self):
        """A +1 row at zero and a -1 row at C: neither signed multiplier can fall, so
        no row bounds the bias from above and a positive drive has no exact step."""
        spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
        samples = [Sample(0, np.array([0.0]), 1.0), Sample(1, np.array([1.0]), -1.0)]
        state = model.SvmState(samples, alpha=[0.0, HYPER.C])
        state.margins = model.compute_residuals(state, spec)
        state.partition = np.array(["O", "B"])
        bounds = model.bias_bounds(state, HYPER)
        assert np.isinf(bounds[1]).all() and np.isfinite(bounds[0]).all()
        with pytest.raises(EmptyS):
            enter_bias_end(state, 1.0, bounds)
        assert state.b == 0.0 and state.partition.tolist() == ["O", "B"]

    def test_release_ties_follow_sample_ids_not_rows(self):
        """Tied violators are released by id, so a row-permuted state releases alike."""
        resid = np.array([-0.5, -0.2, -0.5, 0.3, -0.2, -0.5])
        ids = [14, 11, 10, 13, 12, 15]
        samples = [Sample(i, np.array([float(i)]), 1.0) for i in ids]

        def released(perm):
            state = model.SvmState([samples[k] for k in perm])
            state.margins = resid[perm]
            return state.ids[_release_candidates(state, HYPER)].tolist()

        assert released(np.arange(6)) == [10, 14, 15, 11, 12]
        assert released(np.array([5, 3, 1, 0, 4, 2])) == [10, 14, 15, 11, 12]

    def test_exhausted_budget_raises(self, monkeypatch):
        """An update round capped below the budget it needs: one unit less than its
        walks' events and empty-S steps, each of which draws on that budget."""
        hyper = Hyperparams(C=0.1)
        state = batch.train_svm_batch(data.two_gaussians(40, seed=0), SPEC, hyper)
        upd = UpdateBatch(add=data.two_gaussians(8, seed=100, start_id=900),
                          remove=[int(i) for i in state.ids[:6]])
        used = []
        walk, bias_end, repair = online._walk, online.enter_bias_end, online.kkt_repair
        monkeypatch.setattr(online, "_walk", lambda *a: (lambda r: used.append(r[0]) or r)(walk(*a)))
        monkeypatch.setattr(online, "enter_bias_end", lambda *a: used.append(1) or bias_end(*a))
        online.update_multi(state, upd, SPEC, hyper)
        assert sum(used) > 1
        monkeypatch.setattr(online, "kkt_repair",
                            lambda *a: repair(*a, max_repair_passes=sum(used) - 1))
        with pytest.raises(RepairDivergence):
            online.update_multi(state, upd, SPEC, hyper)

    def test_rows_outside_s_catch_up_once_per_release_check(self, monkeypatch):
        """Passes move the residuals of S alone.  All n catch up in one product
        before each release check -- the exit's, which finds none, included --
        and each empty-S step, and the returned residuals are exact."""
        hyper = Hyperparams(C=0.1)
        state = batch.train_svm_batch(data.two_gaussians(40, seed=0), SPEC, hyper)
        upd = UpdateBatch(add=data.two_gaussians(8, seed=100, start_id=900),
                          remove=[int(i) for i in state.ids[:6]])
        out, counts = counted_repair(monkeypatch, state, upd, SPEC, hyper)
        assert counts["_snap"] >= 3 and counts["enter_bias_end"] >= 1
        assert counts["apply"] == counts["_release_candidates"] + counts["enter_bias_end"]
        assert np.max(np.abs(out.margins - model.compute_residuals(out, SPEC))) <= 1e-9
        assert clean(out, hyper=hyper)

    def test_a_walk_that_pinned_is_refined_before_the_release_check(self, monkeypatch):
        """Every round of the differential suite's cubic-kernel SVM trial at seed 0
        and C = 1: each walk that pinned is followed by a catch-up and then by a
        fresh solve if a caught-up member lies more than 1e-10 off its margin, by
        the release check if none does.  Some walk of the trial needs the fresh
        solve, whichever round its roundoff puts it in."""
        spec = KernelSpec(family="polynomial", degree=3, offset=1.0, ridge=0.05)
        hyper = Hyperparams(C=1.0)
        start, batches, _ = corpus("svm", seed=0)
        state = batch.train_svm_batch(start, spec, hyper)
        log = []
        walk, catch_up, release = online._walk, online._catch_up, online._release_candidates

        def logged_walk(*args):
            events, step = walk(*args)
            log.append(("walk", events > 1 and step == 1.0))
            return events, step

        def logged_catch_up(work, *args):
            out = catch_up(work, *args)
            log.append(("catch_up", np.max(np.abs(work.margins[work.s_rows]), initial=0.0)))
            return out

        monkeypatch.setattr(online, "_walk", logged_walk)
        monkeypatch.setattr(online, "_catch_up", logged_catch_up)
        monkeypatch.setattr(online, "_release_candidates",
                            lambda *args: log.append(("release", None)) or release(*args))
        refined = 0
        for upd in batches:
            log.clear()
            state = update_multi_svm(state, upd, spec, hyper)
            for i, (kind, pinned) in enumerate(log):
                if kind == "walk" and pinned:
                    (second, miss), (third, _) = log[i + 1], log[i + 2]
                    assert second == "catch_up"
                    assert third == ("walk" if miss > 1e-10 else "release")
                    refined += miss > 1e-10
            assert clean(state, spec, hyper)
        assert refined >= 1

    def test_a_move_at_roundoff_leaves_the_member_where_it_is(self):
        """A walk whose exact solve leaves one member in place: the computed move
        of that member is roundoff, which taken as real would shift its
        multiplier.  The walk keeps the multiplier bit for bit, and the member in S."""
        hyper = Hyperparams(C=10.0)
        state = batch.train_svm_batch(data.two_gaussians(40, seed=0), SPEC, hyper)
        s, signs = state.s_rows, state.signs_of(state.targets)
        segments = model.tube_segments(state, hyper, s)
        mult = state.mult[s]
        j = int(np.argmin(mult))  # the finest spacing of floats, so a roundoff move shows
        # half of each member's room, so the walk takes the full step
        room = np.minimum(mult - segments[1], segments[2] - mult)
        moves = 0.5 * room * np.random.default_rng(0).uniform(-1.0, 1.0, s.size)
        sol = np.concatenate(([0.1], signs[s] * moves))
        sol[1 + j] = 0.0
        bordered = np.ones((s.size + 1, s.size + 1))
        bordered[0, 0] = 0.0
        bordered[1:, 1:] = kernels.q_matrix_svr(state.X[s], SPEC)
        rhs = -(bordered @ sol)  # the balance and target whose solve is sol
        cache = model.column_cache(state, SPEC)
        x = -model.ensure_cached_inverse(state, cache).apply(rhs)
        assert mult[j] + signs[s[j]] * x[1 + j] != mult[j]  # the roundoff would show
        before = state.mult[s[j]]
        events, step = online._walk(state, cache, signs, s, segments, rhs[0], rhs[1:],
                                    2 * state.n)
        assert (events, step) == (1, 1.0)
        assert state.mult[s[j]] == before
        assert state.partition[s[j]] == model.REGION_S
        assert np.max(np.abs(signs[s] * (state.mult[s] - mult) - sol[1:])) <= 1e-12


class TestUpdateMultiSvm:
    def test_empty_batch_is_noop(self):
        state = batch.train_svm_batch(data.two_gaussians(30, seed=5), SPEC, HYPER)
        out = update_multi_svm(state, UpdateBatch(), SPEC, HYPER)
        assert np.array_equal(out.alpha, state.alpha)
        assert out.b == state.b
        assert np.array_equal(out.partition, state.partition)

    def test_input_state_not_mutated(self):
        state = batch.train_svm_batch(data.two_gaussians(30, seed=5), SPEC, HYPER)
        before = state.alpha.copy()
        arrivals = data.two_gaussians(6, seed=6, start_id=500)
        update_multi_svm(state, UpdateBatch(add=arrivals, remove=[state.ids[0]]),
                         SPEC, HYPER)
        assert np.array_equal(state.alpha, before)

    def test_small_round_matches_batch_retrain(self):
        samples = data.two_gaussians(20, seed=7)
        state = batch.train_svm_batch(samples, SPEC, HYPER)
        arrivals = data.two_gaussians(6, seed=8, start_id=600)
        remove_ids = [samples[2].id, samples[11].id]
        out = update_multi_svm(state, UpdateBatch(add=arrivals, remove=remove_ids),
                               SPEC, HYPER)
        survivors = [s for s in samples if s.id not in set(remove_ids)] + arrivals
        oracle = batch.train_svm_batch(survivors, SPEC, HYPER)
        grid = np.column_stack([np.linspace(-3, 3, 25), np.linspace(3, -3, 25)])
        gap = np.abs(
            kernels.decision_values(grid, out, SPEC)
            - kernels.decision_values(grid, oracle, SPEC)
        ).max()
        assert gap <= 1e-3
        assert clean(out)

    def test_duplicate_of_o_sample_stays_o(self):
        samples = data.two_gaussians(30, seed=9)
        state = batch.train_svm_batch(samples, SPEC, HYPER)
        o_row = state.o_rows[0]
        dup = Sample(id=9999, features=state.X[o_row].copy(), target=state.y[o_row])
        grid = np.column_stack([np.linspace(-3, 3, 20), np.linspace(-3, 3, 20)])
        before = kernels.decision_values(grid, state, SPEC)
        out = update_multi_svm(state, UpdateBatch(add=[dup]), SPEC, HYPER)
        after = kernels.decision_values(grid, out, SPEC)
        assert out.partition[out.rows_of([9999])[0]] == "O"
        assert np.max(np.abs(before - after)) <= 1e-9

    def test_cold_start_equals_batch_training(self):
        arrivals = data.two_gaussians(20, seed=10)
        empty = model.SvmState([])
        out = update_multi_svm(empty, UpdateBatch(add=arrivals), SPEC, HYPER)
        oracle = batch.train_svm_batch(arrivals, SPEC, HYPER)
        # the repair pass pins the equilibrium exactly; the oracle is only
        # converged to its own tolerance
        assert np.allclose(out.alpha, oracle.alpha, atol=1e-6)
        assert out.b == pytest.approx(oracle.b, abs=1e-6)

    def test_removing_every_unbounded_sv_rebuilds(self):
        samples = data.two_gaussians(40, seed=11)
        state = batch.train_svm_batch(samples, SPEC, HYPER)
        sv_ids = [int(state.ids[r]) for r in state.s_rows]
        assert sv_ids
        out = update_multi_svm(state, UpdateBatch(remove=sv_ids), SPEC, HYPER)
        survivors = [s for s in samples if s.id not in set(sv_ids)]
        oracle = batch.train_svm_batch(survivors, SPEC, HYPER)
        grid = np.column_stack([np.linspace(-3, 3, 25), np.linspace(-3, 3, 25)])
        gap = np.abs(
            kernels.decision_values(grid, out, SPEC)
            - kernels.decision_values(grid, oracle, SPEC)
        ).max()
        assert gap <= 1e-3
        assert clean(out)

    def test_margin_cache_stays_fresh(self):
        samples = data.two_gaussians(40, seed=12)
        state = batch.train_svm_batch(samples, SPEC, HYPER)
        arrivals = data.two_gaussians(8, seed=13, start_id=700)
        out = update_multi_svm(
            state, UpdateBatch(add=arrivals, remove=[samples[1].id]), SPEC, HYPER
        )
        fresh = model.compute_residuals(out, SPEC)
        assert np.max(np.abs(fresh - out.margins)) <= 1e-9

    def test_fresh_id_enforced(self):
        samples = data.two_gaussians(10, seed=14)
        state = batch.train_svm_batch(samples, SPEC, HYPER)
        dup_id = Sample(id=int(state.ids[0]), features=np.zeros(2), target=1.0)
        with pytest.raises(ValueError):
            update_multi_svm(state, UpdateBatch(add=[dup_id]), SPEC, HYPER)


class TestInvariantsOverRounds:
    def test_ten_mixed_rounds_track_the_oracle(self):
        rng = np.random.default_rng(20)
        samples = data.two_gaussians(80, seed=21)
        pool = data.two_gaussians(80, seed=22, start_id=2000)
        state = batch.train_svm_batch(samples, SPEC, HYPER)
        current = list(samples)
        grid = np.column_stack(
            [np.linspace(-3, 3, 25), rng.uniform(-3, 3, 25)]
        )
        cursor = 0
        for round_no in range(10):
            adds = pool[cursor:cursor + 6]
            cursor += 6
            remove_ids = [
                int(i) for i in rng.choice(
                    [s.id for s in current], size=2, replace=False
                )
            ]
            batch_upd = UpdateBatch(add=adds, remove=remove_ids)
            state = update_multi_svm(state, batch_upd, SPEC, HYPER)
            current = [s for s in current if s.id not in set(remove_ids)] + list(adds)

            assert abs(state.y @ state.alpha) <= 1e-9
            s_rows = state.s_rows
            assert np.max(np.abs(state.margins[s_rows]), initial=0.0) <= 1e-6
            assert clean(state)

            oracle = batch.train_svm_batch(current, SPEC, HYPER)
            gap = np.abs(
                kernels.decision_values(grid, state, SPEC)
                - kernels.decision_values(grid, oracle, SPEC)
            ).max()
            assert gap <= 1e-3, f"round {round_no}: gap {gap}"

    def test_wec_ramp_exact_on_unbounded_svs(self):
        samples = data.two_gaussians(60, seed=30)
        state = batch.train_svm_batch(
            samples, SPEC, HYPER, SolverConfig(kkt_tolerance=1e-9)
        )
        s_rows = state.s_rows
        assert s_rows.size > 0
        f_test = kernels.decision_values(state.X[s_rows], state, SPEC)
        predicted = (1.0 - state.y[s_rows] * f_test) / SPEC.ridge
        assert np.max(np.abs(predicted - state.alpha[s_rows])) <= 1e-6

    def test_determinism(self):
        samples = data.two_gaussians(40, seed=31)
        pool = data.two_gaussians(12, seed=32, start_id=3000)
        outs = []
        for _ in range(2):
            state = batch.train_svm_batch(samples, SPEC, HYPER)
            state = update_multi_svm(
                state, UpdateBatch(add=pool[:6], remove=[samples[0].id]), SPEC, HYPER
            )
            state = update_multi_svm(
                state, UpdateBatch(add=pool[6:], remove=[samples[5].id]), SPEC, HYPER
            )
            outs.append(state)
        assert np.array_equal(outs[0].alpha, outs[1].alpha)
        assert outs[0].b == outs[1].b
        assert np.array_equal(outs[0].partition, outs[1].partition)
