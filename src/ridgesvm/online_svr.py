"""One-shot multiple incremental/decremental updates for ridge SVR.

The regression analog of the one-shot classification update: arriving
samples get their signed multipliers predicted from the two tube-edge
ramps, leaving multipliers are negated outright, and a single bordered
solve with an all-ones border re-balances the unbounded set and the bias.
Membership repair works against the five-branch tube conditions.
"""
from __future__ import annotations

import numpy as np

from . import batch as batch_solver
from . import kernels, model
from .errors import EmptyS, NoConvergence, NonpositiveRho, RepairDivergence
from .model import REGION_B, REGION_O, REGION_S

MAX_REPAIR_PASSES = 50
_MIGRATE_TOL = 1e-10


def wec_predict_svr(f_value, target, rho, C, epsilon) -> float:
    """Predict a new sample's theta from its test-point error.

    The ramp has slope -1/rho on each side of the tube and crosses zero at
    error +/- epsilon; inside the tube the multiplier is zero.
    """
    if rho <= 0:
        raise NonpositiveRho("multiplier prediction requires ridge > 0")
    e = f_value - target
    if e > epsilon:
        return float(min(max((epsilon - e) / rho, -C), 0.0))
    if e < -epsilon:
        return float(min(max((-epsilon - e) / rho, 0.0), C))
    return 0.0


def assign_removals_svr(state: model.SvrState, remove_ids) -> np.ndarray:
    """Full-removal deltas: every leaving theta is driven to zero at once."""
    rows = state.rows_of(remove_ids)
    return -state.theta[rows]


def equilibrium_solve_svr(state, spec, add_samples, delta_add, remove_rows, delta_remove):
    """Bias/theta shifts keeping the unbounded set pinned to the tube.

    Same bordered structure as the classification solve but with an
    all-ones border (the multiplier balance has no labels).  Returns
    ``(delta_b, delta_theta_S)``.
    """
    s_rows = state.s_rows
    if s_rows.size == 0:
        raise EmptyS("equilibrium solve needs a nonempty unbounded set")
    inv = model.ensure_cached_inverse(state, spec)

    delta_add = np.asarray(delta_add, dtype=float)
    delta_remove = np.asarray(delta_remove, dtype=float)
    xs, ids_s = state.X[s_rows], state.ids[s_rows]

    rhs_top = 0.0
    rhs_body = np.zeros(s_rows.size)
    if len(add_samples):
        x_d = np.array([s.features for s in add_samples], dtype=float)
        rhs_top += float(delta_add.sum())
        rhs_body += kernels.gram_block(xs, x_d, spec) @ delta_add
    remove_rows = np.asarray(remove_rows, dtype=int)
    if remove_rows.size:
        rhs_top += float(delta_remove.sum())
        rhs_body += kernels.gram_block(
            xs, state.X[remove_rows], spec, ids_s, state.ids[remove_rows]
        ) @ delta_remove

    sol = -inv.inv @ np.concatenate(([rhs_top], rhs_body))
    return float(sol[0]), sol[1:]


def _tube_targets(state: model.SvrState, epsilon: float, s_rows) -> np.ndarray:
    """Which tube edge each unbounded member is pinned to.

    A nonzero theta fixes the side (the residual opposes the multiplier);
    a member entering with theta = 0 takes the edge its residual touched.
    """
    if epsilon == 0.0:
        return np.zeros(s_rows.size)
    theta = state.theta[s_rows]
    return np.where(np.abs(theta) > model.BOUND_TOL, -epsilon * np.sign(theta),
                    epsilon * np.sign(state.outputs[s_rows]))


def _snap(state: model.SvrState, cache, rows, bounds) -> None:
    """Pin ``S`` members onto a segment edge: zero exits to ``O``, a corner to ``B``."""
    deltas = bounds - state.theta[rows]
    state.theta[rows] = bounds
    if deltas.any():
        state.outputs += cache.apply(rows, deltas)
    model.shrink_cached_inverse(state, rows)  # while tagged S
    state.partition[rows] = np.where(bounds == 0.0, REGION_O, REGION_B)


def _release_candidates_svr(state: model.SvrState, eps: float) -> list[int]:
    """Tube violators among bounded/zero members, worst first.

    A member saturated above the tube must keep its residual >= eps, one
    saturated below must keep it <= -eps, and a zero multiplier must stay
    inside the tube.
    """
    b_rows, o_rows = state.b_rows, state.o_rows
    out_b = state.outputs[b_rows]
    viol_b = np.where(state.theta[b_rows] < 0, eps - out_b, out_b + eps)
    viol_o = np.abs(state.outputs[o_rows]) - eps
    viols = np.concatenate([viol_b, viol_o])
    rows = np.concatenate([b_rows, o_rows])
    keep = viols > _MIGRATE_TOL
    order = np.lexsort((rows[keep], -viols[keep]))
    return [int(r) for r in rows[keep][order]]


def kkt_repair_svr(state: model.SvrState, spec, hyper, max_repair_passes=MAX_REPAIR_PASSES,
                   _cache: kernels.ColumnCache | None = None):
    """Restore the five-branch tube conditions after a one-shot update.

    Mirrors the classification repair: walk toward each equilibrium solve
    only as far as the member's tube-side segment allows, snap blockers
    onto the segment edge they hit (the zero kink exits to ``O``, the box
    corner to ``B``), and release the worst tube violator once the solve
    target is reached.
    """
    C, eps = hyper.C, hyper.epsilon
    cache = _cache if _cache is not None and _cache.x is state.X \
        else model.column_cache(state, spec)
    single_release = False
    for _ in range(max_repair_passes):
        s_rows = state.s_rows
        if s_rows.size == 0:
            if not _release_candidates_svr(state, eps):
                np.clip(state.theta, -C, C, out=state.theta)
                return state
            raise EmptyS("no unbounded set left to repair against")

        # per-member segment: one tube side when eps > 0, the full box else
        tube = _tube_targets(state, eps, s_rows)
        if eps > 0:
            lo = np.where(tube > 0, -C, 0.0)
            hi = np.where(tube > 0, 0.0, C)
        else:
            lo = np.full(s_rows.size, -C)
            hi = np.full(s_rows.size, C)
        theta_s = state.theta[s_rows]

        # reset members the unclamped one-shot deltas pushed out of their
        # tube-side segment onto the violated edge before anything else
        below = theta_s < lo - _MIGRATE_TOL
        outside = below | (theta_s > hi + _MIGRATE_TOL)
        if outside.any():
            _snap(state, cache, s_rows[outside], np.where(below, lo, hi)[outside])
            continue
        inv = model.ensure_cached_inverse(state, spec)

        b_rows = state.b_rows
        rhs_top = -float(state.theta[b_rows].sum()) if b_rows.size else 0.0
        rhs_body = state.targets[s_rows] + tube
        if b_rows.size:
            q_sb = kernels.gram_block(
                state.X[s_rows], state.X[b_rows], spec,
                state.ids[s_rows], state.ids[b_rows],
            )
            rhs_body = rhs_body - q_sb @ state.theta[b_rows]
        sol = inv.inv @ np.concatenate(([rhs_top], rhs_body))
        target_b, target_theta = float(sol[0]), sol[1:]

        d_theta = target_theta - theta_s
        d_b = target_b - state.b

        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(
                d_theta > 1e-14, (hi - theta_s) / d_theta,
                np.where(d_theta < -1e-14, (lo - theta_s) / d_theta, np.inf),
            )
        step = min(1.0, float(np.min(room, initial=np.inf)))
        step = max(step, 0.0)

        if step > 0.0:
            move = step * d_theta
            state.outputs += cache.apply(s_rows, move) + step * d_b
            state.theta[s_rows] += move
            state.b += step * d_b

        if step < 1.0:
            if step <= 1e-12:
                single_release = True
            blocked = np.flatnonzero(room <= step + 1e-12)
            bounds = np.where(d_theta[blocked] > 0, hi[blocked], lo[blocked])
            _snap(state, cache, s_rows[blocked], bounds)
            continue

        releases = _release_candidates_svr(state, eps)
        if not releases:
            np.clip(state.theta, -C, C, out=state.theta)
            return state
        if single_release:
            releases = releases[:1]
        state.partition[releases] = REGION_S
        model.grow_cached_inverse(state, spec, releases)
    raise RepairDivergence(
        f"membership did not settle within {max_repair_passes} passes"
    )


def rebuild_empty_S_svr(state: model.SvrState, incoming, spec, hyper, config=None):
    """Re-establish an unbounded set for regression when ``S`` is empty.

    Batch-solves over the bounded members plus arrivals with non-support
    vectors held at zero; falls back to a full retrain when the restricted
    route fails.
    """
    free = state.partition == REGION_B
    free_samples = [state.samples[r] for r in np.flatnonzero(free)] + list(incoming)
    o_rows = np.flatnonzero(~free)

    if len(free_samples) >= 2:
        try:
            sub = batch_solver.train_svr_batch(free_samples, spec, hyper, config)
            merged = model.SvrState(
                [state.samples[r] for r in o_rows] + list(sub.samples)
            )
            merged.theta = np.concatenate([np.zeros(len(o_rows)), sub.theta])
            merged.b = sub.b
            merged.outputs = model.compute_outputs_svr(merged, spec)
            merged.partition = np.concatenate(
                [np.full(len(o_rows), REGION_O, dtype="<U1"), sub.partition]
            )
            model.refresh_cached_inverse(merged, spec)
            return kkt_repair_svr(merged, spec, hyper)
        except (EmptyS, RepairDivergence, NoConvergence):
            pass
    return batch_solver.train_svr_batch(
        list(state.samples) + list(incoming), spec, hyper, config
    )


def update_multi_svr(state: model.SvrState, batch: model.UpdateBatch, spec, hyper
                     ) -> model.SvrState:
    """Apply one add/remove batch atomically; returns a new state."""
    model._check_batch(state, batch)
    if batch.is_empty():
        return state.copy()
    work = state.copy()
    C, eps = hyper.C, hyper.epsilon

    if work.n == 0:
        return rebuild_empty_S_svr(work, batch.add, spec, hyper)

    remove_rows = work.rows_of(batch.remove)
    delta_remove = -work.theta[remove_rows]

    s_leavers = [int(r) for r in remove_rows if work.partition[r] == REGION_S]
    if s_leavers:
        model.shrink_cached_inverse(work, s_leavers)
        work.partition[s_leavers] = REGION_O

    if work.s_rows.size == 0:
        work.delete_rows(remove_rows)
        return rebuild_empty_S_svr(work, batch.add, spec, hyper)

    add_samples = list(batch.add)
    if add_samples:
        x_d = np.array([s.features for s in add_samples], dtype=float)
        t_d = np.array([s.target for s in add_samples], dtype=float)
        f_d = kernels.decision_values(x_d, work, spec)
        theta_d = np.array(
            [wec_predict_svr(f, t, spec.ridge, C, eps) for f, t in zip(f_d, t_d)]
        )
    else:
        x_d = np.zeros((0, work.X.shape[1]))
        t_d = np.zeros(0)
        theta_d = np.zeros(0)

    effective = bool(np.any(theta_d)) or bool(np.any(delta_remove))

    db, dtheta_s = 0.0, np.zeros(work.s_rows.size)
    if effective:
        db, dtheta_s = equilibrium_solve_svr(
            work, spec, add_samples, theta_d, remove_rows, delta_remove
        )
        work.theta[work.s_rows] += dtheta_s
        work.b += db

    x_r, ids_r = work.X[remove_rows].copy(), work.ids[remove_rows].copy()
    s_ids = work.ids[work.s_rows]
    work.delete_rows(remove_rows)
    if add_samples:
        tags = np.where(
            np.abs(theta_d) <= model.BOUND_TOL, REGION_O,
            np.where(np.abs(theta_d) >= C - model.BOUND_TOL, REGION_B, REGION_S),
        ).astype("<U1")
        work.append_samples(add_samples, theta_d, tags)

    cache = model.column_cache(work, spec)
    if effective:
        moved = np.concatenate([work.rows_of(s_ids),
                                np.arange(work.n - len(add_samples), work.n)])
        shift = cache.apply(moved, np.concatenate([dtheta_s, theta_d])) + db
        if remove_rows.size:
            shift = shift + kernels.gram_block(
                work.X, x_r, spec, work.ids, ids_r
            ) @ delta_remove
        work.outputs += shift

    if add_samples:
        f_train = kernels.decision_profile(
            x_d, work.X, work.dual_coefficients, work.b, spec
        ) + spec.ridge * theta_d
        work.outputs[-len(add_samples):] = f_train - t_d
        joins = [work.n - len(add_samples) + k
                 for k, tag in enumerate(tags) if tag == REGION_S]
        model.grow_cached_inverse(work, spec, joins)

    if not effective:
        return work
    try:
        return kkt_repair_svr(work, spec, hyper, _cache=cache)
    except EmptyS:
        return rebuild_empty_S_svr(work, [], spec, hyper)
