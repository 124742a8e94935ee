"""One-shot multiple incremental/decremental updates for ridge SVMs.

Arriving samples get their multipliers predicted in one shot from the
weight-error-curve ramp (no step sizes, no per-sample path events); leaving
samples drop their multipliers to zero outright.  A single bordered solve
then shifts the unbounded support vectors and the bias so the equilibrium
conditions keep holding, and a bounded membership-repair loop restores the
optimality regions exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import batch as batch_solver
from . import kernels, model
from .errors import EmptyS, NonpositiveRho, RepairDivergence, SingleClassInput
from .model import REGION_B, REGION_O, REGION_S

MAX_REPAIR_PASSES = 50
_MIGRATE_TOL = 1e-10


@dataclass(frozen=True)
class WecMode:
    """Which weight-error-curve ramp the multiplier prediction uses.

    ``derived`` reads the ramp off the unbounded-support-vector identity
    alpha = (1 - y f) / ridge, which matches the curve geometry the ridge
    model actually produces.  ``literal`` evaluates the raw intercept form
    alpha = ridge -/+ f / ridge; it is inconsistent with the ramp for most
    ridge values and is retained only for auditing the difference.
    """

    variant: str = "derived"

    def __post_init__(self):
        if self.variant not in ("derived", "literal"):
            raise ValueError(f"unknown WEC mode {self.variant!r}")


WEC_DERIVED = WecMode("derived")
WEC_LITERAL = WecMode("literal")


def wec_predict_svm(f_value, label, rho, C, mode: WecMode = WEC_DERIVED) -> float:
    """Predict a new sample's multiplier from its test-point output."""
    if rho <= 0:
        raise NonpositiveRho("multiplier prediction requires ridge > 0")
    if mode.variant == "derived":
        raw = (1.0 - label * f_value) / rho
    elif label > 0:
        raw = rho - f_value / rho
    else:
        raw = rho + f_value / rho
    return float(min(max(raw, 0.0), C))


def assign_removals(state: model.SvmState, remove_ids) -> np.ndarray:
    """Full-removal deltas: each leaving multiplier is negated in one shot."""
    rows = state.rows_of(remove_ids)
    return -state.alpha[rows]


def equilibrium_solve_svm(state, spec, add_samples, delta_add, remove_rows, delta_remove):
    """Bias/multiplier shifts that keep the unbounded set in equilibrium.

    Solves the bordered system over the current ``S`` for the response to
    the given arrival and removal deltas.  ``remove_rows`` must already be
    outside ``S``.  Returns ``(delta_b, delta_alpha_S)`` in ``S`` row order.
    """
    s_rows = state.s_rows
    if s_rows.size == 0:
        raise EmptyS("equilibrium solve needs a nonempty unbounded set")
    inv = model.ensure_cached_inverse(state, spec)

    delta_add = np.asarray(delta_add, dtype=float)
    delta_remove = np.asarray(delta_remove, dtype=float)
    xs, ys, ids_s = state.X[s_rows], state.y[s_rows], state.ids[s_rows]

    rhs_top = 0.0
    rhs_body = np.zeros(s_rows.size)
    if len(add_samples):
        x_d = np.array([s.features for s in add_samples], dtype=float)
        y_d = np.array([s.target for s in add_samples], dtype=float)
        rhs_top += float(y_d @ delta_add)
        rhs_body += kernels.q_block(xs, ys, x_d, y_d, spec) @ delta_add
    remove_rows = np.asarray(remove_rows, dtype=int)
    if remove_rows.size:
        x_r, y_r = state.X[remove_rows], state.y[remove_rows]
        rhs_top += float(y_r @ delta_remove)
        rhs_body += kernels.q_block(
            xs, ys, x_r, y_r, spec, ids_s, state.ids[remove_rows]
        ) @ delta_remove

    sol = -inv.inv @ np.concatenate(([rhs_top], rhs_body))
    return float(sol[0]), sol[1:]


def _snap(state: model.SvmState, cache, rows, bounds) -> None:
    """Pin ``S`` members onto a box bound: zero exits to ``O``, ``C`` to ``B``."""
    deltas = bounds - state.alpha[rows]
    state.alpha[rows] = bounds
    if deltas.any():
        state.margins += cache.apply(rows, deltas)
    model.shrink_cached_inverse(state, rows)  # while tagged S
    state.partition[rows] = np.where(bounds == 0.0, REGION_O, REGION_B)


def _release_candidates(state: model.SvmState) -> list[int]:
    """Margin violators among bounded/zero members, worst first."""
    b_rows, o_rows = state.b_rows, state.o_rows
    viols = np.concatenate([state.margins[b_rows], -state.margins[o_rows]])
    rows = np.concatenate([b_rows, o_rows])
    keep = viols > _MIGRATE_TOL
    order = np.lexsort((rows[keep], -viols[keep]))
    return [int(r) for r in rows[keep][order]]


def kkt_repair(state: model.SvmState, spec, hyper, max_repair_passes=MAX_REPAIR_PASSES,
               _cache: kernels.ColumnCache | None = None):
    """Restore the optimality regions after a one-shot update (in place).

    Each pass solves the equilibrium over the current ``S`` and walks
    toward that solution only as far as the box allows; members that block
    are snapped onto their bound and retagged.  Once the solution is
    reached, margin violators among B/O are released back into ``S`` --
    in bulk while progress is healthy, one at a time (which is safe at a
    subproblem optimum) as soon as a zero-length step signals that a bulk
    release overshot.  Passes never increase the dual objective, so the
    loop cannot cycle; :class:`RepairDivergence` guards the pass budget.
    """
    C = hyper.C
    cache = _cache if _cache is not None and _cache.x is state.X \
        else model.column_cache(state, spec)
    single_release = False
    for _ in range(max_repair_passes):
        s_rows = state.s_rows
        if s_rows.size == 0:
            if not _release_candidates(state):
                np.clip(state.alpha, 0.0, C, out=state.alpha)
                return state
            raise EmptyS("no unbounded set left to repair against")
        alpha_s = state.alpha[s_rows]

        # the one-shot solve applies unclamped deltas: members it pushed out
        # of the box are reset onto the violated bound before anything else
        below = alpha_s < -_MIGRATE_TOL
        outside = below | (alpha_s > C + _MIGRATE_TOL)
        if outside.any():
            _snap(state, cache, s_rows[outside], np.where(below[outside], 0.0, C))
            continue
        inv = model.ensure_cached_inverse(state, spec)

        b_rows = state.b_rows
        rhs_top = -C * float(state.y[b_rows].sum()) if b_rows.size else 0.0
        rhs_body = np.ones(s_rows.size)
        if b_rows.size:
            q_sb = kernels.q_block(
                state.X[s_rows], state.y[s_rows],
                state.X[b_rows], state.y[b_rows], spec,
                state.ids[s_rows], state.ids[b_rows],
            )
            rhs_body -= C * q_sb.sum(axis=1)
        sol = inv.inv @ np.concatenate(([rhs_top], rhs_body))
        target_b, target_alpha = float(sol[0]), sol[1:]

        d_alpha = target_alpha - alpha_s
        d_b = target_b - state.b

        # longest feasible step toward the solve target
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(
                d_alpha > 1e-14, (C - alpha_s) / d_alpha,
                np.where(d_alpha < -1e-14, -alpha_s / d_alpha, np.inf),
            )
        step = min(1.0, float(np.min(room, initial=np.inf)))
        step = max(step, 0.0)

        if step > 0.0:
            move = step * d_alpha
            state.margins += cache.apply(s_rows, move) + state.y * (step * d_b)
            state.alpha[s_rows] += move
            state.b += step * d_b

        if step < 1.0:
            if step <= 1e-12:
                single_release = True
            blocked = np.flatnonzero(room <= step + 1e-12)
            _snap(state, cache, s_rows[blocked], np.where(d_alpha[blocked] > 0, C, 0.0))
            continue

        releases = _release_candidates(state)
        if not releases:
            np.clip(state.alpha, 0.0, C, out=state.alpha)
            return state
        if single_release:
            releases = releases[:1]
        state.partition[releases] = REGION_S
        model.grow_cached_inverse(state, spec, releases)
    raise RepairDivergence(
        f"membership did not settle within {max_repair_passes} passes"
    )


def rebuild_empty_S(state: model.SvmState, incoming, spec, hyper, config=None):
    """Re-establish an unbounded set when ``S`` is empty.

    Batch-solves the subproblem over the bounded members plus the incoming
    samples while non-support vectors stay at zero, then repairs the merged
    state.  Falls back to a full retrain on the combined data whenever the
    restricted route cannot produce a consistent model.
    """
    free = state.partition == REGION_B
    free_samples = [state.samples[r] for r in np.flatnonzero(free)] + list(incoming)
    o_rows = np.flatnonzero(~free)

    labels = np.array([s.target for s in free_samples], dtype=float)
    restricted_ok = (
        len(free_samples) >= 2 and (labels > 0).any() and (labels < 0).any()
    )
    if restricted_ok:
        try:
            sub = batch_solver.train_svm_batch(free_samples, spec, hyper, config)
            merged = model.SvmState(
                [state.samples[r] for r in o_rows] + list(sub.samples)
            )
            merged.alpha = np.concatenate([np.zeros(len(o_rows)), sub.alpha])
            merged.b = sub.b
            merged.margins = model.compute_margins_svm(merged, spec)
            merged.partition = np.concatenate(
                [np.full(len(o_rows), REGION_O, dtype="<U1"), sub.partition]
            )
            model.refresh_cached_inverse(merged, spec)
            return kkt_repair(merged, spec, hyper)
        except (EmptyS, RepairDivergence, SingleClassInput):
            pass
    all_samples = list(state.samples) + list(incoming)
    return batch_solver.train_svm_batch(all_samples, spec, hyper, config)


def update_multi_svm(state: model.SvmState, batch: model.UpdateBatch, spec, hyper,
                     mode: WecMode = WEC_DERIVED) -> model.SvmState:
    """Apply one add/remove batch atomically; returns a new state.

    Pipeline: predict arriving multipliers from the weight-error curve,
    negate leaving ones, absorb both through a single bordered equilibrium
    solve, splice the rows, patch the cached inverse, and run membership
    repair.  The input state is not modified.
    """
    model._check_batch(state, batch)
    if batch.is_empty():
        return state.copy()
    work = state.copy()
    C = hyper.C

    if work.n == 0:
        return rebuild_empty_S(work, batch.add, spec, hyper)

    remove_rows = work.rows_of(batch.remove)
    delta_remove = -work.alpha[remove_rows]

    # leaving members exit the unbounded set before the solve
    s_leavers = [int(r) for r in remove_rows if work.partition[r] == REGION_S]
    if s_leavers:
        model.shrink_cached_inverse(work, s_leavers)
        work.partition[s_leavers] = REGION_O

    if work.s_rows.size == 0:
        work.delete_rows(remove_rows)
        return rebuild_empty_S(work, batch.add, spec, hyper)

    add_samples = list(batch.add)
    if add_samples:
        x_d = np.array([s.features for s in add_samples], dtype=float)
        y_d = np.array([s.target for s in add_samples], dtype=float)
        f_d = kernels.decision_values(x_d, work, spec)
        alpha_d = np.array(
            [wec_predict_svm(f, y, spec.ridge, C, mode) for f, y in zip(f_d, y_d)]
        )
    else:
        x_d = np.zeros((0, work.X.shape[1]))
        y_d = np.zeros(0)
        alpha_d = np.zeros(0)

    # a batch whose deltas all vanish cannot move the model: splice rows only
    effective = bool(np.any(alpha_d)) or bool(np.any(delta_remove))

    db, dalpha_s = 0.0, np.zeros(work.s_rows.size)
    if effective:
        db, dalpha_s = equilibrium_solve_svm(
            work, spec, add_samples, alpha_d, remove_rows, delta_remove
        )
        work.alpha[work.s_rows] += dalpha_s
        work.b += db

    # splice rows; leaving features are stashed for the margin shift below
    x_r, y_r, ids_r = (work.X[remove_rows].copy(), work.y[remove_rows].copy(),
                       work.ids[remove_rows].copy())
    s_ids = work.ids[work.s_rows]
    work.delete_rows(remove_rows)
    if add_samples:
        tags = np.where(
            alpha_d <= model.BOUND_TOL, REGION_O,
            np.where(alpha_d >= C - model.BOUND_TOL, REGION_B, REGION_S),
        ).astype("<U1")
        work.append_samples(add_samples, alpha_d, tags)

    cache = model.column_cache(work, spec)
    if effective:
        moved = np.concatenate([work.rows_of(s_ids),
                                np.arange(work.n - len(add_samples), work.n)])
        shift = work.y * db + cache.apply(moved, np.concatenate([dalpha_s, alpha_d]))
        if remove_rows.size:
            shift = shift + kernels.q_block(
                work.X, work.y, x_r, y_r, spec, work.ids, ids_r
            ) @ delta_remove
        work.margins += shift

    if add_samples:
        # exact margins for the arrivals against the spliced state
        f_train = kernels.decision_profile(
            x_d, work.X, work.dual_coefficients, work.b, spec
        ) + spec.ridge * y_d * alpha_d
        work.margins[-len(add_samples):] = y_d * f_train - 1.0
        joins = [work.n - len(add_samples) + k
                 for k, tag in enumerate(tags) if tag == REGION_S]
        model.grow_cached_inverse(work, spec, joins)

    if not effective:
        return work
    try:
        return kkt_repair(work, spec, hyper, _cache=cache)
    except EmptyS:
        return rebuild_empty_S(work, [], spec, hyper)
