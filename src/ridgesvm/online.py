"""One-shot multiple incremental/decremental updates for ridge SVM and SVR.

Arriving samples get their multipliers predicted in one shot from the
weight-error-curve ramp (no step sizes, no per-sample path events); leaving
samples drop their multipliers to zero outright.  A bounded membership-repair
loop then restores equilibrium and the optimality regions exactly: its first
pass is the single bordered solve that shifts the unbounded support vectors
and the bias against the batch, walked only as far as each member's segment
allows, and each later pass solves once more from where that walk stopped.

Both tasks run through this one engine in their native coordinates (see
:class:`ridgesvm.model.SvmState` and :class:`ridgesvm.model.SvrState`):
the task enters only through ``state.box(hyper)``, which gives the
multiplier box ``[lo, C]`` and the tube half-width ``epsilon`` (0 for the
SVM), and through the signs ``s = state.signs_of(targets)``.  The linear
algebra runs in ``beta = s * mult`` over the unsigned ridge Gram, so the
signs apply only where native multipliers and residuals meet it.
"""
from __future__ import annotations

import numpy as np

from . import batch as batch_solver
from . import kernels, linalg, model
from .errors import EmptyS, NonpositiveRho, RepairDivergence, SingularCornerBlock
from .model import REGION_B, REGION_O, REGION_S

_MIGRATE_TOL = 1e-10


def wec_predict(resid, rho, lo, C, epsilon) -> np.ndarray:
    """Multipliers of new samples predicted from their residuals ``r = s (f - t)``.

    At the test-point output ``f`` the weight-error curve is a ramp of slope
    ``-1/rho`` on each side of the tube ``[-epsilon, epsilon]`` (the margin,
    for the SVM), zero inside it, clipped into the box ``[lo, C]``.
    """
    if rho <= 0:
        raise NonpositiveRho("multiplier prediction requires ridge > 0")
    raw = (epsilon * np.sign(resid) - resid) / rho
    return np.where(np.abs(resid) > epsilon, np.clip(raw, lo, C), 0.0)


def equilibrium_solve(state, cache, top, pull):
    """Bias and multiplier response that keeps the unbounded set in equilibrium.

    Solves ``[[0, 1^T], [1, G_SS]] [db; dbeta_S] = -[top; pull]`` over the
    current ``S`` through the cached inverse: ``top`` is the signed sum of
    the multipliers that move outside ``S`` and ``pull`` (in ``S`` row
    order) their ridge-Gram pull on the members.  ``cache`` is the column
    cache synced to the state's rows; the inverse's joins read their grow
    blocks from it (:func:`ridgesvm.model.ensure_cached_inverse`).  Returns
    ``(delta_b, delta_mult_S)``, the shift in native coordinates.
    """
    inv = model.ensure_cached_inverse(state, cache)
    sol = -inv.apply(np.concatenate(([top], pull)))
    return float(sol[0]), state.signs_of(state.targets[state.s_rows]) * sol[1:]


def _snap(state, cache, signs, members, rows, bounds) -> None:
    """Pin ``S`` members onto a segment end: zero exits to ``O``, a box bound to ``B``.
    Only the residuals of ``members``, all of ``S``, follow (see :func:`_catch_up`)."""
    deltas = bounds - state.mult[rows]
    state.mult[rows] = bounds
    state.resid[members] += signs[members] * cache.apply_at(members, rows, signs[rows] * deltas)
    state.partition[rows] = np.where(bounds == 0.0, REGION_O, REGION_B)


def _catch_up(state, cache, signs, base) -> tuple:
    """Every residual from ``base``, the ``(resid, mult, b)`` of the last catch-up,
    by one product over the multipliers moved since; returns the new base."""
    resid, mult, b = base
    pull = cache.apply(np.arange(state.n), signs * (state.mult - mult))
    state.resid = resid + signs * (pull + (state.b - b))
    return state.resid.copy(), state.mult.copy(), state.b


def enter_bias_end(state, drive, bounds) -> int:
    """The exact step out of an empty ``S`` (in place); returns the row that enters.

    Without ``S`` the bias is free within the per-row shift ``bounds`` of
    :func:`ridgesvm.model.bias_bounds`.  A positive ``drive`` (the signed
    multiplier sum, or its rate on a path) needs a member whose signed
    multiplier can fall, and raising ``b`` brings those onto their edge: ``b``
    moves to the upper end (the lower one for a negative drive), and the row
    defining it (ties to the lower id) enters ``S``.  :class:`EmptyS` if none does.
    """
    ends = bounds[1] if drive > 0 else -bounds[0]
    end = float(ends.min(initial=np.inf))
    if end == np.inf:
        raise EmptyS("no row bounds the bias on the side the balance needs")
    tied = np.flatnonzero(ends <= end + _MIGRATE_TOL)
    row = int(tied[np.argmin(state.ids[tied])])
    db = end if drive > 0 else -end
    state.b += db
    state.resid += state.signs_of(state.targets) * db
    state.partition[row] = REGION_S
    return row


def _release_candidates(state, hyper) -> list[int]:
    """Rows outside ``S`` that break their region, worst first: by how far
    their residual lies outside its :func:`ridgesvm.model.shift_bounds`."""
    u_lo, u_hi = model.shift_bounds(state, hyper)
    viols = np.maximum(u_lo, -u_hi)
    rows = np.flatnonzero((viols > _MIGRATE_TOL) & ~model._in_region(state.partition, REGION_S))
    # ties go to the lower sample id, so row order cannot change the release order
    return [int(r) for r in rows[np.lexsort((state.ids[rows], -viols[rows]))]]


def _pinned_direction(x, z, pinned, scale) -> np.ndarray:
    """A walk's direction once the members at ``pinned`` (positions in ``S``) are
    held: ``scale (x - Z Z_PP^-1 x_P)`` for its solve ``x`` and ``Z``, the
    inverse's columns at them (border row first).  Raises
    :class:`SingularCornerBlock` when ``Z_PP`` has a tiny pivot."""
    return scale * (x - z @ linalg.checked_solve(z[1 + pinned], x[1 + pinned]))


def _walk(state, cache, signs, s_rows, segments, balance, target, budget) -> tuple[int, float]:
    """Walk one solve over ``S`` toward its target, pinning members that block (in place).

    Each event takes the longest step along the direction that each live
    member's segment allows and snaps the members that block onto the end
    they hit.  Those are then pinned in the same solve: with ``x`` the
    solve's ``[db; dbeta_S]``, ``P`` the pinned positions, ``Z`` the
    inverse's columns at them and ``c`` the product of ``1 - step`` over the
    steps taken, ``c (x - Z Z_PP^-1 x_P)`` is the solve over the members
    left for the target left, so an event costs O(|S| (p + |P|)) instead of
    a shrink and a fresh solve.  A zero-length step, an emptied ``S``, a
    tiny pivot in ``Z_PP`` or the end of ``budget`` events leaves the rest
    to a fresh solve.  Returns the events taken and the last step length
    (1 once the target is reached).
    """
    edge, seg_lo, seg_hi = segments
    inv = model.ensure_cached_inverse(state, cache)
    x = -inv.apply(np.concatenate(([balance], target)))
    live = np.ones(s_rows.size, dtype=bool)
    pinned = np.zeros(0, dtype=int)  # positions in S, in pinning order
    z = np.zeros((s_rows.size + 1, 0))
    direction, scale, events = x, 1.0, 0
    while True:
        events += 1
        rows = s_rows[live]
        d_b, d_mult = direction[0], signs[rows] * direction[1:][live]
        # a move at the solve's roundoff is no move: a member that the exact solve
        # leaves where it is keeps its multiplier bit for bit and has unlimited room
        tiny = 1e-12 * max(1.0, scale * max(abs(balance), float(np.max(np.abs(target[live])))))
        d_mult[np.abs(d_mult) <= tiny] = 0.0

        # longest feasible step toward the solve target
        mult_s, hi, lo = state.mult[rows], seg_hi[live], seg_lo[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(d_mult > tiny, (hi - mult_s) / d_mult,
                            np.where(d_mult < -tiny, (lo - mult_s) / d_mult, np.inf))
        step = max(min(1.0, float(np.min(room, initial=np.inf))), 0.0)
        if step > 0.0:
            state.resid[rows] += step * (edge[live] - state.resid[rows])
            state.mult[rows] += step * d_mult
            state.b += step * d_b
        if step == 1.0:
            return events, step

        hit = room <= step + 1e-12
        _snap(state, cache, signs, rows, rows[hit], np.where(d_mult[hit] > 0, hi[hit], lo[hit]))
        blocked = np.flatnonzero(live)[hit]
        live[blocked] = False
        if step <= 1e-12 or not live.any() or events == budget:
            return events, step
        z = np.hstack([z, inv.columns(1 + blocked)])  # +1: the border row leads
        pinned = np.concatenate([pinned, blocked])
        scale *= 1.0 - step
        try:
            direction = _pinned_direction(x, z, pinned, scale)
        except SingularCornerBlock:
            return events, step


def kkt_repair(state, cache, hyper, max_repair_passes=None):
    """Restore the optimality regions after a one-shot update (in place).

    Each pass solves the equilibrium over the current ``S`` once -- the
    first answers the update's moved multipliers: their signed sum is its
    balance and their pull on ``S`` its target -- and walks toward that
    solution only as far as each member's segment (see
    :func:`ridgesvm.model.tube_segments`) allows; members that block are
    snapped onto the segment end they hit, retagged and pinned in the same
    solve, and the walk goes on over the members left (:func:`_walk`).  Once
    the solution is reached, violators among B/O are released back into
    ``S`` -- in bulk while progress is healthy, one at a time (which is safe
    at a subproblem optimum) as soon as a zero-length step signals that a
    bulk release overshot; an unbalanced state without ``S`` first takes the
    exact empty-S step (:func:`enter_bias_end`).  No pass increases the dual
    objective, but a zero-length release and snap leaves it where it was, so
    the loop can cycle; :class:`RepairDivergence` guards the budget, which
    each pass and each pinned event draws on.  Both exits settle the bias
    (:func:`ridgesvm.model.settle_bias`).  Passes only retag rows; each solve,
    and the exit, bring the cached inverse up to date from the tags
    (:func:`ridgesvm.model.ensure_cached_inverse`).  Passes move only the
    residuals of ``S``, a step by ``step (edge - resid_S)`` (what the solve
    targets); every row catches up before each release check and each empty-S
    step (:func:`_catch_up`), so no solve error outlives it.  A walk that
    pinned does not target the residual moves of its own snaps: when they
    leave a caught-up member off its edge, a fresh solve refines before the
    release check.  ``cache`` is the column cache the update synced to the
    state's rows: it serves the residual products and the grow blocks of
    the cached inverse.
    """
    if max_repair_passes is None:
        # Every pass or pinned event that does not end the repair or refine a
        # walk moves at least one row across the edge of S: a blocked step
        # snaps a member out, a full step releases a violator in.
        # Single-release mode admits one violator per pass, so a repair that
        # has to move every stored row (arrivals included) into S and, after
        # an overshoot, back out needs about two of them per row.  This is a
        # scale, not a proof -- the repair is an active-set method without a
        # polynomial worst case -- so a loop that moves each row more than
        # about twice is taken as not settling.  (Round 0 of the cubic-kernel SVM
        # corpus of tests/test_differential.py at seed 2, ridge 0.05 and C = 10
        # settles in 74 passes and pinned events at 52 rows, after 53 snaps.)
        max_repair_passes = 2 * state.n + 10
    lo, C, _ = state.box(hyper)
    signs = state.signs_of(state.targets)
    single_release = False
    base = state.resid.copy(), state.mult.copy(), state.b
    passes = 0
    while passes < max_repair_passes:
        passes += 1
        s_rows = state.s_rows
        balance = float(signs @ state.mult)
        if s_rows.size == 0 and abs(balance) > model.BALANCE_TOL:
            base = _catch_up(state, cache, signs, base)
            enter_bias_end(state, balance, model.bias_bounds(state, hyper))
            continue
        pinned = False
        if s_rows.size:
            segments = model.tube_segments(state, hyper, s_rows)
            # the step that takes the balance to zero and every member's cached
            # residual onto its tube edge
            target = signs[s_rows] * (state.resid[s_rows] - segments[0])
            events, step = _walk(state, cache, signs, s_rows, segments, balance, target,
                                 max_repair_passes - passes + 1)
            passes += events - 1
            if step < 1.0:
                single_release |= step <= 1e-12
                continue
            pinned = events > 1

        base = _catch_up(state, cache, signs, base)
        if pinned:
            # a walk that pinned left the snaps' own residual moves out of its
            # target: if they show, a fresh solve refines before any release
            s_rows = state.s_rows
            edge = model.tube_segments(state, hyper, s_rows)[0]
            if np.max(np.abs(state.resid[s_rows] - edge)) > _MIGRATE_TOL:
                continue
        releases = _release_candidates(state, hyper)
        if not releases:
            np.clip(state.mult, lo, C, out=state.mult)
            if pinned:  # the inverse follows the members the walk pinned out
                model.ensure_cached_inverse(state, cache)
            model.settle_bias(state, hyper)
            return state
        # a balanced state without S admits its worst violator alone
        if single_release or not s_rows.size:
            releases = releases[:1]
        state.partition[releases] = REGION_S
    raise RepairDivergence(
        f"membership did not settle within {max_repair_passes} passes"
    )


def open_update(state, batch: model.UpdateBatch, spec, hyper):
    """Opening of both update arms: check the batch, copy the state, price the arrivals.

    Returns ``(work, remove_rows, resid_d)`` with the arrivals' residuals
    ``s (f - t)`` under the model before the batch, for the arm to stage
    (:func:`stage_arrivals`), or ``(result, None, None)`` when the batch is
    empty or keeps no stored row: a cold start, which batch-trains the
    arrivals or, without any, returns an empty state of the same task.  The
    work copy keeps the input's tags, leavers included, and takes over its
    column cache in every case.
    """
    remove_rows = model._check_batch(state, batch)
    work = state.copy()
    model.take_column_cache(work)  # the input state is stale from here on
    if batch.is_empty():
        return work, None, None
    if remove_rows.size == work.n:
        svm = isinstance(state, model.SvmState)
        train = batch_solver.train_svm_batch if svm else batch_solver.train_svr_batch
        return (train(batch.add, spec, hyper) if batch.add else type(state)([])), None, None
    t = np.array([s.target for s in batch.add], dtype=float)
    f = t if not t.size else kernels.decision_values(
        np.array([s.features for s in batch.add], dtype=float), work, spec)
    return work, remove_rows, work.signs_of(t) * (f - t)


def stage_arrivals(work, batch: model.UpdateBatch, resid_d, drop=()) -> np.ndarray:
    """Append the arrivals at multiplier 0, tag ``O`` and residual ``resid_d``,
    dropping the rows ``drop`` in the same splice; returns the arrivals' rows."""
    k = len(batch.add)
    work.append_samples(batch.add, np.zeros(k), np.full(k, REGION_O), drop=drop)
    work.resid[work.n - k:] = resid_d
    return np.arange(work.n - k, work.n)


def update_multi(state, batch: model.UpdateBatch, spec, hyper):
    """Apply one add/remove batch atomically; returns a new state.

    Pipeline: predict the arrivals' multipliers from the weight-error curve,
    drop the leavers and stage the arrivals in one splice, add the pull of
    both to every residual, tag the arrivals, and run membership repair,
    whose first pass is the one bordered solve that answers the batch over
    ``S`` (arrivals tagged ``S`` included).  The input state is not modified.
    """
    work, remove_rows, resid_d = open_update(state, batch, spec, hyper)
    if remove_rows is None:
        return work
    lo, C, eps = work.box(hyper)
    mult_d = wec_predict(resid_d, spec.ridge, lo, C, eps)
    # the features of leavers with a nonzero multiplier are kept for their
    # pull; one splice drops the leavers and stages the arrivals
    signed_r = -(work.signs_of(work.targets[remove_rows]) * work.mult[remove_rows])
    moving = signed_r != 0.0
    x_r, signed_r = work.X[remove_rows[moving]], signed_r[moving]
    arrivals = stage_arrivals(work, batch, resid_d, drop=remove_rows)

    # a batch whose deltas all vanish moves no multiplier: splice rows only, and
    # settle a bias that no interior multiplier holds, as the splice can move the
    # ends of its interval
    if not (mult_d.any() or signed_r.any()):
        if not work.bias_held:
            model.settle_bias(work, hyper)
        return work

    # pull of the moved multipliers on every row; G's diagonal gives each
    # arrival its own ridge self-term.  The repair's first walk solves for the
    # response of S to this pull and to the imbalance the moves leave.
    cache = model.column_cache(work, spec)
    signs = work.signs_of(work.targets)
    pull = cache.apply(arrivals, signs[arrivals] * mult_d)
    if signed_r.size:
        pull += kernels.kernel_matrix(work.X, x_r, spec) @ signed_r
    work.resid += signs * pull
    work.mult[arrivals] = mult_d
    work.partition[arrivals] = model.region_tags(mult_d, C)
    return kkt_repair(work, cache, hyper)
