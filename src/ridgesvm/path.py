"""Step-size path following: the bookkeeping comparator for both engines.

Arriving multipliers are driven linearly toward the penalty bound and
leaving ones toward zero; after every membership event the remaining path
is re-solved and *all* samples are scanned for the smallest step that
reaches a margin/tube crossing or a box bound.  That per-event full scan
is the cost the one-shot engines avoid, so this module favours clarity
and faithfulness over shortcuts: it exists to be raced against.

A single arrival with no removals reproduces the classic one-instance
incremental trajectory.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, model
from .errors import InconsistentEvent, StalledPath
from .model import REGION_B, REGION_O, REGION_S
from .online import enter_bias_end, equilibrium_solve, open_update, stage_arrivals

_DIR_TOL = 1e-12
_EVENT_TOL = 1e-12


@dataclass
class PathEvent:
    """One membership event on the path: what fired, for whom, at which step."""

    kind: str
    sample_id: int | None
    eta: float
    row: int | None = None
    bound: float | None = None


@dataclass
class Directions:
    """Per-unit-step movement of the bias, S members, arrivals, removals."""

    db: float
    dalpha_s: np.ndarray
    d_add: np.ndarray
    d_rem: np.ndarray


@dataclass
class PathState:
    """Progress bookkeeping for one add/remove path."""

    drive_rows: np.ndarray
    removal_rows: np.ndarray
    stalled_steps: int = 0


def _drive_targets(state, path: PathState, hyper) -> np.ndarray:
    """Box bound each driven arrival heads for: the side that shrinks its residual.

    A driven multiplier moves monotonically away from zero, so once it has
    moved its sign names the side; before that, its residual does.
    """
    lo, C, _ = state.box(hyper)
    mult = state.mult[path.drive_rows]
    rising = np.where(mult == 0.0, state.resid[path.drive_rows] < 0, mult > 0)
    return np.where(rising, C, lo)


def _direction(state, path: PathState, hyper, columns: kernels.ColumnCache) -> Directions:
    """Per-unit-step directions for one path segment.

    Arrivals move by (target - current), removals by (-current); the
    bordered solve gives the unbounded-set response that keeps the
    equilibrium exact along the segment.  An unbalanced drive over an empty ``S``
    first takes :func:`ridgesvm.online.enter_bias_end` over :func:`_edges`.
    """
    d_add = _drive_targets(state, path, hyper) - state.mult[path.drive_rows]
    d_rem = -state.mult[path.removal_rows]

    signs = state.signs_of(state.targets)
    top = float(signs[path.drive_rows] @ d_add + signs[path.removal_rows] @ d_rem)
    if not state.s_rows.size and top:
        row = enter_bias_end(state, top, _edges(state, path, hyper))
        path.drive_rows = path.drive_rows[path.drive_rows != row]
        return _direction(state, path, hyper, columns)
    moved = np.concatenate([path.drive_rows, path.removal_rows])
    pull = columns.apply(moved, signs[moved] * np.concatenate([d_add, d_rem]))[state.s_rows]
    db, dalpha_s = equilibrium_solve(state, columns, top, pull) if pull.size else (0.0, pull)
    return Directions(db=db, dalpha_s=dalpha_s, d_add=d_add, d_rem=d_rem)


def sensitivity_phi(state, path: PathState, directions: Directions,
                    columns: kernels.ColumnCache) -> np.ndarray:
    """Per-unit-step derivative of every sample's residual.

    For classification this is d(y_i f_i)/d eta, for regression
    d(f_i - y_i)/d eta; unbounded members come out at zero because the
    directions solve pins them.
    """
    signs = state.signs_of(state.targets)
    moved = np.concatenate([state.s_rows, path.drive_rows, path.removal_rows])
    coef = np.concatenate([directions.dalpha_s, directions.d_add, directions.d_rem])
    return signs * (directions.db + columns.apply(moved, signs[moved] * coef))


def _edges(state, path: PathState, hyper):
    """Every row's :func:`ridgesvm.model.bias_bounds` on the path: a driven
    arrival counts as at its target, until captured at its edge; a leaver has none."""
    mult = state.mult.copy()
    mult[path.drive_rows] = _drive_targets(state, path, hyper)
    lower, upper = model.bias_bounds(state, hyper, mult)
    lower[path.removal_rows], upper[path.removal_rows] = -np.inf, np.inf
    return lower, upper


def step_select(state, phi, directions, path: PathState, hyper):
    """Smallest step before any membership event, capped at the path's end (1).

    Returns (eta, event); the event is ``end`` when the cap wins.  A row
    outside ``S`` moving at the bias-shift rate ``s phi`` toward a finite end
    of its :func:`_edges` crosses it: a driven arrival is captured, another
    row released.  An ``S`` member moving along its
    :func:`ridgesvm.model.tube_segments` segment hits an end (``box``).  Ties
    are broken toward the lowest sample id.  Steps that repeatedly select
    zero-length events trip :class:`StalledPath` at the caller.
    """
    lower, upper = _edges(state, path, hyper)
    rate = state.signs_of(state.targets) * phi
    rising, falling = rate > _DIR_TOL, rate < -_DIR_TOL
    # a row within _EVENT_TOL of its edge has not passed it: a duplicate of a row just released
    hits = ((rising & (upper > -_EVENT_TOL) & (upper < np.inf))
            | (falling & (lower < _EVENT_TOL) & (lower > -np.inf)))
    crossing = np.flatnonzero(hits & ~model._in_region(state.partition, REGION_S))
    s_rows = state.s_rows
    _, seg_lo, seg_hi = model.tube_segments(state, hyper, s_rows)
    d = directions.dalpha_s
    bound = np.where(d > 0, seg_hi, seg_lo)
    moving = np.flatnonzero(np.abs(d) > _DIR_TOL)
    rows = np.concatenate([crossing, s_rows[moving]])
    eta = np.concatenate([np.where(rising, upper, lower)[crossing] / rate[crossing],
                          (bound - state.mult[s_rows])[moving] / d[moving]])
    reachable = eta < 1.0 - _EVENT_TOL
    if not reachable.any():
        return 1.0, PathEvent(kind="end", sample_id=None, eta=1.0)
    rows, eta = rows[reachable], np.maximum(eta[reachable], 0.0)
    # degenerate simultaneous events resolve toward the lowest sample id
    tied = np.flatnonzero(eta <= eta.min() + _EVENT_TOL)
    k = tied[np.argmin(state.ids[rows[tied]])]
    row, eta = int(rows[k]), float(eta[k])
    if state.partition[row] == REGION_S:
        kind, end = "box", float(bound[np.searchsorted(s_rows, row)])
    else:
        kind, end = ("capture" if (path.drive_rows == row).any() else "release"), None
    return eta, PathEvent(kind=kind, sample_id=int(state.ids[row]), eta=eta, row=row, bound=end)


def migrate(state, path: PathState, event: PathEvent) -> None:
    """Apply one membership event: retag its row and, for a box event, pin its multiplier."""
    row = event.row
    if event.kind == "end":
        return
    if row is None:
        raise InconsistentEvent("event carries no row")
    if event.kind == "box":
        if state.partition[row] != REGION_S:
            raise InconsistentEvent(f"box event on non-S row {row}")
        state.mult[row] = event.bound
        state.partition[row] = REGION_O if event.bound == 0.0 else REGION_B
    elif event.kind in ("release", "capture"):
        # a driven arrival is captured, any other row outside S released
        driven = path.drive_rows == row
        if state.partition[row] == REGION_S or driven.any() != (event.kind == "capture"):
            raise InconsistentEvent(f"{event.kind} event on row {row} tagged "
                                    f"{state.partition[row]}, driven: {driven.any()}")
        path.drive_rows = path.drive_rows[~driven]
        state.partition[row] = REGION_S
    else:
        raise InconsistentEvent(f"unknown event kind {event.kind!r}")


def _apply_step(state, phi, directions, path: PathState, eta: float) -> None:
    mult = state.mult
    mult[state.s_rows] += eta * directions.dalpha_s
    mult[path.drive_rows] += eta * directions.d_add
    mult[path.removal_rows] += eta * directions.d_rem
    state.b += eta * directions.db
    state.resid += eta * phi


def _finalize(work, path: PathState, spec, hyper):
    """Pin transit rows to their targets, drop removals, retag, settle the bias."""
    work.mult[path.drive_rows] = _drive_targets(work, path, hyper)
    work.delete_rows(path.removal_rows)
    _, C, eps = work.box(hyper)
    work.partition = model.classify_regions(work.mult, work.resid, C, eps)
    model.settle_bias(work, hyper)
    model.refresh_cached_inverse(work, spec)
    # the comparison arm pays its columns per update, as it always has; a
    # kept cache would hold n x |S| floats for as long as the result lives
    work.column_cache = None
    return work


def path_update(state, batch: model.UpdateBatch, spec, hyper):
    """Apply one add/remove batch via path following; returns a new state."""
    work, removal_rows, resid_d = open_update(state, batch, spec, hyper)
    if removal_rows is None:
        return work
    arrivals = stage_arrivals(work, batch, resid_d)
    # leavers stay rows until the path ends, driven to zero from outside S
    s_leavers = removal_rows[work.partition[removal_rows] == REGION_S]
    work.partition[s_leavers] = REGION_O
    # only arrivals that break their region at a zero multiplier move
    u_lo, u_hi = model.shift_bounds(work, hyper)
    breach = np.maximum(u_lo, -u_hi)[arrivals]
    path = PathState(drive_rows=arrivals[breach > _DIR_TOL], removal_rows=removal_rows)
    columns = model.column_cache(work, spec)
    max_events = 100 * (work.n + arrivals.size + removal_rows.size)
    stall_budget = work.n + arrivals.size + removal_rows.size + 10

    for _ in range(max_events):
        directions = _direction(work, path, hyper, columns)
        phi = sensitivity_phi(work, path, directions, columns)
        eta, event = step_select(work, phi, directions, path, hyper)
        if eta > 0.0:
            _apply_step(work, phi, directions, path, eta)
            path.stalled_steps = 0
        else:
            path.stalled_steps += 1
            if path.stalled_steps > stall_budget:
                raise StalledPath(
                    f"{path.stalled_steps} zero-length events in a row"
                )
        if event.kind == "end":
            return _finalize(work, path, spec, hyper)
        migrate(work, path, event)
    raise StalledPath(f"path exceeded {max_events} events")


# task-named entry points: one follower serves both tasks
path_update_svm = path_update_svr = path_update
