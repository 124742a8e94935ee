"""Model state containers, optimality-region bookkeeping, and validation.

Samples are partitioned by their multiplier and margin/tube status into

* ``S`` -- unbounded support vectors (multiplier strictly inside its box,
  active margin/tube condition),
* ``B`` -- bounded support vectors (multiplier saturated at the box bound),
* ``O`` -- non-support vectors (zero multiplier, strictly satisfied
  constraint).

This module alone decides regions (:func:`interior_mask`, :func:`region_tags`,
:func:`shift_bounds`, :func:`tube_segments`).  Two tolerance tiers separate
numerical noise from logic errors: region membership is judged at
``REGION_TOL``; an interior multiplier whose active condition misses by more
than ``HARD_TOL`` signals a broken equilibrium.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels, linalg
from .errors import (DimensionMismatch, EmptyS, InconsistentState, InvalidBatch, InvalidParameter,
                     InvalidSample, SingleClassInput, UnknownId)

REGION_TOL = 1e-6
HARD_TOL = 1e-3
BOUND_TOL = 1e-9
BALANCE_TOL = 1e-9

REGION_S = "S"
REGION_B = "B"
REGION_O = "O"


@dataclass(frozen=True)
class Sample:
    """A feature vector plus target with a stable identifier."""

    id: int
    features: np.ndarray
    target: float


@dataclass(frozen=True)
class Hyperparams:
    """Penalty C (> BOUND_TOL) and tube half-width epsilon (finite, >= 0, regression only)."""

    C: float
    epsilon: float = 0.0

    def __post_init__(self):
        # each test is written to fail for NaN, which compares False
        # at C <= BOUND_TOL every multiplier, zero included, reads as at its bound
        if not self.C > BOUND_TOL:
            raise InvalidParameter(f"C must be > {BOUND_TOL:g}")
        if not 0 <= self.epsilon < np.inf:
            raise InvalidParameter("epsilon must be finite and >= 0")


@dataclass
class UpdateBatch:
    """Samples to add and identifiers to remove, applied atomically."""

    add: list = field(default_factory=list)
    remove: list = field(default_factory=list)

    def is_empty(self) -> bool:
        return not self.add and not self.remove


def _whole_ids(values, exc) -> np.ndarray:
    """``values`` as integer sample ids, raising ``exc`` for one that is not an integer."""
    ids = np.asarray(values)
    if ids.dtype.kind not in "iu":
        ids = ids.astype(float)
        bad = ids[~((np.abs(ids) < 2.0 ** 62) & (ids == np.round(ids)))]  # NaN fails both
        if bad.size:
            raise exc(f"sample id {bad[0]} is not an integer")
    return ids.astype(int)


def _check_samples(state, samples, exc) -> np.ndarray:
    """Ids of ``samples``, which may join ``state``: raises ``exc`` for an id that is not an
    integer, a feature or target that is not finite or an SVM label other than -1 or
    +1, and :class:`DimensionMismatch` for feature rows of unequal widths (the stored rows'
    included).  Reads only ``samples`` and the width of the stored rows."""
    ids = _whole_ids([s.id for s in samples], exc)
    try:
        x = np.array([s.features for s in samples], dtype=float)
    except ValueError as err:
        raise DimensionMismatch(f"feature rows of unequal widths ({err})") from None
    if samples and (x.ndim != 2 or state.n and x.shape[1] != state.X.shape[1]):
        raise DimensionMismatch(f"feature rows of shape {x.shape[1:]}, stored {state.X.shape[1:]}")
    # a list, not an array: cheaper for the few arrivals of an update
    t = [float(s.target) for s in samples]
    if not (all(map(math.isfinite, t)) and np.isfinite(x).all()):
        raise exc("a feature or target is not finite")
    if isinstance(state, SvmState) and any(abs(v) != 1 for v in t):
        raise exc(f"label {next(v for v in t if abs(v) != 1):g} is not -1 or +1")
    return ids


def _check_batch(state, batch: UpdateBatch) -> np.ndarray:
    """Removal rows; rejects an inadmissible arrival (:func:`_check_samples`), a stored
    or repeated arrival id, a fractional, unknown or repeated removal, and an SVM batch
    that leaves samples of one class only."""
    add_ids = _check_samples(state, batch.add, InvalidBatch)
    rows = state.rows_of(_whole_ids(batch.remove, InvalidBatch), fresh=add_ids)
    twice = np.sort(rows)
    twice = twice[1:][twice[1:] == twice[:-1]]
    if twice.size:
        raise InvalidBatch(f"removal id {state.ids[twice].min()} is named twice")
    if isinstance(state, SvmState):
        # a class can vanish only when the batch removes some of it and brings none,
        # so most batches skip the count over every stored label
        gone = state.targets[rows] < 0
        if not state.n or {bool(g) for g in gone} - {bool(s.target < 0) for s in batch.add}:
            left = state.n - rows.size + len(batch.add)
            negative = (np.count_nonzero(state.targets < 0) - np.count_nonzero(gone)
                        + sum(s.target < 0 for s in batch.add))
            if left and negative in (0, left):
                raise SingleClassInput("the batch leaves samples of one class only")
    return rows


@dataclass
class Violation:
    """One invariant breach found by :func:`validate`."""

    kind: str
    index: int | None
    magnitude: float
    detail: str


class _StateBase:
    """Sample bookkeeping and the one storage of both model states.

    Multipliers and residuals are stored in each task's native coordinates:
    ``mult`` is alpha in ``[0, C]`` for the SVM and theta in ``[-C, C]`` for
    the SVR, and ``resid = s * (f - t)`` with signs ``s`` from
    :meth:`signs_of` (the labels for the SVM, all ones for the SVR), i.e.
    ``y f - 1`` and ``f - t``.  The cached inverse and the column caches
    work, like the batch solver, in the signed multipliers ``beta = s * mult``
    over the one unsigned ridge Gram ``G = K + ridge I``; both tasks share
    it, the SVM being the epsilon = 0 case.  Signs enter only where ``mult``
    and ``resid`` meet ``beta`` and ``f``: ``d mult = s * d beta`` and
    ``d resid = s * d f``.

    The sample arrays ``X``, ``ids`` and ``targets`` are read-only: a copy
    shares them, and a splice replaces them by new arrays instead of
    writing them, so every state keeps reading its own rows.  Region tags
    ``partition`` are ``<U1`` strings, matched as their 4-byte code points.

    ``column_cache`` is the persistent :class:`ridgesvm.kernels.ColumnCache`
    of the lineage, ``cache_slots`` each row's slot in it (-1 until the
    cache has seen the row) and ``cache_lease`` the lease under which this
    state holds it; see :func:`column_cache`.
    """

    def __init__(self, samples, mult=None, b=0.0):
        samples = list(samples)
        self.X, self.ids, self.targets = np.zeros((0, 0)), np.zeros(0, dtype=int), np.zeros(0)
        ids = _check_samples(self, samples, InvalidSample)
        if np.unique(ids).size < ids.size:
            raise InvalidSample("a sample id is repeated")
        if not (mult is None or np.isfinite(mult).all()) or not np.isfinite(b):
            raise InvalidSample("a multiplier or the bias is not finite")
        self.partition, self.mult, self.resid = np.zeros(0, dtype="<U1"), np.zeros(0), np.zeros(0)
        self.cache_slots = np.zeros(0, dtype=np.intp)
        self.cached_inverse: linalg.BorderedInverse | None = None
        self.append_samples(samples, np.zeros(len(samples)) if mult is None else mult,
                            np.full(len(samples), REGION_O))
        self.column_cache: kernels.ColumnCache | None = None
        self.cache_lease = 0
        self.b = float(b)
        # whether an interior multiplier held b at the last settle_bias (none yet)
        self.bias_held = False

    @property
    def n(self) -> int:
        return self.ids.size

    def samples_at(self, rows) -> list[Sample]:
        """:class:`Sample` objects derived from ``rows``; features are copies."""
        rows = np.asarray(rows, dtype=int)
        return [Sample(i, x, t) for i, x, t in
                zip(self.ids[rows].tolist(), self.X[rows], self.targets[rows].tolist())]

    @property
    def samples(self) -> list[Sample]:
        """Every stored sample in row order, derived on demand (O(n))."""
        return self.samples_at(np.arange(self.n))

    @property
    def dual_coefficients(self) -> np.ndarray:
        """Signed multipliers ``s * mult``: the kernel-expansion weights."""
        return self.signs_of(self.targets) * self.mult

    def rows_of(self, sample_ids, fresh=()) -> np.ndarray:
        """Rows holding ``sample_ids``, in request order.

        The ``fresh`` ids (an update's arrivals) are looked up with the
        same sort of the ids and must be neither stored nor repeated.
        """
        fresh = np.asarray(fresh, dtype=int).ravel()
        wanted = np.concatenate([fresh, np.asarray(sample_ids, dtype=int).ravel()])
        rows, found = _lookup(self.ids, wanted)
        # an arrival is stale when stored, or when an earlier arrival has its id
        by_id = np.argsort(fresh, kind="stable")
        found[by_id[1:][fresh[by_id[1:]] == fresh[by_id[:-1]]]] = True
        stale = np.flatnonzero(found[:fresh.size])
        if stale.size:
            raise InvalidBatch(f"arriving sample id {fresh[stale[0]]} is not fresh")
        missing = np.flatnonzero(~found[fresh.size:])
        if missing.size:
            raise UnknownId(f"sample id {wanted[fresh.size + missing[0]]} not in model")
        return rows[fresh.size:]

    def region_rows(self, tag) -> np.ndarray:
        return np.flatnonzero(_in_region(self.partition, tag))

    @property
    def s_rows(self) -> np.ndarray:
        return self.region_rows(REGION_S)

    @property
    def b_rows(self) -> np.ndarray:
        return self.region_rows(REGION_B)

    @property
    def o_rows(self) -> np.ndarray:
        return self.region_rows(REGION_O)

    def delete_rows(self, rows) -> None:
        self.append_samples([], [], [], drop=rows)

    def append_samples(self, samples, mult, tags, drop=()) -> None:
        """Drop the rows ``drop``, then append ``samples`` after the rest.

        One gather per array (a slice copy when nothing is dropped): the
        appended rows take multipliers ``mult`` and tags ``tags``, residual 0
        and no cache slot.  Every array is replaced, none written, so a copy
        sharing them keeps its rows.  A cached inverse that still holds the id
        of an arrival (one that left before a solve brought the inverse up to
        date) is dropped.
        """
        samples = list(samples)
        drop, k = np.asarray(drop, dtype=int), len(samples)
        rows = None  # every row, copied by slice
        if drop.size:
            keep = np.ones(self.n, dtype=bool)
            keep[drop] = False
            rows = np.flatnonzero(keep)
        x_new = np.array([s.features for s in samples], dtype=float)
        new_ids = np.array([s.id for s in samples], dtype=int)
        inv = self.cached_inverse
        if k and inv is not None and _lookup(inv.ids, new_ids)[1].any():
            self.cached_inverse = None
        if self.n == 0 and k:  # an empty state takes the arrivals' width
            self.X = np.zeros((0, x_new.shape[1]))
        self.X = _read_only(_gathered(self.X, rows, x_new.reshape(k, self.X.shape[1])))
        self.ids = _read_only(_gathered(self.ids, rows, new_ids))
        self.targets = _read_only(_gathered(self.targets, rows, [s.target for s in samples]))
        self.partition = _gathered(self.partition, rows, tags)
        self.mult = _gathered(self.mult, rows, mult)
        self.resid = _gathered(self.resid, rows, np.zeros(k))
        self.cache_slots = _gathered(self.cache_slots, rows, np.full(k, -1))

    def copy(self):
        """A copy sharing the read-only arrays, the cached inverse and the column cache."""
        out = type(self).__new__(type(self))
        out.__dict__.update(self.__dict__)
        for name in ("partition", "mult", "resid", "cache_slots"):
            setattr(out, name, getattr(self, name).copy())
        return out


def _lookup(keys, wanted) -> tuple[np.ndarray, np.ndarray]:
    """Index into ``keys`` of each ``wanted`` value, and whether it is there at all."""
    if not keys.size:
        return np.zeros(wanted.size, dtype=int), np.zeros(wanted.size, dtype=bool)
    # stable sort: linear time on the mostly ascending ids a stream leaves
    order = np.argsort(keys, kind="stable")
    at = order[np.minimum(np.searchsorted(keys, wanted, sorter=order), keys.size - 1)]
    return at, keys[at] == wanted


def _read_only(a) -> np.ndarray:
    a.setflags(write=False)
    return a


def _gathered(a, rows, tail) -> np.ndarray:
    """``a[rows]`` (all of ``a`` for ``rows=None``) followed by the rows of ``tail``,
    written once into a new array."""
    tail = np.asarray(tail, dtype=a.dtype)
    head = a.shape[0] if rows is None else rows.size
    out = np.empty((head + len(tail),) + a.shape[1:], dtype=a.dtype)
    if rows is None:
        out[:head] = a
    else:
        # take, not a mask: a boolean mask over the 2-D X is applied row by row
        np.take(a, rows, axis=0, out=out[:head], mode="clip")
    out[head:] = tail
    return out


def _alias(name: str, doc: str | None = None) -> property:
    """A task-named view that reads and writes the stored array ``name``."""
    return property(lambda self: getattr(self, name),
                    lambda self, value: setattr(self, name, value), doc=doc)


def _in_region(tags, tag) -> np.ndarray:
    """Mask of ``tags == tag``, compared as 4-byte code points instead of strings."""
    return np.asarray(tags, dtype="<U1").view(np.uint32) == ord(tag)


class SvmState(_StateBase):
    """Classification state: multipliers alpha, bias, margins, and partition."""

    def __init__(self, samples, alpha=None, b=0.0):
        super().__init__(samples, alpha, b)

    @staticmethod
    def signs_of(targets) -> np.ndarray:
        """The labels: the SVM works in label-signed coordinates."""
        return targets

    @staticmethod
    def box(hyper) -> tuple[float, float, float]:
        """``(lo, C, epsilon)``: alpha in ``[0, C]``, no tube."""
        return 0.0, hyper.C, 0.0

    y = property(lambda self: self.targets)
    alpha = _alias("mult")
    margins = _alias("resid", "Margin residuals ``y f - 1``.")


class SvrState(_StateBase):
    """Regression state: signed multipliers theta, bias, tube residuals."""

    def __init__(self, samples, theta=None, b=0.0):
        super().__init__(samples, theta, b)

    @staticmethod
    def signs_of(targets) -> np.ndarray:
        """All ones: regression multipliers are already signed."""
        return np.ones(np.shape(targets))

    @staticmethod
    def box(hyper) -> tuple[float, float, float]:
        """``(lo, C, epsilon)``: theta in ``[-C, C]`` around a tube of half-width epsilon."""
        return -hyper.C, hyper.C, hyper.epsilon

    theta = _alias("mult")
    outputs = _alias("resid", "Tube residuals ``f - t``.")


def compute_residuals(state, spec) -> np.ndarray:
    """Residuals ``s * (f - t)`` over the full ridge Gram matrix.

    ``y f - 1`` for the SVM and ``f - t`` for the SVR, the ridge self-term
    included in ``f``.
    """
    if state.n == 0:
        return np.zeros(0)
    f = kernels.training_decision_values(state, spec)
    return state.signs_of(state.targets) * (f - state.targets)


def interior_mask(mult, C) -> np.ndarray:
    """The one interior rule: which multipliers lie strictly inside their box, by value."""
    size = np.abs(mult)
    return (size > BOUND_TOL) & (size < C - BOUND_TOL)


def region_tags(mult, C, on_edge=False) -> np.ndarray:
    """The one three-way tag: ``S`` for an interior multiplier or a row ``on_edge``,
    else ``B`` for one at a box bound, else ``O``."""
    tags = np.where(np.abs(mult) >= C - BOUND_TOL, REGION_B, REGION_O)
    tags[interior_mask(mult, C) | on_edge] = REGION_S
    return tags


def classify_regions(mult, resid, C, epsilon=0.0) -> np.ndarray:
    """Region tags from native multipliers and residuals ``s (f - t)``.

    The SVM is the ``epsilon = 0`` case (alpha in ``[0, C]``, residual the
    margin ``y f - 1``).  Exact boundary ties (multiplier at a bound,
    residual on the tube edge within tolerance) resolve toward ``S``.  An
    interior multiplier whose residual misses the tube edge by more than
    ``HARD_TOL`` raises :class:`InconsistentState`.
    """
    mult = np.asarray(mult, dtype=float)
    slack = np.abs(np.asarray(resid, dtype=float)) - epsilon
    bad = interior_mask(mult, C) & (np.abs(slack) > HARD_TOL)
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise InconsistentState(
            f"interior multiplier at row {row} has tube slack {slack[row]:.3e}"
        )
    return region_tags(mult, C, np.abs(slack) <= REGION_TOL)


def shift_bounds(state, hyper, mult=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``(lower, upper)`` bounds on a residual shift that keeps the row's region.

    Only a multiplier at zero or at a box bound (``mult``, default
    ``state.mult``) imposes one: zero keeps the residual in the tube (beyond
    the margin, for the SVM), a positive bound at most ``-eps``, a negative
    one at least ``eps``; others are infinite.
    """
    lo, C, eps = state.box(hyper)
    mult = state.mult if mult is None else mult
    at_zero = np.abs(mult) <= BOUND_TOL
    to_lower_edge = -eps - state.resid
    u_lo = np.where(at_zero, to_lower_edge, -np.inf)
    u_hi = np.where(mult >= C - BOUND_TOL, to_lower_edge, np.inf)
    if lo < 0:  # two-sided: zero also keeps the residual at most eps, a negative bound at least
        np.copyto(u_hi, eps - state.resid, where=at_zero)
        np.copyto(u_lo, eps - state.resid, where=mult <= lo + BOUND_TOL)
    return u_lo, u_hi


def tube_segments(state, hyper, rows):
    """Residual target and multiplier segment ``[lo, hi]`` of unbounded members.

    Without a tube every member targets residual 0 over the whole box.  With
    one, a member is pinned to one tube edge and its multiplier kept on that
    side of zero: a nonzero multiplier fixes the side (the residual opposes
    it), and a member entering at zero takes the edge its residual touched.
    """
    lo, C, eps = state.box(hyper)
    if eps == 0.0:
        return np.zeros(rows.size), np.full(rows.size, lo), np.full(rows.size, C)
    mult = state.mult[rows]
    edge = np.where(np.abs(mult) > BOUND_TOL, -eps * np.sign(mult),
                    eps * np.sign(state.resid[rows]))
    return edge, np.where(edge > 0, lo, 0.0), np.where(edge > 0, 0.0, C)


def bias_bounds(state, hyper, mult=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``(lower, upper)`` bounds on a bias shift ``db``: a shift moves each
    residual by ``s db``, which must stay within its :func:`shift_bounds`."""
    u_lo, u_hi = shift_bounds(state, hyper, mult)
    up = state.signs_of(state.targets) > 0
    return np.where(up, u_lo, -u_hi), np.where(up, u_hi, -u_lo)


def bias_interval(state, hyper) -> tuple[float, float]:
    """The feasible ``[lower, upper]`` for ``b`` over the rows at zero or a bound."""
    lower, upper = bias_bounds(state, hyper)
    return state.b + lower.max(initial=-np.inf), state.b + upper.min(initial=np.inf)


def settle_bias(state, hyper) -> None:
    """The one bias rule of every arm (in place).

    While a multiplier is strictly inside its box (by value, not by tag) its
    equilibrium fixes ``b``, which stays.  Otherwise ``b`` moves to the
    midpoint of :func:`bias_interval`, the residuals follow, and ``S``
    members pushed off their tube edge leave ``S``.  Which case held is kept
    in ``state.bias_held``, for a round that moves no multiplier.
    """
    _, C, eps = state.box(hyper)
    state.bias_held = bool(interior_mask(state.mult, C).any())
    if not state.n or state.bias_held:
        return
    lower, upper = bias_interval(state, hyper)
    db = 0.5 * (lower + upper) - state.b
    state.b += db
    state.resid += state.signs_of(state.targets) * db
    s = state.s_rows
    off = s[np.abs(np.abs(state.resid[s]) - eps) > REGION_TOL]
    state.partition[off] = region_tags(state.mult[off], C)


def refresh_cached_inverse(state, spec) -> None:
    """Recompute the inverse of ``[[0, 1^T], [1, G_SS]]`` over the current ``S``,
    evaluating ``G_SS`` from the features of ``S``: their columns may not be cached."""
    s = state.s_rows
    if s.size == 0:
        state.cached_inverse = None
        return
    inverse = linalg.bordered_inverse(kernels.q_matrix_svr(state.X[s], spec), np.ones(s.size))
    state.cached_inverse = replace(inverse, ids=state.ids[s])


def take_column_cache(state) -> None:
    """Make ``state`` the only holder of its lineage's column cache.

    Bumps the cache's lease, so every other state sharing it -- the one
    it was copied from included -- is stale from then on.  A state that is
    stale itself lets go of the cache instead.
    """
    cache = state.column_cache
    if cache is None or cache.lease != state.cache_lease:
        state.column_cache = None
        return
    cache.lease += 1
    state.cache_lease = cache.lease


def column_cache(state, spec) -> kernels.ColumnCache:
    """The ridge-Gram column cache of ``state``, synced to its current rows.

    Takes the cache over (:func:`take_column_cache`); a state without one,
    or with a stale one, starts a new cache.  Only the columns of ``S``
    members are kept across the sync.
    """
    take_column_cache(state)
    cache = state.column_cache
    if cache is None or cache.spec != spec:
        cache = state.column_cache = kernels.ColumnCache(state.X, spec)
        state.cache_lease = cache.lease
        state.cache_slots = cache.rows.copy()
    cache.sync(state.X, state.cache_slots, _in_region(state.partition, REGION_S))
    return cache


def ensure_cached_inverse(state, cache) -> linalg.BorderedInverse:
    """The cached inverse over the current ``S``, brought up to date from the tags.

    The region tags are the one record of ``S``; the inverse follows them
    only here, when a solve reads it.  Its members no longer tagged ``S``
    leave in one :meth:`~ridgesvm.linalg.BorderedInverse.shrink`, and the
    rows tagged ``S`` since join in one ``grow``, placed in ascending row
    order like ``state.s_rows``, with their blocks read from ``cache``, the
    column cache synced to the state's rows (:func:`column_cache`).  It is
    rebuilt only when there is none or none of its members is left.
    """
    s = state.s_rows
    if s.size == 0:
        raise EmptyS("no unbounded support vectors")
    inv, ids = state.cached_inverse, state.ids[s]
    held = np.zeros(0, dtype=int) if inv is None else inv.ids
    if np.array_equal(held, ids):
        return inv
    # where in S each member of the inverse is; members keep their relative row order
    at, kept = _lookup(ids, held)
    if not kept.any():
        refresh_cached_inverse(state, cache.spec)
        return state.cached_inverse
    inv = inv.shrink(1 + np.flatnonzero(~kept))  # +1: the border row leads
    old, joins = s[at[kept]], np.delete(s, at[kept])
    if joins.size:
        grown = np.concatenate([old, joins])
        block = cache.block(grown, joins)
        cross = np.vstack([np.ones((1, joins.size)), block[:old.size]])
        order = np.argsort(grown) if np.any(grown[1:] < grown[:-1]) else None
        inv = inv.grow(cross, block[old.size:], ids=ids, order=order)
    state.cached_inverse = inv
    return inv


def _region_violations(tags, mult, resid, lo, C, eps, tol, checked) -> list[Violation]:
    """Region-tag breaches against stored residuals, by row, then check order.

    A one-sided box (``lo = 0``, the SVM) checks the margin ``resid``; a
    two-sided one checks the tube slack ``|resid| - eps`` and the signs.
    """
    two_sided = lo < 0
    g = np.abs(resid) - eps if two_sided else resid
    in_s = checked & _in_region(tags, REGION_S)
    in_b = checked & _in_region(tags, REGION_B)
    in_o = checked & ~in_s & ~in_b
    off_bound = np.abs(np.abs(mult) - C) if two_sided else np.abs(mult - C)
    # (rows to report, rank within a row, kind, magnitude, detail)
    checks = [
        (in_s & (np.abs(g) > tol), 0, "region:S", np.abs(g),
         lambda r: f"S member residual {g[r]:.3e}"),
        (in_b & ~(off_bound <= BOUND_TOL), 0, "region:B", np.abs(np.abs(mult) - C),
         lambda r: f"B member multiplier {mult[r]:.6g} not at bound"),
        (in_o & (np.abs(mult) > BOUND_TOL), 0, "region:O", np.abs(mult),
         lambda r: f"O member multiplier {mult[r]:.6g} nonzero"),
    ]
    if not two_sided:
        checks += [
            (in_b & (g > tol), 1, "region:B", g,
             lambda r: f"B member margin {g[r]:.3e} > 0"),
            (in_o & (g < -tol), 1, "region:O", -g,
             lambda r: f"O member margin {g[r]:.3e} < 0"),
        ]
    else:
        checks += [
            (in_b & (g < -tol), 1, "region:B", -g,
             lambda r: f"B member tube slack {g[r]:.3e} < 0"),
            (in_o & (g > tol), 1, "region:O", g,
             lambda r: f"O member tube slack {g[r]:.3e} > 0"),
            # saturated/active regression multipliers must oppose the error
            ((in_s | in_b) & (np.abs(mult) > BOUND_TOL) & (np.abs(resid) > tol)
             & (mult * resid > 0), 2, "sign", np.abs(mult * resid),
             lambda r: f"theta {mult[r]:.4g} and residual {resid[r]:.4g} share a sign"),
        ]
    found = [
        (int(row), rank, Violation(kind, int(row), magnitude[row], detail(row)))
        for mask, rank, kind, magnitude, detail in checks
        for row in np.flatnonzero(mask)
    ]
    found.sort(key=lambda item: item[:2])
    return [v for _, _, v in found]


def validate(state, spec=None, C=None, epsilon=None, tol=REGION_TOL, ignore_rows=()):
    """Check every state invariant; returns a list of :class:`Violation`.

    An empty list means the state is consistent at the given tolerance.
    ``C``/``epsilon`` enable the box and region checks; passing ``spec``
    additionally verifies the cached margins against a fresh recomputation.
    ``ignore_rows`` exempts rows that are legitimately in transit.
    """
    report: list[Violation] = []
    mult, resid = state.mult, state.resid

    # NaN fails every comparison below silently, so non-finite values are named here
    report += [Violation("non-finite", int(row), np.inf,
                         f"multiplier {mult[row]:.6g} or residual {resid[row]:.6g} not finite")
               for row in np.flatnonzero(~(np.isfinite(mult) & np.isfinite(resid)))]
    if not np.isfinite(state.b):
        report.append(Violation("non-finite", None, np.inf, f"bias {state.b} not finite"))

    # multiplier balance (orthogonal-hyperplane equality)
    balance = float(state.signs_of(state.targets) @ mult) if state.n else 0.0
    if abs(balance) > BALANCE_TOL:
        report.append(Violation("balance", None, abs(balance),
                                f"multiplier balance (orthogonal-hyperplane) off by {balance:.3e}"))

    if C is not None:
        checked = np.ones(state.n, dtype=bool)
        ignore = np.asarray(list(ignore_rows), dtype=int).ravel()
        checked[ignore[(ignore >= 0) & (ignore < state.n)]] = False
        lo, _, eps = state.box(Hyperparams(C, epsilon or 0.0))
        out_of_box = checked & ((mult < lo - BOUND_TOL) | (mult > C + BOUND_TOL))
        report += [Violation("box", int(row), max(lo - mult[row], mult[row] - C),
                             f"multiplier {mult[row]:.6g} outside [{lo}, {C}]")
                   for row in np.flatnonzero(out_of_box)]
        report += _region_violations(state.partition, mult, resid, lo, C, eps, tol, checked)

    if spec is not None and state.n:
        fresh = compute_residuals(state, spec)
        drift = float(np.max(np.abs(fresh - resid)))
        if drift > tol:
            report.append(
                Violation("residual-cache", None, drift,
                          f"cached residuals drifted by {drift:.3e}"))
    return report
