"""Kernel evaluation, ridge-augmented Gram assembly, and decision values.

The ridge parameter lives on the diagonal of the training Gram matrix only:
a test point never receives it, while a training index picks up the ridge
self-term through its own multiplier.  Keeping that distinction straight is
what makes the weight-error-curve prediction exact on unbounded support
vectors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import distance

from .errors import DimensionMismatch, InvalidParameter

KERNEL_FAMILIES = ("linear", "polynomial", "rbf")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family, its parameters, and the ridge added to Gram diagonals.

    ``degree``/``offset`` apply to the polynomial family, ``sigma`` to rbf.
    """

    family: str = "rbf"
    degree: int = 3
    offset: float = 1.0
    sigma: float = 1.0
    ridge: float = 0.0

    def __post_init__(self):
        # each test is written to fail for NaN, which compares False
        if self.family not in KERNEL_FAMILIES:
            raise InvalidParameter(f"unknown kernel family {self.family!r}")
        if self.family == "polynomial":
            if not (self.degree >= 1 and float(self.degree).is_integer()):
                raise InvalidParameter("polynomial degree must be an integer >= 1")
            if not abs(self.offset) < np.inf:
                raise InvalidParameter("polynomial offset must be finite")
        if self.family == "rbf" and not self.sigma > 0:
            raise InvalidParameter("rbf sigma must be > 0")
        if not 0 <= self.ridge < np.inf:
            raise InvalidParameter("ridge must be finite and >= 0")


def kernel_matrix(xa, xb, spec: KernelSpec, out=None) -> np.ndarray:
    """Kernel values between the rows of ``xa`` and ``xb`` (no ridge).

    The values are computed in place in one array: ``out`` if given (a
    C-contiguous float array of shape ``(len(xa), len(xb))``), else a new one.
    """
    a = np.atleast_2d(np.asarray(xa, dtype=float))
    b = np.atleast_2d(np.asarray(xb, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(
            f"feature dimensions differ: {a.shape[1]} vs {b.shape[1]}"
        )
    if spec.family == "linear":
        return np.matmul(a, b.T, out=out)
    if spec.family == "polynomial":
        k = np.matmul(a, b.T, out=out)
        k += spec.offset
        k **= spec.degree
        return k
    k = distance.cdist(a, b, metric="sqeuclidean", out=out)
    np.divide(k, -(2.0 * spec.sigma**2), out=k)
    return np.exp(k, out=k)


def kernel_eval(a, b, spec: KernelSpec) -> float:
    """Single kernel evaluation; symmetric in its arguments."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise DimensionMismatch(f"vector lengths differ: {a.shape} vs {b.shape}")
    return float(kernel_matrix(a[None, :], b[None, :], spec)[0, 0])


def q_matrix_svr(x, spec: KernelSpec) -> np.ndarray:
    """Ridge Gram matrix ``G = K + ridge*I``, the one Gram of both tasks' dual in beta."""
    k = kernel_matrix(x, x, spec)
    k.flat[::k.shape[0] + 1] += spec.ridge  # a scaled identity would be another n x n array
    return k


class ColumnCache:
    """Ridge-Gram columns ``G[:, j] = K(x, x_j) + ridge e_j``, kept across updates.

    Every sample the cache has seen sits in a fixed slot: one row of a
    slots x columns buffer (column-major), so the product over many columns
    is one matrix-vector product over the buffer.  A column is evaluated
    once, over every slot, and kept until a :meth:`sync` finds its sample
    gone or no longer kept.  The ridge goes by slot: two samples with
    identical features stay unridged off the diagonal.

    Built on ``x`` the cache serves that fixed row set, row ``i`` in slot
    ``i``.  :meth:`sync` moves it to a later row set of the same samples:
    a leaving sample frees its slot, and an arrival fills a free one and
    has its entries of the kept columns evaluated (arrivals x columns
    entries).  The cache keeps no features of its own: ``x`` is the
    holder's read-only feature array, read by slot through ``rows``, the
    slot of each row.  ``entries`` counts the kernel entries evaluated so far;
    ``lease`` is bumped by each holder that takes the cache over (see
    :func:`ridgesvm.model.column_cache`).
    """

    def __init__(self, x, spec: KernelSpec):
        self.x = np.asarray(x, dtype=float)  # features by row of the current row set
        n = self.x.shape[0]
        self.spec = spec
        self.entries = 0
        self.lease = 0
        self.rows = np.arange(n)  # slot of each row of the current row set
        self._live = np.ones(n, dtype=bool)
        self._column = np.full(n, -1, dtype=np.intp)  # buffer column of each slot
        self._owner = np.zeros(0, dtype=np.intp)  # slot of each buffer column
        self._buf = np.empty((n, 0), order="F")

    def sync(self, x, slots, keep) -> None:
        """Move the cache to the row set with features ``x``.

        ``slots`` gives each row's slot, -1 for a row the cache has not
        seen; those rows get a free slot, written into ``slots``.  Slots no
        row holds are freed, and only the columns of rows in the mask
        ``keep`` are kept.  The rows must not change while the cache is
        in use.
        """
        seen = slots >= 0
        held = np.zeros(self._live.size, dtype=bool)
        held[slots[seen]] = True
        kept = np.zeros_like(held)
        kept[slots[seen & keep]] = True
        self._live &= held
        self._drop(np.flatnonzero((self._column >= 0) & ~kept))
        fresh = np.flatnonzero(~seen)
        if fresh.size:
            free = np.flatnonzero(~self._live)
            if free.size < fresh.size:
                self._add_slots(fresh.size - free.size)
                free = np.flatnonzero(~self._live)
            new = free[:fresh.size]
            self._live[new] = True
            slots[fresh] = new
        self.rows, self.x = slots, x
        if fresh.size and self._owner.size:
            x_slot = self._slot_features()
            block = kernel_matrix(x_slot[new], x_slot[self._owner], self.spec)
            self._buf[new, :self._owner.size] = block
            self.entries += block.size

    def _slot_features(self) -> np.ndarray:
        """Features by slot, read from the holder's rows; a free slot reads row 0's."""
        row_of = np.zeros(self._live.size, dtype=np.intp)
        row_of[self.rows] = np.arange(self.rows.size)
        return self.x.take(row_of, axis=0)

    def _add_slots(self, extra: int) -> None:
        """Grow the slot count geometrically; new slots hold zeros until filled."""
        size = self._live.size
        grown = size + max(extra, size // 2)
        buf = np.zeros((grown, self._buf.shape[1]), order="F")
        buf[:size] = self._buf
        self._buf = buf
        self._live = np.concatenate([self._live, np.zeros(grown - size, dtype=bool)])
        self._column = np.concatenate([self._column, np.full(grown - size, -1, dtype=np.intp)])

    def _drop(self, slots) -> None:
        """Free the columns of ``slots``; the last columns move into the gaps."""
        for col in np.sort(self._column[slots])[::-1]:
            last = self._owner.size - 1
            if col != last:
                self._buf[:, col] = self._buf[:, last]
                self._owner[col] = self._owner[last]
                self._column[self._owner[col]] = col
            self._owner = self._owner[:last]
        self._column[slots] = -1

    def _fill(self, slots) -> None:
        missing = np.unique(slots[self._column[slots] < 0])
        k = missing.size
        if k == 0:
            return
        start, end = self._owner.size, self._owner.size + k
        size = self._live.size
        if end > self._buf.shape[1]:
            grown = np.empty((size, min(size, end + end // 8 + 8)), order="F")
            grown[:, :start] = self._buf[:, :start]
            self._buf = grown
        cols = self._buf[:, start:end]
        # evaluated in place: the transposed slice is C-contiguous, and
        # K(x_missing, x) is K(x, x_missing) transposed
        x_slot = self._slot_features()
        kernel_matrix(x_slot[missing], x_slot, self.spec, out=cols.T)
        cols[missing, np.arange(k)] += self.spec.ridge
        self._column[missing] = np.arange(start, end)
        self._owner = np.concatenate([self._owner, missing])
        self.entries += cols.size

    def apply(self, rows, coef) -> np.ndarray:
        """``G[:, rows] @ coef`` for the ridge Gram ``G`` of the current row set.

        Only the columns of rows with a nonzero coefficient are evaluated.
        When those are at most a quarter of the buffer's columns (an update's
        arrivals, a path segment's moved rows) they alone are multiplied,
        gathered as rows of the transposed buffer; otherwise (a catch-up over
        every member of ``S``) the product runs over the whole buffer, which
        costs less than gathering a third or more of it.
        """
        rows = np.asarray(rows, dtype=np.intp).ravel()
        coef = np.asarray(coef, dtype=float).ravel()
        moved = coef != 0.0
        slots = self.rows[rows[moved]]
        if slots.size == 0:
            return np.zeros(self.rows.size)
        self._fill(slots)
        weights = np.bincount(self._column[slots], weights=coef[moved],
                              minlength=self._owner.size)
        used = np.flatnonzero(weights)
        if 4 * used.size <= weights.size:
            return (weights[used] @ self._buf.T[used])[self.rows]
        return (self._buf[:, :self._owner.size] @ weights)[self.rows]

    def block(self, at, rows) -> np.ndarray:
        """``G[at, rows]`` for the ridge Gram ``G`` of the current row set.

        The columns of ``rows`` are evaluated as :meth:`apply` evaluates
        them, over every slot, and kept; so the ridge sits only where a row
        of ``at`` is a row of ``rows``.
        """
        slots = self.rows[np.asarray(rows, dtype=np.intp).ravel()]
        self._fill(slots)
        return self._buf[np.ix_(self.rows[at], self._column[slots])]

    def apply_at(self, at, rows, coef) -> np.ndarray:
        """``G[at, rows] @ coef``: :meth:`apply` read at the rows ``at`` alone."""
        coef = np.asarray(coef, dtype=float).ravel()
        moved = coef != 0.0
        return self.block(at, np.asarray(rows, dtype=np.intp).ravel()[moved]) @ coef[moved]


def decision_profile(xq, x_model, coefficients, bias, spec: KernelSpec) -> np.ndarray:
    """Raw decision values sum_j c_j K(x, x_j) + b for query rows ``xq``.

    Only model rows with a nonzero coefficient contribute, so kernel columns
    are evaluated for those rows alone; with none the result is the bias.
    """
    coeffs = np.asarray(coefficients, dtype=float)
    support = np.flatnonzero(coeffs != 0.0)  # a float compare, not a truth test
    if support.size == 0:
        base = np.atleast_2d(np.asarray(xq, dtype=float)).shape[0]
        return np.full(base, float(bias))
    # take: fancy indexing copies the rows of a 2-D array several times slower
    x_support = np.asarray(x_model, dtype=float).take(support, axis=0)
    return kernel_matrix(xq, x_support, spec) @ coeffs[support] + bias


def decision_values(xq, state, spec: KernelSpec) -> np.ndarray:
    """Test-point decision values of a trained state (no ridge self-term)."""
    return decision_profile(xq, state.X, state.dual_coefficients, state.b, spec)


def decision_value(x, state, spec: KernelSpec) -> float:
    """Test-point decision value at a single query point."""
    return float(decision_values(np.asarray(x, dtype=float)[None, :], state, spec)[0])


def training_decision_values(state, spec: KernelSpec) -> np.ndarray:
    """Decision values at the stored training points.

    Each training index additionally receives the ridge self-term through
    its own signed multiplier, so these values are consistent with the
    diagonal of the ridge Gram matrix.
    """
    if state.n == 0:
        return np.zeros(0)
    coeffs = np.asarray(state.dual_coefficients, dtype=float)
    values = decision_profile(state.X, state.X, coeffs, state.b, spec)
    return values + spec.ridge * coeffs
