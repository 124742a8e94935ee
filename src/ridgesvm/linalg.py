"""Bordered (saddle-point) inverses and block grow/shrink inverse updates.

The online solvers keep the inverse of

    [[0, v^T],
     [v, Q ]]

current while rows/columns of ``Q`` arrive and leave.  The inverse is built
once from a Schur complement and afterwards patched with Woodbury-style
block updates instead of being refactorised; rows that leave are only
recorded until the next grow (see :class:`BorderedInverse`).  All routines
are pure functions over dense row-major arrays.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla

from .errors import (
    NotPositiveDefinite,
    SingularBorder,
    SingularCornerBlock,
    SingularSchurBlock,
)

# Absolute tolerance on elimination pivots below which a block counts as
# singular.
PIVOT_TOL = 1e-12


_NO_ROWS = np.zeros(0, dtype=int)
_NO_BLOCK = np.zeros((0, 0))
_NO_ROWS.flags.writeable = _NO_BLOCK.flags.writeable = False


@dataclass(frozen=True)
class BorderedInverse:
    """Inverse of a bordered matrix [[0, v^T], [v, Q]].

    ``z`` is the top-left scalar of the inverse, ``order`` the size of the
    inner block ``Q``, and ``inv`` the full (order+1) x (order+1) inverse
    when no drops are pending.
    ``ids`` optionally names the samples behind the rows of ``Q``, in order,
    so a holder can tell whether the inverse still matches its row set.

    Shrinking is deferred.  :meth:`shrink` records the positions of the
    leaving rows in ``dropped`` and keeps ``inv`` as it is: the inverse over
    the rows before they left, with ``corner`` the inverse of its
    dropped x dropped block.  ``z``, ``order`` and ``ids`` always describe
    the live rows.  :meth:`apply` solves over them with a Schur correction,
    and :meth:`grow` or :meth:`compact` absorb the drops in one rewrite.
    ``inv`` itself is never written, so holders may share it.
    """

    z: float
    order: int
    inv: np.ndarray
    ids: np.ndarray | None = None
    dropped: np.ndarray = field(default_factory=lambda: _NO_ROWS)
    corner: np.ndarray = field(default_factory=lambda: _NO_BLOCK)

    @property
    def live(self) -> np.ndarray:
        """Positions in ``inv`` of the live rows, the border row first."""
        return np.delete(np.arange(self.inv.shape[0]), self.dropped)

    def apply(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the live bordered system for ``rhs`` (border entry first).

        With ``D`` the dropped positions and ``L`` the live ones, the live
        inverse is ``inv[L, L] - inv[L, D] corner inv[D, L]``: one product
        with the stored array plus an O(order x |D|) correction.
        """
        if not self.dropped.size:
            return self.inv @ rhs
        live = self.live
        full = np.zeros(self.inv.shape[0])
        full[live] = rhs
        out = self.inv @ full
        # the dropped rows double as the dropped columns: inv is symmetric
        out -= self.inv[self.dropped].T @ (self.corner @ out[self.dropped])
        return out[live]

    def shrink(self, positions) -> BorderedInverse:
        """Drop the live inner rows at ``positions`` (the border row is 0).

        Nothing is rewritten; raises :class:`SingularCornerBlock` when the
        dropped block of ``inv`` is singular, as :func:`inverse_shrink` does.
        """
        pos = np.unique(np.asarray(positions, dtype=int))
        if not pos.size:
            return self
        if pos.min() < 1 or pos.max() > self.order:
            raise IndexError(f"positions out of range for order {self.order}")
        dropped = np.union1d(self.dropped, self.live[pos])
        rows = self.inv.take(dropped, axis=0)
        corner = _checked_inverse(rows[:, dropped], SingularCornerBlock)
        return replace(
            self, z=float(self.inv[0, 0] - rows[:, 0] @ corner @ rows[:, 0]),
            order=self.order - pos.size, dropped=dropped, corner=corner,
            ids=None if self.ids is None else np.delete(self.ids, pos - 1),
        )

    def grow(self, cross, new, ids=None, order=None) -> BorderedInverse:
        """Admit ``k`` inner rows, absorbing the pending drops in one rewrite.

        ``cross`` (order+1 x k) couples the live rows, border first, to the
        new ones, and ``new`` (k x k) is their own block.  The new rows follow
        the live ones unless ``order``, a permutation of the order + k inner
        rows, rearranges them.  ``ids`` names the rows of the result.
        """
        cross = np.asarray(cross, dtype=float)
        full = np.zeros((self.inv.shape[0], cross.shape[1]))
        full[self.live] = cross
        perm = None if order is None else np.concatenate(([0], 1 + np.asarray(order)))
        inv = _grow_shrink(self.inv, self.dropped, full, _as_square(new), perm, self.corner)
        return BorderedInverse(z=float(inv[0, 0]), order=inv.shape[0] - 1, inv=inv, ids=ids)

    def compact(self) -> BorderedInverse:
        """The same live inverse with no drops pending."""
        if not self.dropped.size:
            return self
        return self.grow(np.zeros((self.order + 1, 0)), _NO_BLOCK, ids=self.ids)


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _checked_inverse(m: np.ndarray, exc: type) -> np.ndarray:
    """Invert a small square block, raising ``exc`` on tiny pivots."""
    if m.size == 0:
        return m.reshape(0, 0).copy()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(m, check_finite=False)
    if np.min(np.abs(np.diag(lu))) <= PIVOT_TOL:
        raise exc(f"block of order {m.shape[0]} is singular within {PIVOT_TOL}")
    return sla.lu_solve((lu, piv), np.eye(m.shape[0]), check_finite=False)


def invert_spd(m) -> np.ndarray:
    """Invert a symmetric positive-definite matrix via Cholesky.

    Serves as the direct-inversion oracle for the block update routines.
    Raises :class:`NotPositiveDefinite` when any elimination pivot falls at
    or below ``PIVOT_TOL``.
    """
    a = _as_square(m)
    if a.size and np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, np.max(np.abs(a))):
        raise ValueError("invert_spd requires a symmetric matrix")
    try:
        chol, lower = sla.cho_factor(a, lower=True, check_finite=False)
    except sla.LinAlgError as err:
        raise NotPositiveDefinite(str(err)) from err
    # Elimination pivots are the squared Cholesky diagonal entries.
    if np.min(np.diag(chol)) ** 2 <= PIVOT_TOL:
        raise NotPositiveDefinite(
            f"pivot {np.min(np.diag(chol))**2:.3e} at or below {PIVOT_TOL}"
        )
    inv = sla.cho_solve((chol, lower), np.eye(a.shape[0]), check_finite=False)
    return 0.5 * (inv + inv.T)


def bordered_inverse(q, border) -> BorderedInverse:
    """Assemble the inverse of [[0, border^T], [border, Q]] for symmetric Q.

    Uses the Schur complement of the zero corner: with ``u = Q^{-1} border``
    and ``z = -1 / (border^T u)`` the inverse is

        [[z,      -z u^T          ],
         [-z u,   z u u^T + Q^{-1}]].

    Raises :class:`SingularBorder` when ``border^T Q^{-1} border`` vanishes.
    """
    q = _as_square(q)
    v = np.asarray(border, dtype=float).ravel()
    if v.shape[0] != q.shape[0]:
        raise ValueError("border length must match the order of Q")
    q_inv = _checked_inverse(q, SingularBorder)
    q_inv = 0.5 * (q_inv + q_inv.T)
    u = q_inv @ v
    denom = float(v @ u)
    if abs(denom) <= PIVOT_TOL:
        raise SingularBorder(f"border^T Q^-1 border = {denom:.3e}")
    z = -1.0 / denom
    n = q.shape[0]
    inv = np.empty((n + 1, n + 1))
    inv[0, 0] = z
    inv[0, 1:] = -z * u
    inv[1:, 0] = -z * u
    inv[1:, 1:] = z * np.outer(u, u) + q_inv
    return BorderedInverse(z=z, order=n, inv=inv)


def _symmetrize(m: np.ndarray) -> None:
    """Replace ``m`` by ``(m + m^T) / 2`` in place.

    Works in strips of 64 rows against the matching columns, so that the
    transposed reads stay cache-friendly; entries match ``(m + m.T) * 0.5``.
    """
    strip = 64
    for i in range(0, m.shape[0], strip):
        mean = m[i:i + strip, i:] + m[i:, i:i + strip].T
        mean *= 0.5
        m[i:i + strip, i:] = mean
        m[i:, i:i + strip] = mean.T


def _grow_shrink(prev, removed, cross, new, order=None, corner=None) -> np.ndarray:
    """Shrink the symmetric inverse ``prev`` and grow it, in one rewrite.

    ``removed`` are sorted, distinct indices into ``prev``; rows of
    ``cross`` (n x k) at them are ignored.  With ``K`` the kept indices,
    ``h = prev[K, removed]``, ``corner = prev[removed, removed]^{-1}`` and
    ``P = prev[K, K] - h corner h^T`` the shrunk inverse, growing by the
    cross block ``C = cross[K]`` and the new block ``N`` gives

        [[P, 0], [0, 0]] + U T U^T,   U = [[h, -P C], [0, I]],
                                      T = diag(-corner, (N - C^T P C)^{-1}),

    so one gather of ``prev[K, K]`` and one rank-(|removed| + k) product
    build the result.  Its rows are the kept ones, then the new ones, or
    that list permuted by ``order``.  The result is symmetrised.
    """
    n, k, d = prev.shape[0], new.shape[0], removed.size
    keep = np.delete(np.arange(n), removed)
    m = keep.size
    rows = prev.take(removed, axis=0)  # the removed columns too: prev is symmetric
    if corner is None:
        corner = _checked_inverse(rows[:, removed], SingularCornerBlock)
    h = rows[:, keep].T
    cross = cross.copy()
    cross[removed] = 0.0
    prod = prev @ cross
    body = prod[keep] - h @ (corner @ prod[removed])  # P C without forming P
    schur_inv = _checked_inverse(new - cross[keep].T @ body, SingularSchurBlock)
    u = np.zeros((m + k, d + k))
    u[:m, :d] = h
    u[:m, d:] = -body
    u[m:, d:] = np.eye(k)
    t = np.zeros((d + k, d + k))
    t[:d, :d] = -corner
    t[d:, d:] = schur_inv
    # new rows gather a placeholder (row 0) and are cleared before the update
    src = np.concatenate([keep, np.zeros(k, dtype=int)])
    fresh = np.arange(m, m + k)
    if order is not None:
        src, u = src[order], u[order]
        fresh = np.flatnonzero(np.asarray(order) >= m)
    out = prev.take(src, axis=0).take(src, axis=1)
    out[fresh] = 0.0
    out[:, fresh] = 0.0
    out += (u @ t) @ u.T
    _symmetrize(out)
    return out


def inverse_grow(q_inv_prev, q_cross, q_new) -> np.ndarray:
    """Inverse of [[Q, C], [C^T, N]] given ``Q^{-1}``.

    ``q_cross`` has shape (old, added) and ``q_new`` is the added diagonal
    block.  With ``H = -Q^{-1} C`` and Schur block ``V = N - C^T Q^{-1} C``
    the grown inverse is

        [[Q^{-1} + H V^{-1} H^T,  H V^{-1}],
         [V^{-1} H^T,             V^{-1}  ]].
    """
    prev = _as_square(q_inv_prev)
    cross = np.asarray(q_cross, dtype=float)
    new = _as_square(q_new)
    n = prev.shape[0]
    k = new.shape[0]
    if cross.shape != (n, k):
        raise ValueError(f"cross block must be {(n, k)}, got {cross.shape}")
    if k == 0:
        return prev.copy()
    return _grow_shrink(prev, _NO_ROWS, cross, new)


def inverse_shrink(q_inv_prev, removed_ids) -> np.ndarray:
    """Inverse of the block that survives deleting ``removed_ids``.

    Conceptually permutes the removed rows/columns of the inverse to the
    bottom-right corner, reads off the blocks

        [[Lam,   h_R],
         [h_R^T, v_R]]

    and returns ``Lam - h_R v_R^{-1} h_R^T``.  Surviving rows keep their
    relative order, so index maps held by callers stay valid.  The result
    is a fresh array; ``q_inv_prev`` is only read.
    """
    prev = _as_square(q_inv_prev)
    n = prev.shape[0]
    removed = np.unique(np.asarray(removed_ids, dtype=int))
    if removed.size == 0:
        return prev.copy()
    if removed.min() < 0 or removed.max() >= n:
        raise IndexError(f"removed ids out of range for order {n}")
    return _grow_shrink(prev, removed, np.zeros((n, 0)), _NO_BLOCK)


def inverse_grow_shrink(q_inv_prev, q_cross, q_new, removed_ids) -> np.ndarray:
    """Combined shrink-then-grow inverse update of a symmetric inverse.

    ``removed_ids`` index the *old* block; rows of ``q_cross`` belonging to
    removed indices are dropped before growing.  Equivalent (within
    roundoff) to applying the two updates in either order, but computed in
    a single rewrite of the array (see :func:`_grow_shrink`).
    """
    prev = _as_square(q_inv_prev)
    cross = np.asarray(q_cross, dtype=float)
    new = _as_square(q_new)
    removed = np.unique(np.asarray(removed_ids, dtype=int))
    if cross.shape != (prev.shape[0], new.shape[0]):
        raise ValueError(f"cross block must be {(prev.shape[0], new.shape[0])}, got {cross.shape}")
    if not removed.size and not new.size:
        return prev.copy()
    return _grow_shrink(prev, removed, cross, new)
