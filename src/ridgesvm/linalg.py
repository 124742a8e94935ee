"""Bordered (saddle-point) inverses and block grow/shrink inverse updates.

The online solvers keep the inverse of

    [[0, v^T],
     [v, Q ]]

current while rows/columns of ``Q`` arrive and leave.  The inverse is built
once from a Schur complement and afterwards patched with Woodbury-style
block updates instead of being refactorised.  All routines are pure
functions over dense row-major arrays.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

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


@dataclass(frozen=True)
class BorderedInverse:
    """Inverse of a bordered matrix [[0, v^T], [v, Q]].

    ``z`` is the top-left scalar of the inverse, ``order`` the size of the
    inner block ``Q``, and ``inv`` the full (order+1) x (order+1) inverse.
    ``ids`` optionally names the samples behind the rows of ``Q``, in order,
    so a holder can tell whether the inverse still matches its row set.
    """

    z: float
    order: int
    inv: np.ndarray
    ids: np.ndarray | None = None

    def apply(self, rhs: np.ndarray) -> np.ndarray:
        return self.inv @ rhs


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
    body = prev @ cross
    v = new - cross.T @ body
    v_inv = _checked_inverse(v, SingularSchurBlock)
    h = -body
    hv = h @ v_inv
    out = np.empty((n + k, n + k))
    np.add(prev, hv @ h.T, out=out[:n, :n])
    out[:n, n:] = hv
    out[n:, :n] = hv.T
    out[n:, n:] = v_inv
    return out


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
    keep = np.ones(n, dtype=bool)
    keep[removed] = False
    keep = np.flatnonzero(keep)
    rows = prev.take(keep, axis=0)
    lam = rows.take(keep, axis=1)
    h_r = rows.take(removed, axis=1)
    v_r = prev[np.ix_(removed, removed)]
    v_inv = _checked_inverse(v_r, SingularCornerBlock)
    lam -= h_r @ v_inv @ h_r.T
    return lam


def inverse_grow_shrink(q_inv_prev, q_cross, q_new, removed_ids) -> np.ndarray:
    """Combined shrink-then-grow inverse update.

    ``removed_ids`` index the *old* block; rows of ``q_cross`` belonging to
    removed indices are dropped before growing.  Equivalent (within
    roundoff) to applying the two updates in either order.
    """
    prev = _as_square(q_inv_prev)
    cross = np.asarray(q_cross, dtype=float)
    removed = np.unique(np.asarray(removed_ids, dtype=int))
    shrunk = inverse_shrink(prev, removed) if removed.size else prev
    keep = np.setdiff1d(np.arange(prev.shape[0]), removed)
    return inverse_grow(shrunk, cross[keep, :], q_new)
