"""Bordered (saddle-point) inverses and block grow/shrink inverse updates.

The online solvers keep the inverse of

    [[0, v^T],
     [v, Q ]]

current while rows/columns of ``Q`` arrive and leave.  The inverse is built
once from a Schur complement and afterwards patched with Woodbury-style
block updates instead of being refactorised.  Between rewrites the
membership changes are carried in Schur-complement form and only ever
appended (see :class:`BorderedInverse`).  The module-level routines are
pure functions over dense row-major arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

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

# ``_Pending.rows`` entry of a join, and of the column that pins a join that left
_JOIN, _PIN = -1, -2


def _pending_limit(order: int) -> float:
    """Most pending columns a :class:`BorderedInverse` of ``order`` carries.

    A rewrite reads and writes every one of the (order+1)^2 entries several
    times (a gather, a rank-p product, a symmetrisation) into freshly faulted
    memory: at order 520 a rank-9 rewrite takes 5.7 ms against 0.08 ms for
    one product with ``inv`` (one core of a Xeon host, one BLAS thread).  A
    pending column adds only O(order) to each solve plus its share of the
    p x p capacitance factors, and a change of k appends k columns into new
    arrays: one copy of the p + k rows of ``(inv V)^T``, O(order (p + k)),
    one of the joins' block of ``S`` when it joins rows, and one of the p x p
    factors as they are extended.  A pending join that leaves is pinned by
    one more column, so it counts twice.  Carrying up to
    order/4 columns keeps a solve within about 1.6 products with ``inv``,
    while a rewrite happens once per order/4 changes instead of at every
    grow.  The floor keeps small inverses from rewriting on almost every
    change, where a rewrite's fixed costs outweigh its O(order^2) work.
    """
    return max(16, order / 4)


@dataclass(frozen=True)
class _Pending:
    """Membership changes since the last rewrite of a :class:`BorderedInverse`.

    Each change is one column of the augmented matrix ``[[M, V], [V^T, D]]``
    over the base matrix ``M = inv^-1``, appended in order; none is ever
    taken out.  ``rows`` holds the base row of each column -- a drop, whose
    column is the unit vector at that row and whose entries in ``D`` are
    zero -- or ``_JOIN`` for a join, whose column is its cross block against
    the base rows and whose entries in ``D`` are its block among the pending
    joins, or ``_PIN`` for the pin of a pending join that left, whose column
    is zero but for a unit entry of ``D`` at that join.  Solved over ``[base
    rows, columns]``, the augmented system pins each dropped row and each
    join that left at zero and gives the live rows the solution of the live
    system; ``live`` indexes them there, border first, in order.  ``ht``
    holds the rows of ``(inv V)^T`` (a pin's is zero) and ``lu`` the checked
    LAPACK factors ``(lu, piv)`` of the capacitance matrix ``S = D - V^T inv
    V``, extended as columns are appended (:func:`_extended_lu`): a pin's
    pivot is ``-(S^-1)_jj`` for the join ``j`` it pins.  ``cap`` holds the
    entries of ``S`` among the joins, those that left included: the Schur
    block of the joins against the whole base, which a rewrite grows by.
    Every array is built whole and never written after, so the versions of
    one inverse share them; an extension copies ``ht`` and ``cap`` into new
    arrays with the appended entries.
    """

    rows: np.ndarray
    live: np.ndarray
    lu: tuple | None
    ht: np.ndarray
    cap: np.ndarray


@dataclass(frozen=True)
class BorderedInverse:
    """Inverse of a bordered matrix [[0, v^T], [v, Q]], in factored form.

    ``order`` is the size of the inner block ``Q`` over the live rows.
    ``inv`` is the full inverse over the rows of the last rewrite, and
    ``pending`` (``None`` when the two agree) carries every membership
    change since, in Schur-complement form (see :class:`_Pending`);
    :meth:`compact` rewrites them into a plain inverse.  ``ids`` optionally
    names the samples behind the live rows of ``Q``, in order, so a holder
    can tell which of its rows the inverse covers.  No array a holder reads
    is ever written after it is built, so holders may share them: a change
    builds new pending arrays rather than extending the old ones in place.
    """

    order: int
    inv: np.ndarray
    ids: np.ndarray | None = None
    pending: _Pending | None = None

    def apply(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the live bordered system for ``rhs`` (border entry first).

        One product with ``inv``, O(order x p) for the p pending columns and
        a p x p solve with the capacitance factors.
        """
        pend = self.pending
        if pend is None:
            return self.inv @ rhs
        n, ht = self.inv.shape[0], pend.ht
        full = np.zeros((n + pend.rows.size,) + np.shape(rhs)[1:])
        full[pend.live] = rhs
        base = full[:n]
        out = self.inv @ base
        cols = lapack.dgetrs(*pend.lu, full[n:] - ht @ base)[0]
        out -= ht.T @ cols
        return np.concatenate([out, cols])[pend.live]

    def columns(self, positions) -> np.ndarray:
        """The live inverse's columns at ``positions`` (the border row is 0).

        What :meth:`apply` gives for unit vectors, without a product with
        ``inv``: its columns are rows (it is symmetric), read directly, plus
        the pending correction, O(order x p) per position for the p pending
        columns.
        """
        pos = np.asarray(positions, dtype=int)
        pend = self.pending
        if pend is None:
            return self.inv[pos].T
        n, ht, k = self.inv.shape[0], pend.ht, pos.size
        src = pend.live[pos]
        on_base = src < n
        out = np.zeros((n, k))
        out[:, on_base] = self.inv[src[on_base]].T
        rhs = np.zeros((pend.rows.size, k))
        rhs[:, on_base] = -ht[:, src[on_base]]
        rhs[src[~on_base] - n, np.flatnonzero(~on_base)] = 1.0
        cols = lapack.dgetrs(*pend.lu, rhs)[0]
        out -= ht.T @ cols
        return np.concatenate([out, cols])[pend.live]

    def _changes(self) -> _Pending:
        """The pending changes, or none over the base rows."""
        if self.pending is not None:
            return self.pending
        n = self.inv.shape[0]
        return _Pending(_NO_ROWS, np.arange(n), None, np.zeros((0, n)), _NO_BLOCK)

    def shrink(self, positions) -> BorderedInverse:
        """Drop the live inner rows at ``positions`` (the border row is 0).

        A base row becomes a pending drop; a pending join is pinned by one
        more column.  Raises :class:`SingularCornerBlock` when the
        capacitance block turns singular, as :func:`inverse_shrink` does on a
        singular corner.
        """
        pos = np.unique(np.asarray(positions, dtype=int))
        if not pos.size:
            return self
        if pos.min() < 1 or pos.max() > self.order:
            raise IndexError(f"positions out of range for order {self.order}")
        pend, n = self._changes(), self.inv.shape[0]
        leaving = pend.live[pos]
        drops, gone = leaving[leaving < n], leaving[leaving >= n] - n
        d, k = drops.size, pos.size
        # a drop's column of inv V is a row of inv, which is symmetric; a pin's is zero
        h = np.zeros((k, n))
        h[:d] = self.inv[drops]
        cap_cross = np.zeros((pend.rows.size, k))
        cap_cross[:, :d] = -pend.ht[:, drops]
        cap_cross[gone, np.arange(d, k)] = 1.0
        cap_new = np.zeros((k, k))
        cap_new[:d, :d] = -h[:d, drops]
        return self._extend(pend, np.delete(pend.live, pos),
                            np.concatenate([drops, np.full(k - d, _PIN)]), cap_cross, cap_new,
                            h, None if self.ids is None else np.delete(self.ids, pos - 1),
                            SingularCornerBlock)

    def grow(self, cross, new, ids=None, order=None) -> BorderedInverse:
        """Admit ``k`` inner rows as pending joins.

        ``cross`` (order+1 x k) couples the live rows, border first, to the
        new ones, and ``new`` (k x k) is their own block.  The new rows follow
        the live ones unless ``order``, a permutation of the order + k inner
        rows, rearranges them.  ``ids`` names the rows of the result.  Raises
        :class:`SingularSchurBlock` when the capacitance block turns singular.
        """
        cross = np.asarray(cross, dtype=float)
        new = _as_square(new)
        k = new.shape[0]
        pend, n = self._changes(), self.inv.shape[0]
        on_base = pend.live < n
        cross_t = np.zeros((k, n))  # the joins' cross block against the base rows, transposed
        cross_t[:, pend.live[on_base]] = cross[on_base].T
        block = np.zeros((pend.rows.size, k))  # D between the pending columns and the joins
        block[pend.live[~on_base] - n] = cross[~on_base]
        h = cross_t @ self.inv
        live = np.concatenate([pend.live, n + pend.rows.size + np.arange(k)])
        if order is not None:
            live = live[np.concatenate(([0], 1 + np.asarray(order)))]
        return self._extend(pend, live, np.full(k, _JOIN), block - pend.ht @ cross_t.T,
                            new - h @ cross_t.T, h, ids, SingularSchurBlock)

    def _extend(self, pend, live, rows, cap_cross, cap_new, h, ids, exc):
        """Append pending columns, extend the capacitance factors, rewrite past the limit.

        ``cap_cross`` and ``cap_new`` are the new columns' capacitance
        entries and ``h`` their rows of ``(inv V)^T``; the entries of joins
        among the joins are kept in ``cap``.
        """
        k, lu, cap = rows.size, pend.lu, pend.cap
        cap_new = 0.5 * (cap_new + cap_new.T)
        if k:
            lu = (_checked_lu(cap_new, exc) if lu is None
                  else _extended_lu(lu, cap_cross, cap_new, exc))
        if k and rows[0] == _JOIN:
            j, among = cap.shape[0], cap_cross[pend.rows == _JOIN]
            cap = np.empty((j + k, j + k))  # filled by slices: np.block costs more per call
            cap[:j, :j], cap[:j, j:], cap[j:, :j], cap[j:, j:] = pend.cap, among, among.T, cap_new
        pend = _Pending(np.concatenate([pend.rows, rows]), live, lu,
                        np.concatenate([pend.ht, h]), cap)
        out = BorderedInverse(order=live.size - 1, inv=self.inv, ids=ids, pending=pend)
        if not pend.rows.size or pend.rows.size > _pending_limit(out.order):
            return out.compact()
        return out

    def compact(self) -> BorderedInverse:
        """The same live inverse as one plain array, with nothing pending.

        Rewrites through :func:`_grow_shrink`, drops first and then the live
        joins (pinned ones are skipped), handing it the joins' rows of ``ht``
        as their product with ``inv`` and their entries of ``cap`` as their
        Schur block against the whole base.  When every base row has left,
        the base minus its drops is the singular ``[[0]]``, so the live
        inverse is read off :meth:`apply` on the identity; the pending limit
        lets that happen only for a base of at most about 16 inner rows.
        """
        pend = self.pending
        if pend is None:
            return self
        n = self.inv.shape[0]
        dropped = np.sort(pend.rows[pend.rows >= 0])
        if dropped.size == n - 1:
            inv = self.apply(np.eye(self.order + 1))
            _symmetrize(inv)
            return BorderedInverse(order=self.order, inv=inv, ids=self.ids)
        joins = np.sort(pend.live[pend.live >= n]) - n  # the live joins' pending columns
        at = np.cumsum(pend.rows == _JOIN)[joins] - 1  # and their place in cap
        cap = pend.cap
        if at.size < cap.shape[0]:
            cap = cap.take(at, axis=0).take(at, axis=1)
        # rows of the rewrite before it is permuted into live order
        src = np.concatenate([np.delete(np.arange(n), dropped), n + joins])
        where = np.empty(n + pend.rows.size, dtype=int)
        where[src] = np.arange(src.size)
        perm = where[pend.live]
        perm = None if np.array_equal(perm, np.arange(perm.size)) else perm
        inv = _grow_shrink(self.inv, dropped, pend.ht[joins].T, cap, perm)
        return BorderedInverse(order=inv.shape[0] - 1, inv=inv, ids=self.ids)


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _checked_lu(m: np.ndarray, exc: type) -> tuple:
    """LAPACK's LU factors ``(lu, piv)`` of a small block, raising ``exc`` on tiny pivots."""
    lu, piv, _ = lapack.dgetrf(m)
    if np.min(np.abs(np.diag(lu))) <= PIVOT_TOL:
        raise exc(f"block of order {m.shape[0]} is singular within {PIVOT_TOL}")
    return lu, piv


def _extended_lu(factors: tuple, cross: np.ndarray, new: np.ndarray, exc: type) -> tuple:
    """LU factors of ``[[A, cross], [cross^T, new]]``, in a fresh array, from those of
    ``A = P L U``: with ``X = L^-1 P^T cross``, ``Y = cross^T U^-1`` and the checked
    ``P2 L2 U2 = new - Y X``, they are ``diag(P, P2) [[L, 0], [P2^T Y, L2]] [[U, X], [0, U2]]``."""
    lu, piv = factors
    p = piv.size
    x = lapack.dtrtrs(lu, lapack.dlaswp(cross, piv), lower=1, unitdiag=1)[0]
    y = lapack.dtrtrs(lu, cross, trans=1)[0].T
    lu2, piv2 = _checked_lu(new - y @ x, exc)
    out = np.empty((p + piv2.size,) * 2, order="F")
    out[:p, :p], out[:p, p:], out[p:, p:] = lu, x, lu2
    out[p:, :p] = lapack.dlaswp(y, piv2)
    return out, np.concatenate([piv, piv2 + p])


def _checked_inverse(m: np.ndarray, exc: type) -> np.ndarray:
    """Invert a small square block, raising ``exc`` on tiny pivots."""
    if m.size == 0:
        return m.reshape(0, 0).copy()
    return lapack.dgetrs(*_checked_lu(m, exc), np.eye(m.shape[0]))[0]


def checked_solve(m: np.ndarray, rhs: np.ndarray, exc: type = SingularCornerBlock) -> np.ndarray:
    """Solve a small square system ``m x = rhs``, raising ``exc`` on tiny pivots."""
    return lapack.dgetrs(*_checked_lu(m, exc), rhs)[0]


def _spd_inverse(m: np.ndarray, exc: type) -> np.ndarray:
    """Invert a symmetric positive-definite block from one triangle by Cholesky
    (LAPACK ``dpotrf``, ``dpotri``: about n^3 flops against 8n^3/3 for LU against
    the identity), raising ``exc`` unless every elimination pivot, a squared
    diagonal entry of the factor, exceeds ``PIVOT_TOL``."""
    chol, info = lapack.dpotrf(m.T, lower=1)  # m.T: the same block in Fortran order
    if info or np.min(np.diag(chol), initial=np.inf) ** 2 <= PIVOT_TOL:
        raise exc(f"block of order {m.shape[0]} is not positive definite within {PIVOT_TOL}")
    inv = lapack.dpotri(chol, lower=1, overwrite_c=1)[0] if m.size else chol  # n = 0 is illegal
    inv += np.tril(inv, -1).T  # dpotrf left the upper triangle zero
    return inv


def invert_spd(m) -> np.ndarray:
    """Invert a symmetric positive-definite matrix by Cholesky.

    Serves as the direct-inversion oracle for the block update routines.
    Raises :class:`NotPositiveDefinite` when any elimination pivot falls at
    or below ``PIVOT_TOL`` (:class:`ValueError` if it is not symmetric).
    """
    a = _as_square(m)
    if a.size and np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, np.max(np.abs(a))):
        raise ValueError("invert_spd requires a symmetric matrix")
    return _spd_inverse(a, NotPositiveDefinite)


def bordered_inverse(q, border) -> BorderedInverse:
    """Assemble the inverse of [[0, border^T], [border, Q]] for positive-definite Q.

    Uses the Schur complement of the zero corner: with ``u = Q^{-1} border``
    and ``z = -1 / (border^T u)`` the inverse is

        [[z,      -z u^T          ],
         [-z u,   z u u^T + Q^{-1}]],

    ``Q^{-1}`` by Cholesky.  Raises :class:`SingularBorder` when ``Q`` (in the
    package a ridge Gram ``K + rho I``) is not positive definite or when
    ``border^T Q^{-1} border`` vanishes.
    """
    q = _as_square(q)
    v = np.asarray(border, dtype=float).ravel()
    if v.shape[0] != q.shape[0]:
        raise ValueError("border length must match the order of Q")
    q_inv = _spd_inverse(q, SingularBorder)
    u = q_inv @ v
    denom = float(v @ u)
    if abs(denom) <= PIVOT_TOL:
        raise SingularBorder(f"border^T Q^-1 border = {denom:.3e}")
    z = -1.0 / denom
    w = np.concatenate(([-1.0], u))
    inv = z * np.outer(w, w)
    inv[1:, 1:] += q_inv
    return BorderedInverse(order=v.size, inv=inv)


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


def _grow_shrink(prev, removed, prod, cap, order=None) -> np.ndarray:
    """Shrink the symmetric inverse ``prev`` and grow it, in one rewrite.

    ``removed`` are sorted, distinct indices ``R`` into ``prev``.  The k rows
    that grow it couple to the rows of ``prev`` by a cross block ``C`` (n x
    k) and to each other by ``N``; the caller hands over ``prod = prev C``
    and ``cap = N - C^T prev C``.  With ``K`` the kept indices, ``h = prev[K,
    R]``, ``corner = prev[R, R]^{-1}`` and ``P = prev[K, K] - h corner h^T``
    the shrunk inverse, growing it by ``C[K]`` and ``N`` gives

        [[P, 0], [0, 0]] + U T U^T,   U = [[h, -P C[K]], [0, I]],
                                      T = diag(-corner, (N - C[K]^T P C[K])^{-1}),

    where, with ``lift = corner prod[R]``, ``P C[K] = prod[K] - h lift`` and
    ``N - C[K]^T P C[K] = cap + prod[R]^T lift``: the rows ``C[R]`` cancel
    from both.  So one gather of ``prev[K, K]`` and one rank-(|R| + k)
    product build the result.  Its rows are the kept ones, then the new
    ones, or that list permuted by ``order``.  The result is symmetrised.
    """
    n, k, d = prev.shape[0], cap.shape[0], removed.size
    keep = np.delete(np.arange(n), removed)
    m = keep.size
    rows = prev.take(removed, axis=0)  # the removed columns too: prev is symmetric
    corner = _checked_inverse(rows[:, removed], SingularCornerBlock)
    h = rows[:, keep].T
    lift = corner @ prod[removed]
    body = prod[keep] - h @ lift  # P C[K] without forming P
    schur_inv = _checked_inverse(cap + prod[removed].T @ lift, SingularSchurBlock)
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
    return inverse_grow_shrink(q_inv_prev, q_cross, q_new, _NO_ROWS)


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
    n = _as_square(q_inv_prev).shape[0]
    return inverse_grow_shrink(q_inv_prev, np.zeros((n, 0)), _NO_BLOCK, removed_ids)


def inverse_grow_shrink(q_inv_prev, q_cross, q_new, removed_ids) -> np.ndarray:
    """Combined shrink-then-grow inverse update of a symmetric inverse.

    ``removed_ids`` index the *old* block; rows of ``q_cross`` belonging to
    removed indices are dropped before growing.  Equivalent (within
    roundoff) to applying the two updates in either order, but computed in
    a single rewrite of the array (see :func:`_grow_shrink`).  The one
    validated core of :func:`inverse_grow` and :func:`inverse_shrink`:
    raises :class:`IndexError` for a removed id outside ``[0, n)``.
    """
    prev = _as_square(q_inv_prev)
    n = prev.shape[0]
    cross = np.array(q_cross, dtype=float)  # a copy: its removed rows are zeroed
    new = _as_square(q_new)
    removed = np.unique(np.asarray(removed_ids, dtype=int))
    if cross.shape != (n, new.shape[0]):
        raise ValueError(f"cross block must be {(n, new.shape[0])}, got {cross.shape}")
    if removed.size and (removed[0] < 0 or removed[-1] >= n):
        raise IndexError(f"removed ids out of range for order {n}")
    if not removed.size and not new.size:
        return prev.copy()
    cross[removed] = 0.0
    prod = prev @ cross
    return _grow_shrink(prev, removed, prod, new - cross.T @ prod)
