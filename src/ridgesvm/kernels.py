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

from .errors import DimensionMismatch

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
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == "polynomial" and self.degree < 1:
            raise ValueError("polynomial degree must be >= 1")
        if self.family == "rbf" and self.sigma <= 0:
            raise ValueError("rbf sigma must be > 0")
        if self.ridge < 0:
            raise ValueError("ridge must be >= 0")


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
    np.negative(k, out=k)
    k /= 2.0 * spec.sigma**2
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
    """Ridge-Gram columns ``K[:, r] + ridge * e_r`` of one fixed row set.

    Each requested row's column is evaluated once and kept in a contiguous
    n x k buffer, so a product over many columns is one matrix-vector
    product over the buffer instead of a per-call stack of columns.  The
    ridge goes by row index: two rows with identical features stay
    unridged off the diagonal.

    The rows of ``x`` must not change while the cache is in use.
    """

    def __init__(self, x, spec: KernelSpec):
        self.x = x
        self.spec = spec
        n = x.shape[0]
        self._slot = np.full(n, -1, dtype=np.intp)
        self._buf = np.empty((n, 0), order="F")
        self._filled = 0

    def _fill(self, rows: np.ndarray) -> None:
        missing = np.unique(rows[self._slot[rows] < 0])
        k = missing.size
        if k == 0:
            return
        start, end = self._filled, self._filled + k
        if end > self._buf.shape[1]:
            n = self.x.shape[0]
            grown = np.empty((n, min(n, 2 * end)), order="F")
            grown[:, :start] = self._buf[:, :start]
            self._buf = grown
        cols = self._buf[:, start:end]
        # evaluated in place: the transposed slice is C-contiguous, and
        # K(x_missing, x) is K(x, x_missing) transposed
        kernel_matrix(self.x[missing], self.x, self.spec, out=cols.T)
        cols[missing, np.arange(k)] += self.spec.ridge
        self._slot[missing] = np.arange(start, end)
        self._filled = end

    def apply(self, rows, coef) -> np.ndarray:
        """``G[:, rows] @ coef`` for the ridge Gram ``G``."""
        rows = np.asarray(rows, dtype=np.intp).ravel()
        coef = np.asarray(coef, dtype=float).ravel()
        if rows.size == 0:
            return np.zeros(self.x.shape[0])
        self._fill(rows)
        weights = np.bincount(self._slot[rows], weights=coef, minlength=self._filled)
        return self._buf[:, :self._filled] @ weights


def decision_profile(xq, x_model, coefficients, bias, spec: KernelSpec) -> np.ndarray:
    """Raw decision values sum_j c_j K(x, x_j) + b for query rows ``xq``.

    Only model rows with a nonzero coefficient contribute, so kernel columns
    are evaluated for those rows alone; with none the result is the bias.
    """
    coeffs = np.asarray(coefficients, dtype=float)
    support = np.flatnonzero(coeffs)
    if support.size == 0:
        base = np.atleast_2d(np.asarray(xq, dtype=float)).shape[0]
        return np.full(base, float(bias))
    x_support = np.asarray(x_model, dtype=float)[support]
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
