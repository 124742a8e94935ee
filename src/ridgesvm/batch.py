"""Reference batch dual solvers for ridge SVM and ridge SVR.

Sequential two-variable coordinate ascent on the dual with second-order
working-set selection and a first-order stopping test.  The solvers
bootstrap initial model states, provide the correctness oracle for the
online engines, and act as the full-retraining arm in benchmarks.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels, model
from .errors import InvalidParameter, NoConvergence, SingleClassInput

_BOX_EPS = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Convergence tolerance and an iteration budget for the pair solver.

    ``max_passes``, an integer >= 1, is measured in multiples of the
    variable count.
    """

    kkt_tolerance: float = 1e-6
    max_passes: int = 10000

    def __post_init__(self):
        if not self.kkt_tolerance > 0:  # NaN fails too
            raise InvalidParameter("kkt_tolerance must be > 0")
        if not (isinstance(self.max_passes, numbers.Integral) and self.max_passes >= 1):
            raise InvalidParameter("max_passes must be an integer >= 1")


def _pair_ascent(gram, targets, lo, hi, epsilon, tol, max_iter):
    """Pair updates on signed multipliers beta, the pair chosen by second-order
    working-set selection (Fan, Chen & Lin, JMLR 6, 2005).

    Maximises the dual ``-beta^T G beta / 2 + t^T beta - epsilon |beta|_1``
    subject to ``sum(beta) = 0`` and the per-sample box ``lo <= beta <= hi``
    for the ridge Gram ``G = K + ridge I``.  The SVM is the epsilon = 0 case
    with ``beta = y alpha`` and targets ``y``; the SVR has ``beta = theta``.
    ``i`` is the largest up-violator; ``j`` is the down-candidate with a
    positive pair gain ``g`` that maximises ``g^2 / (G_ii + G_jj - 2 G_ij)``,
    the dual gain of the exact pair step.  The stopping test stays first-order:
    the largest up- plus the largest down-violation is at most ``tol``.
    Returns (beta, resid, gap) with resid_i = sum_j G_ij beta_j - t_i and gap
    that largest violation.  A non-finite gap (an overflowing Gram) raises
    :class:`NoConvergence`.

    A step moves only beta_i and beta_j, so the loop keeps what selection
    reads of beta and changes it at those two rows only: each row's up and
    down offsets (minus the tube term for the sign of beta, or -inf where
    beta sits at that end of its box) and the counts of rows that can move
    each way.  The gains of raising and of lowering are then
    ``up_off - resid`` and ``resid + dn_off``, one pass each into a reused
    buffer.  Negation is exact and rounding symmetric, so these equal the
    masked ``-(resid + tube)`` and ``resid - tube`` of a per-step rebuild bit
    for bit (up to the sign of a zero, which compares equal), and every other
    operation and tie-break is the rebuild's: for a finite residual the
    iterates are the same.  (An infinite residual at a row that cannot move
    that way gives a NaN gain, not -inf, so the gap turns NaN and the solver
    raises.)  A step costs nine n-wide passes (the two gains, their maxima,
    the candidate scan and the residual update) and a few over the
    candidates.
    """
    n = targets.shape[0]
    beta = np.zeros(n)
    resid = -targets.astype(float)
    gap = np.inf
    up_limit = hi - _BOX_EPS
    down_limit = lo + _BOX_EPS
    diag = gram.diagonal().copy()
    # at beta = 0 the tube term is +epsilon both ways
    can_up, can_dn = beta < up_limit, beta > down_limit
    up_off = np.where(can_up, -epsilon, -np.inf)
    dn_off = np.where(can_dn, -epsilon, -np.inf)
    n_up, n_dn = int(can_up.sum()), int(can_dn.sum())
    # the loop reads single entries: Python floats are cheaper than numpy scalars
    hi, lo, up_limit, down_limit = hi.tolist(), lo.tolist(), up_limit.tolist(), down_limit.tolist()
    up, dn, step = np.empty(n), np.empty(n), np.empty(n)
    for _ in range(max_iter):
        if not n_up or not n_dn:
            gap = 0.0
            break
        np.subtract(up_off, resid, out=up)
        i = int(np.argmax(up))
        up_i = up.item(i)
        np.add(resid, dn_off, out=dn)
        gap = up_i + dn.max()
        if gap <= tol:
            break
        if not math.isfinite(gap):
            raise NoConvergence(f"pair solver met the optimality gap {gap}", worst_gap=gap)
        # score only the pairs of positive gain: a full-length score costs more per step
        cand = np.flatnonzero(dn > -up_i)
        gain = up_i + dn.take(cand)
        row_i = gram[i]
        curv = diag[i] + diag.take(cand) - 2.0 * row_i.take(cand)
        k = int(np.argmax(gain * gain / np.maximum(curv, _BOX_EPS)))
        j, quad = int(cand[k]), curv.item(k)
        b_i, b_j = beta.item(i), beta.item(j)
        delta = gain.item(k) / quad if quad > _BOX_EPS else math.inf
        delta = min(delta, hi[i] - b_i, b_j - lo[j])
        # the |beta| term changes slope at zero: stop there and re-select
        if b_i < 0:
            delta = min(delta, -b_i)
        if b_j > 0:
            delta = min(delta, b_j)
        np.subtract(row_i, gram[j], out=step)  # rows: contiguous, and G is symmetric
        step *= delta
        resid += step
        for r, b in ((i, b_i + delta), (j, b_j - delta)):
            beta[r] = b
            was_up, was_dn = up_off.item(r) > -math.inf, dn_off.item(r) > -math.inf
            can_up, can_dn = b < up_limit[r], b > down_limit[r]
            up_off[r] = (-epsilon if b >= 0 else epsilon) if can_up else -math.inf
            dn_off[r] = (-epsilon if b <= 0 else epsilon) if can_dn else -math.inf
            n_up += can_up - was_up
            n_dn += can_dn - was_dn
    return beta, resid, gap


def _train(state, spec, hyper, config: SolverConfig | None):
    """Batch-solve the dual over the samples of a fresh ``state`` (in place)."""
    config = config or SolverConfig()
    lo, C, eps = state.box(hyper)
    signs = state.signs_of(state.targets)
    # beta = s * mult, so its box is [lo, C] for s = +1 and [-C, -lo] for s = -1
    beta_lo = np.where(signs > 0, lo, -C)
    beta_hi = np.where(signs > 0, C, -lo)
    gram = kernels.q_matrix_svr(state.X, spec)
    max_iter = config.max_passes * max(state.n, 1)
    beta, resid, gap = _pair_ascent(
        gram, state.targets, beta_lo, beta_hi, eps, config.kkt_tolerance, max_iter
    )
    if not gap <= config.kkt_tolerance:
        raise NoConvergence(
            f"pair solver stopped with optimality gap {gap:.3e}", worst_gap=gap
        )
    # an interior multiplier's equilibrium fixes the bias, else the shared rule does
    interior = model.interior_mask(beta, C)
    if interior.any():
        state.b = float(np.mean(-resid[interior] - eps * np.sign(beta[interior])))
    state.mult = signs * beta
    state.resid = signs * (resid + state.b)
    model.settle_bias(state, hyper)
    state.partition = model.classify_regions(state.mult, state.resid, C, eps)
    return state


def train_svm_batch(samples, spec, hyper, config: SolverConfig | None = None) -> model.SvmState:
    """Train a ridge SVM from scratch; the returned state satisfies the
    optimality regions at the configured tolerance."""
    state = model.SvmState(samples)
    if not ((state.y > 0).any() and (state.y < 0).any()):
        raise SingleClassInput("need at least two samples spanning both classes")
    return _train(state, spec, hyper, config)


def train_svr_batch(samples, spec, hyper, config: SolverConfig | None = None) -> model.SvrState:
    """Train a ridge SVR from scratch over theta with box [-C, C]."""
    state = model.SvrState(samples)
    if state.n < 2:
        raise NoConvergence("need at least two samples")
    return _train(state, spec, hyper, config)
