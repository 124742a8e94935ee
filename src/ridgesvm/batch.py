"""Reference batch dual solvers for ridge SVM and ridge SVR.

Sequential two-variable coordinate ascent on the dual with second-order
working-set selection and a first-order stopping test.  The solvers
bootstrap initial model states, provide the correctness oracle for the
online engines, and act as the full-retraining arm in benchmarks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, model
from .errors import InvalidParameter, NoConvergence, SingleClassInput

_BOX_EPS = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Convergence tolerance and an iteration budget for the pair solver.

    ``max_passes`` is measured in multiples of the variable count.
    """

    kkt_tolerance: float = 1e-6
    max_passes: int = 10000

    def __post_init__(self):
        if not self.kkt_tolerance > 0:  # NaN fails too
            raise InvalidParameter("kkt_tolerance must be > 0")


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
    """
    beta = np.zeros(targets.shape[0])
    resid = -targets.astype(float)
    gap = np.inf
    up_limit = hi - _BOX_EPS
    down_limit = lo + _BOX_EPS
    diag = gram.diagonal().copy()
    for _ in range(max_iter):
        vals_up, vals_dn = _pair_values(beta, resid, epsilon)
        can_up = beta < up_limit
        can_dn = beta > down_limit
        if not can_up.any() or not can_dn.any():
            gap = 0.0
            break
        i = int(np.argmax(np.where(can_up, vals_up, -np.inf)))
        dn = np.where(can_dn, vals_dn, -np.inf)
        gap = vals_up[i] + dn.max()
        if gap <= tol:
            break
        if not math.isfinite(gap):
            raise NoConvergence(f"pair solver met the optimality gap {gap}", worst_gap=gap)
        # score only the pairs of positive gain: a full-length score costs more per step
        cand = np.flatnonzero(dn > -vals_up[i])
        gain = vals_up[i] + dn.take(cand)
        curv = diag[i] + diag.take(cand) - 2.0 * gram[i].take(cand)
        k = int(np.argmax(gain * gain / np.maximum(curv, _BOX_EPS)))
        j, quad = int(cand[k]), curv[k]
        delta = gain[k] / quad if quad > _BOX_EPS else np.inf
        delta = min(delta, hi[i] - beta[i], beta[j] - lo[j])
        # the |beta| term changes slope at zero: stop there and re-select
        if beta[i] < 0:
            delta = min(delta, -beta[i])
        if beta[j] > 0:
            delta = min(delta, beta[j])
        beta[i] += delta
        beta[j] -= delta
        resid += delta * (gram[i] - gram[j])  # rows: contiguous, and G is symmetric
    return beta, resid, gap


def _pair_values(beta, resid, epsilon):
    """Gains of raising and of lowering each beta, tube term included."""
    if not epsilon:  # no kink at zero: spares two n-vector passes per step
        return -resid, resid
    up_sub = np.where(beta >= 0, epsilon, -epsilon)
    dn_sub = np.where(beta <= 0, epsilon, -epsilon)
    return -(resid + up_sub), resid - dn_sub


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
