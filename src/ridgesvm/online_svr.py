"""Regression entry points of the one-shot engine (:mod:`ridgesvm.online`)."""
from __future__ import annotations

from . import model, online
from .errors import NonpositiveRho


def wec_predict_svr(f_value, target, rho, C, epsilon) -> float:
    """Predict a new sample's theta from its test-point error.

    The ramp has slope -1/rho on each side of the tube and crosses zero at
    error +/- epsilon; inside the tube the multiplier is zero.
    """
    if rho <= 0:
        raise NonpositiveRho("multiplier prediction requires ridge > 0")
    e = f_value - target
    if e > epsilon:
        return float(min(max((epsilon - e) / rho, -C), 0.0))
    if e < -epsilon:
        return float(min(max((-epsilon - e) / rho, 0.0), C))
    return 0.0


def update_multi_svr(state: model.SvrState, batch: model.UpdateBatch, spec, hyper
                     ) -> model.SvrState:
    """Apply one add/remove batch atomically; returns a new state.

    See :func:`ridgesvm.online.update_multi`.
    """
    return online.update_multi(state, batch, spec, hyper)
