"""Classification entry points of the one-shot engine (:mod:`ridgesvm.online`)."""
from __future__ import annotations

from . import model, online
from .errors import NonpositiveRho


def wec_predict_svm(f_value, label, rho, C) -> float:
    """Predict a new sample's multiplier from its test-point output.

    The ramp alpha = (1 - y f) / rho, clipped into [0, C], is read off the
    unbounded-support-vector identity of the ridge model.
    """
    if rho <= 0:
        raise NonpositiveRho("multiplier prediction requires ridge > 0")
    return float(min(max((1.0 - label * f_value) / rho, 0.0), C))


def update_multi_svm(state: model.SvmState, batch: model.UpdateBatch, spec, hyper
                     ) -> model.SvmState:
    """Apply one add/remove batch atomically; returns a new state.

    See :func:`ridgesvm.online.update_multi`.
    """
    return online.update_multi(state, batch, spec, hyper)
