"""Span tracer for the ridgesvm layers, installed from outside the package.

``Tracer.installed()`` replaces every public function of the traced
modules, and every public method of the classes they define, with a
recorder; leaving the block puts each original attribute back.  A span is
``[name, start_ns, end_ns, parent, round, work]``: ``parent`` indexes the
span that was open when this one started (-1 at the top), ``round`` is the
stream round set by the caller, and ``work`` is a computed count for the
functions that have one (see ``_WORK``).  Spans stay in memory until
``write`` dumps them.

A span's self time is its duration minus the durations of its direct
children; calls are synchronous, so children never overlap.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import time

import numpy as np

from ridgesvm import batch, kernels, linalg, model, online_svm, online_svr, path

LAYER_MODULES = {
    "kernels": kernels,
    "linalg": linalg,
    "model": model,
    "online_svm": online_svm,
    "online_svr": online_svr,
    "path": path,
    "batch": batch,
}

NAME, START, END, PARENT, ROUND, WORK = range(6)


def _order(m) -> int:
    return int(np.shape(m)[0])


def _grow(args, kwargs, result):
    n, k = _order(args[0]), _order(args[2])
    return n, 4 * n * n * k + 4 * n * k * k + 8 * k**3 // 3


def _shrink(args, kwargs, result):
    n = _order(args[0])
    r = int(np.unique(np.asarray(args[1], dtype=int)).size)
    m = n - r
    return n, 8 * r**3 // 3 + 2 * m * r * r + 2 * m * m * r


def _rebuild(args, kwargs, result):
    n = _order(args[0])
    return n, 8 * n**3 // 3 + 4 * n * n


def _gram_bytes(args, kwargs, result):
    n = len(args[0])
    return 8 * n * n


# Work computed from operand shapes.  linalg routines record (operand
# order, flop estimate of the dense LU/products they run);
# decision_values records (rows scanned, rows with a nonzero coefficient).
_WORK = {
    "kernels.kernel_matrix": lambda a, k, r: int(r.size),
    "kernels.decision_values": lambda a, k, r: (
        int(a[1].n), int(np.count_nonzero(a[1].dual_coefficients))),
    "linalg.bordered_inverse": _rebuild,
    "linalg.inverse_grow": _grow,
    "linalg.inverse_shrink": _shrink,
    "batch.train_svm_batch": _gram_bytes,
    "batch.train_svr_batch": _gram_bytes,
}


def traced_attributes():
    """(owner, attribute, span name) for every function the tracer wraps."""
    out = []
    for layer, mod in LAYER_MODULES.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.append((mod, attr, f"{layer}.{attr}"))
        for cls in vars(mod).values():
            if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
                continue
            for attr, obj in vars(cls).items():
                if not attr.startswith("_") and inspect.isfunction(obj):
                    out.append((cls, attr, f"{layer}.{cls.__name__}.{attr}"))
    return out


class Tracer:
    """Records spans for wrapped layer functions and for caller-named arms."""

    def __init__(self):
        self.spans: list[list] = []
        self.round = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.round, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def arm(self, name: str):
        """Top span of one arm call (``arm.update``, ``arm.path``, ...)."""
        span = self._open(f"arm.{name}")
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, name):
        work = _WORK.get(name)

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if work is not None:
                span[WORK] = work(args, kwargs, result)
            return result

        return recorded

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced attribute for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in traced_attributes():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> np.ndarray:
        """Self time of every span in nanoseconds."""
        dur = np.array([s[END] - s[START] for s in self.spans], dtype=np.int64)
        child = np.zeros_like(dur)
        for i, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[i]
        return dur - child

    def write(self, path_out) -> None:
        with open(path_out, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,round,work\n")
            for i, s in enumerate(self.spans):
                work = "" if s[WORK] is None else str(s[WORK]).replace(",", ";")
                fh.write(f"{i},{s[NAME]},{s[START]},{s[END]},{s[PARENT]},{s[ROUND]},{work}\n")
