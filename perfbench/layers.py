"""Per-layer metrics derived from a traced run's spans.

Every figure is scoped to the arm whose top span encloses the work:
``update`` (the one-shot engine), ``predict`` (decision values on the query
batch), ``path`` (the step-size follower), ``retrain`` (the batch oracle)
and ``check`` (the correctness gate).  Times and counts are means per call
of that arm; ``*_share`` figures are ratios of totals.
"""
from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracer import END, NAME, PARENT, ROUND, START, WORK

ARM_LAYERS = {
    "update": ("kernels", "linalg", "model", "online_svm", "online_svr", "batch"),
    "predict": ("kernels",),
    "path": ("kernels", "linalg", "model", "path", "batch"),
    "retrain": ("kernels", "linalg", "model", "batch"),
}

_ASSEMBLY = ("kernels.gram_block", "kernels.q_block", "kernels.q_matrix_svr",
             "kernels.q_matrix")
_SPLICE = tuple(f"model.{cls}.{m}" for cls in ("SvmState", "SvrState")
                for m in ("copy", "delete_rows", "append_samples"))
_INVERSE = tuple(f"model.{f}_cached_inverse" for f in ("refresh", "ensure", "shrink", "grow"))
_TRAIN = ("batch.train_svm_batch", "batch.train_svr_batch")
_LINALG_OPS = ("linalg.inverse_grow", "linalg.inverse_shrink", "linalg.bordered_inverse")


def _fn(name: str) -> str:
    return name.rsplit(".", 1)[-1]


class _Arm:
    """Per-function totals of the spans under one arm."""

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.count = defaultdict(int)
        self.work = defaultdict(int)
        self.orders: list[int] = []
        self.scanned = 0
        self.nonzero = 0
        self.arrival_ns = 0
        self.solved_rounds: set[int] = set()

    def per_call(self, value) -> float:
        return float(value) / self.calls if self.calls else 0.0

    def ms(self, table, names) -> float:
        return self.per_call(sum(table[n] for n in names)) / 1e6

    def layer_self_ns(self, layer) -> int:
        return sum(v for n, v in self.self_ns.items() if n.startswith(layer + "."))

    def layer_self_ms(self, layer) -> float:
        return self.per_call(self.layer_self_ns(layer)) / 1e6

    def ran(self, layer) -> bool:
        return any(n.startswith(layer + ".") for n in self.count)


def aggregate(spans, self_ns) -> dict[str, _Arm]:
    """Fold spans into per-arm totals; spans outside any arm are ignored."""
    arms: dict[str, _Arm] = defaultdict(_Arm)
    arm_of: list[str | None] = [None] * len(spans)
    for i, s in enumerate(spans):
        name, parent = s[NAME], s[PARENT]
        dur = s[END] - s[START]
        if parent < 0:
            if name.startswith("arm."):
                arm_of[i] = name[4:]
                arms[arm_of[i]].calls += 1
                arms[arm_of[i]].total_ns += dur
            continue
        arm_of[i] = arm_of[parent]
        if arm_of[i] is None:
            continue
        a = arms[arm_of[i]]
        a.self_ns[name] += int(self_ns[i])
        a.incl_ns[name] += dur
        a.count[name] += 1
        work = s[WORK]
        if work is None:  # the call raised before its work was recorded
            pass
        elif name == "kernels.decision_values":
            a.scanned += work[0]
            a.nonzero += work[1]
            if _fn(spans[parent][NAME]).startswith("update_multi_"):
                a.arrival_ns += dur
        elif name in _LINALG_OPS:
            a.orders.append(work[0])
            a.work[name] += work[1]
        else:
            a.work[name] += work
        if _fn(name).startswith("wec_predict_"):
            a.arrival_ns += dur
        elif _fn(name).startswith("equilibrium_solve_"):
            a.solved_rounds.add(s[ROUND])
    return arms


def _kernels(a: _Arm) -> dict:
    return {
        "kernels.eval_ms": a.ms(a.self_ns, ["kernels.kernel_matrix"]),
        "kernels.assembly_ms": a.ms(a.self_ns, _ASSEMBLY),
        "kernels.self_ms": a.layer_self_ms("kernels"),
        "kernels.entries": a.per_call(a.work["kernels.kernel_matrix"]),
        "kernels.calls": a.per_call(a.count["kernels.kernel_matrix"]),
        "kernels.predict_nonzero_share": a.nonzero / a.scanned if a.scanned else 0.0,
    }


def _linalg(a: _Arm) -> dict:
    grow = a.count["linalg.inverse_grow"]
    shrink = a.count["linalg.inverse_shrink"]
    rebuild = a.count["linalg.bordered_inverse"]
    patches = grow + shrink
    return {
        "linalg.self_ms": a.layer_self_ms("linalg"),
        "linalg.grow_calls": a.per_call(grow),
        "linalg.shrink_calls": a.per_call(shrink),
        "linalg.rebuild_calls": a.per_call(rebuild),
        "linalg.patch_share": patches / (patches + rebuild) if patches + rebuild else 0.0,
        "linalg.flops_computed": a.per_call(sum(a.work[n] for n in _LINALG_OPS)),
        "linalg.order_mean": float(np.mean(a.orders)) if a.orders else 0.0,
    }


def _model(a: _Arm) -> dict:
    return {
        "model.rows_ms": a.ms(a.self_ns, ["model._StateBase.rows_of"]),
        "model.splice_ms": a.ms(a.self_ns, _SPLICE),
        "model.inverse_patch_ms": a.ms(a.self_ns, _INVERSE),
        "model.inverse_refreshes": a.per_call(a.count["model.refresh_cached_inverse"]),
        "model.self_ms": a.layer_self_ms("model"),
    }


def _engine(a: _Arm, engine: str) -> dict:
    kind = engine[-3:]
    repair = "kkt_repair" if kind == "svm" else "kkt_repair_svr"
    rebuild = "rebuild_empty_S" if kind == "svm" else "rebuild_empty_S_svr"
    ran = a.ran(engine)
    return {
        f"{engine}.self_ms": a.layer_self_ms(engine),
        f"{engine}.repair_ms": a.ms(a.incl_ns, [f"{engine}.{repair}"]),
        f"{engine}.solve_ms": a.ms(a.incl_ns, [f"{engine}.equilibrium_solve_{kind}"]),
        f"{engine}.arrival_predict_ms": a.per_call(a.arrival_ns) / 1e6 if ran else 0.0,
        f"{engine}.solved_share": a.per_call(len(a.solved_rounds)) if ran else 0.0,
        f"{engine}.fallbacks": a.per_call(a.count[f"{engine}.{rebuild}"]),
        f"{engine}.fallback_retrains": (
            a.per_call(sum(a.count[n] for n in _TRAIN)) if ran else 0.0),
    }


def _path(a: _Arm) -> dict:
    return {
        "path.self_ms": a.layer_self_ms("path"),
        "path.scan_ms": a.ms(a.self_ns, ["path.sensitivity_phi", "path.step_select"]),
        "path.segments": a.per_call(a.count["path.sensitivity_phi"]),
        "path.events": a.per_call(a.count["path.migrate"]),
        "path.fallback_retrains": a.per_call(sum(a.count[n] for n in _TRAIN)),
    }


def _batch(a: _Arm) -> dict:
    return {
        "batch.self_ms": a.layer_self_ms("batch"),
        "batch.calls": a.per_call(sum(a.count[n] for n in _TRAIN)),
        "batch.gram_bytes_computed": a.per_call(sum(a.work[n] for n in _TRAIN)),
    }


def _layer(a: _Arm, layer: str) -> dict:
    if layer.startswith("online_"):
        return _engine(a, layer)
    return {"kernels": _kernels, "linalg": _linalg, "model": _model,
            "path": _path, "batch": _batch}[layer](a)


def layer_metrics(arms: dict[str, _Arm]) -> dict[str, float]:
    """Every per-layer metric, named ``<layer>.<metric>.<arm>``."""
    out = {}
    for arm, layers in ARM_LAYERS.items():
        a = arms.get(arm) or _Arm()
        for layer in layers:
            out.update({f"{k}.{arm}": v for k, v in _layer(a, layer).items()})
        out[f"trace.{arm}_ms"] = a.per_call(a.total_ns) / 1e6
    check = arms.get("check") or _Arm()
    out["model.validate_ms.check"] = check.ms(check.incl_ns, ["model.validate"])
    return out


def update_split(arms: dict[str, _Arm]) -> dict[str, float]:
    """Share of traced update time spent in each layer's own code."""
    a = arms.get("update")
    if a is None or not a.total_ns:
        return {}
    shares = {layer: a.layer_self_ns(layer) / a.total_ns for layer in ARM_LAYERS["update"]}
    rows_splice = a.self_ns["model._StateBase.rows_of"] + sum(a.self_ns[n] for n in _SPLICE)
    shares["model.rows+splice"] = rows_splice / a.total_ns
    return shares
