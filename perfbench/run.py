"""Benchmark of the ridgesvm online engines: one closed-loop update stream.

    python3 perfbench/run.py --workload svr_dense --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 55 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with no
tracing installed.  With ``--trace 1`` it replays the stream twice from
the same base model: first untraced for half of ``--seconds``, then, for
exactly the same rounds, with every public function of the package's
layers wrapped by ``tracer.Tracer``; it reports the per-layer metrics of
the traced pass and the tracing overhead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full report and the spans go to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import checkout

checkout.pin_threads()
try:
    checkout.use_checkout_source()
except checkout.MissingSource as err:
    sys.exit(f"perfbench: {err}")

import numpy as np  # noqa: E402

import layers  # noqa: E402
import stream  # noqa: E402
from tracer import Tracer, traced_attributes  # noqa: E402
from workloads import HELD_OUT_SEED, WORKLOADS, Stream  # noqa: E402

SETUP_REPEATS = 5
OUT_DIR = checkout.ROOT / ".bench_out"

END_TO_END_UNITS = {
    "update_ms_p50": "ms",
    "update_ms_p90": "ms",
    "update_samples_per_s": "1/s",
    "predict_ms_p50": "ms",
    "path_ms_p50": "ms",
    "retrain_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    metric = name.split(".")[1]
    if metric.endswith("_ms") or metric == "validate_ms":
        return "ms"
    if metric.endswith("_share") or metric == "overhead":
        return "ratio"
    return {"entries": "entries", "flops_computed": "flop", "order_mean": "rows",
            "gram_bytes_computed": "B"}.get(metric, "count")


def _ms(values, q=50) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else float("nan")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _summary(workload, rec) -> dict:
    sizes = np.array(rec.sizes, dtype=float)
    update_p50 = _ms(rec.update_s)
    return {
        "why": workload.why,
        "rounds": rec.rounds,
        "samples": {"update": len(rec.update_s), "predict": len(rec.predict_s),
                    "path": len(rec.path_s), "retrain": len(rec.retrain_s)},
        "mean_S_B_O": [round(float(v), 1) for v in sizes.mean(axis=0)],
        "failures": rec.failures,
        "oracle_gap_max": rec.oracle_gap_max,
        "path_oracle_gap_max": rec.path_gap_max,
        "parity_tol": stream.PARITY_TOL,
        "ratios_not_gated": {
            "path_over_update": {"value": _ms(rec.path_s) / update_p50,
                                 "base": "path_ms_p50 / update_ms_p50"},
            "retrain_over_update": {"value": _ms(rec.retrain_s) / update_p50,
                                    "base": "retrain_ms_p50 / update_ms_p50"},
        },
    }


def measure(workload, seed, seconds) -> tuple[dict, dict, int, int]:
    """End-to-end metrics of one untraced run."""
    src = Stream(workload, seed)
    base, first = stream.setup(workload, src)
    setup_times = [first]
    queries = src.queries()
    start = time.perf_counter()
    # The other set-ups are spread evenly over the run: on a shared host a
    # slow spell lasts seconds, so set-ups timed back to back share it.
    due = [start + seconds * i / SETUP_REPEATS for i in range(1, SETUP_REPEATS)]

    def set_up_again(flush=False):
        while due and (flush or time.perf_counter() >= due[0]):
            due.pop(0)
            setup_times.append(stream.setup(workload, src)[1])

    rec = stream.run(workload, src, base, queries, deadline=start + seconds,
                     after_checkpoint=set_up_again)
    set_up_again(flush=True)
    metrics = {
        "update_ms_p50": _ms(rec.update_s),
        "update_ms_p90": _ms(rec.update_s, 90),
        "update_samples_per_s": (rec.absorbed / sum(rec.update_s) if rec.update_s
                                 else float("nan")),
        "predict_ms_p50": _ms(rec.predict_s),
        "path_ms_p50": _ms(rec.path_s),
        "retrain_ms_p50": _ms(rec.retrain_s),
        "setup_s": float(np.median(setup_times)),
        "peak_rss_mb": _peak_rss_mb(),
    }
    info = _summary(workload, rec)
    info["setup_s_all"] = setup_times
    return metrics, info, rec.attempted, rec.failed


def trace(workload, seed, seconds) -> tuple[dict, dict, int, int]:
    """Per-layer metrics of a traced replay of an untraced run's rounds."""
    src = Stream(workload, seed)
    base, _ = stream.setup(workload, src)
    queries = src.queries()
    plain = stream.run(workload, src, base, queries,
                       deadline=time.perf_counter() + seconds / 2)
    cycles = plain.rounds // workload.checkpoint_every

    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in traced_attributes()]
    tracer = Tracer()
    with tracer.installed():
        traced = stream.run(workload, src, base, queries, cycles=cycles, tracer=tracer)
    checks = {
        "tracer restored every wrapped attribute":
            all(vars(owner)[attr] is fn for owner, attr, fn in originals),
        "traced replay reproduced the untraced predictions":
            np.array_equal(plain.final_predictions, traced.final_predictions),
    }

    arms = layers.aggregate(tracer.spans, tracer.self_times())
    metrics = layers.layer_metrics(arms)
    metrics["trace.overhead"] = _ms(traced.update_s) / _ms(plain.update_s)
    info = _summary(workload, traced)
    info["update_split"] = layers.update_split(arms)
    info["spans"] = len(tracer.spans)
    info["checks"] = checks
    info["failures"] = plain.failures + traced.failures
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"{workload.name}.spans.csv")
    attempted = plain.attempted + traced.attempted + len(checks)
    failed = plain.failed + traced.failed + sum(not ok for ok in checks.values())
    return metrics, info, attempted, failed


def _run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help=f"workload seed; {HELD_OUT_SEED} is held out for confirming claims")
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    workload = WORKLOADS[args.workload]
    env = checkout.environment(args.seed)
    if args.trace:
        metrics, info, attempted, failed = trace(workload, args.seed, args.seconds)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics, info, attempted, failed = measure(workload, args.seed, args.seconds)
        units = END_TO_END_UNITS

    report = {"workload": workload.name, "trace": args.trace, "environment": env,
              "attempted": attempted, "failed": failed,
              "failed_share": failed / attempted, **info,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{workload.name}.trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    _print_report(report)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}), flush=True)
    return 0


def _print_report(report) -> None:
    out = [f"workload {report['workload']} (trace {report['trace']}): {report['why']}",
           f"environment {json.dumps(report['environment'])}",
           f"rounds {report['rounds']}, samples {report['samples']}, "
           f"mean |S|,|B|,|O| {report['mean_S_B_O']}"]
    for name, m in report["metrics"].items():
        out.append(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    out.append(f"  {'failed_share':40s} {report['failed_share']:14.6g} ratio "
               f"({report['failed']} of {report['attempted']} operations)")
    out.append(f"  {'oracle_gap_max':40s} {report['oracle_gap_max']:14.3e} "
               f"(checked against {report['parity_tol']:g})")
    for name, r in report["ratios_not_gated"].items():
        out.append(f"  {name:40s} {r['value']:14.4g} ({r['base']}, not gated)")
    for name, share in report.get("update_split", {}).items():
        out.append(f"  update share {name:27s} {share:14.3f}")
    for name, ok in report.get("checks", {}).items():
        out.append(f"  check: {name}: {'ok' if ok else 'FAILED'}")
    out.extend(f"  failure: {f}" for f in report["failures"])
    print("\n".join(out), flush=True)


if __name__ == "__main__":
    sys.exit(main())
