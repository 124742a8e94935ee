"""Command-line front end: train, update, eval, bench, wec.

Exit codes: 0 ok, 2 input error, 3 training infeasibility, 4 update failure.
"""
from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import bench as bench_mod
from . import kernels, model
from .batch import train_svm_batch, train_svr_batch
from .data import (
    DatasetSpec,
    RoundSchedule,
    SplitPlan,
    apply_standardizer,
    fit_standardizer,
    load_csv,
    load_model,
    noisy_sine,
    save_model,
    split,
    two_gaussians,
)
from .errors import (
    ConstantColumn,
    CorruptFile,
    DimensionMismatch,
    EmptyS,
    InconsistentEvent,
    InconsistentState,
    InvalidBatch,
    InvalidParameter,
    LabelDomainError,
    NoConvergence,
    NonpositiveRho,
    ParseError,
    PoolExhausted,
    RepairDivergence,
    SchemaVersionMismatch,
    SingleClassInput,
    SingularBorder,
    SingularCornerBlock,
    SingularSchurBlock,
    StalledPath,
    TooFewSamples,
    UnknownId,
)
from .kernels import KernelSpec
from .model import Hyperparams, UpdateBatch
from .online import update_multi
from .path import path_update

# NonpositiveRho: the one-shot engine needs ridge > 0, which a model trained
# with --ridge 0 lacks, so it is the model file's fault
INPUT_ERRORS = (ParseError, LabelDomainError, CorruptFile, SchemaVersionMismatch,
                ConstantColumn, PoolExhausted, DimensionMismatch, UnknownId, InvalidBatch,
                InvalidParameter, TooFewSamples, NonpositiveRho, FileNotFoundError,
                IsADirectoryError)
TRAIN_ERRORS = (SingleClassInput, NoConvergence)
UPDATE_ERRORS = (RepairDivergence, StalledPath, EmptyS, SingularBorder, SingularSchurBlock,
                 SingularCornerBlock, InconsistentState, InconsistentEvent)

KERNEL_CHOICES = ("linear", "poly2", "poly3", "rbf")


def _add_data_flags(p):
    p.add_argument("--data", help="CSV of comma-separated reals")
    p.add_argument("--label-col", default="last",
                   help="label column index, or 'last'")
    p.add_argument("--header", action="store_true",
                   help="skip the first CSV line")


def _add_kernel_flags(p):
    p.add_argument("--kernel", choices=KERNEL_CHOICES, default="rbf")
    p.add_argument("--degree", type=int, default=None,
                   help="override the polynomial degree")
    p.add_argument("--offset", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--ridge", type=float, default=0.5)


def _add_hyper_flags(p):
    p.add_argument("--C", type=float, default=1.0, dest="C")
    p.add_argument("--epsilon", type=float, default=0.1)


def _kernel_spec(args) -> KernelSpec:
    if args.kernel == "rbf":
        return KernelSpec(family="rbf", sigma=args.sigma, ridge=args.ridge)
    if args.kernel == "linear":
        return KernelSpec(family="linear", ridge=args.ridge)
    degree = args.degree if args.degree is not None else int(args.kernel[-1])
    return KernelSpec(family="polynomial", degree=degree, offset=args.offset,
                      ridge=args.ridge)


def _label_col(value):
    return value if value == "last" else int(value)


def _counts(state) -> str:
    return (f"|S|={state.s_rows.size} |B|={state.b_rows.size} "
            f"|O|={state.o_rows.size}")


def _train_metric(state, spec, task) -> str:
    value = bench_mod._metric(kernels.decision_values(state.X, state, spec), state.targets, task)
    if task == "classification":
        return f"train accuracy {value:.2f}%"
    return f"train MSE {value:.6f}"


def cmd_train(args) -> int:
    dataset = DatasetSpec(path=args.data, label_column=_label_col(args.label_col),
                          has_header=args.header, task=args.task)
    samples = load_csv(dataset)
    stats = fit_standardizer(samples, task=args.task)
    samples = apply_standardizer(samples, stats, task=args.task)
    spec = _kernel_spec(args)
    hyper = Hyperparams(C=args.C, epsilon=args.epsilon)
    if args.task == "classification":
        state = train_svm_batch(samples, spec, hyper)
    else:
        state = train_svr_batch(samples, spec, hyper)
    save_model(state, args.out, spec, hyper, stats)
    print(f"trained on {state.n} samples: {_counts(state)}")
    print(_train_metric(state, spec, args.task))
    print(f"model written to {args.out}")
    return 0


def cmd_update(args) -> int:
    state, spec, hyper, stats, task = load_model(args.model)
    adds = []
    if args.add:
        dataset = DatasetSpec(path=args.add, label_column=_label_col(args.label_col),
                              has_header=args.header, task=task)
        raw = load_csv(dataset)
        if stats is not None:
            raw = apply_standardizer(raw, stats, task=task)
        next_id = int(state.ids.max()) + 1 if state.n else 0
        adds = [model.Sample(id=next_id + k, features=s.features, target=s.target)
                for k, s in enumerate(raw)]
    try:
        removals = [int(tok) for tok in args.remove.split(",") if tok]
    except ValueError as err:
        raise ParseError(f"--remove takes comma-separated sample ids: {err}") from None
    upd = UpdateBatch(add=adds, remove=removals)
    s_before = state.s_rows.size

    start = time.perf_counter()
    apply_update = update_multi if args.engine == "proposed" else path_update
    new_state = apply_update(state, upd, spec, hyper)
    wall = time.perf_counter() - start

    report = model.validate(new_state, spec=spec, C=hyper.C, epsilon=hyper.epsilon)
    residual = max((v.magnitude for v in report), default=0.0)
    out = args.out or args.model
    save_model(new_state, out, spec, hyper, stats)
    print(f"applied +{len(adds)}/-{len(removals)} via {args.engine}: "
          f"delta|S|={new_state.s_rows.size - s_before:+d}, "
          f"wall {wall:.4f}s, KKT residual {residual:.3e}")
    print(f"model written to {out}")
    return 0


def cmd_eval(args) -> int:
    state, spec, hyper, stats, task = load_model(args.model)
    dataset = DatasetSpec(path=args.data, label_column=_label_col(args.label_col),
                          has_header=args.header, task=task)
    samples = load_csv(dataset)
    if stats is not None:
        samples = apply_standardizer(samples, stats, task=task)
    x = np.array([s.features for s in samples], dtype=float)
    y = np.array([s.target for s in samples], dtype=float)
    value = bench_mod._metric(kernels.decision_values(x, state, spec), y, task)
    if task == "classification":
        print(f"accuracy {value:.2f}% on {len(samples)} samples")
    else:
        print(f"MSE {value:.6f} on {len(samples)} samples (standardized labels)")
    return 0


def cmd_bench(args) -> int:
    spec = _kernel_spec(args)
    hyper = Hyperparams(C=args.C, epsilon=args.epsilon)
    if args.data:
        dataset = DatasetSpec(path=args.data, label_column=_label_col(args.label_col),
                              has_header=args.header, task=args.task)
        samples = load_csv(dataset)
    elif args.task == "classification":
        samples = two_gaussians(args.synthetic_n, seed=args.seed)
    else:
        samples = noisy_sine(args.synthetic_n, seed=args.seed)
    plan = SplitPlan(seed=args.seed)
    train_part, pool, test_part = split(samples, plan)
    stats = fit_standardizer(train_part, task=args.task)
    train_part = apply_standardizer(train_part, stats, task=args.task)
    pool = apply_standardizer(pool, stats, task=args.task)
    test_part = apply_standardizer(test_part, stats, task=args.task)

    schedule = RoundSchedule(rounds=args.rounds, add_per_round=args.add_per_round,
                             remove_per_round=args.remove_per_round, seed=args.seed)
    arms = tuple(args.arms.split(","))
    report = bench_mod.run_bench(args.task, train_part, pool, test_part,
                                 spec, hyper, schedule, arms=arms)
    bench_mod.write_report(report, args.out)
    print(bench_mod.format_table(report))
    print(f"report files written to {args.out}/")
    return 0 if not report.incomplete else 4


def cmd_wec(args) -> int:
    state, spec, hyper, stats, task = load_model(args.model)
    outputs = kernels.decision_values(state.X, state, spec)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("id,output,multiplier,target,region\n")
        for k in range(state.n):
            fh.write(f"{int(state.ids[k])},{float(outputs[k])!r},"
                     f"{float(state.mult[k])!r},{float(state.targets[k])!r},"
                     f"{state.partition[k]}\n")
    print(f"{state.n} curve points written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridgesvm",
        description="Online multiple incremental/decremental ridge support "
                    "vector learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="batch-train a model from a CSV")
    _add_data_flags(p)
    p.add_argument("--task", choices=("classification", "regression"),
                   default="classification")
    _add_kernel_flags(p)
    _add_hyper_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("update", help="apply one add/remove batch to a model")
    p.add_argument("--model", required=True)
    p.add_argument("--add", help="CSV of arriving samples")
    p.add_argument("--remove", default="", help="comma-separated sample ids")
    p.add_argument("--label-col", default="last")
    p.add_argument("--header", action="store_true")
    p.add_argument("--engine", choices=("proposed", "baseline"),
                   default="proposed")
    p.add_argument("--out", help="defaults to overwriting --model")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("eval", help="accuracy or MSE of a model on a CSV")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="time proposed vs baseline vs retrain")
    _add_data_flags(p)
    p.add_argument("--task", choices=("classification", "regression"),
                   default="classification")
    p.add_argument("--synthetic-n", type=int, default=400,
                   help="size of the built-in dataset when --data is absent")
    _add_kernel_flags(p)
    _add_hyper_flags(p)
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--add-per-round", type=int, default=6)
    p.add_argument("--remove-per-round", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--arms", default="proposed,baseline,retrain")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("wec", help="dump per-sample weight-error curve points")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_wec)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except TRAIN_ERRORS as err:
        print(f"training infeasible: {err}", file=sys.stderr)
        return 3
    except UPDATE_ERRORS as err:
        print(f"update failed: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
