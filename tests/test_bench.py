import json

import numpy as np

from ridgesvm import bench, data
from ridgesvm.data import RoundSchedule, SplitPlan, apply_standardizer, fit_standardizer, split
from ridgesvm.errors import RepairDivergence
from ridgesvm.kernels import KernelSpec
from ridgesvm.model import Hyperparams

SPEC = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)


def small_setup(task, n=120, seed=0):
    if task == "classification":
        samples = data.two_gaussians(n, seed=seed)
        hyper = Hyperparams(C=1.0)
    else:
        samples = data.noisy_sine(n, seed=seed)
        hyper = Hyperparams(C=1.0, epsilon=0.2)
    train, pool, test = split(samples, SplitPlan(seed=seed))
    stats = fit_standardizer(train, task=task)
    return (
        apply_standardizer(train, stats, task=task),
        apply_standardizer(pool, stats, task=task),
        apply_standardizer(test, stats, task=task),
        hyper,
    )


class TestRunBench:
    def test_two_round_toy_produces_six_records(self):
        train, pool, test, hyper = small_setup("classification")
        schedule = RoundSchedule(rounds=2, add_per_round=4, remove_per_round=1, seed=3)
        report = bench.run_bench("classification", train, pool, test, SPEC, hyper, schedule)
        assert len(report.records) == 6  # 2 rounds x 3 arms
        assert not report.incomplete
        assert all(p["passed"] for p in report.parity)

    def test_cumulative_nondecreasing(self):
        train, pool, test, hyper = small_setup("classification", seed=1)
        schedule = RoundSchedule(rounds=3, add_per_round=3, remove_per_round=1, seed=4)
        report = bench.run_bench("classification", train, pool, test, SPEC, hyper, schedule)
        for arm in bench.ARMS:
            series = [r.cumulative_seconds for r in report.records if r.arm == arm]
            assert all(b >= a for a, b in zip(series, series[1:]))

    def test_regression_arms_agree(self):
        train, pool, test, hyper = small_setup("regression", seed=2)
        schedule = RoundSchedule(rounds=2, add_per_round=4, remove_per_round=1, seed=5)
        report = bench.run_bench("regression", train, pool, test, SPEC, hyper, schedule)
        assert all(p["passed"] for p in report.parity)
        mses = [r.accuracy_or_mse for r in report.records]
        assert all(m >= 0 for m in mses)

    def test_schedule_and_parity_deterministic(self):
        train, pool, test, hyper = small_setup("classification", seed=6)
        schedule = RoundSchedule(rounds=2, add_per_round=3, remove_per_round=1, seed=7)
        r1 = bench.run_bench("classification", train, pool, test, SPEC, hyper, schedule)
        r2 = bench.run_bench("classification", train, pool, test, SPEC, hyper, schedule)
        assert [p["max_gap"] for p in r1.parity] == [p["max_gap"] for p in r2.parity]
        assert [r.accuracy_or_mse for r in r1.records] == [
            r.accuracy_or_mse for r in r2.records
        ]

    def test_a_failed_round_ends_an_incomplete_report(self, tmp_path, monkeypatch):
        train, pool, test, hyper = small_setup("classification", seed=10)
        schedule = RoundSchedule(rounds=3, add_per_round=3, remove_per_round=1, seed=11)
        calls, update = [], bench.update_multi

        def fails_in_round_two(*args):
            calls.append(None)
            if len(calls) == 2:
                raise RepairDivergence("membership did not settle")
            return update(*args)

        monkeypatch.setattr(bench, "update_multi", fails_in_round_two)
        report = bench.run_bench("classification", train, pool, test, SPEC, hyper, schedule,
                                 arms=("proposed", "retrain"))
        assert report.incomplete
        assert report.failure == "RepairDivergence: membership did not settle"
        # the first round of the failing arm is kept; no later arm ran, no parity was judged
        assert [(r.arm, r.round) for r in report.records] == [("proposed", 1)]
        assert report.parity == []
        assert bench.format_table(report).endswith(
            "INCOMPLETE: RepairDivergence: membership did not settle")
        bench.write_report(report, str(tmp_path / "out"))
        doc = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert doc["incomplete"] and doc["failure"] == report.failure

    def test_report_files(self, tmp_path):
        train, pool, test, hyper = small_setup("classification", seed=8)
        schedule = RoundSchedule(rounds=1, add_per_round=3, remove_per_round=1, seed=9)
        report = bench.run_bench("classification", train, pool, test, SPEC, hyper, schedule)
        bench.write_report(report, str(tmp_path / "out"))
        assert (tmp_path / "out" / "report.csv").exists()
        assert (tmp_path / "out" / "report.txt").exists()
        assert (tmp_path / "out" / "metadata.json").exists()
        table = (tmp_path / "out" / "report.txt").read_text()
        assert "#Samples" in table
        assert "Nonincremental" in table
        csv_text = (tmp_path / "out" / "report.csv").read_text()
        assert csv_text.startswith("round,arm,n_samples,")
