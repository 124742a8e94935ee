import json
import os

import numpy as np
import pytest

from ridgesvm import batch, data, kernels, model
from ridgesvm.data import (
    DatasetSpec,
    RoundSchedule,
    SplitPlan,
    fit_standardizer,
    apply_standardizer,
    load_csv,
    load_model,
    save_model,
    schedule_rounds,
    split,
)
from ridgesvm.errors import (
    ConstantColumn,
    CorruptFile,
    InvalidParameter,
    LabelDomainError,
    ParseError,
    PoolExhausted,
    SchemaVersionMismatch,
)
from ridgesvm.kernels import KernelSpec
from ridgesvm.model import Hyperparams, Sample


class TestLoadCsv:
    def test_basic_binary_mapping(self, tmp_path):
        f = tmp_path / "toy.csv"
        f.write_text("1.0,2.0,1\n3.0,4.0,0\n")
        samples = load_csv(DatasetSpec(path=str(f)))
        assert len(samples) == 2
        assert samples[0].target == 1.0
        assert samples[1].target == -1.0
        assert np.allclose(samples[0].features, [1.0, 2.0])
        assert [s.id for s in samples] == [0, 1]

    def test_header_skipped(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("a,b,label\n1,2,1\n3,4,-1\n")
        samples = load_csv(DatasetSpec(path=str(f), has_header=True))
        assert len(samples) == 2

    def test_parse_error_names_row_and_column(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1,2,1\n3,oops,0\n")
        with pytest.raises(ParseError) as err:
            load_csv(DatasetSpec(path=str(f)))
        assert err.value.row == 2
        assert err.value.column == 2

    @pytest.mark.parametrize("cell, column", [("nan", 2), ("inf", 1), ("-inf", 3), ("NaN", 3)])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell, column):
        row = ["3", "4", "1"]
        row[column - 1] = cell
        f = tmp_path / "nan.csv"
        f.write_text("1,2,1\n5,6,-1\n" + ",".join(row) + "\n")
        with pytest.raises(ParseError, match="finite") as err:
            load_csv(DatasetSpec(path=str(f), task="regression"))
        assert (err.value.row, err.value.column) == (3, column)

    def test_label_domain_error(self, tmp_path):
        f = tmp_path / "lab.csv"
        f.write_text("1,2,3\n4,5,7\n")
        with pytest.raises(LabelDomainError):
            load_csv(DatasetSpec(path=str(f)))

    def test_label_column_index(self, tmp_path):
        f = tmp_path / "col.csv"
        f.write_text("1,5.0,2\n0,6.0,3\n")
        samples = load_csv(DatasetSpec(path=str(f), label_column=0))
        assert samples[0].target == 1.0
        assert np.allclose(samples[0].features, [5.0, 2.0])

    def test_regression_labels_untouched(self, tmp_path):
        f = tmp_path / "reg.csv"
        f.write_text("1,2,3.5\n4,5,-0.25\n")
        samples = load_csv(DatasetSpec(path=str(f), task="regression"))
        assert samples[0].target == 3.5


class TestStandardizer:
    def test_population_std(self):
        samples = [Sample(0, np.array([0.0]), 1.0), Sample(1, np.array([2.0]), -1.0)]
        stats = fit_standardizer(samples)
        assert stats.feature_mean[0] == pytest.approx(1.0)
        assert stats.feature_std[0] == pytest.approx(1.0)
        out = apply_standardizer(samples, stats)
        assert [s.features[0] for s in out] == [-1.0, 1.0]

    def test_test_rows_use_train_stats(self):
        train = [Sample(0, np.array([0.0]), 1.0), Sample(1, np.array([2.0]), -1.0)]
        test = [Sample(2, np.array([4.0]), 1.0)]
        stats = fit_standardizer(train)
        out = apply_standardizer(test, stats)
        assert out[0].features[0] == pytest.approx(3.0)

    def test_constant_column_rejected(self):
        samples = [Sample(0, np.array([1.0, 5.0]), 1.0),
                   Sample(1, np.array([2.0, 5.0]), -1.0)]
        with pytest.raises(ConstantColumn):
            fit_standardizer(samples)

    def test_regression_labels_standardized(self):
        samples = [Sample(0, np.array([0.0]), 10.0), Sample(1, np.array([2.0]), 20.0)]
        stats = fit_standardizer(samples, task="regression")
        out = apply_standardizer(samples, stats, task="regression")
        assert out[0].target == pytest.approx(-1.0)
        assert out[1].target == pytest.approx(1.0)

    def test_standardized_train_is_centered(self):
        samples = data.two_gaussians(50, seed=1)
        stats = fit_standardizer(samples)
        out = apply_standardizer(samples, stats)
        X = np.array([s.features for s in out])
        assert np.max(np.abs(X.mean(axis=0))) <= 1e-9
        assert np.max(np.abs(X.std(axis=0) - 1.0)) <= 1e-9


class TestSplit:
    def test_sizes(self):
        samples = data.two_gaussians(100, seed=0)
        train, pool, test = split(samples, SplitPlan(seed=3))
        assert (len(train), len(pool), len(test)) == (80, 10, 10)

    def test_same_seed_same_split(self):
        samples = data.two_gaussians(60, seed=0)
        a = split(samples, SplitPlan(seed=5))
        b = split(samples, SplitPlan(seed=5))
        assert [s.id for s in a[0]] == [s.id for s in b[0]]

    def test_disjoint_and_covering(self):
        samples = data.two_gaussians(50, seed=0)
        train, pool, test = split(samples, SplitPlan(seed=9))
        ids = [s.id for s in train] + [s.id for s in pool] + [s.id for s in test]
        assert sorted(ids) == sorted(s.id for s in samples)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            SplitPlan(train_fraction=0.9, incremental_fraction=0.2, test_fraction=0.1)

    @pytest.mark.parametrize("fractions", [(float("nan"), 0.1, 0.1), (1.2, -0.1, -0.1),
                                           (0.5, float("inf"), 0.1)])
    def test_fraction_outside_the_unit_interval(self, fractions):
        with pytest.raises(InvalidParameter):
            SplitPlan(*fractions)


class TestScheduleRounds:
    @pytest.mark.parametrize("counts", [(-2, 6, 2), (0, 6, 2), (5, -1, 2), (5, 6, -1),
                                        (5, 6.0, 2), (float("nan"), 6, 2)])
    def test_count_outside_its_domain(self, counts):
        with pytest.raises(InvalidParameter):
            RoundSchedule(*counts)

    def test_adds_disjoint(self):
        pool = data.two_gaussians(30, seed=2, start_id=100)
        batches = schedule_rounds(pool, list(range(50)),
                                  RoundSchedule(rounds=5, add_per_round=6,
                                                remove_per_round=2, seed=1))
        assert len(batches) == 5
        seen = set()
        for b in batches:
            ids = {s.id for s in b.add}
            assert not ids & seen
            seen |= ids

    def test_removals_reference_current_model(self):
        pool = data.two_gaussians(30, seed=3, start_id=100)
        current = set(range(40))
        batches = schedule_rounds(pool, sorted(current),
                                  RoundSchedule(rounds=5, add_per_round=6,
                                                remove_per_round=2, seed=4))
        for b in batches:
            for rid in b.remove:
                assert rid in current
            current -= set(b.remove)
            current |= {s.id for s in b.add}

    def test_same_seed_same_schedule(self):
        pool = data.two_gaussians(20, seed=4, start_id=100)
        mk = lambda: schedule_rounds(pool, list(range(10)),
                                     RoundSchedule(rounds=3, add_per_round=5,
                                                   remove_per_round=1, seed=7))
        a, b = mk(), mk()
        assert [x.remove for x in a] == [x.remove for x in b]
        assert [[s.id for s in x.add] for x in a] == [[s.id for s in x.add] for x in b]

    def test_pool_exhausted(self):
        pool = data.two_gaussians(10, seed=5)
        with pytest.raises(PoolExhausted):
            schedule_rounds(pool, list(range(10)),
                            RoundSchedule(rounds=3, add_per_round=6,
                                          remove_per_round=0, seed=0))


class TestModelPersistence:
    def setup_method(self):
        self.spec = KernelSpec(family="rbf", sigma=1.0, ridge=0.5)
        self.hyper = Hyperparams(C=1.0)
        self.samples = data.two_gaussians(20, seed=6)
        self.state = batch.train_svm_batch(self.samples, self.spec, self.hyper)

    def test_round_trip_exact(self, tmp_path):
        p = tmp_path / "model.json"
        stats = fit_standardizer(self.samples)
        save_model(self.state, str(p), self.spec, self.hyper, stats)
        loaded, spec, hyper, loaded_stats, task = load_model(str(p))
        assert task == "classification"
        assert spec == self.spec
        assert hyper == self.hyper
        assert np.array_equal(loaded.alpha, self.state.alpha)
        assert loaded.b == self.state.b
        assert list(loaded.partition) == list(self.state.partition)
        assert np.array_equal(loaded_stats.feature_mean, stats.feature_mean)
        grid = np.column_stack([np.linspace(-2, 2, 9), np.linspace(-2, 2, 9)])
        assert np.max(np.abs(
            kernels.decision_values(grid, loaded, spec)
            - kernels.decision_values(grid, self.state, self.spec)
        )) <= 1e-12

    def test_saved_bytes_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(self.state, str(p1), self.spec, self.hyper)
        save_model(self.state, str(p2), self.spec, self.hyper)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_version(self, tmp_path):
        p = tmp_path / "model.json"
        save_model(self.state, str(p), self.spec, self.hyper)
        doc = json.loads(p.read_text())
        doc["format_version"] = 99
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaVersionMismatch):
            load_model(str(p))

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "model.json"
        save_model(self.state, str(p), self.spec, self.hyper)
        p.write_bytes(p.read_bytes()[:80])
        with pytest.raises(CorruptFile):
            load_model(str(p))

    def test_missing_fields(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text(json.dumps({"format_version": 1, "task": "classification"}))
        with pytest.raises(CorruptFile):
            load_model(str(p))

    @pytest.mark.parametrize("case", ["unknown-task", "unknown-tag", "ragged-features",
                                      "repeated-id", "nan-C", "tiny-C", "nan-ridge",
                                      "fractional-degree", "nan-feature", "inf-multiplier"])
    def test_malformed_document_is_corrupt(self, tmp_path, case):
        p = tmp_path / "model.json"
        save_model(self.state, str(p), self.spec, self.hyper)
        doc = json.loads(p.read_text())
        if case == "unknown-task":
            doc["task"] = "ranking"
        elif case == "unknown-tag":
            doc["partition"][3] = "X"
        elif case == "ragged-features":
            doc["samples"][3]["features"] = [0.5]
        elif case == "nan-C":
            doc["hyper"]["C"] = float("nan")
        elif case == "tiny-C":
            doc["hyper"]["C"] = 1e-10  # at or below model.BOUND_TOL
        elif case == "nan-ridge":
            doc["kernel"]["ridge"] = float("nan")
        elif case == "fractional-degree":
            doc["kernel"].update(family="polynomial", degree=2.5)
        elif case == "nan-feature":
            doc["samples"][3]["features"][0] = float("nan")
        elif case == "inf-multiplier":
            doc["multipliers"][3] = float("inf")
        else:
            doc["samples"][3]["id"] = doc["samples"][0]["id"]
        p.write_text(json.dumps(doc))
        with pytest.raises(CorruptFile):
            load_model(str(p))

    def test_svr_round_trip(self, tmp_path):
        hyper = Hyperparams(C=1.0, epsilon=0.2)
        state = batch.train_svr_batch(data.noisy_sine(20, seed=7), self.spec, hyper)
        p = tmp_path / "svr.json"
        save_model(state, str(p), self.spec, hyper)
        loaded, spec, hyp, _, task = load_model(str(p))
        assert task == "regression"
        assert np.array_equal(loaded.theta, state.theta)
        assert hyp.epsilon == 0.2


FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@pytest.mark.parametrize("name, state_class", [("svm", model.SvmState),
                                               ("svr", model.SvrState)])
def test_format_v1_fixture_loads_and_resaves_identically(name, state_class, tmp_path):
    """Format-v1 files written when states still stored a list of samples.

    Each is a 24-sample rbf model, standardised, after three online rounds
    of +4/-3 (so its 27 ids are not contiguous).  Loading must reproduce
    the document exactly and saving it again must give the same bytes.
    """
    source = os.path.join(FIXTURES, f"model_v1_{name}.json")
    with open(source, "rb") as fh:
        raw = fh.read()
    doc = json.loads(raw)
    state, spec, hyper, stats, task = load_model(source)
    assert type(state) is state_class and state.n == len(doc["samples"]) <= 30
    assert state.ids.tolist() == [s["id"] for s in doc["samples"]]
    assert state.ids.tolist() != list(range(state.n))
    assert state.X.tolist() == [s["features"] for s in doc["samples"]]
    assert state.targets.tolist() == [s["target"] for s in doc["samples"]]
    assert state.mult.tolist() == doc["multipliers"]
    assert state.b == doc["bias"]
    assert state.partition.tolist() == doc["partition"]
    assert model.validate(state, spec=spec, C=hyper.C, epsilon=hyper.epsilon) == []
    resaved = tmp_path / "resaved.json"
    save_model(state, str(resaved), spec, hyper, stats)
    assert resaved.read_bytes() == raw
