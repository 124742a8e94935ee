import json

import numpy as np
import pytest

from ridgesvm import cli, data
from ridgesvm.cli import main
from ridgesvm.errors import RepairDivergence


def write_toy_csv(path, rows):
    path.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n"
    )


def two_blob_csv(path, n=40, seed=0, start_id=0):
    samples = data.two_gaussians(n, seed=seed, start_id=start_id)
    rows = [list(s.features) + [s.target] for s in samples]
    write_toy_csv(path, rows)
    return samples


def sine_csv(path, n=40, seed=0):
    write_toy_csv(path, [list(s.features) + [s.target] for s in data.noisy_sine(n, seed=seed)])


class TestTrain:
    def test_toy_training_run(self, tmp_path, capsys):
        csv = tmp_path / "train.csv"
        two_blob_csv(csv, n=40)
        out = tmp_path / "model.json"
        code = main(["train", "--data", str(csv), "--kernel", "rbf",
                     "--sigma", "1.0", "--ridge", "0.5", "--C", "1.0",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "|S|=" in printed and "train accuracy" in printed
        assert out.exists()

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "m.json")])
        assert code == 2

    def test_non_finite_cell_is_input_error(self, tmp_path, capsys):
        csv = tmp_path / "nan.csv"
        rows = [list(s.features) + [s.target] for s in data.two_gaussians(30, seed=0)]
        rows[6][1] = float("nan")
        write_toy_csv(csv, rows)
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(csv), "--out", str(out)]) == 2
        assert "line 7, column 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--C", "nan"], ["--C", "-1"], ["--ridge", "nan"],
                                       ["--sigma", "nan"], ["--C", "1e-10"]])
    def test_parameter_outside_its_domain_is_input_error(self, tmp_path, capsys, flags):
        csv = tmp_path / "train.csv"
        two_blob_csv(csv, n=30)
        assert main(["train", "--data", str(csv), "--out", str(tmp_path / "m.json")]
                    + flags) == 2
        assert capsys.readouterr().err.startswith("input error: ")

    def test_one_row_is_input_error(self, tmp_path, capsys):
        csv = tmp_path / "one.csv"
        write_toy_csv(csv, [[0.0, 1.0, 1]])
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(csv), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "Traceback" not in err
        assert not out.exists()

    def test_single_class_is_training_error(self, tmp_path):
        csv = tmp_path / "one.csv"
        write_toy_csv(csv, [[0.0, 1.0, 1], [1.0, 0.0, 1], [0.5, 0.5, 1]])
        code = main(["train", "--data", str(csv), "--out", str(tmp_path / "m.json")])
        assert code == 3

    def test_poly2_kernel_flag(self, tmp_path):
        csv = tmp_path / "train.csv"
        two_blob_csv(csv, n=30, seed=3)
        out = tmp_path / "m.json"
        code = main(["train", "--data", str(csv), "--kernel", "poly2",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kernel"]["family"] == "polynomial"
        assert doc["kernel"]["degree"] == 2

    def test_linear_kernel_flag(self, tmp_path):
        csv = tmp_path / "train.csv"
        two_blob_csv(csv, n=30, seed=3)
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(csv), "--kernel", "linear", "--ridge", "0.25",
                     "--out", str(out)]) == 0
        kernel = json.loads(out.read_text())["kernel"]
        assert kernel["family"] == "linear" and kernel["ridge"] == 0.25

    def test_regression_train_and_eval(self, tmp_path, capsys):
        csv, model_path = tmp_path / "sine.csv", tmp_path / "m.json"
        sine_csv(csv)
        assert main(["train", "--data", str(csv), "--task", "regression", "--epsilon", "0.2",
                     "--out", str(model_path)]) == 0
        assert "train MSE " in capsys.readouterr().out
        assert json.loads(model_path.read_text())["task"] == "regression"
        assert main(["eval", "--model", str(model_path), "--data", str(csv)]) == 0
        assert "(standardized labels)" in capsys.readouterr().out


class TestUpdateEval:
    def make_model(self, tmp_path, n=40, seed=0):
        csv = tmp_path / "train.csv"
        two_blob_csv(csv, n=n, seed=seed)
        out = tmp_path / "model.json"
        assert main(["train", "--data", str(csv), "--out", str(out)]) == 0
        return out

    def test_noop_update(self, tmp_path, capsys):
        model_path = self.make_model(tmp_path)
        code = main(["update", "--model", str(model_path),
                     "--out", str(tmp_path / "same.json")])
        assert code == 0
        assert "+0/-0" in capsys.readouterr().out

    def test_update_add_remove_and_engines_agree(self, tmp_path, capsys):
        model_path = self.make_model(tmp_path, n=40, seed=1)
        add_csv = tmp_path / "add.csv"
        two_blob_csv(add_csv, n=6, seed=9)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["update", "--model", str(model_path), "--add", str(add_csv),
                     "--remove", "0,3", "--engine", "proposed",
                     "--out", str(out_a)]) == 0
        printed = capsys.readouterr().out
        assert "KKT residual" in printed
        assert main(["update", "--model", str(model_path), "--add", str(add_csv),
                     "--remove", "0,3", "--engine", "baseline",
                     "--out", str(out_b)]) == 0
        doc_a = json.loads(out_a.read_text())
        doc_b = json.loads(out_b.read_text())
        gap = np.max(np.abs(np.asarray(doc_a["multipliers"])
                            - np.asarray(doc_b["multipliers"])))
        assert gap <= 1e-6

    @pytest.mark.parametrize("remove", ["99999", "x", "3,3"])
    def test_bad_removal_is_input_error(self, tmp_path, capsys, remove):
        # an unknown id, a non-integer and a repeated id
        model_path = self.make_model(tmp_path, seed=3)
        capsys.readouterr()
        out = tmp_path / "updated.json"
        assert main(["update", "--model", str(model_path), "--remove", remove,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_update_of_a_ridge_free_model_is_input_error(self, tmp_path, capsys):
        """Training takes ridge 0; the one-shot engine's prediction needs ridge > 0."""
        csv, add_csv = tmp_path / "train.csv", tmp_path / "add.csv"
        two_blob_csv(csv, n=40)
        two_blob_csv(add_csv, n=6, seed=9)
        model_path, out = tmp_path / "model.json", tmp_path / "updated.json"
        assert main(["train", "--data", str(csv), "--ridge", "0", "--out", str(model_path)]) == 0
        capsys.readouterr()
        assert main(["update", "--model", str(model_path), "--add", str(add_csv),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "Traceback" not in err
        assert not out.exists()

    def test_eval_on_training_data(self, tmp_path, capsys):
        csv = tmp_path / "train.csv"
        write_toy_csv(csv, [[1.0, 0.1, 1], [0.9, -0.1, 1],
                            [-1.0, 0.2, 0], [-0.9, -0.2, 0]])
        model_path = tmp_path / "m.json"
        assert main(["train", "--data", str(csv), "--out", str(model_path)]) == 0
        assert main(["eval", "--model", str(model_path), "--data", str(csv)]) == 0
        printed = capsys.readouterr().out
        assert "accuracy 100.00%" in printed

    def test_eval_empty_file_is_input_error(self, tmp_path):
        model_path = self.make_model(tmp_path, seed=2)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["eval", "--model", str(model_path), "--data", str(empty)]) == 2

    def test_corrupt_model_is_input_error(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["eval", "--model", str(broken),
                     "--data", str(tmp_path / "x.csv")]) == 2

    def test_update_failure_exits_4_and_keeps_the_model(self, tmp_path, capsys, monkeypatch):
        model_path = self.make_model(tmp_path, seed=4)
        before = model_path.read_bytes()

        def diverging(*args):
            raise RepairDivergence("membership did not settle")

        monkeypatch.setattr(cli, "update_multi", diverging)
        capsys.readouterr()
        assert main(["update", "--model", str(model_path), "--remove", "0,3"]) == 4
        assert capsys.readouterr().err == "update failed: membership did not settle\n"
        assert model_path.read_bytes() == before

    @pytest.mark.parametrize("command", ["eval", "update", "wec"])
    def test_ragged_model_is_input_error(self, tmp_path, capsys, command):
        model_path = self.make_model(tmp_path, seed=2)
        doc = json.loads(model_path.read_text())
        doc["samples"][1]["features"] = doc["samples"][1]["features"][:1]
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        args = {"eval": ["--data", str(tmp_path / "train.csv")],
                "update": ["--out", str(tmp_path / "updated.json")],
                "wec": ["--out", str(tmp_path / "wec.csv")]}[command]
        assert main([command, "--model", str(model_path)] + args) == 2
        assert capsys.readouterr().err.startswith("input error: ")


class TestBenchCommand:
    def test_synthetic_bench(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = main(["bench", "--synthetic-n", "120", "--rounds", "2",
                     "--add-per-round", "3", "--remove-per-round", "1",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "parity round 1" in printed
        assert (out / "report.csv").exists()

    @pytest.mark.parametrize("flags", [["--C", "nan"], ["--C", "-1"],
                                       ["--task", "regression", "--epsilon", "nan"],
                                       ["--rounds", "-2"], ["--add-per-round", "-1"],
                                       ["--remove-per-round", "-1"],
                                       ["--arms", "proposed,foo"], ["--arms", ""],
                                       ["--synthetic-n", "-5"]])
    def test_parameter_outside_its_domain_is_input_error(self, tmp_path, capsys, flags):
        out = tmp_path / "rep"
        assert main(["bench", "--synthetic-n", "60", "--rounds", "1", "--out", str(out)]
                    + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "Traceback" not in err
        assert not out.exists()

    def test_bench_on_a_csv(self, tmp_path, capsys):
        csv, out = tmp_path / "data.csv", tmp_path / "rep"
        two_blob_csv(csv, n=120, seed=5)
        assert main(["bench", "--data", str(csv), "--rounds", "1", "--add-per-round", "3",
                     "--remove-per-round", "1", "--arms", "proposed,retrain",
                     "--out", str(out)]) == 0
        assert "parity round 1" in capsys.readouterr().out
        meta = json.loads((out / "metadata.json").read_text())["metadata"]
        # the split keeps every row of the file
        assert meta["n_train"] + meta["n_pool"] + meta["n_test"] == 120

    def test_regression_bench(self, tmp_path):
        out = tmp_path / "rep"
        code = main(["bench", "--task", "regression", "--synthetic-n", "120",
                     "--rounds", "1", "--add-per-round", "3",
                     "--remove-per-round", "1", "--seed", "1",
                     "--epsilon", "0.2", "--out", str(out)])
        assert code == 0


class TestWecCommand:
    def test_curve_dump_and_ramp_slope(self, tmp_path):
        csv = tmp_path / "train.csv"
        two_blob_csv(csv, n=80, seed=4)
        model_path = tmp_path / "m.json"
        assert main(["train", "--data", str(csv), "--ridge", "0.5",
                     "--out", str(model_path)]) == 0
        curve = tmp_path / "wec.csv"
        assert main(["wec", "--model", str(model_path), "--out", str(curve)]) == 0
        rows = curve.read_text().strip().splitlines()[1:]
        parsed = [r.split(",") for r in rows]
        s_points = [(float(out_), float(mult), float(lab))
                    for _, out_, mult, lab, region in parsed if region == "S"]
        assert len(s_points) >= 3
        margins = np.array([lab * out_ for out_, _, lab in s_points])
        mults = np.array([m for _, m, _ in s_points])
        slope = np.polyfit(margins, mults, 1)[0]
        assert abs(slope - (-2.0)) <= 0.05 * 2.0
