import json

import numpy as np
import pytest

from reference import explosive_series

import vardiag.studies as studies
from vardiag import CsvTable, __version__, read_csv, write_csv
from vardiag.cli import main


def run(argv):
    return main(argv)


@pytest.fixture
def white_csv(tmp_path):
    path = tmp_path / "white.csv"
    assert run(["simulate", "--model", "phi1", "--n", "150", "--seed", "3",
                "--out", str(path)]) == 0
    return path


class TestSimulate:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--model", "model5", "--n", "80", "--seed", "1",
                    "--out", str(out)]) == 0
        table = read_csv(out)
        assert table.header == ("z1", "z2")
        assert table.values.shape == (80, 2)

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            run(["simulate", "--model", "phi2", "--n", "40", "--seed", "9",
                 "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_model_file(self, tmp_path):
        spec = tmp_path / "model.json"
        spec.write_text(json.dumps({
            "phi": [[[0.5, 0.0], [0.0, 0.4]]],
            "innov_cov": [[1.0, 0.2], [0.2, 1.0]],
        }))
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--model", str(spec), "--n", "30", "--seed", "2",
                    "--out", str(out)]) == 0
        assert read_csv(out).values.shape == (30, 2)

    def test_unknown_model_is_data_error(self, tmp_path):
        assert run(["simulate", "--model", "bogus", "--n", "10", "--seed", "0",
                    "--out", str(tmp_path / "x.csv")]) == 2


class TestFit:
    def test_order_zero_residuals_are_demeaned_input(self, tmp_path, white_csv):
        out = tmp_path / "fit.json"
        assert run(["fit", "--input", str(white_csv), "--order", "0",
                    "--out", str(out)]) == 0
        document = json.loads(out.read_text())
        values = read_csv(white_csv).values
        resid = np.array(document["fit"]["residuals"])
        assert np.abs(resid - (values - values.mean(axis=0))).max() < 1e-12

    def test_var1_fit_document(self, tmp_path, white_csv):
        out = tmp_path / "fit.json"
        assert run(["fit", "--input", str(white_csv), "--order", "1",
                    "--out", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["command"] == "fit"
        assert document["version"]
        assert len(document["fit"]["phi_hat"]) == 1
        assert document["fit"]["n_eff"] == 149


class TestTest:
    def test_mc_method(self, tmp_path, white_csv):
        out = tmp_path / "report.json"
        code = run(["test", "--input", str(white_csv), "--order", "1",
                    "--lags", "3,5", "--stat", "gv", "--method", "mc",
                    "--reps", "19", "--seed", "4", "--out", str(out)])
        assert code == 0
        document = json.loads(out.read_text())
        assert document["method"] == "mc"
        assert document["invocation"][0] == "test"
        assert document["seed"] == 4
        assert "elapsed_seconds" in document["timing"]
        lags = document["report"]["lags"]
        assert [row["lag"] for row in lags] == [3, 5]
        for row in lags:
            assert 1.0 / 20.0 <= row["p_value"] <= 1.0

    def test_chi2_method_on_white_noise(self, tmp_path, white_csv):
        out = tmp_path / "report.json"
        code = run(["test", "--input", str(white_csv), "--order", "1",
                    "--lags", "5,10", "--stat", "gv", "--method", "chi2",
                    "--out", str(out)])
        assert code == 0
        document = json.loads(out.read_text())
        for row in document["report"]["lags"]:
            assert 0.0 <= row["p_value"] <= 1.0

    def test_qtilde_chi2(self, tmp_path, white_csv):
        code = run(["test", "--input", str(white_csv), "--order", "1",
                    "--lags", "5", "--stat", "qtilde", "--method", "chi2"])
        assert code == 0

    def test_document_round_trips(self, tmp_path, white_csv):
        out = tmp_path / "report.json"
        run(["test", "--input", str(white_csv), "--order", "0", "--lags", "3",
             "--method", "mc", "--reps", "19", "--out", str(out)])
        document = json.loads(out.read_text())
        assert json.loads(json.dumps(document)) == document

    def test_malformed_cell_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text('a,b\n1,2\n"1,5"\n')
        code = run(["test", "--input", str(bad), "--order", "1", "--lags", "3"])
        assert code == 2
        assert "row 3" in capsys.readouterr().err

    def test_explosive_fit_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "explosive.csv"
        write_csv(path, CsvTable(("z1", "z2"), explosive_series()))
        code = run(["test", "--input", str(path), "--order", "1", "--lags", "3",
                    "--reps", "19"])
        assert code == 2
        assert "radius 1.05296" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        code = run(["test", "--input", str(tmp_path / "nope.csv"),
                    "--order", "1", "--lags", "3"])
        assert code == 2


class TestDocuments:
    @pytest.mark.parametrize("argv, seed, payload", [
        (["simulate", "--model", "phi1", "--n", "30", "--seed", "7", "--out", "{csv_out}",
          "--meta", "{out}"], 7, {"model", "n", "out"}),
        (["fit", "--input", "{csv}", "--order", "1", "--out", "{out}"], None, {"fit"}),
        (["test", "--input", "{csv}", "--order", "1", "--lags", "3", "--reps", "19",
          "--seed", "4", "--out", "{out}"], 4, {"method", "report"}),
        (["size-study", "--phi", "phi1", "--n", "60", "--lags", "3", "--trials", "2",
          "--reps", "19", "--seed", "5", "--method", "chi2", "--out", "{out}"], 5, {"result"}),
        (["power-study", "--model", "model5", "--n", "60", "--lags", "3", "--trials", "2",
          "--reps", "19", "--seed", "6", "--out", "{out}"], 6, {"result"}),
    ])
    def test_every_command_writes_the_same_header(self, argv, seed, payload, tmp_path,
                                                  white_csv):
        out = tmp_path / "document.json"
        argv = [a.format(out=out, csv=white_csv, csv_out=tmp_path / "sim.csv") for a in argv]
        assert run(argv) == 0
        document = json.loads(out.read_text())
        assert set(document) == {"command", "invocation", "seed", "version", "timing", *payload}
        assert document["command"] == argv[0]
        assert document["invocation"] == argv
        assert document["seed"] == seed
        assert document["version"] == __version__
        assert set(document["timing"]) == {"elapsed_seconds"}
        assert document["timing"]["elapsed_seconds"] >= 0.0


class TestUsageErrors:
    def test_unknown_flag(self):
        assert run(["test", "--nope"]) == 1

    def test_missing_subcommand_argument(self):
        assert run(["fit"]) == 1

    def test_bad_choice(self, tmp_path):
        assert run(["test", "--input", "x.csv", "--order", "1", "--lags", "3",
                    "--stat", "banana"]) == 1

    def test_bad_lag_list(self, tmp_path, white_csv):
        assert run(["test", "--input", str(white_csv), "--order", "1",
                    "--lags", "3;5"]) == 1

    def test_chi2_refuses_transformed_residuals(self, white_csv, capsys):
        for transform in ("square", "abs"):
            assert run(["test", "--input", str(white_csv), "--order", "1",
                        "--lags", "5", "--method", "chi2",
                        "--transform", transform]) == 1
            assert "--method mc" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["chi2", "mc"])
    @pytest.mark.parametrize("lags", ["10,5", "5,5", "0", "-3,5"])
    def test_bad_lags_are_usage_errors_before_any_work(self, method, lags, tmp_path, capsys):
        # the input file does not exist, so reading it first would exit 2
        out = tmp_path / "out.json"
        assert run(["test", "--input", str(tmp_path / "missing.csv"), "--order", "1",
                    f"--lags={lags}", "--method", method, "--out", str(out)]) == 1
        assert "vardiag test: --lags" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "--model", "phi1", "--n", "0", "--out", "{out}"], "--n"),
        (["fit", "--input", "{csv}", "--order", "-1", "--out", "{out}"], "--order"),
        (["test", "--input", "{csv}", "--order", "-1", "--lags", "3", "--reps", "19",
          "--out", "{out}"], "--order"),
        (["power-study", "--model", "model5", "--n", "60", "--lags", "3", "--trials", "2",
          "--reps", "19", "--fit-order", "-1", "--out", "{out}"], "--fit-order"),
    ])
    def test_out_of_range_flag_is_usage_error(self, argv, flag, tmp_path, white_csv, capsys):
        out = tmp_path / "out"
        argv = [a.format(out=out, csv=white_csv) for a in argv]
        assert run(argv) == 1
        assert f"vardiag {argv[0]}: {flag} must be at least" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--reps", "5"], "replicates must be at least 19"),
        (["--workers", "0"], "workers must be at least 1"),
    ])
    @pytest.mark.parametrize("content", [None, 'a,b\n1,2\n"1,5"\n'])
    def test_mc_flags_are_usage_errors_before_the_input_is_read(self, flags, message, content,
                                                                tmp_path, capsys):
        # a missing or malformed input would exit 2 if it were read first
        path = tmp_path / "input.csv"
        if content is not None:
            path.write_text(content)
        out = tmp_path / "out.json"
        assert run(["test", "--input", str(path), "--order", "1", "--lags", "5",
                    *flags, "--out", str(out)]) == 1
        assert f"vardiag test: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestStudies:
    def test_size_study_smoke(self, tmp_path, capsys):
        out = tmp_path / "size.json"
        code = run(["size-study", "--phi", "phi1", "--n", "60", "--lags", "3",
                    "--trials", "6", "--reps", "19", "--seed", "5",
                    "--method", "both", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "size-study" in text and "chi2@60" in text and "mc@60" in text
        document = json.loads(out.read_text())
        cells = document["result"]["cells"]
        assert {c["column"] for c in cells} == {"chi2", "mc"}
        for cell in cells:
            assert 0 <= cell["rejections"] <= 6

    def test_power_study_smoke(self, tmp_path, capsys):
        out = tmp_path / "power.json"
        code = run(["power-study", "--model", "model5", "--n", "60",
                    "--lags", "3", "--trials", "6", "--reps", "19",
                    "--seed", "5", "--out", str(out)])
        assert code == 0
        document = json.loads(out.read_text())
        cells = document["result"]["cells"]
        assert {c["column"] for c in cells} == {"gv", "q_modified"}

    def test_size_study_skips_guarded_lags(self, capsys):
        code = run(["size-study", "--phi", "phi1", "--n", "30", "--lags", "3,20",
                    "--trials", "4", "--reps", "19", "--seed", "1",
                    "--method", "chi2"])
        assert code == 0
        text = capsys.readouterr().out
        assert "NA" in text

    @pytest.mark.parametrize("command, flags, message", [
        ("size-study", ["--workers", "0"], "workers"),
        ("power-study", ["--workers", "-1"], "workers"),
        ("size-study", ["--reps", "5"], "replicates"),
        ("power-study", ["--trials", "0"], "trials"),
        *[(command, [f"--lags={lags}"], "lags") for command in ("size-study", "power-study")
          for lags in ("10,5", "5,5", "0", "-3,5")],
        ("size-study", ["--n", "0"], "sample sizes"),
        ("size-study", ["--n=-5"], "sample sizes"),
        ("power-study", ["--n", "0"], "sample sizes"),
    ])
    def test_out_of_range_study_flag_is_usage_error(self, command, flags, message, capsys,
                                                    monkeypatch):
        def no_trials(*args):
            raise AssertionError("trials ran before the flags were checked")

        monkeypatch.setattr(studies, "_pool_map", no_trials)
        # the last occurrence of a flag wins, so the case's flags override these
        small = ["--n", "60", "--lags", "3", "--trials", "2", "--reps", "19"]
        assert run([command, *small, *flags]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name, orders", [("model1", "VARMA(2, 0)"),
                                              ("model5", "VARMA(0, 1)")])
    def test_size_study_refuses_a_model_that_is_not_var1(self, name, orders, tmp_path,
                                                         capsys, monkeypatch):
        def no_trials(*args):
            raise AssertionError("trials ran before the models were checked")

        monkeypatch.setattr(studies, "_pool_map", no_trials)
        out = tmp_path / "size.json"
        assert run(["size-study", "--phi", f"phi1,{name}", "--n", "80", "--lags", "3",
                    "--trials", "2", "--reps", "19", "--method", "chi2",
                    "--out", str(out)]) == 2
        assert f"{name} is a {orders}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_model_in_any_position_exits_before_any_trial(self, capsys, monkeypatch):
        def no_trials(*args):
            raise AssertionError("trials ran before every model name was resolved")

        monkeypatch.setattr(studies, "_pool_map", no_trials)
        assert run(["power-study", "--model", "model3,bogus", "--n", "60", "--lags", "3",
                    "--trials", "2", "--reps", "19"]) == 2
        assert "unknown model 'bogus'" in capsys.readouterr().err

    def test_error_inside_a_trial_keeps_its_exit_code(self, capsys):
        # fit_var finds every trial too short for the order; that is not a flag check
        code = run(["power-study", "--model", "model5", "--n", "60", "--lags", "3",
                    "--trials", "2", "--reps", "19", "--fit-order", "30"])
        assert code == 2
        err = capsys.readouterr().err
        assert "usage" not in err and "need n - p > k*p + 1" in err
