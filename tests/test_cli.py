import functools
import inspect
import json
from types import SimpleNamespace

import numpy as np
import pytest

from reference import explosive_series

import vardiag.cli as cli
import vardiag.studies as studies
from vardiag import CsvTable, McConfig, __version__, mc_test, read_csv, write_csv
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

    @pytest.mark.parametrize("payload, message", [
        ([1, 2], "is not a JSON object"),
        ({"phi": 5, "innov_cov": [[1.0, 0.0], [0.0, 1.0]]}, "phi must be a sequence of"),
        ({"phi": None, "innov_cov": [[1.0, 0.0], [0.0, 1.0]]}, "phi must be a sequence of"),
        ({"phi": [[[0.5, 0.0], [0.0, 0.4]]]}, "innov_cov is required"),
        ({"innov_cov": [[1.0, 0.0], [0.0, 1.0]], "mean": [1.0, None]}, "mean has non-finite"),
        ({"phi": [[[0.5, 0.0], [0.0, 0.4]]], "thetas": [[[0.2, 0.0], [0.0, 0.2]]],
          "innov_cov": [[1.0, 0.0], [0.0, 1.0]]}, "has unknown keys thetas"),
        ({"innov_cov": [[1.0, "a"], ["a", 1.0]]}, "innov_cov must be a square matrix of"),
        ('{"phi": [', "Expecting value"),  # not JSON at all
    ])
    def test_model_file_that_is_not_a_model_is_data_error(self, payload, message, tmp_path,
                                                          capsys):
        spec = tmp_path / "model.json"
        spec.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        out, meta = tmp_path / "sim.csv", tmp_path / "meta.json"
        assert run(["simulate", "--model", str(spec), "--n", "30", "--out", str(out),
                    "--meta", str(meta)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not out.exists() and not meta.exists()


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

    def test_mc_method_without_intercept(self, tmp_path, white_csv):
        out = tmp_path / "report.json"
        assert run(["test", "--input", str(white_csv), "--order", "1", "--lags", "3,5",
                    "--method", "mc", "--no-intercept", "--reps", "19", "--seed", "4",
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        assert report["with_intercept"] is False
        config = McConfig(replicates=19, master_seed=4, lags=(3, 5))
        expect = mc_test(read_csv(white_csv).values, 1, config, with_intercept=False)
        assert report == json.loads(expect.to_json())

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

    def test_replicate_failure_is_data_error(self, tmp_path, white_csv, capsys, monkeypatch):
        import vardiag.montecarlo as mc

        original = mc._gv_log_steps

        def stack_fails(rs, m):
            if rs.values[0].ndim > 2:
                raise mc.NotPositiveDefinite("forced failure")
            return original(rs, m)

        monkeypatch.setattr(mc, "_gv_log_steps", stack_fails)
        out = tmp_path / "x.json"
        assert run(["test", "--input", str(white_csv), "--order", "1", "--lags", "3",
                    "--reps", "19", "--seed", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: replicates 1..19 of master seed 4 failed: "
                                           "NotPositiveDefinite: forced failure\n")
        assert not out.exists()

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
        # chi2 draws nothing, so its document names no seed
        (["test", "--input", "{csv}", "--order", "1", "--lags", "3", "--method", "chi2",
          "--seed", "4", "--out", "{out}"], None, {"method", "report"}),
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
        assert run(["test", "--input", str(white_csv), "--order", "1", "--lags="]) == 1

    @pytest.mark.parametrize("argv", [
        ["size-study", "--n", "1;2"],
        ["power-study", "--n", "1;2"],
        ["test", "--input", "x.csv", "--order", "1", "--lags", "1;2"],
    ])
    def test_malformed_list_names_its_command(self, argv, capsys, monkeypatch):
        def no_trials(*args):
            raise AssertionError("trials ran before the flags were checked")

        monkeypatch.setattr(studies, "_pool_map", no_trials)
        assert run(argv) == 1
        flag = argv[argv.index("1;2") - 1]
        assert capsys.readouterr().err == (f"vardiag {argv[0]}: argument {flag}: expected a "
                                           "comma-separated integer list, got '1;2'\n")

    def test_chi2_refuses_transformed_residuals(self, white_csv, capsys):
        for transform in ("square", "abs"):
            assert run(["test", "--input", str(white_csv), "--order", "1",
                        "--lags", "5", "--method", "chi2",
                        "--transform", transform]) == 1
            assert "--method mc" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--order", "1", "--lags", "5", "--innovations", "bootstrap"],
         "--innovations bootstrap needs --method mc"),
        (["--order", "1", "--lags", "1"],
         "--method chi2 needs every lag above --order 1 (m > p), got lag 1"),
        (["--order", "2", "--lags", "1,5"],
         "--method chi2 needs every lag above --order 2 (m > p), got lag 1"),
        # the Monte-Carlo flags are checked as --method mc checks them
        (["--order", "1", "--lags", "5", "--reps", "5"], "replicates must be at least 19"),
        (["--order", "1", "--lags", "5", "--workers", "0"], "workers must be at least 1"),
        # gv's df b = k^2 (3m(m+1)/(2(2m+1)) - p) is positive from m = 7 at p = 5, m = 11 at p = 8
        (["--order", "5", "--lags", "6"],
         "--method chi2 --stat gv has no degrees of freedom at lag 6 for --order 5"),
        (["--order", "5", "--lags", "6,7"],
         "--method chi2 --stat gv has no degrees of freedom at lag 6 for --order 5"),
        (["--order", "8", "--lags", "10"],
         "--method chi2 --stat gv has no degrees of freedom at lag 10 for --order 8"),
    ])
    def test_chi2_refuses_what_it_cannot_use_before_the_input_is_read(self, flags, message,
                                                                       tmp_path, capsys):
        # the input file does not exist, so reading it first would exit 2
        out = tmp_path / "out.json"
        assert run(["test", "--input", str(tmp_path / "missing.csv"), *flags,
                    "--method", "chi2", "--out", str(out)]) == 1
        assert f"vardiag test: {message}" in capsys.readouterr().err
        assert not out.exists()

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


    @pytest.mark.parametrize("order, lags, stat", [(5, "7", "gv"), (8, "11", "gv"),
                                                   (5, "6", "q"), (5, "6", "qtilde")])
    def test_chi2_reads_the_input_once_its_df_is_positive(self, order, lags, stat, tmp_path,
                                                          capsys):
        # Q's df k^2 (m - p) is positive at every m > p, so only gv's rule refuses more
        assert run(["test", "--input", str(tmp_path / "missing.csv"), "--order", str(order),
                    "--lags", lags, "--stat", stat, "--method", "chi2"]) == 2
        assert "No such file" in capsys.readouterr().err


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

    @pytest.mark.parametrize("command, study", [("size-study", "size_study"),
                                                ("power-study", "power_study")])
    def test_no_grid_flag_runs_the_study_defaults(self, command, study, monkeypatch):
        real, calls = getattr(studies, study), []

        @functools.wraps(real)
        def record(**kwargs):
            calls.append(kwargs)
            return SimpleNamespace(format_table=str, to_dict=dict)

        monkeypatch.setattr(cli, study, record)
        assert run([command]) == 0
        assert calls == [{name: parameter.default for name, parameter
                          in inspect.signature(real).parameters.items()}]

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
        ("power-study", ["--n", "60,60"], "sample sizes"),
        ("size-study", ["--phi", ""], "models"),
        ("power-study", ["--model", ","], "models"),
        ("power-study", ["--model", "model3,model3"], "models"),
        ("size-study", ["--phi", "phi1, phi1"], "models"),
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
