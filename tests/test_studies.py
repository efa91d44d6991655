import json
import re
from pathlib import Path

import numpy as np
import pytest

import vardiag.studies as studies
from vardiag import (
    DegenerateResiduals, InvalidModel, NotPositiveDefinite, ReplicateFailure, catalog, derive_seed,
    evaluate_statistics, fit_var, power_study, simulate, size_study)


class TestSizeStudy:
    def test_structure_and_determinism_across_workers(self):
        kwargs = dict(models=("phi1",), ns=(60,), lags=(3,), trials=8,
                      replicates=19, master_seed=42, method="both")
        solo = size_study(workers=1, **kwargs)
        dual = size_study(workers=2, **kwargs)
        assert solo.to_json() == dual.to_json()
        assert {c.column for c in solo.cells} == {"chi2", "mc"}
        for cell in solo.cells:
            assert 0 <= cell.rejections <= 8
            assert cell.trials == 8

    def test_mc_only_method(self):
        result = size_study(models=("phi4",), ns=(60,), lags=(3,), trials=5,
                            replicates=19, master_seed=1, method="mc")
        assert {c.column for c in result.cells} == {"mc"}

    def test_guard_skips_cells(self):
        result = size_study(models=("phi1",), ns=(30,), lags=(3, 20), trials=4,
                            replicates=19, master_seed=2, method="chi2")
        assert ("phi1", 30, 20) in result.skipped
        assert result.rate("phi1", 30, 20, "chi2") is None
        assert result.rate("phi1", 30, 3, "chi2") is not None

    @pytest.mark.parametrize("n", (13, 14))
    def test_guard_boundary_matches_sample_acov(self, n):
        # phi1 (k = 2), VAR(1), lag 5: the lag needs n_eff = n - 1 > (5 + 1) * 2 = 12
        result = size_study(models=("phi1",), ns=(n,), lags=(5,), trials=2,
                            replicates=19, master_seed=5, method="chi2")
        residuals = fit_var(simulate(catalog("phi1"), n, derive_seed(5, n)), 1).residuals
        if n == 13:
            assert result.skipped == (("phi1", 13, 5),)
            assert result.cells == ()
            with pytest.raises(DegenerateResiduals):
                evaluate_statistics(residuals, ("gv",), (5,))
        else:
            assert result.skipped == ()
            assert result.rate("phi1", 14, 5, "chi2") is not None
            assert evaluate_statistics(residuals, ("gv",), (5,)).shape == (1, 1)

    def test_unusable_stratum_runs_no_trials(self, monkeypatch):
        calls = []
        monkeypatch.setattr(studies, "_trial", calls.append)
        result = size_study(models=("phi1",), ns=(13,), lags=(5,), trials=4,
                            replicates=19, master_seed=5, method="chi2")
        assert calls == [] and result.skipped == (("phi1", 13, 5),)

    def test_chi2_undefined_at_lag_equal_to_order(self):
        # the approximation has zero df at m = p; only the mc column exists
        result = size_study(models=("phi1",), ns=(60,), lags=(1, 3), trials=4,
                            replicates=19, master_seed=4, method="both")
        assert result.rate("phi1", 60, 1, "chi2") is None
        assert result.rate("phi1", 60, 1, "mc") is not None
        assert result.rate("phi1", 60, 3, "chi2") is not None

    @pytest.mark.parametrize("n, lags, legend", [
        (60, (5,), ""),
        (60, (1, 5), "  (NA: chi2 needs m above the fit order p)"),
        (30, (3, 20), "  (NA: lag refused by the m-guard)"),
        (30, (1, 3, 20),
         "  (NA: chi2 needs m above the fit order p; lag refused by the m-guard)"),
    ], ids=["none", "chi2", "guard", "both"])
    def test_table_gives_the_reason_for_each_kind_of_na(self, n, lags, legend):
        # at n = 30 the guard refuses lag 20; chi2 has no cell at lag 1 = p
        result = size_study(models=("phi1",), ns=(n,), lags=lags, trials=2, replicates=19,
                            method="chi2")
        lines = result.format_table().splitlines()
        assert lines[1] == "rates in percent" + legend
        assert sum(line.split()[-1] == "NA" for line in lines[3:]) == (1 in lags) + (20 in lags)

    def test_json_round_trip(self):
        result = size_study(models=("phi2",), ns=(60,), lags=(3,), trials=4,
                            replicates=19, master_seed=3, method="chi2")
        payload = json.loads(result.to_json())
        assert payload["kind"] == "size-study"
        assert payload["master_seed"] == 3

    def test_replicate_failure_names_its_trial(self, monkeypatch):
        import vardiag.montecarlo as mc

        original, stacks = mc._gv_log_steps, []

        def second_stack_fails(rs, m):
            # a stack has a leading replicate axis; the observed series' gv does not
            if rs.values[0].ndim > 2:
                stacks.append(rs)
                if len(stacks) == 2:
                    raise NotPositiveDefinite("forced failure")
            return original(rs, m)

        monkeypatch.setattr(mc, "_gv_log_steps", second_stack_fails)
        with pytest.raises(ReplicateFailure) as info:
            size_study(models=("phi1",), ns=(60,), lags=(3,), trials=3, replicates=19,
                       master_seed=8, method="mc", workers=1)
        # each trial's 19 replicates are one chunk, so the second stack is trial 1's
        assert re.fullmatch(r"phi1, n=60, trial 1: replicates 1\.\.19 of master seed \d+ "
                            r"failed: NotPositiveDefinite: forced failure", str(info.value))
        assert isinstance(info.value.__cause__, ReplicateFailure)
        assert isinstance(info.value.__cause__.__cause__, NotPositiveDefinite)


class TestPowerStudy:
    def test_structure_and_determinism_across_workers(self):
        kwargs = dict(models=("model5",), ns=(60,), lags=(3,), trials=6,
                      replicates=19, master_seed=7)
        solo = power_study(workers=1, **kwargs)
        dual = power_study(workers=2, **kwargs)
        assert solo.to_json() == dual.to_json()
        assert {c.column for c in solo.cells} == {"gv", "q_modified"}

    def test_strong_alternative_rejects_often(self):
        # model3 deviates sharply from a VAR(1); even a tiny study sees it
        result = power_study(models=("model3",), ns=(80,), lags=(3,), trials=10,
                             replicates=39, master_seed=11)
        rate = result.rate("model3", 80, 3, "gv")
        assert rate is not None and rate >= 80.0

    def test_table_formatting(self):
        result = power_study(models=("model6",), ns=(60,), lags=(3,), trials=4,
                             replicates=19, master_seed=5)
        table = result.format_table()
        assert "power-study" in table
        assert "gv@60" in table and "q_modified@60" in table


class TestStudyArguments:
    @pytest.mark.parametrize("study", [size_study, power_study])
    @pytest.mark.parametrize("bad", [dict(trials=0), dict(replicates=5),
                                     dict(workers=0), dict(workers=-1),
                                     dict(lags=(10, 5)), dict(lags=(5, 5)),
                                     dict(lags=(0,)), dict(lags=(-3, 5)), dict(lags=()),
                                     dict(ns=(0,)), dict(ns=(60, -5)), dict(ns=(60, 60)),
                                     dict(models=()), dict(models=("phi1", "phi1")),
                                     dict(ns=(60.5,)), dict(master_seed=2.5)])
    def test_rejected_before_any_trial_runs(self, monkeypatch, study, bad):
        def no_trials(*args):
            raise AssertionError("trials ran before the arguments were checked")

        monkeypatch.setattr(studies, "_pool_map", no_trials)
        kwargs = {**dict(ns=(60,), lags=(3,), trials=4, replicates=19), **bad}
        with pytest.raises(ValueError):
            study(**kwargs)

    @pytest.mark.parametrize("study", [size_study, power_study])
    @pytest.mark.parametrize("name, value", [("trials", 2.5), ("workers", 2.0),
                                             ("replicates", 19.5)])
    def test_non_integer_count_is_refused_by_name(self, study, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            study(**{**dict(models=("phi1",), ns=(60,), lags=(3,), trials=4, replicates=19),
                     name: value})

    def test_numpy_integer_counts_pass(self):
        result = power_study(models=("model5",), ns=(np.int64(60),), lags=(np.int64(3),),
                             trials=np.int64(2), replicates=np.int64(19), workers=np.int64(1),
                             master_seed=np.int64(5))
        assert [cell.trials for cell in result.cells] == [2, 2]
        plain = power_study(models=("model5",), ns=(60,), lags=(3,), trials=2, replicates=19,
                            master_seed=5)
        assert result.to_json() == plain.to_json()


    @pytest.mark.parametrize("fit_order, message", [(2.5, "fit_order must be an integer"),
                                                     (-1, "fit_order must be at least 0")])
    def test_fit_order_is_checked_before_any_trial(self, monkeypatch, fit_order, message):
        def no_trials(*args):
            raise AssertionError("trials ran before the fit order was checked")

        monkeypatch.setattr(studies, "_pool_map", no_trials)
        with pytest.raises(ValueError, match=message):
            power_study(models=("model5",), ns=(60,), lags=(3,), trials=4, replicates=19,
                        fit_order=fit_order)

    def test_numpy_integer_fit_order_passes(self):
        kwargs = dict(models=("model5",), ns=(60,), lags=(3,), trials=2, replicates=19,
                      master_seed=5)
        assert (power_study(fit_order=np.int64(1), **kwargs).to_json()
                == power_study(fit_order=1, **kwargs).to_json())

    def test_size_study_refuses_an_unknown_method_before_any_trial(self, monkeypatch):
        def no_trials(*args):
            raise AssertionError("trials ran before the method was checked")

        monkeypatch.setattr(studies, "_pool_map", no_trials)
        with pytest.raises(ValueError, match="method must be 'mc', 'chi2' or 'both'"):
            size_study(models=("phi1",), ns=(60,), lags=(3,), trials=2, replicates=19,
                       method="asymptotic")

    @pytest.mark.parametrize("name, orders", [("model1", "VARMA(2, 0)"),
                                              ("model5", "VARMA(0, 1)")])
    def test_size_study_refuses_a_null_that_is_not_var1(self, monkeypatch, name, orders):
        def no_trials(*args):
            raise AssertionError("trials ran before the models were checked")

        monkeypatch.setattr(studies, "_pool_map", no_trials)
        with pytest.raises(InvalidModel, match=fr"{name} is a {re.escape(orders)}"):
            size_study(models=("phi1", name), ns=(80,), lags=(3,), trials=2, replicates=19)


class TestStudyJson:
    def test_power_study_json_bytes_are_pinned(self):
        result = power_study(models=("model5",), ns=(60,), lags=(3, 30), trials=4,
                             replicates=19, master_seed=5)
        pinned = Path(__file__).parent / "data" / "power_study.json"
        assert result.to_json() + "\n" == pinned.read_text()

    def test_size_study_json_bytes_are_pinned(self):
        # n = 14 refuses lag 8, and lag 1 = order has no chi2 cell
        result = size_study(models=("phi1", "phi2"), ns=(14, 60), lags=(1, 3, 8), trials=8,
                            replicates=19, master_seed=9, method="both")
        pinned = Path(__file__).parent / "data" / "size_study.json"
        assert result.to_json() + "\n" == pinned.read_text()
