import concurrent.futures.process
import json
import math
import multiprocessing
import multiprocessing.util
import os
import platform
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__ as _CPU_FEATURES
from reference import explosive_series, persistent_series

import vardiag
import vardiag.montecarlo as mc
from vardiag.errors import NonFinitePath

from vardiag import (
    Autocorrelations,
    Autocovariances,
    DegenerateResiduals,
    InvalidModel,
    McConfig,
    NotPositiveDefinite,
    ReplicateFailure,
    SingularDesign,
    catalog,
    derive_key,
    derive_seed,
    evaluate_statistics,
    fit_var,
    gv_stat,
    margin_of_error,
    mc_pvalues,
    mc_test,
    p_hat,
    portmanteau_q,
    racf,
    sample_acov,
    simulate,
)


def ar_series(n, rho=0.9, seed=1):
    rng = derive_seed(seed, 0)
    noise = rng.standard_normal((n, 2))
    out = np.empty_like(noise)
    prev = np.zeros(2)
    for t in range(n):
        prev = rho * prev + noise[t]
        out[t] = prev
    return out


class TestPHat:
    def test_full_scale_example(self):
        assert p_hat(49, 999) == 0.05

    def test_maximal(self):
        assert p_hat(250, 250) == 1.0

    def test_minimal_attainable(self):
        assert p_hat(0, 999) == 0.001

    def test_bounds_check(self):
        with pytest.raises(ValueError):
            p_hat(5, 4)

    @pytest.mark.parametrize("n_reps", [0, -3])
    def test_fewer_than_one_replicate_is_refused(self, n_reps):
        with pytest.raises(ValueError, match="n_reps must be at least 1"):
            p_hat(0, n_reps)

    def test_array_of_counts(self):
        counts = np.array([[0, 49, 999], [3, 500, 998]])
        assert np.array_equal(p_hat(counts, 999), (counts + 1) / 1000)
        for bad in (np.array([0, 1000]), np.array([-1, 5])):
            with pytest.raises(ValueError):
                p_hat(bad, 999)


class TestMarginOfError:
    def test_example_values(self):
        assert abs(margin_of_error(0.05, 1000) - 0.013508367777048418) < 1e-12
        assert abs(margin_of_error(0.5, 100) - 0.098) < 1e-12

    def test_degenerate(self):
        assert margin_of_error(0.0, 500) == 0.0
        assert margin_of_error(1.0, 500) == 0.0

    @pytest.mark.parametrize("p", [-1e-9, 1.5, math.nan])
    def test_p_outside_the_unit_interval_is_refused(self, p):
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            margin_of_error(p, 500)

    @pytest.mark.parametrize("n_reps", [0, -3])
    def test_fewer_than_one_replicate_is_refused(self, n_reps):
        with pytest.raises(ValueError, match="n_reps must be at least 1"):
            margin_of_error(0.5, n_reps)


class TestDeriveSeed:
    def test_same_inputs_same_stream(self):
        a = derive_seed(42, 7).standard_normal(16)
        b = derive_seed(42, 7).standard_normal(16)
        assert a.tolist() == b.tolist()

    def test_different_indices_differ(self):
        a = derive_seed(42, 1).standard_normal(16)
        b = derive_seed(42, 2).standard_normal(16)
        assert not np.any(a == b)

    def test_key_mixing_is_stable(self):
        # pin the mixing function so reports stay regenerable across releases
        assert derive_key(0) == derive_key(0)
        assert derive_key(1, 2, 3) != derive_key(1, 3, 2)
        assert derive_key(2**64 - 1, 5) == derive_key(-1, 5)

    def test_numpy_integer_master_is_mixed_as_an_int(self):
        assert derive_key(np.int64(3), 0) == derive_key(3, 0)
        assert derive_seed(np.int64(3), 0).bit_generator.state == \
            derive_seed(3, 0).bit_generator.state


class TestSeededChunks:
    """A chunk's replicates, seeded in one pass, are exactly ``derive_seed``'s streams."""

    @pytest.mark.parametrize("master", [0, 1, -1, 2**63, 2**64 - 1, 987654321,
                                        0x9E3779B97F4A7C15, -(2**40 + 17)])
    @pytest.mark.parametrize("start", [0, 2**40 - 60])
    def test_states_match_derive_seed_at_every_width(self, master, start):
        from vardiag.montecarlo import _seeded

        expect = [derive_seed(master, i).bit_generator.state
                  for i in range(start, start + 120)]
        for width in range(1, 121):
            got = [rng.bit_generator.state for rng in _seeded(master, start, start + width)]
            assert got == expect[:width]

    def test_seed_words_match_seed_sequence(self):
        from vardiag.montecarlo import _seed_words

        rng = np.random.default_rng(2024)
        keys = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + \
            rng.integers(0, 2**64 - 1, 10_000, dtype=np.uint64, endpoint=True).tolist()
        got = _seed_words(np.array(keys, dtype=np.uint64))
        expect = np.array([np.random.SeedSequence(key).generate_state(4, np.uint64)
                           for key in keys])
        assert np.array_equal(got.T, expect)

    @pytest.mark.parametrize("innovations", ["gaussian", "bootstrap"])
    def test_draws_are_bitwise_equal(self, innovations):
        from vardiag.montecarlo import _draw_innovations, _seeded

        plan = _phi1_plan(innovations)
        chunk = _draw_innovations(plan, _seeded(plan.config.master_seed, 3, 40))
        assert len(chunk) == 37
        for index, got in zip(range(3, 40), chunk):
            expect = _draw_innovations(plan, [derive_seed(plan.config.master_seed, index)])[0]
            assert got.tobytes() == expect.tobytes()

    def test_generators_are_independent(self):
        from vardiag.montecarlo import _seeded

        rngs = list(_seeded(9, 0, 3))
        assert len({id(rng) for rng in rngs}) == 3
        rngs[0].standard_normal(5)
        for index in (1, 2):
            assert rngs[index].bit_generator.state == derive_seed(9, index).bit_generator.state

    def test_bounded_integers_start_from_an_empty_buffer(self):
        # an odd count of 32-bit draws leaves half a word buffered in the generator
        from vardiag.montecarlo import _seeded

        for index, rng in zip(range(5, 25), _seeded(11, 5, 25)):
            expect = derive_seed(11, index)
            assert np.array_equal(rng.integers(0, 7, size=5), expect.integers(0, 7, size=5))
            assert rng.bit_generator.state == expect.bit_generator.state


class TestChunkDraw:
    """A chunk's draws, filled into one buffer and coloured once, are one replicate's each."""

    @pytest.mark.parametrize("width", [1, 32, 102])
    @pytest.mark.parametrize("model, innovations", [("phi1", "gaussian"), ("model8", "gaussian"),
                                                    ("phi1", "bootstrap")])
    def test_rows_equal_the_per_replicate_formula(self, model, innovations, width):
        from vardiag.montecarlo import _build_plan, _draw_innovations, _seeded

        series = simulate(catalog(model), 60, derive_seed(22, 0))
        config = McConfig(replicates=199, master_seed=23, lags=(2,), innovations=innovations)
        plan = _build_plan(fit_var(series, 1), config, ("gv",))
        k = series.shape[1]
        steps = mc.burn_in_length(plan.fitted.order, 0) + 60
        got = _draw_innovations(plan, _seeded(plan.config.master_seed, 7, 7 + width))
        assert got.shape == (width, steps, k)
        for index, row in zip(range(7, 7 + width), got):
            rng = derive_seed(plan.config.master_seed, index)
            if innovations == "gaussian":
                expect = rng.standard_normal((steps, k)) @ plan.innov_chol.T
            else:
                centred = plan.fitted.residuals - plan.fitted.residuals.mean(axis=0)
                expect = centred[rng.integers(0, len(centred), size=steps)]
            assert row.tobytes() == expect.tobytes()


class TestEvaluateStatistics:
    def test_matches_public_operations(self):
        rng = derive_seed(3, 0)
        resid = rng.standard_normal((120, 2))
        lags = (2, 5, 7)
        # the names may come as an array too
        out = evaluate_statistics(resid, np.array(["gv", "q_classic", "q_modified"]), lags)
        acf = sample_acov(resid, 7)
        rs = racf(acf, "hosking")
        for col, lag in enumerate(lags):
            assert abs(out[0, col] - gv_stat(rs, lag, 120)) < 1e-10
            assert out[1, col] == portmanteau_q(acf, lag, "classic")
            assert out[2, col] == portmanteau_q(acf, lag, "modified")

    def test_gv_row_matches_per_lag_gv_stat(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            k = int(rng.choice((1, 2, 3)))
            m = int(rng.integers(1, 11))
            n = int(rng.integers(max(50, 2 * (m + 1) * k), 201))
            mix = rng.standard_normal((k, k)) * 0.4 + np.eye(k)
            noise = rng.standard_normal((n + 1, k)) @ mix
            resid = noise[1:] + 0.3 * noise[:-1]
            rs = racf(sample_acov(resid, m), "hosking")
            for lags in ((m,), tuple(range(1, m + 1)), tuple(sorted({1, (m + 1) // 2, m}))):
                out = evaluate_statistics(resid, ("gv",), lags)[0]
                expect = np.array([gv_stat(rs, lag, n) for lag in lags])
                if lags == (m,):
                    # one lag: both sum the same log steps by the same cumsum
                    assert out.tolist() == expect.tolist(), (k, m)
                else:
                    assert (np.abs(out - expect) <= 1e-12 * np.abs(expect)).all(), (k, m, lags)

    def test_gv_row_nonpd_is_infinite_from_failing_block(self):
        from vardiag.montecarlo import _gv_row

        # the order-3 matrix is indefinite, the order-2 one is not
        acov = Autocovariances(tuple(np.array([[v]]) for v in (1.0, 0.5, 0.25, 1.5, 0.1)), 100)
        rs = Autocorrelations("hosking", acov.values, acov)
        row = _gv_row(rs, (1, 2, 3, 4), 100)
        assert row[:2].tolist() == [gv_stat(rs, 1, 100), gv_stat(rs, 2, 100)]
        assert np.isfinite(row[:2]).all()
        assert row[2:].tolist() == [math.inf, math.inf]

    def test_transform_applied(self):
        rng = derive_seed(4, 0)
        resid = rng.standard_normal((100, 2))
        direct = evaluate_statistics(resid ** 2 - (resid ** 2).mean(axis=0),
                                     ("gv",), (3,))
        via = evaluate_statistics(resid, ("gv",), (3,), transform="square")
        assert abs(direct[0, 0] - via[0, 0]) < 1e-12

    @pytest.mark.parametrize("statistics, lags, message", [
        (("bogus",), (5,), "statistics must be among"),
        (("gv", "q"), (5,), "statistics must be among"),
        ("gv", (5,), "statistics must be among"),
        (("gv",), (0, 5), "lags must be"),
        (("gv",), (-1, 5), "lags must be"),
        (("q_classic",), (5, 3), "lags must be"),
        (("gv",), (), "lags must be"),
        ((), (5,), "statistics must be among"),
    ])
    def test_refuses_what_it_cannot_score(self, statistics, lags, message):
        resid = derive_seed(5, 0).standard_normal((100, 2))
        with pytest.raises(ValueError, match=message):
            evaluate_statistics(resid, statistics, lags)

    @pytest.mark.parametrize("statistics", [("bogus",), ()])
    def test_mc_pvalues_refuses_an_unknown_statistic_before_any_replicate(self, monkeypatch,
                                                                         statistics):
        def no_replicates(*args):
            raise AssertionError("replicates ran before the statistics were checked")

        monkeypatch.setattr(mc, "_run_replicates", no_replicates)
        series = simulate(catalog("phi1"), 80, derive_seed(8, 0))
        with pytest.raises(ValueError, match="statistics must be among"):
            mc_pvalues(series, 1, McConfig(replicates=19, lags=(2,)), statistics=statistics)


class TestMcConfig:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            McConfig(replicates=10)

    def test_rejects_unsorted_lags(self):
        with pytest.raises(ValueError):
            McConfig(lags=(5, 3))

    def test_rejects_unknown_statistic(self):
        with pytest.raises(ValueError):
            McConfig(statistic="box")

    @pytest.mark.parametrize("name, value, message", [
        ("innovations", "student", "innovations must be one of"),
        ("transform", "none", "transform must be one of"),
        ("transform", "log", "transform must be one of"),
    ])
    def test_rejects_unknown_modes(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            McConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [("replicates", 19.5), ("replicates", "199"),
                                             ("workers", 1.5), ("workers", 2.0),
                                             ("master_seed", 2.5), ("master_seed", "5")])
    def test_non_integer_count_is_refused_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            McConfig(**{name: value})

    @pytest.mark.parametrize("lags", [(2.5,), ("3",), (2, 3.0), 5])
    def test_non_integer_lags_are_refused_by_name(self, lags):
        with pytest.raises(ValueError, match="lags must be"):
            McConfig(lags=lags)

    def test_numpy_integer_lags_pass_as_ints(self):
        lags = McConfig(lags=(np.int64(2), np.int32(5))).lags
        assert lags == (2, 5) and all(type(lag) is int for lag in lags)

    def test_numpy_integer_counts_pass_as_ints(self):
        series = simulate(catalog("phi1"), 80, derive_seed(8, 0))
        config = McConfig(replicates=np.int64(19), workers=np.int64(1), lags=(2,))
        assert type(config.replicates) is int and type(config.workers) is int
        assert json.loads(mc_test(series, 1, config).to_json())["replicates"] == 19

    def test_numpy_integer_seed_gives_the_plain_report(self):
        series = simulate(catalog("phi1"), 80, derive_seed(8, 0))
        config, plain = (McConfig(replicates=19, master_seed=seed, lags=(2,))
                         for seed in (np.int64(5), 5))
        assert type(config.master_seed) is int
        assert mc_test(series, 1, config).to_json() == mc_test(series, 1, plain).to_json()

    def test_negative_seed_runs(self):
        series = simulate(catalog("phi1"), 80, derive_seed(8, 0))
        report = mc_test(series, 1, McConfig(replicates=19, master_seed=-1, lags=(2,)))
        assert report.master_seed == -1 and 0.0 < report.lags[0].p_value <= 1.0


class TestMcTest:
    def test_zero_exceedances_gives_minimal_p(self):
        # strongly autocorrelated series tested as white noise: the observed
        # statistic dwarfs every replicate from the fitted noise model
        series = ar_series(150)
        config = McConfig(replicates=19, master_seed=5, lags=(3,))
        report = mc_test(series, 0, config)
        assert report.lags[0].exceedances == 0
        assert report.lags[0].p_value == pytest.approx(0.05)

    def test_p_bounds(self):
        series = simulate(catalog("phi1"), 120, derive_seed(6, 0))
        config = McConfig(replicates=39, master_seed=2, lags=(2, 4), statistic="q_modified")
        report = mc_test(series, 1, config)
        for row in report.lags:
            assert 1.0 / 40.0 <= row.p_value <= 1.0

    def test_workers_do_not_change_report(self):
        series = simulate(catalog("phi1"), 150, derive_seed(7, 0))
        base = dict(replicates=39, master_seed=3, lags=(2, 5))
        solo = mc_test(series, 1, McConfig(workers=1, **base))
        quad = mc_test(series, 1, McConfig(workers=4, **base))
        assert solo.to_json() == quad.to_json()

    def test_counts_match_manual_replicates(self):
        from vardiag.montecarlo import _build_plan

        series = simulate(catalog("phi4"), 100, derive_seed(8, 0))
        config = McConfig(replicates=19, master_seed=11, lags=(3,))
        report = mc_test(series, 1, config)
        fitted = fit_var(series, 1)
        plan = _build_plan(fitted, config, ("gv",))
        stats = [_lone_replicate(plan, i)[0, 0] for i in range(1, 20)]
        manual = sum(s >= report.lags[0].observed for s in stats)
        assert manual == report.lags[0].exceedances
        # exchangeability: aggregation is a pure count, order free
        shuffled = sum(s >= report.lags[0].observed for s in reversed(stats))
        assert shuffled == manual

    def test_no_intercept_mode(self):
        series = simulate(catalog("phi1"), 120, derive_seed(30, 0))
        config = McConfig(replicates=19, master_seed=31, lags=(2, 4))
        report = mc_test(series, 1, config, with_intercept=False)
        assert report.with_intercept is False
        assert report.to_json() != mc_test(series, 1, config).to_json()
        for row in report.lags:
            assert 1.0 / 20.0 <= row.p_value <= 1.0

    @pytest.mark.parametrize("innovations", ["gaussian", "bootstrap"])
    def test_no_intercept_row_equals_its_hand_built_refit(self, innovations):
        series = simulate(catalog("phi3"), 100, derive_seed(32, 0))
        config = McConfig(replicates=39, master_seed=33, lags=(2, 5), innovations=innovations)
        fitted = fit_var(series, 1, with_intercept=False)
        plan = mc._build_plan(fitted, config, ("gv", "q_modified"))
        burn = mc.burn_in_length(1, 0)
        stacked = mc._run_replicates(plan, 39, 1)
        for index in (1, 7, 39):
            rng = derive_seed(33, index)
            if innovations == "gaussian":
                noise = rng.standard_normal((burn + 100, 2)) @ np.linalg.cholesky(
                    fitted.gamma0_hat).T
            else:
                centred = fitted.residuals - fitted.residuals.mean(axis=0)
                noise = centred[rng.integers(0, 99, size=burn + 100)]
            # a zero-mean path refitted without an intercept, with no level added
            path = mc.innovation_recursion(fitted.phi_hat, (), noise)[burn:]
            refit = fit_var(path, 1, with_intercept=False)
            expect = evaluate_statistics(refit.residuals, ("gv", "q_modified"), (2, 5))
            assert _lone_replicate(plan, index).tobytes() == expect.tobytes()
            assert _close_rows([stacked[index - 1]], [expect])

    def test_fit_order_is_checked_like_a_count(self):
        series = simulate(catalog("phi1"), 80, derive_seed(34, 0))
        config = McConfig(replicates=19, master_seed=35, lags=(2,))
        plain = mc_test(series, 1, config).to_json()
        assert mc_test(series, np.int64(1), config).to_json() == plain
        assert json.loads(mc_test(series, True, config).to_json())["order"] == 1
        with pytest.raises(ValueError, match="order must be an integer, got 2.5"):
            mc_test(series, 2.5, config)
        with pytest.raises(ValueError, match="order must be at least 0"):
            mc_test(series, -1, config)

    def test_bootstrap_mode(self):
        series = simulate(catalog("phi3"), 130, derive_seed(9, 0))
        config = McConfig(replicates=19, master_seed=4, lags=(3,),
                          innovations="bootstrap")
        report = mc_test(series, 1, config)
        assert report.innovations == "bootstrap"
        assert 0.05 <= report.lags[0].p_value <= 1.0

    def test_square_transform_mode(self):
        series = simulate(catalog("phi1"), 140, derive_seed(10, 0))
        config = McConfig(replicates=19, master_seed=6, lags=(3,), transform="square")
        report = mc_test(series, 1, config)
        assert report.transform == "square"
        assert math.isfinite(report.lags[0].observed)

    def test_report_serialization_round_trip(self):
        series = simulate(catalog("phi1"), 120, derive_seed(11, 0))
        report = mc_test(series, 1, McConfig(replicates=19, master_seed=7, lags=(2,)))
        parsed = json.loads(report.to_json())
        assert parsed["replicates"] == 19
        assert parsed["master_seed"] == 7
        assert parsed["lags"][0]["lag"] == 2
        assert "workers" not in parsed and "timing" not in parsed

    def test_report_json_bytes_are_pinned(self):
        data = simulate(catalog("phi1"), 80, derive_seed(5, 0))
        report = mc_test(data, 1, McConfig(replicates=19, master_seed=3, lags=(2, 4)))
        pinned = Path(__file__).parent / "data" / "mc_report.json"
        assert report.to_json() + "\n" == pinned.read_text()
        assert json.dumps(asdict(report), sort_keys=True, indent=2) == report.to_json()

    @pytest.mark.skipif(not all(_CPU_FEATURES.get(f) for f in ("AVX2", "FMA3")),
                        reason="OpenBLAS's Haswell kernel needs AVX2 and FMA3")
    def test_outcomes_do_not_depend_on_the_blas_kernel(self):
        # Another kernel rounds the observed statistics differently in their last digits
        # (the byte pin holds on one kernel); the counts and p-values must not move.
        script = """
            import json
            import vardiag as vd

            reports = [vd.mc_test(vd.simulate(vd.catalog(name), 200, vd.derive_seed(seed, 0)), 1,
                                  vd.McConfig(master_seed=seed, lags=(2, 5, 10, 20)))
                       for name in ("phi1", "phi3", "model3") for seed in (41, 42)]
            print(json.dumps([[[lag.exceedances, lag.p_value, lag.observed] for lag in r.lags]
                              for r in reports]))
        """
        outcomes = []
        for env in ({}, {"OPENBLAS_CORETYPE": "Haswell"}):
            done = _fresh_interpreter(script, **env)
            assert done.returncode == 0, done.stderr
            outcomes.append(np.array(json.loads(done.stdout)))
        native, haswell = outcomes
        assert haswell[..., :2].tolist() == native[..., :2].tolist()
        np.testing.assert_allclose(haswell[..., 2], native[..., 2], rtol=1e-12)

    def test_explosive_fit_is_refused(self):
        # the fitted VAR(1) has spectral radius 1.053: no stationary null exists
        with pytest.raises(InvalidModel, match=r"radius 1\.05296"):
            mc_test(explosive_series(), 1, McConfig(replicates=19, lags=(3,)))

    def test_persistent_non_normal_fit_is_accepted(self):
        series = persistent_series()
        radius = max(abs(np.linalg.eigvals(fit_var(series, 1).phi_hat[0])))
        assert 0.98 < radius < 0.99
        report = mc_test(series, 1, McConfig(replicates=19, lags=(3,)))
        assert 0.0 < report.lags[0].p_value <= 1.0


class TestSharedReplicates:
    def test_two_statistics_one_replicate_set(self):
        series = simulate(catalog("model5"), 120, derive_seed(13, 0))
        config = McConfig(replicates=19, master_seed=9, lags=(3, 5))
        fitted, observed, pvals, exceed, nonpd = mc_pvalues(
            series, 1, config, statistics=("gv", "q_modified"))
        assert observed.shape == (2, 2)
        assert pvals.shape == (2, 2)
        assert ((1.0 / 20.0 <= pvals) & (pvals <= 1.0)).all()
        # single-statistic run must agree with the shared run row
        solo = mc_test(series, 1, config)
        assert solo.lags[0].p_value == pvals[0, 0]
        assert solo.lags[1].p_value == pvals[0, 1]


def _phi1_plan(innovations="gaussian", n=120):
    from vardiag.montecarlo import _build_plan

    series = simulate(catalog("phi1"), n, derive_seed(14, 0))
    config = McConfig(replicates=39, master_seed=15, lags=(2, 5),
                      innovations=innovations)
    return _build_plan(fit_var(series, 1), config, ("gv", "q_modified"))


def _chunk_width(series) -> int:
    """Replicates per chunk for a VAR(1) refit of ``series``; the path shape alone sets it."""
    return mc._chunk_rows(mc._build_plan(fit_var(series, 1), McConfig(), ("gv",)))


def _close_rows(got, expect, rtol=1e-12):
    assert len(got) == len(expect)
    return all(np.all(np.abs(g - e) <= rtol * np.abs(e)) for g, e in zip(got, expect))


def _lone_replicate(plan, index):
    """Replicate ``index`` alone: one 2-D path from ``derive_seed(master, index)``, scanned,
    refitted and scored, so a stack's row is checked against a lone path, not a stack of one."""
    noise = mc._draw_innovations(plan, [derive_seed(plan.config.master_seed, index)])[0]
    return mc._refit_and_score(plan, mc.innovation_recursion(plan.fitted.phi_hat, (), noise))


def _fail_stacks_of(monkeypatch, rows, cause):
    """Make a stack of ``rows`` replicates fail by ``cause`` in the layer that raises it.

    Returns the row counts of the stacks that reach that layer, in order.
    """
    name, stack = {SingularDesign: ("fit_var", lambda series, *_: series),
                   DegenerateResiduals: ("sample_acov", lambda residuals, *_: residuals),
                   NotPositiveDefinite: ("_gv_log_steps", lambda rs, *_: rs.values[0]),
                   NonFinitePath: ("innovation_recursion", lambda *args: args[-1])}[cause]
    original, seen = getattr(mc, name), []

    def patched(*args):
        seen.append(len(stack(*args)))
        out = original(*args)
        if seen[-1] == rows:
            if cause is not NonFinitePath:
                raise cause("forced failure")
            out[..., -1, 0] = np.inf  # the paths overflow; the refit step refuses them
        return out

    monkeypatch.setattr(mc, name, patched)
    return seen


class TestStackedReplicates:
    @pytest.mark.parametrize("replicates", [39, 71])
    @pytest.mark.parametrize("innovations", ["gaussian", "bootstrap"])
    def test_reports_identical_across_workers(self, replicates, innovations):
        series = simulate(catalog("phi1"), 400, derive_seed(16, 0))
        # 39 and 71 are one and two full 32-row chunks and a 7-row tail: the same
        # layout in chunks of this path length's width, two or three of them
        rows = _chunk_width(series)
        full, tail = divmod(replicates, mc._CHUNK)
        replicates = full * rows + tail
        assert replicates > rows and replicates % rows != 0
        base = dict(replicates=replicates, master_seed=17, lags=(2, 4),
                    innovations=innovations, statistic="q_modified")
        reports = {w: mc_test(series, 1, McConfig(workers=w, **base)).to_json()
                   for w in (1, 2, 3)}
        assert reports[1] == reports[2] == reports[3]

    @pytest.mark.parametrize("innovations", ["gaussian", "bootstrap"])
    def test_replicate_bits_identical_across_workers(self, cold_pool, innovations):
        # a report holds counts and observed values only, so compare the raw statistics
        plan = _phi1_plan(innovations, n=500)
        assert len(range(0, 199, mc._chunk_rows(plan))) == 4
        solo = mc._run_replicates(plan, 199, 1)
        assert isinstance(solo, np.ndarray) and solo.shape == (199, 2, 2)
        for workers in (2, 3, 8):
            assert np.array_equal(mc._run_replicates(plan, 199, workers), solo), workers

    @pytest.mark.parametrize("innovations", ["gaussian", "bootstrap"])
    def test_chunks_match_one_replicate_at_a_time(self, innovations):
        from vardiag.montecarlo import _run_replicates

        plan = _phi1_plan(innovations)
        expect = [_lone_replicate(plan, i) for i in range(1, 40)]
        assert _close_rows(_run_replicates(plan, 39, 1), expect)

    def test_value_error_in_scoring_is_not_wrapped(self, monkeypatch):
        import vardiag.montecarlo as mc

        plan = _phi1_plan()
        calls = []

        def broken(*args, **kwargs):
            calls.append(args)
            raise ValueError("programming error")

        monkeypatch.setattr(mc, "evaluate_statistics", broken)
        with pytest.raises(ValueError, match="programming error"):
            mc._run_replicates(plan, 39, 1)
        assert len(calls) == 1

    @pytest.mark.parametrize("cause", [SingularDesign, DegenerateResiduals,
                                       NotPositiveDefinite, NonFinitePath])
    def test_failed_chunk_fails_the_test_naming_its_rows(self, monkeypatch, cause):
        plan = _phi1_plan()
        rows = mc._chunk_rows(plan)
        seen = _fail_stacks_of(monkeypatch, 29, cause)
        with pytest.raises(ReplicateFailure) as info:
            mc._run_replicates(plan, rows + 29, 1)  # a full chunk, then 29 rows
        assert seen == [rows, 29]  # the first chunk is scored, the second fails, nothing reruns
        error = info.value.__cause__
        assert type(error) is cause
        assert str(info.value) == (f"replicates {rows + 1}..{rows + 29} of master seed "
                                   f"{plan.config.master_seed} failed: {cause.__name__}: {error}")
        assert str(error) == ("forced failure" if cause is not NonFinitePath else
                              "simulated path is not finite (numerically explosive fitted model)")

    def test_each_chunk_is_refitted_once(self, monkeypatch):
        import vardiag.montecarlo as mc

        original = mc.fit_var
        shapes = []

        def counting(series, order, with_intercept=True):
            shapes.append(np.shape(series))
            return original(series, order, with_intercept)

        monkeypatch.setattr(mc, "fit_var", counting)
        data = simulate(catalog("phi1"), 200, derive_seed(42, 0))
        report = mc_test(data, 1, McConfig(replicates=199, master_seed=7, lags=(5, 30)))
        assert report.lags[1].nonpd_replicates == 0
        rows = _chunk_width(data)
        assert rows < 199  # more than one chunk
        assert [s[0] for s in shapes[1:]] == [min(rows, 199 - start)
                                             for start in range(0, 199, rows)]

    # 2 * 2**15 // ((110 burn-in + n) steps x 2 series per path) rows per chunk
    @pytest.mark.parametrize("n, expect", [(50, [199]), (200, [105, 94]),
                                           (500, [53] * 3 + [40])])
    def test_chunk_width_follows_the_path_length(self, n, expect):
        import vardiag.montecarlo as mc

        rows = mc._chunk_rows(_phi1_plan(n=n))
        assert [min(rows, 199 - start) for start in range(0, 199, rows)] == expect

    @pytest.mark.parametrize("statistic, n", [("gv", 50), ("q_modified", 200)])
    @pytest.mark.parametrize("innovations", ["gaussian", "bootstrap"])
    def test_reports_identical_for_32_row_chunks(self, monkeypatch, statistic, n,
                                                 innovations):
        import vardiag.montecarlo as mc

        series = simulate(catalog("phi1"), n, derive_seed(18, 0))
        config = McConfig(replicates=199, master_seed=19, lags=(2, 5),
                          innovations=innovations, statistic=statistic)
        wide = mc_test(series, 1, config).to_json()
        monkeypatch.setattr(mc, "_FACTOR_FLOATS", 0)  # every chunk at the 32-row floor
        assert mc._chunk_rows(mc._build_plan(fit_var(series, 1), config,
                                             (statistic,))) == mc._CHUNK
        assert mc_test(series, 1, config).to_json() == wide

    @pytest.mark.parametrize("n", [50, 200, 500])
    def test_chunk_memory_is_bounded(self, n):
        import tracemalloc

        import vardiag.montecarlo as mc

        plan = _phi1_plan(n=n)
        rows = mc._chunk_rows(plan)
        mc._replicate_chunk(plan, range(1, 1 + rows))  # warm numpy's caches first
        tracemalloc.start()
        try:
            mc._replicate_chunk(plan, range(1, 1 + rows))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, f"{rows}-row chunk at n={n} peaked at {peak} bytes"

    def test_pool_starts_at_most_one_process_per_chunk(self, cold_pool, monkeypatch):
        series = simulate(catalog("phi1"), 200, derive_seed(20, 0))
        base = dict(master_seed=21, lags=(2, 5), statistic="gv")
        rows = _chunk_width(series)
        solo = {reps: mc_test(series, 1, McConfig(replicates=reps, **base)).to_json()
                for reps in (rows, rows + 8)}
        started = []

        class Recording(concurrent.futures.process.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", Recording)
        # one chunk's replicates run inline; eight more make two chunks
        for reps in (rows, rows + 8):
            report = mc_test(series, 1, McConfig(replicates=reps, workers=8, **base))
            assert report.to_json() == solo[reps]
        assert started == [2]

    def test_explosive_plan_fails_naming_the_path(self):
        import dataclasses

        from vardiag.montecarlo import _run_replicates

        plan = _phi1_plan()
        plan = dataclasses.replace(
            plan, fitted=dataclasses.replace(plan.fitted, phi_hat=(40.0 * np.eye(2),)))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ReplicateFailure, match=r"^replicates 1\.\.19 of master seed 15 "
                              r"failed: NonFinitePath: .*not finite"):
            _run_replicates(plan, 19, 1)


@pytest.fixture
def cold_pool():
    """An empty pool cache before and after the test, so it sees every executor it starts."""
    mc._drop_pool()
    yield
    mc._drop_pool()


def _recorded_pools(monkeypatch, method=None) -> list:
    """Patch the executor class to log each start and each finished shutdown.

    Its workers start by ``method``, or by the default start method.
    """
    events = []

    class Recording(concurrent.futures.process.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            events.append(("start", max_workers))
            super().__init__(max_workers=max_workers,
                             mp_context=multiprocessing.get_context(method), **kwargs)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            events.append(("shutdown", self._max_workers))

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", Recording)
    return events


def _faults_of_chunks(n: int) -> list:
    """Minor page faults of each of four replicate chunks at length ``n``, after two warm ones.

    The heap can still grow in the second chunk, whose arrays are laid out in
    the first one's free space.  The cyclic collector is off meanwhile: a
    collection that empties one of Python's own object arenas returns it to
    the kernel whatever malloc keeps.
    """
    import gc
    import resource

    plan = _phi1_plan(n=n)
    rows = mc._chunk_rows(plan)
    faults = []
    gc.disable()
    try:
        for start in range(1, 1 + 6 * rows, rows):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            mc._replicate_chunk(plan, range(start, start + rows))
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    finally:
        gc.enable()
    return faults[2:]


def _exit_worker(_):
    os._exit(3)


def _pooled_call_in_child(conn):
    conn.send((mc._pool_map(abs, [-1, -2, -3], 2),
               [p.pid for p in multiprocessing.active_children()]))
    conn.close()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _fresh_interpreter(script: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a new interpreter that imports this vardiag, with ``env`` added."""
    env = {**os.environ, "PYTHONPATH": str(Path(vardiag.__file__).parents[1]), **env}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], capture_output=True,
                          text=True, timeout=120, env=env)


def _none_alive_soon(pids) -> bool:
    deadline = time.monotonic() + 5
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not any(map(_alive, pids))


class TestPool:
    def test_back_to_back_tests_share_one_executor(self, cold_pool, monkeypatch):
        events = _recorded_pools(monkeypatch)
        series = simulate(catalog("phi1"), 200, derive_seed(22, 0))
        config = McConfig(replicates=199, master_seed=23, lags=(2, 5), workers=2)
        first, second = (mc_test(series, 1, config).to_json() for _ in range(2))
        assert first == second == mc_test(series, 1, replace(config, workers=1)).to_json()
        assert events == [("start", 2)]

    def test_new_process_count_shuts_the_old_pool_down_first(self, cold_pool, monkeypatch):
        events = _recorded_pools(monkeypatch)
        for workers in (2, 2, 3):
            assert mc._pool_map(abs, [-1, -2, -3], workers) == [1, 2, 3]
        assert events == [("start", 2), ("shutdown", 2), ("start", 3)]

    def test_one_exit_hook_per_live_pool(self, cold_pool):
        def hooks():
            return [hook for hook in multiprocessing.util._finalizer_registry.values()
                    if hook._callback is mc._drop_pool]

        for workers in (2, 3) * 5:
            assert mc._pool_map(abs, [-1, -2, -3], workers) == [1, 2, 3]
        assert len(hooks()) == 1
        mc._drop_pool()
        assert hooks() == []

    def test_batch_size_follows_the_task_count(self, cold_pool, monkeypatch):
        sizes = []

        class Recording(concurrent.futures.process.ProcessPoolExecutor):
            def map(self, fn, *iterables, chunksize=1, **kwargs):
                sizes.append(chunksize)
                return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", Recording)
        # 32 trials on 2 processes go in batches of 2; a test's 2 runs, of one
        # replicate chunk each, go one at a time
        vardiag.power_study(models=("model5",), ns=(60,), lags=(3,), trials=32,
                            replicates=19, workers=2)
        series = simulate(catalog("phi1"), 200, derive_seed(22, 0))
        mc_test(series, 1, McConfig(replicates=199, lags=(2,), workers=2))
        assert sizes == [2, 1]

    def test_a_test_maps_one_run_of_chunks_per_process(self, cold_pool, monkeypatch):
        mapped = []

        class Recording(concurrent.futures.process.ProcessPoolExecutor):
            def map(self, fn, tasks, chunksize=1, **kwargs):
                mapped.append((chunksize, list(tasks)))
                return super().map(fn, mapped[-1][1], chunksize=chunksize, **kwargs)

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", Recording)
        series = simulate(catalog("phi1"), 500, derive_seed(28, 0))
        config = McConfig(replicates=199, master_seed=29, lags=(2, 5))
        rows = _chunk_width(series)
        chunks = [range(start, min(start + rows, 200)) for start in range(1, 200, rows)]
        assert len(chunks) == 4
        solo = mc_test(series, 1, config).to_json()
        for workers in (2, 3):
            assert mc_test(series, 1, replace(config, workers=workers)).to_json() == solo
        # both times map forms two work items of two chunks, the chunks in index order
        assert mapped == [(2, chunks)] * 2

    def test_broken_pool_raises_once_then_a_fresh_pool_serves(self, cold_pool):
        with pytest.raises(BrokenProcessPool):
            mc._pool_map(_exit_worker, [0, 1], 2)
        assert mc._POOL is None
        assert mc._pool_map(abs, [-1, -2], 2) == [1, 2]

    def test_forked_child_starts_its_own_pool_and_exits(self, cold_pool):
        assert mc._pool_map(abs, [-1, -2], 2) == [1, 2]
        ours = {p.pid for p in multiprocessing.active_children()}
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_pooled_call_in_child, args=(send,))
        child.start()
        send.close()
        theirs = []
        try:
            assert recv.poll(60)
            result, theirs = recv.recv()
            assert result == [1, 2, 3]
            assert len(ours) == len(theirs) == 2 and not ours & set(theirs)
            # a multiprocessing child joins its children at exit, so its pool must end first
            child.join(30)
            assert child.exitcode == 0
        finally:
            if child.exitcode is None:
                child.kill()
                child.join()
                for pid in filter(_alive, theirs):
                    os.kill(pid, 9)
        assert mc._pool_map(abs, [-4, -5], 2) == [4, 5]
        assert {p.pid for p in multiprocessing.active_children()} == ours

    def test_threads_take_turns_on_one_pool(self, cold_pool, monkeypatch):
        events = _recorded_pools(monkeypatch)
        tasks = list(range(-6, 0))

        def calls(workers):
            return [mc._pool_map(abs, tasks, workers) for _ in range(4)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as threads:
                outcomes = list(threads.map(calls, [2, 3, 2, 3]))
        finally:
            sys.setswitchinterval(interval)
        assert outcomes == [[[6, 5, 4, 3, 2, 1]] * 4] * 4
        starts = sum(kind == "start" for kind, _ in events)
        assert starts - sum(kind == "shutdown" for kind, _ in events) == 1

    @pytest.mark.parametrize("method", ["forkserver", "spawn"])
    def test_start_methods_give_the_one_worker_bytes(self, cold_pool, monkeypatch, method):
        series = simulate(catalog("phi1"), 200, derive_seed(26, 0))
        config = McConfig(replicates=_chunk_width(series) + 8, master_seed=27,
                          lags=(2, 5))  # two chunks
        study = dict(models=("model3",), ns=(50,), lags=(5,), trials=4, replicates=19)
        solo = (mc_test(series, 1, config).to_json(),
                vardiag.power_study(workers=1, **study).to_json())
        events = _recorded_pools(monkeypatch, method)
        pooled = (mc_test(series, 1, replace(config, workers=2)).to_json(),
                  vardiag.power_study(workers=2, **study).to_json())
        assert pooled == solo
        assert events == [("start", 2)]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the pool initializer acts on glibc only")
    def test_pool_workers_keep_their_freed_heap(self, cold_pool, monkeypatch):
        # spawned workers start from a fresh heap, not from this process's history
        _recorded_pools(monkeypatch, "spawn")
        ns = (50, 500, 5000)
        faults = dict(zip(ns, mc._pool_map(_faults_of_chunks, ns, 2)))
        # glibc's default returns each chunk's arrays: 283 to 3,164 faults per chunk
        assert all(f < 32 for chunks in faults.values() for f in chunks), faults

    def test_no_pool_worker_outlives_its_process(self):
        done = _fresh_interpreter("""
            import multiprocessing
            import vardiag as vd

            series = vd.simulate(vd.catalog("phi1"), 200, vd.derive_seed(24, 0))
            vd.mc_test(series, 1, vd.McConfig(master_seed=25, workers=2))
            pids = {p.pid for p in multiprocessing.active_children()}
            vd.power_study(models=("model3",), ns=(50,), lags=(5,), trials=4,
                           replicates=19, workers=2)
            pids |= {p.pid for p in multiprocessing.active_children()}
            print(*sorted(pids))
        """)
        assert done.returncode == 0, done.stderr
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2, "the test and the study share one two-process pool"
        assert _none_alive_soon(pids)

    def test_no_pool_worker_outlives_a_process_that_imports_the_pool_late(self):
        # the first pooled call imports multiprocessing, so its exit hook registers then
        done = _fresh_interpreter("""
            import sys
            import vardiag as vd

            assert "multiprocessing" not in sys.modules
            series = vd.simulate(vd.catalog("phi1"), 200, vd.derive_seed(24, 0))
            vd.mc_test(series, 1, vd.McConfig(master_seed=25, workers=2))
            import multiprocessing
            print(*sorted(p.pid for p in multiprocessing.active_children()))
        """)
        assert (done.returncode, done.stderr) == (0, "")
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2
        assert _none_alive_soon(pids)

    def test_one_process_runs_never_import_the_pool(self):
        done = _fresh_interpreter("""
            import json
            import sys
            from dataclasses import replace
            import vardiag as vd
            import vardiag.cli

            def loaded():
                return [name for name in ("concurrent.futures", "multiprocessing")
                        if name in sys.modules]

            series = vd.simulate(vd.catalog("phi1"), 200, vd.derive_seed(28, 0))
            config = vd.McConfig(master_seed=29, lags=(2, 5))
            solo = vd.mc_test(series, 1, config).to_json()
            vd.power_study(models=("model3",), ns=(50,), lags=(5,), trials=4,
                           replicates=19, workers=1)
            one_process = loaded()
            pooled = vd.mc_test(series, 1, replace(config, workers=2)).to_json()
            print(json.dumps([one_process, loaded(), pooled == solo]))
        """)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [[], ["concurrent.futures", "multiprocessing"], True]


def test_import_loads_only_the_monte_carlo_path():
    done = _fresh_interpreter("""
        import sys
        import vardiag as vd

        def loaded():
            return [name for name in ("vardiag.studies", "vardiag.asymptotics", "vardiag.csvio",
                                      "json", "csv") if name in sys.modules]

        print(loaded())
        series = vd.simulate(vd.catalog("phi1"), 60, vd.derive_seed(30, 0))
        vd.mc_test(series, 1, vd.McConfig(replicates=19, master_seed=31, lags=(2,)))
        print(loaded())
        vd.power_study
        print(loaded())
        names = {}
        exec("from vardiag import *", names)
        print([name for name in vd.__all__ if name not in names or name not in dir(vd)])
        try:
            vd.no_such_name
        except AttributeError as error:
            print(error)
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "[]", "[]", "['vardiag.studies', 'vardiag.asymptotics']", "[]",
        "module 'vardiag' has no attribute 'no_such_name'"]


def test_numpy_random_loads_at_the_first_draw():
    done = _fresh_interpreter("""
        import json
        import sys
        import numpy as np
        import vardiag as vd
        import vardiag.cli

        def loaded():
            return "numpy.random" in sys.modules

        steps = [loaded()]
        # a deterministic series, so that nothing here draws
        series = np.sin(np.arange(400.0) ** 1.5).reshape(200, 2)
        fitted = vd.fit_var(series, 1)
        vd.evaluate_statistics(fitted.residuals, ("gv", "q_modified"), (2, 5))
        vd.gv_stat(vd.racf(vd.sample_acov(fitted.residuals, 5), "hosking"), 5, fitted.n_eff)
        steps.append(loaded())
        vd.mc_test(series, 1, vd.McConfig(replicates=19, master_seed=32, lags=(2,)))
        steps.append(loaded())
        print(json.dumps(steps))
    """)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False, False, True]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="only forked workers inherit their parent's modules")
def test_forked_pool_workers_inherit_numpy_random():
    done = _fresh_interpreter("""
        import json
        import multiprocessing
        import os
        import sys
        import time
        import vardiag.montecarlo as mc

        def probe(_):
            loaded = "numpy.random" in sys.modules
            time.sleep(0.25)  # so that both workers take a task
            return os.getpid(), loaded

        multiprocessing.set_start_method("fork")
        before = "numpy.random" in sys.modules
        reports = mc._pool_map(probe, range(4), 2, batch=1)
        print(json.dumps([before, len({pid for pid, _ in reports}),
                          all(loaded for _, loaded in reports)]))
    """)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False, 2, True]
