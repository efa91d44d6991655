import json
import math
import multiprocessing
import os
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
from reference import explosive_series, persistent_series

import vardiag
import vardiag.montecarlo as mc

from vardiag import (
    Autocorrelations,
    Autocovariances,
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


class TestDeriveSeed:
    def test_same_inputs_same_stream(self):
        a = derive_seed(42, 7).standard_normal(16)
        b = derive_seed(42, 7).standard_normal(16)
        assert a.tolist() == b.tolist()

    def test_different_indices_differ(self):
        a = derive_seed(42, 1).standard_normal(16)
        b = derive_seed(42, 2).standard_normal(16)
        assert not np.any(a == b)

    def test_different_attempts_differ(self):
        a = derive_seed(42, 1, 0).standard_normal(16)
        b = derive_seed(42, 1, 1).standard_normal(16)
        assert not np.any(a == b)

    def test_key_mixing_is_stable(self):
        # pin the mixing function so reports stay regenerable across releases
        assert derive_key(0) == derive_key(0)
        assert derive_key(1, 2, 3) != derive_key(1, 3, 2)
        assert derive_key(2**64 - 1, 5) == derive_key(-1, 5)


class TestSeededChunks:
    """A chunk's first attempts, seeded in one pass, are exactly ``derive_seed``'s streams."""

    @pytest.mark.parametrize("master", [0, 1, -1, 2**63, 2**64 - 1, 987654321,
                                        0x9E3779B97F4A7C15, -(2**40 + 17)])
    @pytest.mark.parametrize("start", [0, 2**40 - 60])
    def test_states_match_derive_seed_at_every_width(self, master, start):
        from vardiag.montecarlo import _seeded

        expect = [derive_seed(master, i, 0).bit_generator.state
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
        for index, rng in zip(range(3, 40), _seeded(plan.master_seed, 3, 40)):
            got = _draw_innovations(plan, rng)
            expect = _draw_innovations(plan, derive_seed(plan.master_seed, index, 0))
            assert got.tobytes() == expect.tobytes()

    def test_bounded_integers_start_from_an_empty_buffer(self):
        # an odd count of 32-bit draws leaves half a word buffered in the generator
        from vardiag.montecarlo import _seeded

        for index, rng in zip(range(5, 25), _seeded(11, 5, 25)):
            expect = derive_seed(11, index, 0)
            assert np.array_equal(rng.integers(0, 7, size=5), expect.integers(0, 7, size=5))
            assert rng.bit_generator.state == expect.bit_generator.state


class TestEvaluateStatistics:
    def test_matches_public_operations(self):
        rng = derive_seed(3, 0)
        resid = rng.standard_normal((120, 2))
        lags = (2, 5, 7)
        out = evaluate_statistics(resid, ("gv", "q_classic", "q_modified"), lags)
        acf = sample_acov(resid, 7)
        rs = racf(acf, "hosking")
        for col, lag in enumerate(lags):
            assert abs(out[0, col] - gv_stat(rs, lag, 120)) < 1e-10
            assert abs(out[1, col] - portmanteau_q(acf, lag, "classic")) < 1e-10
            assert abs(out[2, col] - portmanteau_q(acf, lag, "modified")) < 1e-10

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
        from vardiag.montecarlo import _build_plan, _one_replicate

        series = simulate(catalog("phi4"), 100, derive_seed(8, 0))
        config = McConfig(replicates=19, master_seed=11, lags=(3,))
        report = mc_test(series, 1, config)
        fitted = fit_var(series, 1)
        plan = _build_plan(fitted, 100, config, ("gv",))
        stats = [_one_replicate(plan, i)[0, 0] for i in range(1, 20)]
        manual = sum(s >= report.lags[0].observed for s in stats)
        assert manual == report.lags[0].exceedances
        # exchangeability: aggregation is a pure count, order free
        shuffled = sum(s >= report.lags[0].observed for s in reversed(stats))
        assert shuffled == manual

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

    def test_replicate_failure_after_retries(self, monkeypatch):
        import vardiag.montecarlo as mc

        series = simulate(catalog("phi1"), 100, derive_seed(12, 0))
        config = McConfig(replicates=19, master_seed=8, lags=(2,))
        original = mc.fit_var

        def failing(series, order, with_intercept=True):
            if getattr(failing, "armed", False):
                raise SingularDesign("forced failure")
            return original(series, order, with_intercept)

        monkeypatch.setattr(mc, "fit_var", failing)
        failing.armed = False
        fitted = original(series, 1)  # observed fit computed up front
        failing.armed = True
        from vardiag.montecarlo import _build_plan, _one_replicate

        plan = _build_plan(fitted, 100, config, ("gv",))
        with pytest.raises(ReplicateFailure):
            _one_replicate(plan, 1)


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
    return _build_plan(fit_var(series, 1), n, config, ("gv", "q_modified"))


def _close_rows(got, expect, rtol=1e-12):
    assert len(got) == len(expect)
    return all(np.all(np.abs(g - e) <= rtol * np.abs(e)) for g, e in zip(got, expect))


class TestStackedReplicates:
    @pytest.mark.parametrize("replicates", [39, 71])
    @pytest.mark.parametrize("innovations", ["gaussian", "bootstrap"])
    def test_reports_identical_across_workers(self, replicates, innovations):
        from vardiag.montecarlo import _build_plan, _chunk_rows

        # long enough for 32-row chunks: two or three of them, the last one short
        series = simulate(catalog("phi1"), 400, derive_seed(16, 0))
        base = dict(replicates=replicates, master_seed=17, lags=(2, 4),
                    innovations=innovations, statistic="q_modified")
        rows = _chunk_rows(_build_plan(fit_var(series, 1), 400, McConfig(**base),
                                       ("q_modified",)))
        assert replicates > rows and replicates % rows != 0
        reports = {w: mc_test(series, 1, McConfig(workers=w, **base)).to_json()
                   for w in (1, 2, 3)}
        assert reports[1] == reports[2] == reports[3]

    @pytest.mark.parametrize("innovations", ["gaussian", "bootstrap"])
    def test_chunks_match_one_replicate_at_a_time(self, innovations):
        from vardiag.montecarlo import _one_replicate, _run_replicates

        plan = _phi1_plan(innovations)
        expect = [_one_replicate(plan, i) for i in range(1, 40)]
        assert _close_rows(_run_replicates(plan, 39, 1), expect)

    def test_failed_row_is_redrawn_alone(self, monkeypatch):
        import vardiag.montecarlo as mc

        plan = _phi1_plan()
        clean = [mc._one_replicate(plan, i) for i in range(1, 40)]
        # the series replicate 3 simulates on its first attempt
        noise = mc._draw_innovations(plan, derive_seed(plan.master_seed, 3, 0))
        burn = mc.burn_in_length(plan.order, 0)
        first = plan.mean + mc.innovation_recursion(plan.phi, (), noise)[burn:]
        original = mc.fit_var

        def failing(series, order, with_intercept=True):
            # a stack fails when any of its series is replicate 3's first attempt
            rows = np.reshape(series, (-1,) + first.shape)
            if any(np.allclose(row, first, rtol=1e-10, atol=0) for row in rows):
                raise SingularDesign("forced failure")
            return original(series, order, with_intercept)

        monkeypatch.setattr(mc, "fit_var", failing)
        expect = [mc._one_replicate(plan, i) for i in range(1, 40)]
        got = mc._run_replicates(plan, 39, 1)
        assert _close_rows(got, expect)
        assert _close_rows(got[3:], clean[3:]) and _close_rows(got[:2], clean[:2])
        assert _close_rows(got[2:3], [mc._one_replicate(plan, 3, first_attempt=1)])
        assert not np.allclose(got[2], clean[2])

    def test_value_error_in_scoring_is_not_retried(self, monkeypatch):
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

    def test_non_finite_row_is_redrawn(self, monkeypatch):
        import vardiag.montecarlo as mc

        plan = _phi1_plan()
        clean = [mc._one_replicate(plan, i) for i in range(1, 101)]
        original = mc.innovation_recursion
        stacks = []

        def overflowing(phi, theta, innovations):
            out = original(phi, theta, innovations)
            if out.ndim == 3:
                stacks.append(out.shape[0])
                if len(stacks) == 1:
                    out[4, -1, 0] = np.inf  # replicate 5, in the first chunk
            return out

        monkeypatch.setattr(mc, "innovation_recursion", overflowing)
        got = mc._run_replicates(plan, 100, 1)
        assert _close_rows(got[:4] + got[5:], clean[:4] + clean[5:])
        assert _close_rows(got[4:5], [mc._one_replicate(plan, 5, first_attempt=1)])
        assert not np.allclose(got[4], clean[4])
        # n = 120: (110 burn-in + 120) steps x 2 series per path, 2**15 // 460 = 71 rows
        assert stacks == [71, 29]

    def test_non_pd_stack_is_rescored_without_redraws(self, monkeypatch):
        import vardiag.montecarlo as mc

        plan = _phi1_plan()
        clean = [mc._one_replicate(plan, i) for i in range(1, 40)]
        original_log_steps = mc._gv_log_steps
        original_seeded = mc._seeded
        seeded = []

        def stack_fails(rs, m):
            if rs.values[0].ndim > 2:
                raise NotPositiveDefinite("forced failure of a stack")
            return original_log_steps(rs, m)

        def recording(master, start, stop):
            seeded.extend(range(start, stop))
            return original_seeded(master, start, stop)

        def no_redraw(master, index, attempt=0):
            raise AssertionError(f"replicate {index} was redrawn (attempt {attempt})")

        monkeypatch.setattr(mc, "_gv_log_steps", stack_fails)
        monkeypatch.setattr(mc, "_seeded", recording)
        monkeypatch.setattr(mc, "derive_seed", no_redraw)
        assert _close_rows(mc._run_replicates(plan, 39, 1), clean)
        assert seeded == list(range(1, 40))

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
        # n = 200: 2**15 // ((110 + 200) * 2) = 52 rows per chunk
        assert [s[0] for s in shapes[1:]] == [52, 52, 52, 43]

    @pytest.mark.parametrize("n, expect", [(50, [102, 97]), (200, [52] * 3 + [43]),
                                           (500, [32] * 6 + [7])])
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
        assert mc._chunk_rows(mc._build_plan(fit_var(series, 1), n, config,
                                             (statistic,))) == mc._CHUNK
        assert mc_test(series, 1, config).to_json() == wide

    @pytest.mark.parametrize("n", [50, 200, 500])
    def test_chunk_memory_is_bounded(self, n):
        import tracemalloc

        import vardiag.montecarlo as mc

        plan = _phi1_plan(n=n)
        rows = mc._chunk_rows(plan)
        mc._replicate_chunk((plan, 1, 1 + rows))  # warm numpy's caches first
        tracemalloc.start()
        try:
            mc._replicate_chunk((plan, 1, 1 + rows))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, f"{rows}-row chunk at n={n} peaked at {peak} bytes"

    def test_pool_starts_at_most_one_process_per_chunk(self, cold_pool, monkeypatch):
        series = simulate(catalog("phi1"), 200, derive_seed(20, 0))
        base = dict(master_seed=21, lags=(2, 5), statistic="gv")
        solo = {reps: mc_test(series, 1, McConfig(replicates=reps, **base)).to_json()
                for reps in (40, 60)}
        started = []

        class Recording(mc.ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(mc, "ProcessPoolExecutor", Recording)
        # 40 replicates are one 52-row chunk, run inline; 60 are two chunks
        for reps in (40, 60):
            report = mc_test(series, 1, McConfig(replicates=reps, workers=8, **base))
            assert report.to_json() == solo[reps]
        assert started == [2]

    def test_explosive_plan_fails_naming_the_path(self):
        import dataclasses

        from vardiag.montecarlo import _run_replicates

        plan = dataclasses.replace(_phi1_plan(), phi=(40.0 * np.eye(2),))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ReplicateFailure, match="not finite"):
            _run_replicates(plan, 19, 1)


@pytest.fixture
def cold_pool():
    """An empty pool cache before and after the test, so it sees every executor it starts."""
    mc._drop_pool()
    yield
    mc._drop_pool()


def _recorded_pools(monkeypatch) -> list:
    """Patch the executor class to log each start and each finished shutdown."""
    events = []

    class Recording(mc.ProcessPoolExecutor):
        def __init__(self, max_workers):
            events.append(("start", max_workers))
            super().__init__(max_workers=max_workers)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            events.append(("shutdown", self._max_workers))

    monkeypatch.setattr(mc, "ProcessPoolExecutor", Recording)
    return events


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

    def test_no_pool_worker_outlives_its_process(self):
        script = textwrap.dedent("""
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
        env = {**os.environ, "PYTHONPATH": str(Path(vardiag.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120, env=env, check=True)
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2, "the test and the study share one two-process pool"
        deadline = time.monotonic() + 5
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _alive(pid)]
