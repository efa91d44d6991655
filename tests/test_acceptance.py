"""Acceptance suite.

Each test is one acceptance criterion, run at its stated tolerance, and
prints a PASS line directly to the terminal when it succeeds (a failure
shows up as an ordinary pytest failure).  The heavy statistical criteria
use fixed seeds, so the whole suite is deterministic.
"""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from reference import kron_q
from scipy.linalg import toeplitz

import vardiag as vd
from vardiag.diagnostics import gv_stat
from vardiag.montecarlo import derive_key, derive_seed

WORKERS = min(8, os.cpu_count() or 1)


@pytest.fixture
def announce(capsys):
    def _announce(message):
        with capsys.disabled():
            print(message, flush=True)
    return _announce


def random_instances(count, seed, k_choices=(1, 2, 3), max_m=10, n_range=(50, 200)):
    """Random residual sets with shapes drawn from the stated ranges.

    The sample size respects n >= 2 (m+1) k, under which the block-Toeplitz
    correlation matrix of biased autocovariances is positive definite.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.choice(k_choices))
        m = int(rng.integers(1, max_m + 1))
        lo = max(n_range[0], 2 * (m + 1) * k)
        n = int(rng.integers(lo, n_range[1] + 1))
        mix = rng.standard_normal((k, k)) * 0.4 + np.eye(k)
        noise = rng.standard_normal((n + 1, k)) @ mix
        resid = noise[1:] + 0.3 * noise[:-1]
        yield k, m, n, resid


def test_criterion_1_statistic_equivalence(announce):
    """Q equals its Kronecker form under every mode on 200 random residual sets."""
    start = time.perf_counter()
    worst = 0.0
    for k, m, n, resid in random_instances(200, seed=101):
        acf = vd.sample_acov(resid, m)
        values = [vd.portmanteau_q(acf, m, "classic")] + [
            kron_q(acf, m, "classic", mode)
            for mode in ("hosking", "li_mcleod", "chitturi")]
        top = max(values)
        spread = (top - min(values)) / top
        worst = max(worst, spread)
        assert spread <= 1e-8, (k, m, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(f"PASS criterion 1: statistic equivalence on 200 instances "
             f"(worst rel spread {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_determinant_decomposition(announce):
    """Determinant equals the per-lag product; statistic consistent with it."""
    worst_det = 0.0
    worst_stat = 0.0
    for k, m, n, resid in random_instances(200, seed=101):
        acf = vd.sample_acov(resid, m)
        rs = vd.racf(acf, "hosking")
        det = math.exp(vd.log_det_spd(vd.block_toeplitz(rs, m)))
        dec = vd.gv_decompose(rs, m)
        prod = float(np.prod([1.0 - e for e in dec.eta_sq]))
        rel_det = abs(det - prod) / det
        d = gv_stat(rs, m, n)
        rel_stat = abs(d - (-n * math.log(prod))) / max(abs(d), 1e-12)
        worst_det = max(worst_det, rel_det)
        worst_stat = max(worst_stat, rel_stat)
        assert rel_det <= 1e-8, (k, m, n)
        assert rel_stat <= 1e-8, (k, m, n)
    announce(f"PASS criterion 2: determinant decomposition on 200 instances "
             f"(worst det err {worst_det:.2e}, stat err {worst_stat:.2e})")


def test_criterion_3_univariate_reduction(announce):
    """For k=1 the statistic is (m+1) times the log-root univariate form."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 11))
        n = int(rng.integers(max(50, 2 * (m + 1)), 201))
        noise = rng.standard_normal(n + 1)
        resid = (noise[1:] + 0.4 * noise[:-1])[:, None]
        acf = vd.sample_acov(resid, m)
        row = [float(acf.values[lag][0, 0] / acf.values[0][0, 0])
               for lag in range(m + 1)]
        d_tilde = -n / (m + 1) * math.log(np.linalg.det(toeplitz(row)))
        d = gv_stat(vd.racf(acf, "hosking"), m, n)
        rel = abs(d - (m + 1) * d_tilde) / abs(d)
        worst = max(worst, rel)
        assert rel <= 1e-10
    announce(f"PASS criterion 3: univariate reduction on 100 instances "
             f"(worst rel err {worst:.2e})")


def test_criterion_4_design_plumbing(announce):
    """Projector idempotency/rank for fitted models; trace route vs closed form."""
    scalar_ar1 = vd.VarmaModel(phi=([[0.6]],), innov_cov=[[1.0]])
    scalar_ar2 = vd.VarmaModel(phi=([[0.5]], [[-0.3]]), innov_cov=[[1.0]])
    cases = [
        (scalar_ar1, 1), (scalar_ar2, 2),
        (vd.catalog("phi1"), 1), (vd.catalog("model1"), 2),
    ]
    for idx, (model, p) in enumerate(cases):
        data = vd.simulate(model, 400, derive_seed(404, idx))
        fit = vd.fit_var(data, p)
        design = vd.build_design(fit, 10)
        q = design.q_mat
        k = fit.k
        assert np.abs(q @ q - q).max() <= 1e-8
        assert abs(np.trace(q) - k * k * p) <= 1e-6
    for k in (1, 2, 3):
        white = vd.VarmaModel(innov_cov=np.eye(k))
        for m in range(1, 21):
            closed = vd.ab_params(k, m, 0, 0)
            traced = vd.ab_params_from_traces(
                vd.lambda_traces(vd.build_design(white, m)))
            assert abs(closed.a - traced.a) <= 1e-10
            assert abs(closed.b - traced.b) <= 1e-10
    announce("PASS criterion 4: projector idempotency, rank, and "
             "closed-vs-trace scale/df agreement")


def test_criterion_5_chi_square_tail(announce):
    """Survival function matches the even-df closed forms on [0, 40]."""
    grid = np.linspace(0.0, 40.0, 401)
    worst = 0.0
    for x in grid:
        err = abs(vd.chisq_sf(x, 2.0) - math.exp(-x / 2.0))
        worst = max(worst, err)
        assert err <= 1e-12
    for df in (4, 6, 8):
        half_terms = df // 2
        for x in grid:
            # Poisson-sum closed form for even df
            closed = math.exp(-x / 2.0) * sum(
                (x / 2.0) ** j / math.factorial(j) for j in range(half_terms))
            err = abs(vd.chisq_sf(x, float(df)) - closed)
            worst = max(worst, err)
            assert err <= 1e-12, (df, x)
    announce(f"PASS criterion 5: chi-square tail matches closed forms "
             f"(worst abs err {worst:.2e})")


def test_criterion_6_size_reproduction(announce):
    """Empirical size of the nominal-5% Monte-Carlo test at desk scale."""
    result = vd.size_study(models=("phi1",), ns=(200,), lags=(5,), trials=500,
                           replicates=199, master_seed=606, method="mc",
                           workers=WORKERS)
    rate = result.rate("phi1", 200, 5, "mc")
    assert rate is not None
    assert 2.5 <= rate <= 7.5, f"empirical size {rate}% outside [2.5, 7.5]"
    announce(f"PASS criterion 6: empirical size {rate:.1f}% in [2.5, 7.5] "
             f"(full-scale reference 4.7%)")


def test_criterion_7_power_ordering(announce):
    """Determinant statistic beats the modified classical one at desk scale."""
    strong = vd.power_study(models=("model3",), ns=(50,), lags=(5,), trials=300,
                            replicates=199, master_seed=707, workers=WORKERS)
    d_power = strong.rate("model3", 50, 5, "gv")
    q_power = strong.rate("model3", 50, 5, "q_modified")
    assert d_power >= 90.0, f"determinant-statistic power {d_power}"
    assert d_power - q_power >= 8.0, (d_power, q_power)
    announce(f"PASS criterion 7a: model3 n=50 m=5 power {d_power:.0f} vs "
             f"{q_power:.0f} (full-scale reference 99 vs 84)")

    weak = vd.power_study(models=("model1",), ns=(200,), lags=(10,), trials=300,
                          replicates=199, master_seed=717, workers=WORKERS)
    d_power = weak.rate("model1", 200, 10, "gv")
    q_power = weak.rate("model1", 200, 10, "q_modified")
    assert d_power - q_power >= 8.0, (d_power, q_power)
    announce(f"PASS criterion 7b: model1 n=200 m=10 power {d_power:.0f} vs "
             f"{q_power:.0f} (full-scale reference 90 vs 73)")


def _null_phat(trial: int) -> float:
    model = vd.catalog("phi1")
    data = vd.simulate(model, 200, derive_seed(derive_key(808, trial), 0))
    config = vd.McConfig(replicates=99, master_seed=derive_key(808, trial, 1),
                         lags=(5,))
    report = vd.mc_test(data, 1, config)
    return report.lags[0].p_value


def test_criterion_8_null_p_value_uniformity(announce):
    """Monte-Carlo p-values are uniform under the null."""
    trials = 200
    if WORKERS > 1:
        with ProcessPoolExecutor(max_workers=WORKERS) as pool:
            pvals = list(pool.map(_null_phat, range(trials), chunksize=8))
    else:
        pvals = [_null_phat(t) for t in range(trials)]
    ordered = np.sort(pvals)
    grid = np.arange(1, trials + 1) / trials
    ks = max(np.abs(grid - ordered).max(),
             np.abs(grid - 1.0 / trials - ordered).max())
    assert ks <= 0.12, f"Kolmogorov distance {ks:.3f}"
    announce(f"PASS criterion 8: null p-value uniformity, Kolmogorov "
             f"distance {ks:.3f} <= 0.12")


def test_criterion_9_worker_determinism(announce):
    """Byte-identical reports for one and eight workers."""
    data = vd.simulate(vd.catalog("phi1"), 200, derive_seed(909, 0))
    base = dict(replicates=199, master_seed=910, lags=(5, 10), statistic="gv")
    solo = vd.mc_test(data, 1, vd.McConfig(workers=1, **base))
    eight = vd.mc_test(data, 1, vd.McConfig(workers=8, **base))
    assert solo.to_json() == eight.to_json()
    announce("PASS criterion 9: byte-identical reports for workers 1 and 8")
