import math

import numpy as np
import pytest
from scipy import special

from vardiag import (
    AbParams,
    DegenerateDf,
    SingularDesign,
    TraceSums,
    VarmaModel,
    ab_params,
    ab_params_from_traces,
    approx_pvalue,
    build_design,
    catalog,
    chisq_sf,
    fit_var,
    lambda_traces,
    q_pvalue_asymptotic,
    racf,
    sample_acov,
    simulate,
)
from vardiag.diagnostics import gv_stat
from vardiag.montecarlo import derive_seed


def white_model(k):
    return VarmaModel(innov_cov=np.eye(k))


class TestBuildDesign:
    def test_dimensions(self):
        design = build_design(catalog("model3"), 8)
        kk = 4
        assert design.g.shape == (kk * 8, kk * 1)
        assert design.h.shape == (kk * 8, kk * 1)
        assert design.x.shape == (kk * 8, kk * 2)
        assert design.w.shape == (kk * 8, kk * 8)

    def test_no_parameters_gives_zero_projector(self):
        design = build_design(white_model(2), 5)
        assert design.x.shape == (4 * 5, 0)
        assert np.abs(design.q_mat).max() == 0.0

    def test_fitted_var1_g_blocks(self):
        # with no MA part the r-th block reduces to (cov psi_r') kron identity
        data = simulate(catalog("phi1"), 400, derive_seed(21, 0))
        fit = fit_var(data, 1)
        design = build_design(fit, 5)
        cov = fit.gamma0_hat
        psi_r = np.eye(2)
        for r in range(5):
            block = design.g[4 * r:4 * (r + 1), 0:4]
            expect = np.kron(cov @ psi_r.T, np.eye(2))
            assert np.abs(block - expect).max() < 1e-12, r
            psi_r = fit.phi_hat[0] @ psi_r

    def test_projector_idempotent_and_trace(self):
        rng_idx = 0
        for name, p in (("phi1", 1), ("model1", 2)):
            for k_model in (name,):
                data = simulate(catalog(name), 500, derive_seed(31, rng_idx))
                rng_idx += 1
                fit = fit_var(data, p)
                design = build_design(fit, 10)
                q = design.q_mat
                assert np.abs(q @ q - q).max() <= 1e-8
                assert abs(np.trace(q) - 4 * p) <= 1e-6

    def test_m_guard(self):
        with pytest.raises(DegenerateDf):
            build_design(catalog("model3"), 2)

    def test_w_is_kronecker_square(self):
        model = catalog("phi2")
        design = build_design(model, 4)
        expect = np.kron(np.eye(4), np.kron(model.innov_cov, model.innov_cov))
        assert np.abs(design.w - expect).max() < 1e-15


class TestLambdaTraces:
    def test_no_parameter_closed_values(self):
        # k=1, m=2: M = diag(2, 1) so sums are 3 and 5
        tr = lambda_traces(build_design(white_model(1), 2))
        assert tr.sum == 3.0 and tr.sum_sq == 5.0

    def test_no_parameter_formulas(self):
        for k in (1, 2, 3):
            for m in (2, 5, 11, 20):
                tr = lambda_traces(build_design(white_model(k), m))
                kk = k * k
                assert abs(tr.sum - kk * m * (m + 1) / 2) < 1e-9
                assert abs(tr.sum_sq - kk * m * (m + 1) * (2 * m + 1) / 6) < 1e-9

    def test_full_projector_gives_zero(self):
        design = build_design(white_model(2), 5)
        full = design.__class__(
            design.k, design.m, design.p, design.q, design.g, design.h,
            design.x, design.w, design.m_mat, np.eye(design.m_mat.shape[0]))
        tr = lambda_traces(full)
        assert abs(tr.sum) < 1e-12 and abs(tr.sum_sq) < 1e-12


class TestAbParams:
    def test_closed_example_no_parameters(self):
        ab = ab_params(2, 5, 0, 0)
        assert abs(ab.a - 11.0 / 3.0) < 1e-12
        assert abs(ab.b - 180.0 / 11.0) < 1e-12

    def test_closed_example_var1(self):
        ab = ab_params(2, 10, 1, 0)
        assert abs(ab.a - 7.0) < 1e-12
        assert abs(ab.b - (1320.0 / 42.0 - 4.0)) < 1e-12

    def test_traces_route_matches_closed_when_no_parameters(self):
        for k in (1, 2, 3):
            for m in (1, 4, 9, 20):
                closed = ab_params(k, m, 0, 0)
                traced = ab_params_from_traces(lambda_traces(build_design(white_model(k), m)))
                assert abs(closed.a - traced.a) < 1e-10
                assert abs(closed.b - traced.b) < 1e-10

    def test_degenerate_df(self):
        # k=1, m=2, p+q=2: b = 3*2*3/10 - 2 = -0.2
        with pytest.raises(DegenerateDf):
            ab_params(1, 2, 1, 1)


class TestChisqSf:
    def test_zero_gives_one(self):
        for df in (0.5, 1, 2.5, 10):
            assert chisq_sf(0.0, df) == 1.0

    def test_df2_analytic(self):
        for x in np.linspace(0.0, 40.0, 81):
            assert abs(chisq_sf(x, 2.0) - math.exp(-x / 2.0)) < 1e-12
        assert abs(chisq_sf(2.0 * math.log(2.0), 2.0) - 0.5) < 1e-12

    def test_df4_analytic(self):
        # sf = exp(-x/2) (1 + x/2); at x=4 this is 3 e^{-2}
        assert abs(chisq_sf(4.0, 4.0) - 3.0 * math.exp(-2.0)) < 1e-12
        for x in np.linspace(0.0, 40.0, 81):
            assert abs(chisq_sf(x, 4.0) - math.exp(-x / 2.0) * (1.0 + x / 2.0)) < 1e-12

    def test_monotone_decreasing(self):
        for df in (1.0, 3.3, 8.0, 40.0):
            values = [chisq_sf(x, df) for x in np.linspace(0.0, 60.0, 200)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_against_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            df = float(rng.uniform(0.2, 150.0))
            x = float(rng.uniform(0.0, 300.0))
            assert abs(chisq_sf(x, df) - special.chdtrc(df, x)) < 1e-10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            chisq_sf(-1.0, 2.0)
        with pytest.raises(ValueError):
            chisq_sf(1.0, 0.0)


class TestApproxPvalue:
    def test_zero_statistic(self):
        assert approx_pvalue(0.0, ab_params(2, 5, 0, 0)) == 1.0

    def test_infinite_statistic(self):
        assert approx_pvalue(math.inf, ab_params(2, 5, 0, 0)) == 0.0

    def test_scale_family_identity(self):
        from vardiag import AbParams

        x = 7.3
        base = AbParams(2.0, 6.5)
        scaled = AbParams(2.0 * 3.0, 6.5)
        assert abs(approx_pvalue(3.0 * x, scaled) - approx_pvalue(x, base)) < 1e-14


class TestQPvalue:
    def test_zero(self):
        assert q_pvalue_asymptotic(0.0, 2, 10, 1, 0) == 1.0

    def test_df_arithmetic(self):
        # k=2, m=10, p=1, q=0: df = 36; compare to direct evaluation
        stat = 30.0
        assert abs(q_pvalue_asymptotic(stat, 2, 10, 1, 0) - chisq_sf(stat, 36.0)) < 1e-15

    def test_degenerate(self):
        with pytest.raises(DegenerateDf):
            q_pvalue_asymptotic(1.0, 2, 1, 1, 0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: AbParams(0.0, 1.0), DegenerateDf, "must be positive"),
    (lambda: AbParams(1.0, -0.5), DegenerateDf, "must be positive"),
    (lambda: ab_params_from_traces(TraceSums(0.0, 1.0)), DegenerateDf, "nonpositive trace"),
    (lambda: ab_params_from_traces(TraceSums(2.0, -1.0)), DegenerateDf, "nonpositive trace"),
    (lambda: build_design(np.eye(2), 5), TypeError, "expected VarmaModel or FittedVar"),
    # equal AR and MA factors cancel, so the AR and MA columns of the design coincide
    (lambda: build_design(VarmaModel(phi=([[0.5]],), theta=([[0.5]],), innov_cov=[[1.0]]), 5),
     SingularDesign, "rank deficient"),
    # an undefined statistic or df has no tail probability, least of all the most significant one
    (lambda: chisq_sf(math.nan, 2.0), ValueError, "x must be nonnegative"),
    (lambda: chisq_sf(3.0, math.nan), ValueError, "df must be positive and finite"),
    (lambda: chisq_sf(3.0, math.inf), ValueError, "df must be positive and finite"),
    (lambda: approx_pvalue(math.nan, ab_params(2, 5, 0, 0)), ValueError, "x must be nonnegative"),
    (lambda: q_pvalue_asymptotic(math.nan, 2, 5, 1, 0), ValueError, "x must be nonnegative"),
], ids=["ab-a0", "ab-b-neg", "traces-sum0", "traces-sum_sq-neg", "design-array",
        "design-cancelling-factors", "chisq-x-nan", "chisq-df-nan", "chisq-df-inf",
        "approx-nan", "q-nan"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_edge_statistics():
    # a rounding-negative gv counts as zero; an infinite statistic is beyond every quantile
    assert approx_pvalue(-1e-12, ab_params(2, 5, 0, 0)) == 1.0
    assert chisq_sf(math.inf, 3.0) == 0.0
    assert q_pvalue_asymptotic(math.inf, 2, 10, 1, 0) == 0.0


class TestLeadingOrderIdentity:
    def test_white_noise_large_sample(self):
        # At the null with n large, the statistic is close to the weighted
        # sum of squared autocorrelation norms; at least 90% of replicates
        # should agree within 5% relative.
        n, k, m = 5000, 2, 5
        passed = 0
        for rep in range(100):
            rng = derive_seed(9000, rep)
            resid = rng.standard_normal((n, k))
            acf = sample_acov(resid, m)
            rs = racf(acf, "hosking")
            d = gv_stat(rs, m, n)
            approx = n * sum(
                (m - lag + 1) * np.trace(rs.values[lag].T @ rs.values[lag])
                for lag in range(1, m + 1))
            if abs(d - approx) / d <= 0.05:
                passed += 1
        assert passed >= 90
