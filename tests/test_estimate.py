import numpy as np
import pytest

from vardiag import SingularDesign, TooShort, catalog, fit_var, implied_mean, simulate
from vardiag.montecarlo import derive_seed


class TestOrderZero:
    def test_demeaning_is_exact(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((40, 3)) + [5.0, -1.0, 2.0]
        fit = fit_var(data, 0)
        assert np.abs(fit.residuals.mean(axis=0)).max() < 1e-13
        assert np.abs(fit.residuals - (data - data.mean(axis=0))).max() < 1e-12

    def test_without_intercept_returns_raw(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((30, 2)) + 3.0
        fit = fit_var(data, 0, with_intercept=False)
        assert np.array_equal(fit.residuals, data)
        assert np.array_equal(fit.intercept, np.zeros(2))


class TestVarFit:
    def test_consistency_on_simulated_var1(self):
        model = catalog("phi1")
        data = simulate(model, 5000, derive_seed(2024, 0))
        fit = fit_var(data, 1)
        assert np.abs(fit.phi_hat[0] - model.phi[0]).max() < 0.05
        assert np.abs(fit.gamma0_hat - model.innov_cov).max() < 0.1

    def test_constant_series_is_singular(self):
        data = np.ones((30, 2))
        with pytest.raises(SingularDesign):
            fit_var(data, 1)

    def test_too_short(self):
        with pytest.raises(TooShort):
            fit_var(np.random.default_rng(0).standard_normal((4, 2)), 1)

    @pytest.mark.parametrize("order, message", [(2.5, "order must be an integer, got 2.5"),
                                                 ("1", "order must be an integer"),
                                                 (-1, "order must be at least 0")])
    def test_order_is_refused_by_name(self, order, message):
        with pytest.raises(ValueError, match=message):
            fit_var(np.random.default_rng(0).standard_normal((40, 2)), order)

    def test_numpy_integer_order_is_an_int(self):
        fit = fit_var(np.random.default_rng(0).standard_normal((40, 2)), np.int64(1))
        assert type(fit.order) is int and fit.order == 1

    def test_orthogonality_of_residuals(self):
        rng = np.random.default_rng(3)
        data = simulate(catalog("model1"), 300, derive_seed(5, 0))
        fit = fit_var(data, 2)
        n = data.shape[0]
        design = np.hstack([np.ones((n - 2, 1)), data[1:-1], data[:-2]])
        cross = design.T @ fit.residuals
        scale = np.abs(data).max()
        assert np.abs(cross).max() < 1e-8 * n * scale

    def test_reconstruction_identity(self):
        data = simulate(catalog("phi3"), 120, derive_seed(8, 0))
        p = 1
        fit = fit_var(data, p)
        rebuilt = fit.intercept + data[:-1] @ fit.phi_hat[0].T + fit.residuals
        assert np.abs(rebuilt - data[p:]).max() < 1e-10

    def test_gamma0_matches_average_outer_product(self):
        data = simulate(catalog("phi4"), 150, derive_seed(9, 0))
        fit = fit_var(data, 1)
        direct = sum(np.outer(r, r) for r in fit.residuals) / fit.n_eff
        assert np.abs(direct - fit.gamma0_hat).max() < 1e-12

    def test_no_intercept_var(self):
        data = simulate(catalog("phi2"), 400, derive_seed(10, 0))
        fit = fit_var(data, 1, with_intercept=False)
        assert np.array_equal(fit.intercept, np.zeros(2))
        assert fit.n_eff == 399

    def test_residual_length(self):
        data = simulate(catalog("model1"), 100, derive_seed(11, 0))
        for p in (0, 1, 2, 3):
            assert fit_var(data, p).residuals.shape == (100 - p, 2)


class TestImpliedMean:
    def test_matches_simulated_mean(self):
        model = VarmaModelWithMean()
        data = simulate(model, 20_000, derive_seed(12, 0))
        fit = fit_var(data, 1)
        assert np.abs(implied_mean(fit) - model.mean).max() < 0.2

    def test_order_zero(self):
        data = np.random.default_rng(4).standard_normal((50, 2)) + [1.0, 2.0]
        fit = fit_var(data, 0)
        assert np.abs(implied_mean(fit) - [1.0, 2.0]).max() < 0.5

    def test_without_intercept_is_zero(self):
        data = simulate(catalog("phi1"), 80, derive_seed(6, 0)) + 5.0
        assert implied_mean(fit_var(data, 1, with_intercept=False)).tolist() == [0.0, 0.0]


class TestSeriesChecks:
    def test_one_dimensional_series_is_one_column(self):
        series = np.random.default_rng(7).standard_normal(60)
        flat, column = fit_var(series, 1), fit_var(series[:, None], 1)
        assert flat.residuals.shape == (59, 1)
        assert np.array_equal(flat.residuals, column.residuals)

    @pytest.mark.parametrize("series, message", [
        (3.0, "series must be an"),
        (np.ones((0, 2)), "series must be an"),
        ([[1.0, 2.0], [np.nan, 1.0], [0.0, 3.0], [2.0, 2.0]], "non-finite values"),
        ([[1.0, np.inf]] * 10, "non-finite values"),
    ])
    def test_bad_series_is_refused(self, series, message):
        with pytest.raises(ValueError, match=message):
            fit_var(series, 0)


def VarmaModelWithMean():
    from vardiag import VarmaModel

    return VarmaModel(
        phi=([[0.5, 0.0], [0.1, 0.3]],),
        innov_cov=np.eye(2),
        mean=[3.0, -1.0],
    )
