import math

import numpy as np
import pytest
from reference import kron_q

from vardiag import (
    Autocorrelations,
    Autocovariances,
    DegenerateResiduals,
    NotPositiveDefinite,
    block_toeplitz,
    evaluate_statistics,
    gv_decompose,
    gv_stat,
    portmanteau_q,
    racf,
    residual_transform,
    sample_acov,
)
from vardiag.diagnostics import _unit_diagonal_cholesky
from vardiag.linalg import cholesky_lower, log_det_spd, spd_inverse
from vardiag.montecarlo import STATISTICS, _gv_row


def colored_residuals(rng, n, k):
    """Random residuals with cross-correlation and mild serial dependence."""
    mix = rng.standard_normal((k, k)) * 0.4 + np.eye(k)
    noise = rng.standard_normal((n + 1, k)) @ mix
    return noise[1:] + 0.25 * noise[:-1]


def chitturi_block_toeplitz(racfs, m):
    """Block-Toeplitz matrix of chitturi autocorrelations, assembled block by block.

    Chitturi matrices are not symmetric in lag: the negative-lag block is
    G_l' G0^{-1}, not the transpose of the positive-lag block.
    """
    k = racfs.k
    gamma = racfs.acov.values
    g0_inv = spd_inverse(gamma[0])
    big = np.zeros(((m + 1) * k, (m + 1) * k))
    for i in range(m + 1):
        for j in range(m + 1):
            lag = j - i
            if lag == 0:
                block = np.eye(k)
            elif lag > 0:
                block = racfs.values[lag]
            else:
                block = gamma[-lag].T @ g0_inv
            big[i * k:(i + 1) * k, j * k:(j + 1) * k] = block
    return big


def synthetic_racf(values):
    """Hosking-mode container built directly from given matrices."""
    k = values[0].shape[0]
    acov = Autocovariances(tuple(np.asarray(v, dtype=float) for v in values), 100)
    return Autocorrelations("hosking", acov.values, acov)


class TestSampleAcov:
    def test_univariate_hand_values(self):
        # residuals (1,-1,1,-1): g(0) = 1, g(1) = (-1-1-1)/4 = -0.75
        acf = sample_acov(np.array([1.0, -1.0, 1.0, -1.0]), 1)
        assert acf.values[0][0, 0] == 1.0
        assert acf.values[1][0, 0] == -0.75

    def test_zero_residuals_degenerate(self):
        with pytest.raises(DegenerateResiduals):
            sample_acov(np.zeros((50, 2)), 2)

    def test_singular_lag_zero_degenerate(self):
        rng = np.random.default_rng(3)
        resid = rng.standard_normal((50, 3))
        resid[:, 2] = resid[:, 0] - 2.0 * resid[:, 1]
        with pytest.raises(DegenerateResiduals):
            sample_acov(resid, 2)
        stack = np.stack([rng.standard_normal((50, 3)), resid])
        with pytest.raises(DegenerateResiduals):
            sample_acov(stack, 2)

    @pytest.mark.parametrize("shape", [(60, 2), (5, 60, 2), (2, 3, 60, 3)])
    def test_lag_zero_inverse_is_computed_once(self, shape):
        rng = np.random.default_rng(4)
        acf = sample_acov(rng.standard_normal(shape), 3)
        g0_inv = acf._g0_inv
        assert acf._g0_inv is g0_inv
        assert np.array_equal(g0_inv, spd_inverse(acf.values[0]))
        assert np.array_equal(g0_inv, spd_inverse(np.stack(acf.values, axis=-3)[..., 0, :, :]))

    def test_lag_zero_symmetry(self):
        rng = np.random.default_rng(0)
        acf = sample_acov(rng.standard_normal((80, 3)), 4)
        g0 = acf.values[0]
        assert np.abs(g0 - g0.T).max() < 1e-15

    def test_m_guard(self):
        rng = np.random.default_rng(1)
        with pytest.raises(DegenerateResiduals):
            sample_acov(rng.standard_normal((20, 2)), 10)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(2)
        resid = rng.standard_normal((60, 2))
        acf = sample_acov(resid, 3)
        n = 60
        for lag in range(4):
            direct = sum(np.outer(resid[t], resid[t - lag]) for t in range(lag, n)) / n
            assert np.abs(acf.values[lag] - direct).max() < 1e-14


class TestRacf:
    def test_scalar_all_modes_agree(self):
        acf = sample_acov(np.array([1.0, -1.0, 1.0, -1.0]), 1)
        for mode in ("hosking", "li_mcleod", "chitturi"):
            rs = racf(acf, mode)
            assert abs(rs.values[1][0, 0] + 0.75) < 1e-14, mode

    def test_chitturi_lag0_exact_identity(self):
        rng = np.random.default_rng(3)
        acf = sample_acov(colored_residuals(rng, 90, 3), 4)
        rs = racf(acf, "chitturi")
        assert np.array_equal(rs.values[0], np.eye(3))

    def test_hosking_lag0_identity_within_tolerance(self):
        rng = np.random.default_rng(4)
        acf = sample_acov(colored_residuals(rng, 90, 3), 4)
        rs = racf(acf, "hosking")
        assert np.abs(rs.values[0] - np.eye(3)).max() < 1e-10

    def test_li_mcleod_unit_diagonal(self):
        rng = np.random.default_rng(5)
        acf = sample_acov(colored_residuals(rng, 90, 2), 4)
        rs = racf(acf, "li_mcleod")
        assert np.abs(np.diag(rs.values[0]) - 1.0).max() < 1e-12

    def test_bad_mode(self):
        rng = np.random.default_rng(6)
        acf = sample_acov(rng.standard_normal((40, 2)), 2)
        with pytest.raises(ValueError):
            racf(acf, "box")


class TestPortmanteauQ:
    def test_zero_autocovariances_give_zero(self):
        acf = Autocovariances((np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))), 50)
        assert portmanteau_q(acf, 2) == 0.0

    def test_scalar_classic(self):
        # k=1, n=4, r(1) = -0.75: Q = 4 * 0.5625 = 2.25
        acf = sample_acov(np.array([1.0, -1.0, 1.0, -1.0]), 1)
        assert abs(portmanteau_q(acf, 1, "classic") - 2.25) < 1e-12

    def test_scalar_modified(self):
        # weight n^2/(n-1): 16 * 0.5625 / 3 = 3.0
        acf = sample_acov(np.array([1.0, -1.0, 1.0, -1.0]), 1)
        assert abs(portmanteau_q(acf, 1, "modified") - 3.0) < 1e-12

    def test_form_and_mode_equivalence(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            k = int(rng.integers(1, 4))
            m = int(rng.integers(1, 11))
            n = int(rng.integers(max(50, 2 * (m + 1) * k), 201))
            acf = sample_acov(colored_residuals(rng, n, k), m)
            for variant in ("classic", "modified"):
                values = [portmanteau_q(acf, m, variant)] + [
                    kron_q(acf, m, variant, mode)
                    for mode in ("hosking", "li_mcleod", "chitturi")]
                spread = max(values) - min(values)
                assert spread <= 1e-8 * max(values), (k, m, n, variant)

    def test_neudecker_identity(self):
        # tr(G' G0i G G0i) equals the Kronecker quadratic form in vec(G)
        rng = np.random.default_rng(8)
        for _ in range(25):
            k = int(rng.integers(1, 4))
            acf = sample_acov(colored_residuals(rng, 80, k), 2)
            g = acf.values[1]
            g0_inv = np.linalg.inv(acf.values[0])
            lhs = np.trace(g.T @ g0_inv @ g @ g0_inv)
            stacked = g.T.ravel(order="F")  # row-stacking of g
            rhs = stacked @ np.kron(g0_inv, g0_inv) @ stacked
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_modified_dominates_classic(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            m = int(rng.integers(1, 8))
            n = int(rng.integers(max(50, 2 * (m + 1) * k), 201))
            acf = sample_acov(colored_residuals(rng, n, k), m)
            assert portmanteau_q(acf, m, "modified") >= portmanteau_q(acf, m, "classic")


class TestBlockToeplitz:
    def test_order_zero_is_identity(self):
        rng = np.random.default_rng(10)
        rs = racf(sample_acov(colored_residuals(rng, 60, 2), 3), "hosking")
        assert np.array_equal(block_toeplitz(rs, 0), np.eye(2))

    def test_univariate_structure(self):
        rho = -0.4
        rs = synthetic_racf([np.eye(1), [[rho]]])
        assert block_toeplitz(rs, 1).tolist() == [[1.0, rho], [rho, 1.0]]

    def test_zero_racf_gives_identity(self):
        rs = synthetic_racf([np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))])
        assert np.array_equal(block_toeplitz(rs, 2), np.eye(6))

    def test_symmetry_and_diagonal_blocks(self):
        rng = np.random.default_rng(11)
        rs = racf(sample_acov(colored_residuals(rng, 100, 3), 5), "hosking")
        toep = block_toeplitz(rs, 5)
        assert np.array_equal(toep, toep.T)
        for i in range(6):
            assert np.array_equal(toep[i * 3:(i + 1) * 3, i * 3:(i + 1) * 3], np.eye(3))

    def test_requires_hosking_mode(self):
        rng = np.random.default_rng(12)
        rs = racf(sample_acov(colored_residuals(rng, 60, 2), 2), "chitturi")
        with pytest.raises(ValueError):
            block_toeplitz(rs, 2)

    def test_pd_when_sample_large_enough(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            m = int(rng.integers(1, 8))
            n = int(rng.integers(2 * (m + 1) * k, 2 * (m + 1) * k + 150))
            rs = racf(sample_acov(colored_residuals(rng, n, k), m), "hosking")
            assert math.isfinite(gv_stat(rs, m, n))


class TestGvStat:
    def test_zero_racf_gives_zero(self):
        rs = synthetic_racf([np.eye(2), np.zeros((2, 2))])
        assert gv_stat(rs, 1, 100) == 0.0

    def test_scalar_value(self):
        # 1 - rho^2 = 0.4375; D = -4 ln 0.4375
        acf = sample_acov(np.array([1.0, -1.0, 1.0, -1.0]), 1)
        rs = racf(acf, "hosking")
        expect = -4.0 * math.log(0.4375)
        assert abs(gv_stat(rs, 1, 4) - expect) < 1e-12

    def test_lag_zero_is_refused(self):
        rs = synthetic_racf([np.eye(2), np.zeros((2, 2))])
        with pytest.raises(ValueError):
            gv_stat(rs, 0, 100)

    def test_stack_is_refused(self):
        # a stack has one value per member; one float would have to merge them
        rs = synthetic_racf([np.broadcast_to(np.eye(2), (3, 2, 2)), np.zeros((3, 2, 2))])
        with pytest.raises(ValueError):
            gv_stat(rs, 1, 100)

    def test_nonpd_gives_sentinel(self):
        rs = synthetic_racf([np.eye(1), [[1.2]]])
        assert gv_stat(rs, 1, 100) == math.inf

    def test_nonnegative(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(60, 200))
            rs = racf(sample_acov(colored_residuals(rng, n, 2), 5), "hosking")
            assert gv_stat(rs, 5, n) >= -1e-8 * n

    def test_k1_reduction_to_univariate_form(self):
        # D_m equals (m+1) times the log-root univariate statistic
        from scipy.linalg import toeplitz

        rng = np.random.default_rng(15)
        for _ in range(25):
            n = int(rng.integers(50, 200))
            m = int(rng.integers(1, 11))
            resid = colored_residuals(rng, n, 1)
            acf = sample_acov(resid, m)
            first_row = [float(acf.values[l][0, 0] / acf.values[0][0, 0])
                         for l in range(m + 1)]
            det = np.linalg.det(toeplitz(first_row))
            d_tilde = -n / (m + 1) * math.log(det)
            d = gv_stat(racf(acf, "hosking"), m, n)
            assert abs(d - (m + 1) * d_tilde) <= 1e-10 * abs(d)


class TestGvDecompose:
    def test_zero_racf(self):
        rs = synthetic_racf([np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))])
        dec = gv_decompose(rs, 2)
        assert dec.eta_sq == (0.0, 0.0)

    def test_one_series_gives_python_floats(self):
        rs = synthetic_racf([np.eye(2), 0.3 * np.eye(2), 0.1 * np.eye(2)])
        dec = gv_decompose(rs, 2)
        assert all(type(value) is float for value in dec.eta_sq + dec.step_dets)

    def test_scalar_eta(self):
        acf = sample_acov(np.array([1.0, -1.0, 1.0, -1.0]), 1)
        dec = gv_decompose(racf(acf, "hosking"), 1)
        assert abs(dec.eta_sq[0] - 0.5625) < 1e-14

    def test_product_identity(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            m = int(rng.integers(1, 9))
            n = int(rng.integers(max(60, 2 * (m + 1) * k), 260))
            rs = racf(sample_acov(colored_residuals(rng, n, k), m), "hosking")
            dec = gv_decompose(rs, m)
            prod = float(np.prod(dec.step_dets))
            assert abs(prod - math.exp(log_det_spd(block_toeplitz(rs, m)))) <= 1e-8 * prod
            assert all(0.0 <= e < 1.0 for e in dec.eta_sq)

    def test_nonpd_propagates(self):
        rs = synthetic_racf([np.eye(1), [[0.9]], [[1.5]]])
        with pytest.raises(NotPositiveDefinite):
            gv_decompose(rs, 2)

    def test_raises_exactly_when_gv_stat_is_infinite(self):
        # inflated sample autocorrelations turn indefinite at some order;
        # scalar ones put the last pivot just either side of the floor
        rng = np.random.default_rng(20)
        cases = []
        for _ in range(60):
            k = int(rng.integers(1, 4))
            m = int(rng.integers(1, 9))
            n = int(rng.integers(2 * (m + 1) * k, 2 * (m + 1) * k + 60))
            rs = racf(sample_acov(colored_residuals(rng, n, k), m), "hosking")
            scale = rng.uniform(0.5, 4.0)
            cases.append((synthetic_racf([np.eye(k)] + [scale * r for r in rs.values[1:]]), m))
        for pivot_sq in (0.5e-12, 2e-12):
            cases.append((synthetic_racf([np.eye(1), [[math.sqrt(1.0 - pivot_sq)]]]), 1))
        outcomes = set()
        for rs, m in cases:
            # the independent route: one dense log-determinant of the assembled matrix
            try:
                log_det_spd(block_toeplitz(rs, m))
                dense_fails = False
            except NotPositiveDefinite:
                dense_fails = True
            try:
                gv_decompose(rs, m)
                raised = False
            except NotPositiveDefinite:
                raised = True
            assert raised == dense_fails, (rs.k, m)
            assert (gv_stat(rs, m, 100) == math.inf) == raised, (rs.k, m)
            outcomes.add(raised)
        assert outcomes == {True, False}


class TestGvNearZero:
    @pytest.mark.parametrize("k", (1, 2, 3))
    @pytest.mark.parametrize("r", (1e-3, 1e-5, 1e-7))
    def test_closed_form(self, r, k):
        # T = [[I, r I], [r I, I]] has det (1 - r^2)^k, so gv = -n k log1p(-r^2);
        # a log of pivots already rounded near 1 misses it by up to 8e-4 relative at r = 1e-7
        n = 100
        log_det = k * math.log1p(-r * r)
        gv, eta_sq = -n * log_det, -math.expm1(log_det)
        rs = synthetic_racf([np.eye(k), r * np.eye(k)])
        stack = synthetic_racf([np.broadcast_to(np.eye(k), (5, k, k)),
                                np.broadcast_to(r * np.eye(k), (5, k, k))])
        got = [gv_stat(rs, 1, n), *_gv_row(rs, (1,), n), *_gv_row(stack, (1,), n)[:, 0]]
        assert len(got) == 7
        for value in got:
            assert abs(value - gv) <= 1e-14 * gv
        assert abs(gv_decompose(rs, 1).eta_sq[0] - eta_sq) <= 1e-14 * eta_sq


class TestGvFactorRoute:
    """The gv factor keeps ``cholesky_lower``'s pivot floor at a unit diagonal."""

    @pytest.mark.parametrize("c, refused", [(1 - 1e-13, True), (1 - 1e-11, False)])
    def test_pivot_floor_matches_cholesky_lower(self, c, refused):
        t = np.array([[1.0, c], [c, 1.0]])
        assert np.linalg.cholesky(t)[1, 1] > 0.0  # LAPACK factors both
        for route in (cholesky_lower, _unit_diagonal_cholesky):
            if refused:
                with pytest.raises(NotPositiveDefinite, match="pivot"):
                    route(t)
            else:
                assert np.array_equal(route(t), cholesky_lower(t))


class TestDeterminantEqualityAcrossModes:
    def test_hosking_vs_chitturi_blocks(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            k = int(rng.integers(1, 4))
            m = int(rng.integers(1, 7))
            n = int(rng.integers(max(60, 2 * (m + 1) * k), 220))
            acf = sample_acov(colored_residuals(rng, n, k), m)
            det_h = np.linalg.det(block_toeplitz(racf(acf, "hosking"), m))
            det_c = np.linalg.det(chitturi_block_toeplitz(racf(acf, "chitturi"), m))
            assert abs(det_h - det_c) <= 1e-8 * abs(det_h)


class TestResidualTransform:
    def test_identity_unchanged(self):
        rng = np.random.default_rng(18)
        resid = rng.standard_normal((20, 2))
        assert np.array_equal(residual_transform(resid, "identity"), resid)

    def test_square_centers(self):
        out = residual_transform(np.array([[1.0], [-2.0]]), "square")
        assert out.tolist() == [[-1.5], [1.5]]

    def test_abs_centers(self):
        out = residual_transform(np.array([[-3.0], [3.0]]), "abs")
        assert out.tolist() == [[0.0], [0.0]]

    def test_transformed_columns_have_zero_mean(self):
        rng = np.random.default_rng(19)
        resid = rng.standard_normal((50, 3))
        for kind in ("square", "abs"):
            out = residual_transform(resid, kind)
            assert np.abs(out.mean(axis=0)).max() < 1e-14

    @pytest.mark.parametrize("kind", ["identity", "square", "abs"])
    def test_a_1d_series_is_one_column(self, kind):
        e = np.random.default_rng(21).standard_normal(60)
        out = residual_transform(e, kind)
        assert out.shape == e.shape
        assert np.array_equal(out, residual_transform(e[:, None], kind)[:, 0])
        got = evaluate_statistics(e, STATISTICS, (1, 2, 5), kind)
        assert np.array_equal(got, evaluate_statistics(e[:, None], STATISTICS, (1, 2, 5), kind))


def _acov():
    return sample_acov(np.random.default_rng(20).standard_normal((80, 2)), 3)


def test_a_bool_lag_counts_as_one():
    acov = _acov()
    rs = racf(acov, "hosking")
    assert portmanteau_q(acov, True) == portmanteau_q(acov, 1)
    assert gv_stat(rs, True, 80) == gv_stat(rs, 1, 80)
    assert np.array_equal(block_toeplitz(rs, True), block_toeplitz(rs, 1))


@pytest.mark.parametrize("call, error, message", [
    (lambda: sample_acov(np.ones((80, 2)), 0), ValueError, "m must be at least 1"),
    (lambda: sample_acov(np.full((80, 2), np.nan), 2), DegenerateResiduals, "non-finite"),
    (lambda: portmanteau_q(_acov(), 2, "box"), ValueError, "variant must be one of"),
    (lambda: portmanteau_q(_acov(), 0), ValueError, r"m must be within 1\.\.3, got 0"),
    (lambda: portmanteau_q(_acov(), 4), ValueError, r"m must be within 1\.\.3, got 4"),
    (lambda: block_toeplitz(racf(_acov(), "hosking"), -1), ValueError, r"within 0\.\.3"),
    (lambda: block_toeplitz(racf(_acov(), "hosking"), 4), ValueError, r"within 0\.\.3"),
    (lambda: gv_stat(racf(_acov(), "li_mcleod"), 2, 80), ValueError, "gv requires hosking"),
    (lambda: gv_decompose(racf(_acov(), "chitturi"), 2), ValueError, "gv requires hosking"),
    (lambda: residual_transform(np.ones((5, 2)), "log"), ValueError, "kind must be one of"),
    (lambda: gv_stat(racf(_acov(), "hosking"), 2, -5), ValueError, "n_eff must be at least 1"),
    (lambda: gv_stat(racf(_acov(), "hosking"), 2, 0), ValueError, "n_eff must be at least 1"),
    (lambda: gv_stat(racf(_acov(), "hosking"), 2, 80.0), ValueError, "n_eff must be an integer"),
    (lambda: sample_acov(np.ones((80, 2)), 2.0), ValueError, "m must be an integer"),
    (lambda: portmanteau_q(_acov(), 2.0), ValueError, "m must be an integer"),
    (lambda: gv_stat(racf(_acov(), "hosking"), 2.0, 80), ValueError, "m must be an integer"),
    (lambda: gv_decompose(racf(_acov(), "hosking"), 2.0), ValueError, "m must be an integer"),
    (lambda: block_toeplitz(racf(_acov(), "hosking"), 1.5), ValueError, "m must be an integer"),
], ids=["acov-m0", "acov-nan", "q-variant", "q-m0", "q-m4", "toeplitz-m-1", "toeplitz-m4",
        "gv-li_mcleod", "decompose-chitturi", "transform-kind", "gv-n_eff-neg5", "gv-n_eff0",
        "gv-n_eff-float", "acov-m-float", "q-m-float", "gv-m-float", "decompose-m-float",
        "toeplitz-m-float"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
