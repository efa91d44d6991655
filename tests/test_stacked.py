"""Stacks of series give, member by member, the numbers of one series at a time.

The Monte-Carlo engine refits and scores a chunk of replicates as one stack,
so every stack-aware function is checked here against its 2-D call on each
member.
"""

import tracemalloc

import numpy as np
import pytest

import vardiag.montecarlo as mc
from vardiag import (
    Autocorrelations,
    Autocovariances,
    McConfig,
    NotPositiveDefinite,
    block_toeplitz,
    catalog,
    derive_seed,
    evaluate_statistics,
    fit_var,
    gv_decompose,
    mc_test,
    racf,
    residual_transform,
    sample_acov,
    simulate,
)
from vardiag.diagnostics import _q_lag_terms

RTOL = 1e-12
TRANSFORMS = ("identity", "square", "abs")


def _stack(batch=5, n=90, k=2, seed=0):
    """Autocorrelated series with distinct scales, one per member of the stack."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((batch, n + 1, k)) * rng.uniform(0.5, 3.0, (batch, 1, k))
    return noise[:, 1:] + 0.4 * noise[:, :-1] + rng.standard_normal((batch, 1, k))


def _assert_rows(stacked, rows):
    """Each member of ``stacked`` equals its row to RTOL, relative to the row's scale."""
    stacked = np.asarray(stacked)
    assert stacked.shape[0] == len(rows)
    for got, expect in zip(stacked, rows):
        expect = np.asarray(expect)
        assert got.shape == expect.shape
        assert np.abs(got - expect).max() <= RTOL * np.abs(expect).max()


@pytest.mark.parametrize("with_intercept", [True, False])
@pytest.mark.parametrize("p", [0, 1, 2])
class TestFitAndScore:
    def test_fit_var(self, p, with_intercept):
        series = _stack()
        fit = fit_var(series, p, with_intercept)
        rows = [fit_var(row, p, with_intercept) for row in series]
        _assert_rows(fit.residuals, [r.residuals for r in rows])
        _assert_rows(fit.gamma0_hat, [r.gamma0_hat for r in rows])
        if with_intercept:
            _assert_rows(fit.intercept, [r.intercept for r in rows])
        else:
            assert not fit.intercept.any() and fit.intercept.shape == (5, 2)
        assert len(fit.phi_hat) == p
        for lag in range(p):
            _assert_rows(fit.phi_hat[lag], [r.phi_hat[lag] for r in rows])
        assert (fit.n_eff, fit.k) == (rows[0].n_eff, rows[0].k)

    @pytest.mark.parametrize("transform", TRANSFORMS)
    def test_statistics_and_their_layers(self, p, with_intercept, transform):
        resid = fit_var(_stack(), p, with_intercept).residuals
        m = 6
        work = residual_transform(resid, transform)
        _assert_rows(work, [residual_transform(r, transform) for r in resid])
        acf = sample_acov(work, m)
        row_acfs = [sample_acov(w, m) for w in work]
        assert acf.n_eff == row_acfs[0].n_eff and acf.k == 2
        for lag in range(m + 1):
            _assert_rows(acf.values[lag], [a.values[lag] for a in row_acfs])
        _assert_rows(_q_lag_terms(acf, m), [_q_lag_terms(a, m) for a in row_acfs])
        for mode in ("hosking", "li_mcleod", "chitturi"):
            rs = racf(acf, mode)
            row_rs = [racf(a, mode) for a in row_acfs]
            for lag in range(m + 1):
                _assert_rows(rs.values[lag], [r.values[lag] for r in row_rs])
        rs = racf(acf, "hosking")
        row_rs = [racf(a, "hosking") for a in row_acfs]
        _assert_rows(block_toeplitz(rs, m), [block_toeplitz(r, m) for r in row_rs])
        dec = gv_decompose(rs, m)
        row_decs = [gv_decompose(r, m) for r in row_rs]
        _assert_rows(np.stack(dec.step_dets, axis=-1), [d.step_dets for d in row_decs])
        _assert_rows(np.stack(dec.eta_sq, axis=-1), [d.eta_sq for d in row_decs])
        stats = ("gv", "q_classic", "q_modified")
        lags = (1, 3, 6)
        _assert_rows(evaluate_statistics(resid, stats, lags, transform),
                     [evaluate_statistics(r, stats, lags, transform) for r in resid])


def test_any_leading_axes():
    resid = _stack(batch=6).reshape(2, 3, 90, 2)
    out = evaluate_statistics(resid, ("gv", "q_modified"), (2, 4))
    assert out.shape == (2, 3, 2, 2)
    _assert_rows(out.reshape(6, 2, 2),
                 [evaluate_statistics(r, ("gv", "q_modified"), (2, 4))
                  for r in resid.reshape(6, 90, 2)])


@pytest.mark.parametrize("kind", ["square", "abs"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_transform_is_bitwise_per_series(kind, k):
    # 203 rows, not a multiple of the 8 that numpy's pairwise sums unroll
    resid = _stack(batch=6, n=203, k=k).reshape(2, 3, 203, k)
    got = residual_transform(resid, kind)
    assert got.shape == resid.shape and got.flags.c_contiguous
    for member, series in zip(got.reshape(6, 203, k), resid.reshape(6, 203, k)):
        assert member.tobytes() == residual_transform(series, kind).tobytes()


def test_lags_are_views_of_one_array():
    acov = sample_acov(_stack(batch=6).reshape(2, 3, 90, 2), 4)
    for lags in (acov, *(racf(acov, mode) for mode in ("hosking", "li_mcleod", "chitturi"))):
        assert lags._stack.shape == (2, 3, 5, 2, 2) and (lags.k, lags.max_lag) == (2, 4)
        assert len(lags.values) == 5
        for lag, value in enumerate(lags.values):
            assert np.shares_memory(value, lags._stack)
            assert np.array_equal(value, lags._stack[..., lag, :, :])
    # built from the lags' matrices, the array is their stack
    rebuilt = Autocovariances(tuple(v.copy() for v in acov.values), acov.n_eff)
    assert np.array_equal(rebuilt._stack, acov._stack)
    assert all(np.shares_memory(v, rebuilt._stack) for v in rebuilt.values)


def test_gv_factors_in_row_slices():
    # at m = 30, k = 2 a slice holds 8 of the 11 members, so there are two slices
    resid = _stack(batch=11, n=200)
    rs = racf(sample_acov(resid, 30), "hosking")
    dec = gv_decompose(rs, 30)
    rows = [gv_decompose(racf(sample_acov(r, 30), "hosking"), 30) for r in resid]
    _assert_rows(np.stack(dec.step_dets, axis=-1), [d.step_dets for d in rows])


def test_stack_with_an_indefinite_member_raises():
    # member 1's order-3 matrix is indefinite; alone, it scores +inf from lag 3 on
    good = (1.0, 0.3, 0.1, 0.05, 0.02)
    bad = (1.0, 0.5, 0.25, 1.5, 0.1)
    values = tuple(np.array([[[g]], [[b]]]) for g, b in zip(good, bad))
    acov = Autocovariances(values, 100)
    rs = Autocorrelations("hosking", values, acov)
    with pytest.raises(NotPositiveDefinite):
        gv_decompose(rs, 4)
    with pytest.raises(NotPositiveDefinite):
        mc._gv_row(rs, (1, 2, 3, 4), 100)
    alone = Autocorrelations("hosking", tuple(np.array([[b]]) for b in bad), acov)
    assert np.isinf(mc._gv_row(alone, (1, 2, 3, 4), 100)[2:]).all()


def test_sliced_factor_bounds_memory():
    # Factoring all 32 members at once peaked at 2.3 MiB; slices of 8 peak at 0.9 MiB.
    data = simulate(catalog("phi1"), 200, derive_seed(42, 0))
    config = McConfig(replicates=199, master_seed=7, lags=(30,))
    mc_test(data, 1, config)
    tracemalloc.start()
    try:
        mc_test(data, 1, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20
