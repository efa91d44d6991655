"""Invariances the statistics owe to the maths, checked on generated inputs.

With an intercept in the fit, a nonsingular linear map (and a shift) of the
series maps the residuals by the same matrix.  The hosking autocorrelations
then change by an orthogonal similarity, and Q's trace form not at all, so
gv and Q~ must not move.  A column permutation is one such map.  A shift
alone changes them only by rounding, and the Monte-Carlo null relies on it:
it simulates its replicates as deviations from the fitted mean.  The whole
Monte-Carlo test inherits that invariance wherever the map carries each
replicate path along with the series: bootstrap draws under any nonsingular
map, Gaussian draws under a lower-triangular one with a positive diagonal.
Its exceedance counts then do not move, whatever the replicate streams.

The simulator's doubling scan solves the same VARMA recursion as the
time-step loop, so on any stationary model and any stack of paths the two
agree to rounding.

The generalized variance factors its block-Toeplitz stacks without
``cholesky_lower``'s general-input checks.  Those matrices are exactly
symmetric with a unit diagonal, so the short route gives the same factor and
refuses the same stacks.  The block-Toeplitz matrix of any residuals is the
Gram matrix Z'Z/n of their hosking-whitened, zero-padded lag matrix Z, so it
is positive semi-definite, and singular only if Z loses column rank: that is
why a replicate's gv cannot fail unless its residuals do.

A chunk's replicates are seeded in one pass; their generators hold
exactly the states ``derive_seed`` gives, for any master seed and index.  A
study's report does not depend on its worker count, each of its cells counts
the rejections of its trials one by one, and a CSV table restores its float64
values exactly.

Every test draws its cases with ``derandomize=True``, so each run of the
suite checks the same inputs.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vardiag import (CATALOG_NAMES, McConfig, NotPositiveDefinite, ab_params, approx_pvalue,
                     block_toeplitz, catalog, cholesky_lower, derive_key, derive_seed,
                     evaluate_statistics, fit_var, mc_pvalues, power_study, racf, sample_acov,
                     simulate, size_study)
from vardiag.csvio import CsvTable, read_csv, write_csv
from vardiag.diagnostics import _assemble_block_toeplitz, _unit_diagonal_cholesky
from vardiag.montecarlo import _seeded
from vardiag.varma import innovation_recursion, polynomial_radius

from reference import loop_recursion

STATS = ("gv", "q_modified")


@st.composite
def fitted_cases(draw):
    k = draw(st.integers(1, 3))
    p = draw(st.integers(0, 2))
    n = draw(st.integers(40, 120))
    longest = (n - p - 1) // k - 1
    lags = draw(st.lists(st.integers(1, min(longest, 8)), min_size=1, max_size=3, unique=True))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n + 1, k))
    series = noise[1:] + 0.5 * noise[:-1] + rng.standard_normal(k)
    return series, p, tuple(sorted(lags)), rng


def _scores(series, p, lags):
    return evaluate_statistics(fit_var(series, p).residuals, STATS, lags)


def _well_conditioned(rng, k):
    q1, _ = np.linalg.qr(rng.standard_normal((k, k)))
    q2, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return q1 @ np.diag(rng.uniform(0.2, 5.0, k)) @ q2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fitted_cases())
def test_linear_map_and_shift_leave_statistics_unchanged(case):
    series, p, lags, rng = case
    k = series.shape[1]
    mapped = series @ _well_conditioned(rng, k).T + rng.uniform(-10.0, 10.0, k)
    np.testing.assert_allclose(_scores(mapped, p, lags), _scores(series, p, lags),
                               rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("innovations", ["gaussian", "bootstrap"])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from(("phi1", "phi3", "model1", "model3")), st.integers(0, 2 ** 32 - 1))
def test_monte_carlo_counts_are_unchanged_by_an_affine_map(innovations, name, seed):
    # Bootstrap draws map by any nonsingular A; Gaussian ones by A only if A is lower
    # triangular with a positive diagonal, since then chol(A S A') = A chol(S).
    rng = np.random.default_rng(seed)
    series = simulate(catalog(name), 200, rng)
    a = _well_conditioned(rng, 2)
    if innovations == "gaussian":
        a = np.tril(a, -1) + np.diag(rng.uniform(0.2, 5.0, 2))
    config = McConfig(master_seed=seed, innovations=innovations, lags=(2, 5, 10))
    _, observed, _, exceed, nonpd = mc_pvalues(series, 1, config, STATS)
    _, mapped, _, mapped_exceed, mapped_nonpd = mc_pvalues(
        series @ a.T + rng.uniform(-10.0, 10.0, 2), 1, config, STATS)
    np.testing.assert_allclose(mapped, observed, rtol=1e-7)
    # counts compare exactly: no replicate lies within rounding of its observed statistic
    assert mapped_exceed.tolist() == exceed.tolist()
    assert mapped_nonpd.tolist() == nonpd.tolist()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fitted_cases())
def test_level_shift_leaves_statistics_unchanged_to_rounding(case):
    series, p, lags, rng = case
    # a level of the series' own scale
    shift = rng.uniform(-1.0, 1.0, series.shape[1]) * np.abs(series).max()
    np.testing.assert_allclose(_scores(series + shift, p, lags), _scores(series, p, lags),
                               rtol=1e-9, atol=0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(fitted_cases())
def test_column_permutation_leaves_statistics_unchanged(case):
    series, p, lags, rng = case
    permuted = series[:, rng.permutation(series.shape[1])]
    np.testing.assert_allclose(_scores(permuted, p, lags), _scores(series, p, lags),
                               rtol=1e-9, atol=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(fitted_cases(), st.integers(2, 6), st.sampled_from(("identity", "square", "abs")),
       st.booleans())
def test_random_stack_scores_as_its_rows(case, batch, transform, with_intercept):
    series, p, lags, rng = case
    stack = series + rng.standard_normal((batch,) + series.shape)
    stacked = evaluate_statistics(fit_var(stack, p, with_intercept).residuals,
                                  STATS + ("q_classic",), lags, transform)
    for got, row in zip(stacked, stack):
        expect = evaluate_statistics(fit_var(row, p, with_intercept).residuals,
                                     STATS + ("q_classic",), lags, transform)
        # each statistic's row against its own scale, so values near zero need no own bound
        scale = np.abs(expect).max(axis=-1)
        assert np.all(np.abs(got - expect).max(axis=-1) <= 1e-12 * scale)


@st.composite
def hosking_stacks(draw):
    """Hosking autocorrelations R_0..R_m of a stack of series; one member's lags may be inflated."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 8))
    n = draw(st.integers((m + 1) * k + 1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rs = racf(sample_acov(rng.standard_normal((draw(st.integers(1, 6)), n, k)), m), "hosking")
    values = np.stack(rs.values, axis=-3)
    # autocorrelations scaled past their sample values may leave the PD cone
    values[draw(st.integers(0, len(values) - 1)), 1:] *= draw(st.floats(1.0, 4.0))
    return values


def _factor_or_none(route, t):
    try:
        return route(t)
    except NotPositiveDefinite:
        return None


# the first member is PD; the second's order-3 matrix is indefinite
@example(np.array([[[[1.0]], [[0.3]], [[0.1]], [[0.05]], [[0.02]]],
                   [[[1.0]], [[0.5]], [[0.25]], [[1.5]], [[0.1]]]]))
@settings(max_examples=80, deadline=None, derandomize=True)
@given(hosking_stacks())
def test_gv_factor_route_equals_cholesky_lower(values):
    t = _assemble_block_toeplitz(values)
    assert np.array_equal(t, np.swapaxes(t, -1, -2))
    assert (np.diagonal(t, axis1=-2, axis2=-1) == 1.0).all()
    expect = _factor_or_none(cholesky_lower, t)
    got = _factor_or_none(_unit_diagonal_cholesky, t)
    assert (got is None) == (expect is None)
    if expect is not None:
        assert np.array_equal(got, expect)


@st.composite
def guard_limit_residuals(draw):
    """A stack of residual series with n_eff 1 to 4 rows above the lag guard for m, and m."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 11))
    n = (m + 1) * k + draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mix = rng.standard_normal((k, k)) + 2.0 * np.eye(k)
    return rng.standard_normal((draw(st.integers(1, 3)), n, k)) @ mix, m


@settings(max_examples=80, deadline=None, derandomize=True)
@given(guard_limit_residuals())
def test_block_toeplitz_is_the_gram_matrix_of_the_padded_lag_matrix(case):
    e, m = case
    batch, n, k = e.shape
    acov = sample_acov(e, m)
    t = block_toeplitz(racf(acov, "hosking"), m)
    # the hosking whitening of each series: rows e_t L, where L L' is the inverse lag-0 covariance
    w = e @ np.linalg.cholesky(np.linalg.inv(acov.values[0]))
    # block column c holds w in rows c..c+n-1 and zeros elsewhere
    z = np.zeros((batch, n + m, (m + 1) * k))
    for c in range(m + 1):
        z[:, c:c + n, c * k:(c + 1) * k] = w
    gram = np.swapaxes(z, -1, -2) @ z / n
    assert np.abs(t - gram).max() <= 1e-12 * np.abs(gram).max()
    # so T_m is positive semi-definite for any residuals, and singular only if z loses rank
    assert np.linalg.eigvalsh(t).min() >= -1e-12


@st.composite
def varma_paths(draw):
    k = draw(st.integers(1, 3))
    p = draw(st.integers(0, 3))
    q = draw(st.integers(0, 2))
    steps = draw(st.integers(1, 400))
    stack = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    phi = rng.uniform(-1.0, 1.0, (p, k, k))
    # scaling phi_i by c^i scales every companion eigenvalue by c
    radius = polynomial_radius(phi)[1]
    if radius > 0.95:
        phi *= (0.95 / radius) ** np.arange(1, p + 1)[:, None, None]
    theta = rng.uniform(-1.0, 1.0, (q, k, k))
    return tuple(phi), tuple(theta), rng.standard_normal(stack + (steps, k))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(varma_paths())
def test_scan_equals_the_time_step_loop(case):
    phi, theta, innovations = case
    got = innovation_recursion(phi, theta, innovations)
    expect = loop_recursion(phi, theta, innovations)
    assert got.shape == expect.shape
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(-(2 ** 63), 2 ** 64 - 1), st.integers(0, 2 ** 48), st.integers(1, 40))
def test_chunk_seeding_equals_derive_seed(master, start, width):
    for index, rng in zip(range(start, start + width), _seeded(master, start, start + width)):
        expect = derive_seed(master, index)
        assert rng.bit_generator.state == expect.bit_generator.state
        assert rng.standard_normal(3).tobytes() == expect.standard_normal(3).tobytes()


@st.composite
def study_configs(draw):
    study, names = draw(st.sampled_from([
        (size_study, ("phi1", "phi2", "phi3", "phi4")),
        (power_study, tuple(f"model{i}" for i in range(1, 9)))]))
    models = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    ns = draw(st.lists(st.integers(30, 80), min_size=1, max_size=2, unique=True))
    lags = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True))
    return study, dict(models=tuple(models), ns=tuple(ns), lags=tuple(sorted(lags)),
                       trials=draw(st.integers(2, 3)), replicates=19,
                       master_seed=draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(study_configs())
def test_study_report_does_not_depend_on_workers(config):
    study, kwargs = config
    assert study(workers=1, **kwargs).to_json() == study(workers=2, **kwargs).to_json()


@st.composite
def tabulated_studies(draw):
    if draw(st.booleans()):
        names = ("phi1", "phi2", "phi3", "phi4")
        study, extra = size_study, dict(method=draw(st.sampled_from(("mc", "chi2", "both"))))
    else:
        names = tuple(f"model{i}" for i in range(1, 9))
        study, extra = power_study, dict(fit_order=draw(st.integers(0, 2)))
    models = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    ns = draw(st.lists(st.integers(16, 60), min_size=1, max_size=2, unique=True))
    lags = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True))
    kwargs = dict(models=tuple(models), ns=tuple(ns), lags=tuple(sorted(lags)),
                  trials=draw(st.integers(1, 4)), replicates=19,
                  master_seed=draw(st.integers(0, 2 ** 32 - 1)), **extra)
    return study, kwargs


def _count_trial_by_trial(result, order):
    """Every cell's rejection count, rebuilt from the engine one trial at a time."""
    counts = {}
    for name in result.models:
        model, code = catalog(name), CATALOG_NAMES.index(name)
        for n in result.ns:
            lags = tuple(m for m in result.lags if n - order > (m + 1) * model.k)
            for trial in range(result.trials * bool(lags)):
                words = (result.master_seed, code, n, trial)
                series = simulate(model, n, derive_seed(derive_key(*words), 0))
                config = McConfig(replicates=result.replicates,
                                  master_seed=derive_key(*words, 1), lags=lags)
                pvalues = {}
                if result.kind == "power-study":
                    _, _, pvals, _, _ = mc_pvalues(series, order, config,
                                                   statistics=("gv", "q_modified"))
                    pvalues.update(gv=pvals[0], q_modified=pvals[1])
                elif "mc" in result.columns:
                    pvalues["mc"] = mc_pvalues(series, order, config)[2][0]
                if "chi2" in result.columns:
                    gv = evaluate_statistics(fit_var(series, order).residuals, ("gv",), lags)[0]
                    pvalues["chi2"] = [approx_pvalue(float(stat), ab_params(model.k, m, order, 0))
                                       if m > order else None for stat, m in zip(gv, lags)]
                for column, row in pvalues.items():
                    for lag, p in zip(lags, row):
                        if p is not None:
                            key = (name, n, lag, column)
                            counts[key] = counts.get(key, 0) + int(p <= 0.05)
    return counts


@settings(max_examples=20, deadline=None, derandomize=True)
@given(tabulated_studies())
# a refused lag, and lag 1 = order with no chi2 cell
@example((size_study, dict(models=("phi3", "phi4"), ns=(16, 40), lags=(1, 3, 8), trials=4,
                           replicates=19, master_seed=3, method="both")))
@example((power_study, dict(models=("model3", "model8"), ns=(24, 60), lags=(2, 8), trials=3,
                            replicates=19, master_seed=8, fit_order=2)))
def test_each_cell_counts_its_trials_one_by_one(case):
    study, kwargs = case
    result = study(**kwargs)
    cells = {(c.model, c.n, c.lag, c.column): c.rejections for c in result.cells}
    assert cells == _count_trial_by_trial(result, kwargs.get("fit_order", 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_csv_write_then_read_is_exact(values):
    header = tuple(f"z{i + 1}" for i in range(values.shape[1]))
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "table.csv"
        write_csv(path, CsvTable(header, values))
        table = read_csv(path)
    assert table.header == header
    assert table.values.tobytes() == values.tobytes()
