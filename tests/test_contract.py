"""One table of the public input contract.

Each row names a public function, gives its arguments and the expected
outcome: a value, or an exception class with a fragment of its message.
Counts, lags and seeds are integers (a bool counts as 0 or 1, and a seed word
may be an integer array), probabilities lie in [0, 1] and are not NaN, the
approximation's scale and df are positive and finite, a series is 1-D or
``(..., n, k)`` with at least one row and one column, and a matrix has at
least one row.  The one-series statistics refuse a stack; ``implied_mean``
takes a stacked fit and gives each member its own result bit for bit.  A row
whose arguments cannot be built without the error under test gives a function
that builds them.  Every row runs in a fresh working directory.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import vardiag as vd

_RNG = np.random.default_rng(31)
_ACF = vd.sample_acov(_RNG.standard_normal((80, 2)), 3)
_RACF = vd.racf(_ACF)
_ACF_STACK = vd.sample_acov(_RNG.standard_normal((3, 80, 2)), 3)
_SPD_STACK = np.stack([np.eye(2), [[2.0, 0.5], [0.5, 1.0]]])
_SERIES = vd.simulate(vd.catalog("phi1"), 60, np.random.default_rng(5)) + [1.0, -2.0]
_SERIES_STACK = np.stack([_SERIES, _SERIES[::-1] * 0.5])
_NO_ROWS, _NO_COLUMNS = np.zeros((0, 2)), np.zeros((30, 0))
_NO_MATRIX = np.zeros((0, 0))
_SEED_WORDS = np.arange(3, dtype=np.uint64)


def _empty_series(name):
    """The error of a series with no rows or no columns, naming the argument ``name``."""
    return ValueError, f"{name} must be a 1-D series or an .* at least one row and one column"


def _csv_file(text):
    """Arguments naming a file ``input.csv`` of ``text``, written when they are built."""
    def args():
        Path("input.csv").write_text(text)
        return ("input.csv",)
    return args


def _implied_mean_row(order, with_intercept):
    """A row for the stacked fit of ``_SERIES_STACK``: its members' own means, stacked."""
    members = [vd.implied_mean(vd.fit_var(s, order, with_intercept)) for s in _SERIES_STACK]
    return pytest.param("implied_mean", (vd.fit_var(_SERIES_STACK, order, with_intercept),),
                        np.stack(members), id=f"implied_mean-stack-p{order}-{with_intercept}")


ROWS = [
    # the one-series statistics refuse a stack and point to the stacked route
    pytest.param("portmanteau_q", (_ACF_STACK, 3), (ValueError, "evaluate_statistics"),
                 id="portmanteau_q-stack"),
    pytest.param("portmanteau_q", (_ACF_STACK, 3, "modified"),
                 (ValueError, "portmanteau_q scores one series"),
                 id="portmanteau_q-modified-stack"),
    pytest.param("log_det_spd", (_SPD_STACK,), (ValueError, "cholesky_lower takes a stack"),
                 id="log_det_spd-stack"),
    # counts are integers; NaN is no count
    pytest.param("p_hat", (math.nan, 10), (ValueError, "exceedances must be integers"),
                 id="p_hat-nan"),
    pytest.param("p_hat", (2.5, 10), (ValueError, "exceedances must be integers"),
                 id="p_hat-float-count"),
    pytest.param("p_hat", ([1.5, 2], 10), (ValueError, "exceedances must be integers"),
                 id="p_hat-float-counts"),
    pytest.param("p_hat", (3, 10.5), (ValueError, "n_reps must be an integer"),
                 id="p_hat-float-reps"),
    pytest.param("p_hat", (3, 10.0), (ValueError, "n_reps must be an integer"),
                 id="p_hat-integral-float-reps"),
    pytest.param("margin_of_error", (0.5, 2.5), (ValueError, "n_reps must be an integer"),
                 id="margin_of_error-float-reps"),
    pytest.param("ab_params", (2, 2.5, 1, 0), (ValueError, "m must be an integer"),
                 id="ab_params-float-lag"),
    pytest.param("ab_params", (-2, 5, 1, 0), (ValueError, "k must be at least 0"),
                 id="ab_params-negative-k"),
    pytest.param("ab_params", (2, 5, -1, 0), (ValueError, "p must be at least 0"),
                 id="ab_params-negative-order"),
    pytest.param("q_pvalue_asymptotic", (5.0, 2, 5.5, 1, 0),
                 (ValueError, "m must be an integer"), id="q_pvalue_asymptotic-float-lag"),
    pytest.param("q_pvalue_asymptotic", (5.0, -2, 5, 1, 0),
                 (ValueError, "k must be at least 0"), id="q_pvalue_asymptotic-negative-k"),
    pytest.param("build_design", (vd.catalog("phi1"), 2.5), (ValueError, "m must be an integer"),
                 id="build_design-float-lag"),
    pytest.param("build_design", (vd.catalog("phi1"), 3.0), (ValueError, "m must be an integer"),
                 id="build_design-integral-float-lag"),
    pytest.param("build_design", (vd.catalog("phi1"), 1), (vd.DegenerateDf, "need m > p"),
                 id="build_design-lag-at-order"),
    # the approximation's scale and df are positive and finite
    pytest.param("AbParams", (math.nan, 2.0), (vd.DegenerateDf, "positive and finite"),
                 id="AbParams-nan-scale"),
    pytest.param("AbParams", (math.inf, 2.0), (vd.DegenerateDf, "positive and finite"),
                 id="AbParams-infinite-scale"),
    pytest.param("AbParams", (2.0, math.nan), (vd.DegenerateDf, "positive and finite"),
                 id="AbParams-nan-df"),
    pytest.param("AbParams", (2.0, math.inf), (vd.DegenerateDf, "positive and finite"),
                 id="AbParams-infinite-df"),
    pytest.param("ab_params_from_traces", (vd.TraceSums(math.nan, 1.0),),
                 (vd.DegenerateDf, "positive and finite"), id="ab_params_from_traces-nan"),
    pytest.param("approx_pvalue", lambda: (3.0, vd.AbParams(math.nan, 2.0)),
                 (vd.DegenerateDf, "positive and finite"), id="approx_pvalue-nan-scale"),
    # a scalar is no series, whatever the transform
    pytest.param("residual_transform", (np.float64(1.0), "square"),
                 (ValueError, "residuals must be a 1-D series"),
                 id="residual_transform-scalar-square"),
    pytest.param("residual_transform", (np.float64(1.0), "identity"),
                 (ValueError, "residuals must be a 1-D series"),
                 id="residual_transform-scalar-identity"),
    pytest.param("sample_acov", (np.float64(1.0), 1),
                 (ValueError, "residuals must be a 1-D series"), id="sample_acov-scalar"),
    # a series has at least one row and one column, on every route that reads one
    pytest.param("fit_var", (_NO_ROWS, 1), _empty_series("series"), id="fit_var-no-rows"),
    pytest.param("fit_var", (_NO_COLUMNS, 1), _empty_series("series"),
                 id="fit_var-no-columns"),
    pytest.param("residual_transform", (_NO_ROWS, "square"), _empty_series("residuals"),
                 id="residual_transform-no-rows"),
    pytest.param("residual_transform", (_NO_COLUMNS, "identity"), _empty_series("residuals"),
                 id="residual_transform-no-columns"),
    pytest.param("sample_acov", (_NO_ROWS, 1), _empty_series("residuals"),
                 id="sample_acov-no-rows"),
    pytest.param("sample_acov", (np.zeros(0), 1), _empty_series("residuals"),
                 id="sample_acov-empty-1d"),
    pytest.param("sample_acov", (_NO_COLUMNS, 1), _empty_series("residuals"),
                 id="sample_acov-no-columns"),
    pytest.param("evaluate_statistics", (_NO_COLUMNS, ("gv",), (1,)),
                 _empty_series("residuals"), id="evaluate_statistics-no-columns"),
    pytest.param("mc_pvalues", (_NO_COLUMNS, 1, vd.McConfig()), _empty_series("series"),
                 id="mc_pvalues-no-columns"),
    pytest.param("mc_test", (_NO_COLUMNS, 1, vd.McConfig()), _empty_series("series"),
                 id="mc_test-no-columns"),
    # a matrix has at least one row; a stack of no matrices is an empty stack
    pytest.param("cholesky_lower", (_NO_MATRIX,),
                 (vd.DimensionMismatch, "a must be square, with at least one row"),
                 id="cholesky_lower-empty"),
    pytest.param("spd_inverse", (_NO_MATRIX,),
                 (vd.DimensionMismatch, "a must be square, with at least one row"),
                 id="spd_inverse-empty"),
    pytest.param("log_det_spd", (_NO_MATRIX,),
                 (vd.DimensionMismatch, "a must be square, with at least one row"),
                 id="log_det_spd-empty"),
    pytest.param("cholesky_lower", (np.ones((2, 3)),), (vd.DimensionMismatch, "a must be square"),
                 id="cholesky_lower-not-square"),
    pytest.param("cholesky_lower", (np.zeros((0, 2, 2)),), np.zeros((0, 2, 2)),
                 id="cholesky_lower-empty-stack"),
    pytest.param("spd_inverse", (np.zeros((0, 2, 2)),), np.zeros((0, 2, 2)),
                 id="spd_inverse-empty-stack"),
    pytest.param("VarmaModel", ((), (), _NO_MATRIX),
                 (vd.DimensionMismatch, "innov_cov must be square, with at least one row"),
                 id="VarmaModel-empty-innov_cov"),
    # seeds and their words are integers; an integer array gives one key per entry
    pytest.param("derive_key", (1.5, 2), (ValueError, "master must be an integer, got 1.5"),
                 id="derive_key-float-master"),
    pytest.param("derive_key", (1, 2.5), (ValueError, "word must be an integer, got 2.5"),
                 id="derive_key-float-word"),
    pytest.param("derive_key", (1, np.arange(3.0)), (ValueError, "word must be an integer"),
                 id="derive_key-float-array-word"),
    pytest.param("derive_seed", (1, 2.5), (ValueError, "word must be an integer, got 2.5"),
                 id="derive_seed-float-index"),
    pytest.param("derive_key", (np.int64(1), np.int64(2)), vd.derive_key(1, 2),
                 id="derive_key-numpy-integers"),
    pytest.param("derive_key", (True, False), vd.derive_key(1, 0), id="derive_key-bools"),
    pytest.param("derive_key", (1, _SEED_WORDS, 0),
                 np.array([vd.derive_key(1, i, 0) for i in range(3)], dtype=np.uint64),
                 id="derive_key-uint64-words"),
    pytest.param("derive_key", (1, np.arange(3), 0), vd.derive_key(1, _SEED_WORDS, 0),
                 id="derive_key-int64-words"),
    # an input file names its columns
    pytest.param("read_csv", _csv_file("\n" * 11),
                 (vd.ParseError, "input.csv: row 1: the header row has no column names"),
                 id="read_csv-blank-lines"),
    pytest.param("read_csv", _csv_file(",\n1,2\n"),
                 (vd.ParseError, "input.csv: row 1: the header row has no column names"),
                 id="read_csv-unnamed-columns"),
    # a study's sample sizes are a nonempty list, not a string
    pytest.param("size_study", (("phi1",), "100"),
                 (ValueError, "ns must be a nonempty list of distinct sample sizes, got '100'"),
                 id="size_study-string-ns"),
    pytest.param("power_study", (("model1",), "100"),
                 (ValueError, "ns must be a nonempty list of distinct sample sizes, got '100'"),
                 id="power_study-string-ns"),
    pytest.param("size_study", (("phi1",), ()),
                 (ValueError, r"ns must be a nonempty list of distinct sample sizes, got \(\)"),
                 id="size_study-empty-ns"),
    # the other names that take a count or a lag
    pytest.param("fit_var", (_SERIES, 1.5), (ValueError, "order must be an integer"),
                 id="fit_var-float-order"),
    pytest.param("mc_pvalues", (_SERIES, 1.5, vd.McConfig()),
                 (ValueError, "order must be an integer"), id="mc_pvalues-float-order"),
    pytest.param("mc_test", (_SERIES, 1.5, vd.McConfig()),
                 (ValueError, "order must be an integer"), id="mc_test-float-order"),
    pytest.param("McConfig", (2.5,), (ValueError, "replicates must be an integer"),
                 id="McConfig-float-replicates"),
    pytest.param("evaluate_statistics", (_SERIES, ("gv",), (2.5,)),
                 (ValueError, "lags must be nonempty ascending positive integers"),
                 id="evaluate_statistics-float-lag"),
    pytest.param("simulate", (vd.catalog("phi1"), 2.5, np.random.default_rng(0)),
                 (ValueError, "n must be an integer"), id="simulate-float-n"),
    pytest.param("ma_weights", (vd.catalog("phi1"), 2.5),
                 (ValueError, "count must be an integer"), id="ma_weights-float-count"),
    pytest.param("inverse_ma_weights", (vd.catalog("phi1"), 2.5),
                 (ValueError, "count must be an integer"), id="inverse_ma_weights-float-count"),
    pytest.param("portmanteau_q", (_ACF, 2.5), (ValueError, "m must be an integer"),
                 id="portmanteau_q-float-lag"),
    pytest.param("block_toeplitz", (_RACF, 2.5), (ValueError, "m must be an integer"),
                 id="block_toeplitz-float-lag"),
    pytest.param("gv_decompose", (_RACF, 2.5), (ValueError, "m must be an integer"),
                 id="gv_decompose-float-lag"),
    pytest.param("gv_stat", (_RACF, 2.5, 80), (ValueError, "m must be an integer"),
                 id="gv_stat-float-lag"),
    pytest.param("gv_stat", (_RACF, 2, 2.5), (ValueError, "n_eff must be an integer"),
                 id="gv_stat-float-n_eff"),
    pytest.param("size_study", (("phi1",), (100,), (5,), 2.5),
                 (ValueError, "trials must be an integer"), id="size_study-float-trials"),
    pytest.param("chisq_sf", (3.0, math.nan), (ValueError, "df must be positive and finite"),
                 id="chisq_sf-nan-df"),
]
ROWS += [_implied_mean_row(order, with_intercept)
         for order in (0, 1, 2) for with_intercept in (True, False)]


@pytest.mark.parametrize("name, args, expected", ROWS)
def test_public_contract(name, args, expected, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    call = getattr(vd, name)
    if isinstance(expected, tuple):
        error, fragment = expected
        with pytest.raises(error, match=fragment):
            call(*(args() if callable(args) else args))
    else:
        got, expected = np.asarray(call(*args)), np.asarray(expected)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
