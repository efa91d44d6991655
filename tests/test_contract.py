"""One table of the public input contract.

Each row names a public function, gives its arguments and the expected
outcome: a value, or an exception class with a fragment of its message.
Counts and lags are integers (a bool counts as 0 or 1), probabilities lie in
[0, 1] and are not NaN, the approximation's scale and df are positive and
finite, and a series is 1-D or ``(..., n, k)``.  The one-series statistics
refuse a stack; ``implied_mean`` takes a stacked fit and gives each member its
own result bit for bit.  A row whose arguments cannot be built without the
error under test gives a function that builds them.
"""

import math

import numpy as np
import pytest

import vardiag as vd

_RNG = np.random.default_rng(31)
_ACF_STACK = vd.sample_acov(_RNG.standard_normal((3, 80, 2)), 3)
_SPD_STACK = np.stack([np.eye(2), [[2.0, 0.5], [0.5, 1.0]]])
_SERIES = vd.simulate(vd.catalog("phi1"), 60, np.random.default_rng(5)) + [1.0, -2.0]
_SERIES_STACK = np.stack([_SERIES, _SERIES[::-1] * 0.5])


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
]
ROWS += [_implied_mean_row(order, with_intercept)
         for order in (0, 1, 2) for with_intercept in (True, False)]


@pytest.mark.parametrize("name, args, expected", ROWS)
def test_public_contract(name, args, expected):
    call = getattr(vd, name)
    if isinstance(expected, tuple):
        error, fragment = expected
        with pytest.raises(error, match=fragment):
            call(*(args() if callable(args) else args))
    else:
        got = call(*args)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
