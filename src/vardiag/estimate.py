"""Conditional least-squares estimation of VAR(p) models.

Order p = 0 means "demean only": the residuals are the series minus its
column means (or the raw series when no intercept is requested).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, SingularDesign, TooShort
from .linalg import _cross, cholesky_lower


@dataclass(frozen=True, eq=False)
class FittedVar:
    """Result of a least-squares VAR fit.

    ``residuals`` has ``n - order`` rows; ``gamma0_hat`` is the residual
    covariance averaged over that effective sample size.  A fit of a stack
    of series keeps the stack's leading axes on every array.
    """

    order: int
    phi_hat: tuple
    intercept: np.ndarray
    with_intercept: bool
    residuals: np.ndarray
    gamma0_hat: np.ndarray

    @property
    def k(self) -> int:
        return self.residuals.shape[-1]

    @property
    def n_eff(self) -> int:
        return self.residuals.shape[-2]


def _check_count(name: str, value, least: int) -> int:
    """``value`` as an int; ``ValueError`` naming ``name`` unless it is an integer >= ``least``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
    return value


def _as_series(series) -> np.ndarray:
    values = np.asarray(series, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if values.ndim < 2 or values.shape[-2] < 1:
        raise ValueError(f"series must be an (n, k) array or a stack of them, "
                         f"got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("series contains non-finite values")
    return values


def fit_var(series, p: int, with_intercept: bool = True) -> FittedVar:
    """Fit a VAR(p) by multivariate conditional least squares.

    Parameters
    ----------
    series : (n, k) array_like, or a stack of shape (..., n, k)
        Observations, one row per time point.  A stack is fitted series by
        series in one call; every array of the result keeps its leading
        axes (``phi_hat`` matrices are ``(..., k, k)``), and an error in
        any series fails the call.
    p : int
        Autoregressive order, ``p >= 0``.
    with_intercept : bool
        Fit an intercept term (default).  With ``p = 0`` the fit reduces to
        demeaning the series; with the intercept disabled the residuals are
        the raw series.

    Raises
    ------
    TooShort
        When ``n - p <= k * p + 1``.
    SingularDesign
        When the regressor Gram matrix is not positive definite.
    """
    values = _as_series(series)
    n, k = values.shape[-2:]
    p = _check_count("order", p, 0)
    if n - p <= k * p + 1:
        raise TooShort(
            f"need n - p > k*p + 1 observations (n={n}, p={p}, k={k})")

    if p == 0:
        intercept = values.mean(axis=-2) if with_intercept else np.zeros(values.shape[:-2] + (k,))
        residuals = values - intercept[..., None, :]
        gamma0 = _cross(residuals, residuals) / n
        return FittedVar(0, (), intercept, with_intercept, residuals, gamma0)

    target = values[..., p:, :]
    offset = 1 if with_intercept else 0
    design = np.empty(values.shape[:-2] + (n - p, offset + k * p))
    design[..., :offset] = 1.0
    for lag in range(1, p + 1):
        design[..., offset + (lag - 1) * k:offset + lag * k] = values[..., p - lag:n - lag, :]

    gram = _cross(design, design)
    rhs = _cross(design, target)
    try:
        lower = cholesky_lower(gram)
    except NotPositiveDefinite as exc:
        raise SingularDesign(f"regressor Gram matrix is singular: {exc}") from None
    coef = np.linalg.solve(np.swapaxes(lower, -1, -2), np.linalg.solve(lower, rhs))

    intercept = coef[..., 0, :] if with_intercept else np.zeros(values.shape[:-2] + (k,))
    phi_hat = tuple(np.swapaxes(coef[..., offset + (lag - 1) * k:offset + lag * k, :], -1, -2)
                    for lag in range(1, p + 1))
    residuals = design @ coef
    np.subtract(target, residuals, out=residuals)
    gamma0 = _cross(residuals, residuals) / (n - p)
    return FittedVar(p, phi_hat, intercept, with_intercept, residuals, gamma0)


def implied_mean(fit: FittedVar) -> np.ndarray:
    """Stationary mean implied by the fitted intercept and AR coefficients."""
    if not fit.with_intercept:
        return np.zeros(fit.k)
    if fit.order == 0:
        return fit.intercept.copy()
    total = np.eye(fit.k)
    for mat in fit.phi_hat:
        total = total - mat
    return np.linalg.solve(total, fit.intercept)
