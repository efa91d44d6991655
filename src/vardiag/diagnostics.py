"""Residual autocovariances, autocorrelation variants, and portmanteau statistics.

The three residual-autocorrelation standardizations are named after their
originators and selected by a ``mode`` string:

``hosking``
    R_l = L' G_l L where L is the lower Cholesky factor of the inverse
    lag-0 autocovariance; the lag-0 matrix is the identity by construction.
``li_mcleod``
    Entrywise normalization by the residual standard deviations, i.e. the
    ordinary cross-correlation matrices.
``chitturi``
    R_l = G_l G_0^{-1}; the lag-0 matrix is exactly the identity.

The classical portmanteau statistic is computed once, from the trace of
G_l' G_0^{-1} G_l G_0^{-1} at each lag.  It equals the quadratic form in the
row-stacked autocorrelation matrices under every mode; the test suite keeps
that Kronecker form as its reference and checks the equality numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateResiduals, NotPositiveDefinite
from .linalg import cholesky_lower, log_det_spd, spd_inverse

RACF_MODES = ("hosking", "li_mcleod", "chitturi")
Q_VARIANTS = ("classic", "modified")
TRANSFORMS = ("identity", "square", "abs")


@dataclass(frozen=True)
class Autocovariances:
    """Sample autocovariance matrices of a residual series, lags 0..max_lag.

    Lag l is the biased estimate (normalized by the sample size, not by the
    number of summands), which keeps the implied block-Toeplitz arrays
    positive semidefinite.
    """

    values: tuple
    n_eff: int

    @property
    def k(self) -> int:
        return self.values[0].shape[0]

    @property
    def max_lag(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class Autocorrelations:
    """Residual autocorrelation matrices for one standardization mode."""

    mode: str
    values: tuple
    acov: Autocovariances

    @property
    def k(self) -> int:
        return self.values[0].shape[0]

    @property
    def max_lag(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class GvDecomposition:
    """Per-lag factorization of the generalized variance.

    ``step_dets[l-1]`` is the determinant of the innovation covariance of the
    order-l linear predictor of the standardized residuals; ``eta_sq[l-1]`` is
    the proportion of generalized variance that predictor accounts for.  The
    product of the step determinants equals the determinant of the full
    block-Toeplitz correlation matrix.
    """

    eta_sq: tuple
    step_dets: tuple


def sample_acov(residuals, m: int) -> Autocovariances:
    """Biased residual autocovariance matrices for lags 0..m.

    Raises
    ------
    DegenerateResiduals
        When the residuals are too short for ``m`` (requires
        ``n_eff > (m + 1) * k``) or their lag-0 covariance is not positive
        definite (zero or constant residuals).
    """
    resid = np.asarray(residuals, dtype=float)
    if resid.ndim == 1:
        resid = resid[:, None]
    if m < 1:
        raise ValueError("m must be at least 1")
    if not np.isfinite(resid).all():
        raise DegenerateResiduals("residuals contain non-finite values")
    n, k = resid.shape
    if n <= (m + 1) * k:
        raise DegenerateResiduals(
            f"need n_eff > (m + 1)*k for lag {m} (n_eff={n}, k={k})")
    gamma = [resid.T @ resid / n]
    for lag in range(1, m + 1):
        gamma.append(resid[lag:].T @ resid[:-lag] / n)
    try:
        cholesky_lower(gamma[0])
    except NotPositiveDefinite:
        raise DegenerateResiduals(
            "lag-0 residual covariance is not positive definite") from None
    return Autocovariances(tuple(gamma), n)


def racf(acf: Autocovariances, mode: str = "hosking") -> Autocorrelations:
    """Residual autocorrelation matrices under the requested standardization."""
    if mode not in RACF_MODES:
        raise ValueError(f"mode must be one of {RACF_MODES}, got {mode!r}")
    gamma = acf.values
    if mode == "hosking":
        g0_inv = spd_inverse(gamma[0])
        lhat = cholesky_lower(g0_inv)
        values = tuple(lhat.T @ g @ lhat for g in gamma)
    elif mode == "li_mcleod":
        scale = np.sqrt(np.diag(gamma[0]))
        denom = np.outer(scale, scale)
        values = tuple(g / denom for g in gamma)
    else:  # chitturi
        g0_inv = spd_inverse(gamma[0])
        values = (np.eye(acf.k),) + tuple(g @ g0_inv for g in gamma[1:])
    return Autocorrelations(mode, values, acf)


def _q_lag_terms(acf: Autocovariances, m: int) -> np.ndarray:
    """Trace-form per-lag contributions tr(G_l' G0inv G_l G0inv)."""
    g0_inv = spd_inverse(acf.values[0])
    terms = np.empty(m)
    for lag in range(1, m + 1):
        g = acf.values[lag]
        terms[lag - 1] = float(np.trace(g.T @ g0_inv @ g @ g0_inv))
    return terms


def _q_weights(n: int, m: int, variant: str) -> np.ndarray:
    """Per-lag weights of Q at lags 1..m: n (classic) or n^2 / (n - l) (modified)."""
    if variant == "classic":
        return np.full(m, float(n))
    return n * n / (n - np.arange(1, m + 1, dtype=float))


def portmanteau_q(acf: Autocovariances, m: int, variant: str = "classic") -> float:
    """Hosking's multivariate portmanteau statistic through lag m.

    Sums ``w_l * tr(G_l' G_0^{-1} G_l G_0^{-1})`` over lags 1..m, where G_l
    are the residual autocovariances.  The value does not depend on the
    autocorrelation standardization, so no ``racf`` mode is needed.

    Parameters
    ----------
    acf : Autocovariances
        Must cover lags 1..m.
    variant : {"classic", "modified"}
        ``w_l = n`` for the classic statistic.  The modified variant uses
        ``w_l = n^2 / (n - l)``, which makes the null expectation closer to
        its asymptotic value in short series.
    """
    if variant not in Q_VARIANTS:
        raise ValueError(f"variant must be one of {Q_VARIANTS}, got {variant!r}")
    if not 1 <= m <= acf.max_lag:
        raise ValueError(f"m must be within 1..{acf.max_lag}, got {m}")
    return float(_q_weights(acf.n_eff, m, variant) @ _q_lag_terms(acf, m))


def _assemble_block_toeplitz(values: tuple, m: int, k: int) -> np.ndarray:
    # Block (i, j) is entry (j - i) mod (2m + 1) of [I, R_1..R_m, R_m'..R_1'].
    blocks = np.stack([np.eye(k), *values[1:m + 1],
                       *(r.T for r in reversed(values[1:m + 1]))])
    lag = np.arange(m + 1)
    big = blocks[(lag[None, :] - lag[:, None]) % (2 * m + 1)]
    return big.transpose(0, 2, 1, 3).reshape((m + 1) * k, (m + 1) * k)


def block_toeplitz(racfs: Autocorrelations, m: int) -> np.ndarray:
    """Symmetric block-Toeplitz matrix of residual autocorrelations.

    Block (i, j) above the diagonal is the lag-(j - i) autocorrelation
    matrix, diagonal blocks are the identity, and blocks below the diagonal
    are transposes.  Requires hosking-standardized autocorrelations, which
    define the generalized-variance statistic.
    """
    if racfs.mode != "hosking":
        raise ValueError("block_toeplitz requires hosking-standardized autocorrelations")
    if m < 0 or m > racfs.max_lag:
        raise ValueError(f"m must be within 0..{racfs.max_lag}, got {m}")
    return _assemble_block_toeplitz(racfs.values, m, racfs.k)


def gv_stat(racfs: Autocorrelations, m: int, n_eff: int) -> float:
    """Generalized-variance portmanteau statistic through lag m.

    Equals ``-n_eff`` times the log-determinant of the block-Toeplitz
    autocorrelation matrix.  When that matrix fails to be positive definite
    the statistic is reported as ``+inf``: maximal evidence against the null,
    which ranks correctly in Monte-Carlo comparisons.
    """
    toep = block_toeplitz(racfs, m)
    try:
        return -n_eff * log_det_spd(toep)
    except NotPositiveDefinite:
        return math.inf


def gv_decompose(racfs: Autocorrelations, m: int) -> GvDecomposition:
    """Factor the generalized variance into per-lag predictor contributions.

    The leading blocks of the Cholesky factor of the order-m block-Toeplitz
    matrix T_m factor every T_l, so the squared pivots of block l multiply to
    det(T_l) / det(T_{l-1}), the order-l predictor's step determinant.  Raises
    :class:`NotPositiveDefinite` exactly when ``gv_stat`` at lag m is ``+inf``.
    """
    if racfs.mode != "hosking":
        raise ValueError("gv_decompose requires hosking-standardized autocorrelations")
    if not 1 <= m <= racfs.max_lag:
        raise ValueError(f"m must be within 1..{racfs.max_lag}, got {m}")
    pivots_sq = np.diag(cholesky_lower(block_toeplitz(racfs, m))) ** 2
    step_dets = pivots_sq.reshape(m + 1, racfs.k).prod(axis=1)[1:]
    return GvDecomposition(tuple((1.0 - step_dets).tolist()), tuple(step_dets.tolist()))


def residual_transform(residuals, kind: str = "identity") -> np.ndarray:
    """Optionally square or take absolute values of residuals, then center.

    Squared or absolute residuals have nonzero means, which would corrupt the
    autocovariances, so both transforms subtract the column means; the
    identity transform returns the input unchanged.
    """
    if kind not in TRANSFORMS:
        raise ValueError(f"kind must be one of {TRANSFORMS}, got {kind!r}")
    resid = np.asarray(residuals, dtype=float)
    if kind == "identity":
        return resid
    work = resid ** 2 if kind == "square" else np.abs(resid)
    return work - work.mean(axis=0)
