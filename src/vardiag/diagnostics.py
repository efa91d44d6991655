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
The generalized variance has one route too: ``gv_stat``, ``gv_decompose`` and
the Monte-Carlo scorer read one Cholesky factor's pivots through ``log1p``.
That factor skips ``cholesky_lower``'s symmetry and scale checks, which a
block-Toeplitz matrix with a unit diagonal passes by construction, and keeps
its pivot floor.  Its block-Toeplitz matrix is a strided view, copied once, of
one buffer that lays row a of every block of [R_m'..R_1', I, R_1..R_m] side by
side, so that each row of the matrix is one contiguous run of that buffer.

``sample_acov``, ``racf``, ``gv_decompose``, ``block_toeplitz`` and
``residual_transform`` also accept a stack of residual series of shape
``(..., n, k)``; every matrix they return then keeps the stack's leading axes,
and each series gets the same numbers it would get alone.  A numeric error in
any series of a stack fails the whole call.  A 1-D residual array is one
``(n, 1)`` series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateResiduals, NotPositiveDefinite
from .estimate import _check_count
# log_det_spd is not called here; the benchmark tracer still hooks this name
from .linalg import PIVOT_RTOL, _cross, _diagonal, cholesky_lower, log_det_spd, spd_inverse

RACF_MODES = ("hosking", "li_mcleod", "chitturi")
# A 256 KiB float budget: a stack of block-Toeplitz matrices is assembled and
# factored in row slices of this size.  A Monte-Carlo chunk's simulated paths
# take up to twice as many floats (see ``montecarlo._chunk_rows``).
_FACTOR_FLOATS = 2 ** 15
Q_VARIANTS = ("classic", "modified")
TRANSFORMS = ("identity", "square", "abs")


class _LagMatrices:
    """Lag matrices 0..max_lag held as one ``(..., max_lag + 1, k, k)`` array.

    The constructor takes that array or a sequence of the lags' matrices;
    ``values`` is then a tuple of views of the array, lag 0 first.
    """

    def __post_init__(self):
        stack = self.values
        if not isinstance(stack, np.ndarray):
            stack = np.stack(stack, axis=-3)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "values", tuple(np.moveaxis(stack, -3, 0)))

    @property
    def k(self) -> int:
        return self._stack.shape[-1]

    @property
    def max_lag(self) -> int:
        return self._stack.shape[-3] - 1


@dataclass(frozen=True, eq=False)
class Autocovariances(_LagMatrices):
    """Sample autocovariance matrices of a residual series, lags 0..max_lag.

    Lag l is the biased estimate (normalized by the sample size, not by the
    number of summands), which keeps the implied block-Toeplitz arrays
    positive semidefinite.  For a stack of residual series each lag's entry
    is a ``(..., k, k)`` stack.
    """

    values: tuple
    n_eff: int
    _stack: np.ndarray = field(init=False, repr=False)

    @cached_property
    def _g0_inv(self) -> np.ndarray:
        # G0's inverse, factored once for the PD check, racf and the Q terms
        return spd_inverse(self.values[0])


@dataclass(frozen=True, eq=False)
class Autocorrelations(_LagMatrices):
    """Residual autocorrelation matrices for one standardization mode."""

    mode: str
    values: tuple
    acov: Autocovariances
    _stack: np.ndarray = field(init=False, repr=False)


@dataclass(frozen=True, eq=False)
class GvDecomposition:
    """Per-lag factorization of the generalized variance.

    ``step_dets[l-1]`` is the determinant of the innovation covariance of the
    order-l linear predictor of the standardized residuals; ``eta_sq[l-1]`` is
    the proportion of generalized variance that predictor accounts for.  The
    product of the step determinants equals the determinant of the full
    block-Toeplitz correlation matrix.  For a stack each entry is an array
    over the stack's leading axes.
    """

    eta_sq: tuple
    step_dets: tuple


def _check_lag(m, least: int, most: int) -> int:
    """``m`` as an int; ``ValueError`` unless it is an integer within ``least..most``."""
    m = _check_count("m", m, -math.inf)
    if not least <= m <= most:
        raise ValueError(f"m must be within {least}..{most}, got {m}")
    return m


def _as_columns(residuals) -> np.ndarray:
    """Residuals as floats; a 1-D series is one ``(n, 1)`` series, a view of it."""
    resid = np.asarray(residuals, dtype=float)
    return resid[:, None] if resid.ndim == 1 else resid


def _lag_fits(n_eff: int, m: int, k: int) -> bool:
    """The lag guard: lag m needs ``n_eff > (m + 1) * k`` residual rows."""
    return n_eff > (m + 1) * k


def sample_acov(residuals, m: int) -> Autocovariances:
    """Biased residual autocovariance matrices for lags 0..m.

    ``residuals`` is one ``(n, k)`` series or a stack of shape ``(..., n, k)``.

    Raises
    ------
    DegenerateResiduals
        When the residuals are too short for ``m`` (requires
        ``n_eff > (m + 1) * k``) or their lag-0 covariance is not positive
        definite (zero or constant residuals), in any series of a stack.
    """
    resid = _as_columns(residuals)
    m = _check_count("m", m, 1)
    if not np.isfinite(resid).all():
        raise DegenerateResiduals("residuals contain non-finite values")
    n, k = resid.shape[-2:]
    if not _lag_fits(n, m, k):
        raise DegenerateResiduals(
            f"need n_eff > (m + 1)*k for lag {m} (n_eff={n}, k={k})")
    gamma = np.empty(resid.shape[:-2] + (m + 1, k, k))
    for lag in range(m + 1):
        np.matmul(np.swapaxes(resid[..., lag:, :], -1, -2), resid[..., :n - lag, :],
                  out=gamma[..., lag, :, :])
    gamma /= n
    acov = Autocovariances(gamma, n)
    try:
        acov._g0_inv
    except NotPositiveDefinite:
        raise DegenerateResiduals(
            "lag-0 residual covariance is not positive definite") from None
    return acov


def racf(acf: Autocovariances, mode: str = "hosking") -> Autocorrelations:
    """Residual autocorrelation matrices under the requested standardization.

    Autocovariances of a stack of series give a stack per lag.
    """
    if mode not in RACF_MODES:
        raise ValueError(f"mode must be one of {RACF_MODES}, got {mode!r}")
    gamma = acf._stack
    if mode == "hosking":
        lhat = cholesky_lower(acf._g0_inv)[..., None, :, :]
        values = _cross(lhat, gamma) @ lhat
    elif mode == "li_mcleod":
        scale = np.sqrt(np.diagonal(gamma[..., 0, :, :], axis1=-2, axis2=-1))
        values = gamma / (scale[..., None, :, None] * scale[..., None, None, :])
    else:  # chitturi
        values = gamma @ acf._g0_inv[..., None, :, :]
        values[..., 0, :, :] = np.eye(acf.k)
    return Autocorrelations(mode, values, acf)


def _q_lag_terms(acf: Autocovariances, m: int) -> np.ndarray:
    """Trace-form per-lag contributions tr(G_l' G0inv G_l G0inv), shape ``(..., m)``."""
    g0_inv = acf._g0_inv[..., None, :, :]
    g = acf._stack[..., 1:m + 1, :, :]
    return np.trace(_cross(g, g0_inv) @ g @ g0_inv, axis1=-2, axis2=-1)


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
    m = _check_lag(m, 1, acf.max_lag)
    return float(np.cumsum(_q_weights(acf.n_eff, m, variant) * _q_lag_terms(acf, m))[-1])


def _assemble_block_toeplitz(values: np.ndarray) -> np.ndarray:
    """Block-Toeplitz matrices from autocorrelations R_0..R_m of shape ``(..., m + 1, k, k)``."""
    *batch, lags, k, _ = values.shape
    m = lags - 1
    # Row a of every block of [R_m'..R_1', I, R_1..R_m] side by side.  Block (i, j) of T
    # is block m + j - i, so row (i, a) of T is the run of (m + 1) k floats from block m - i.
    rows = np.empty((*batch, k, 2 * m + 1, k))
    rows[..., :m, :] = np.moveaxis(values[..., :0:-1, :, :], -1, -3)
    rows[..., m, :] = np.eye(k)
    rows[..., m + 1:, :] = np.swapaxes(values[..., 1:, :, :], -3, -2)
    # Block row i steps back k floats from the start of block m; row a's last index,
    # m k + (m + 1) k - 1, is the last of its row, so the view stays inside the buffer.
    item = rows.itemsize
    runs = np.ndarray((*batch, lags, k, lags * k), buffer=rows, offset=m * k * item,
                      strides=(*rows.strides[:-3], -k * item, (2 * m + 1) * k * item, item))
    return runs.copy().reshape(*batch, lags * k, lags * k)


def block_toeplitz(racfs: Autocorrelations, m: int) -> np.ndarray:
    """Symmetric block-Toeplitz matrix of residual autocorrelations.

    Block (i, j) above the diagonal is the lag-(j - i) autocorrelation
    matrix, diagonal blocks are the identity, and blocks below the diagonal
    are transposes.  Requires hosking-standardized autocorrelations, which
    define the generalized-variance statistic.  Autocorrelations of a stack
    give a ``(..., (m + 1) k, (m + 1) k)`` stack.
    """
    if racfs.mode != "hosking":
        raise ValueError("block_toeplitz requires hosking-standardized autocorrelations")
    m = _check_lag(m, 0, racfs.max_lag)
    return _assemble_block_toeplitz(racfs._stack[..., :m + 1, :, :])


def _unit_diagonal_cholesky(t: np.ndarray) -> np.ndarray:
    """``cholesky_lower`` of exactly symmetric matrices with a unit diagonal: their scale is 1,
    so only the pivot floor, ``PIVOT_RTOL`` times the diagonal, is checked."""
    try:
        lower = np.linalg.cholesky(t)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("matrix is not positive definite") from None
    if (_diagonal(lower) ** 2 <= PIVOT_RTOL).any():
        raise NotPositiveDefinite("pivot at or below relative tolerance floor")
    return lower


def _gv_log_steps(racfs: Autocorrelations, m: int) -> np.ndarray:
    """Log step determinants log det(T_l) - log det(T_{l-1}), l = 1..m, shape ``(..., m)``.

    The leading blocks of the Cholesky factor L of the block-Toeplitz T_m factor
    every T_l.  T has a unit diagonal, so a squared pivot is 1 - sum_{j<i} L_ij^2,
    whose log ``log1p`` keeps exact near 1.  Stacks factor in ``_FACTOR_FLOATS`` slices.
    """
    if racfs.mode != "hosking":
        raise ValueError("gv requires hosking-standardized autocorrelations")
    m = _check_lag(m, 1, racfs.max_lag)
    values = racfs._stack[..., :m + 1, :, :]
    rows = values.reshape(-1, *values.shape[-3:])
    step = max(1, _FACTOR_FLOATS // ((m + 1) * racfs.k) ** 2)
    row_sums = np.empty((rows.shape[0], (m + 1) * racfs.k))
    for start in range(0, rows.shape[0], step):
        factor = _unit_diagonal_cholesky(_assemble_block_toeplitz(rows[start:start + step]))
        np.einsum("...ii->...i", factor)[...] = 0.0
        np.einsum("...ij,...ij->...i", factor, factor, out=row_sums[start:start + step])
    log_pivots_sq = np.log1p(-row_sums).reshape(*values.shape[:-1])
    return log_pivots_sq.sum(axis=-1)[..., 1:]


def gv_stat(racfs: Autocorrelations, m: int, n_eff: int) -> float:
    """Generalized-variance portmanteau statistic through lag m >= 1.

    Equals ``-n_eff`` times the log-determinant of the block-Toeplitz
    autocorrelation matrix, the sum of its log step determinants.  When that
    matrix is not positive definite the statistic is ``+inf``: maximal
    evidence against the null, which ranks correctly in Monte-Carlo comparisons.
    """
    if racfs.values[0].ndim > 2:
        raise ValueError("gv_stat scores one series; gv_decompose takes a stack")
    n_eff = _check_count("n_eff", n_eff, 1)
    try:
        return -n_eff * float(np.cumsum(_gv_log_steps(racfs, m))[-1])
    except NotPositiveDefinite:
        return math.inf


def gv_decompose(racfs: Autocorrelations, m: int) -> GvDecomposition:
    """Factor the generalized variance into per-lag predictor contributions.

    ``step_dets`` and ``eta_sq`` are ``exp`` and ``-expm1`` of the log step
    determinants that ``gv_stat`` sums, so both stay exact near zero.  Raises
    :class:`NotPositiveDefinite` exactly when ``gv_stat`` at lag m is ``+inf``;
    on a stack, when that holds for any member.
    """
    logs = np.moveaxis(_gv_log_steps(racfs, m), -1, 0)
    step_dets, eta_sq = np.exp(logs), -np.expm1(logs)
    if logs.ndim == 1:  # one series gives Python floats
        return GvDecomposition(tuple(eta_sq.tolist()), tuple(step_dets.tolist()))
    return GvDecomposition(tuple(eta_sq), tuple(step_dets))


def residual_transform(residuals, kind: str = "identity") -> np.ndarray:
    """Optionally square or take absolute values of residuals, then center.

    Squared or absolute residuals have nonzero means, which would corrupt the
    autocovariances, so both transforms subtract the column means; the
    identity transform returns the input unchanged.  A stack of shape
    ``(..., n, k)`` is centered series by series; a 1-D series stays 1-D.
    """
    if kind not in TRANSFORMS:
        raise ValueError(f"kind must be one of {TRANSFORMS}, got {kind!r}")
    resid = np.asarray(residuals, dtype=float)
    if kind == "identity":
        return resid
    work = resid ** 2 if kind == "square" else np.abs(resid)
    cols = _as_columns(work)  # centered in place, so a 1-D series keeps its shape
    if cols.shape[-1] == 1:  # one column: numpy sums each series' rows pairwise
        cols -= cols.mean(axis=-2, keepdims=True)
        return work
    # Otherwise numpy adds each series' rows in order, one (series, column) pair at a
    # time; with the rows leading a contiguous copy, it adds a whole row per step.
    rows = np.ascontiguousarray(np.moveaxis(cols, -2, 0))
    cols -= rows.mean(axis=0)[..., None, :]
    return work
