"""Large-sample machinery for the portmanteau statistics.

Builds the design matrices that enter the null distribution of the
generalized-variance statistic, reduces them to the two eigenvalue trace
sums, and evaluates chi-square tail probabilities for both the scaled
chi-square approximation and the classical statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDf, NotPositiveDefinite, SingularDesign
from .estimate import FittedVar
from .linalg import spd_inverse
from .varma import VarmaModel, inverse_ma_weights, ma_weights


@dataclass(frozen=True, eq=False)
class DesignSet:
    """Design matrices of the quadratic-form null distribution.

    ``g`` and ``h`` are block-banded lower-triangular matrices built from the
    model's moving-average and inverted-MA weights; ``x`` is their signed
    concatenation; ``w`` is the Kronecker-square innovation weight matrix;
    ``m_mat`` holds the descending lag multiplicities; ``q_mat`` is the
    oblique projector onto the column space of ``x`` (zero when the model has
    no parameters).
    """

    k: int
    m: int
    p: int
    q: int
    g: np.ndarray
    h: np.ndarray
    x: np.ndarray
    w: np.ndarray
    m_mat: np.ndarray
    q_mat: np.ndarray


@dataclass(frozen=True)
class TraceSums:
    """First two power sums of the quadratic-form eigenvalues."""

    sum: float
    sum_sq: float


@dataclass(frozen=True)
class AbParams:
    """Scale and degrees of freedom of the scaled chi-square approximation."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0.0 or self.b <= 0.0:
            raise DegenerateDf(f"scale and df must be positive, got a={self.a}, b={self.b}")


def _as_model(model) -> VarmaModel:
    if isinstance(model, FittedVar):
        return VarmaModel(phi=model.phi_hat, theta=(), innov_cov=model.gamma0_hat)
    if isinstance(model, VarmaModel):
        return model
    raise TypeError(f"expected VarmaModel or FittedVar, got {type(model).__name__}")


def _block_banded(blocks, cols: int) -> np.ndarray:
    """Lower block-banded matrix whose block (i, j) is ``blocks[i - j]``, ``cols`` block columns."""
    stacked = np.concatenate(blocks)
    size = blocks[0].shape[0]
    out = np.zeros((stacked.shape[0], size * cols))
    for j in range(cols):
        out[j * size:, j * size:(j + 1) * size] = stacked[:stacked.shape[0] - j * size]
    return out


def build_design(model, m: int) -> DesignSet:
    """Assemble the design matrices for a model (true or fitted) and lag m.

    Accepts either a :class:`VarmaModel`, whose innovation covariance is used
    directly, or a :class:`FittedVar`, whose estimated residual covariance
    stands in for it.  Requires ``m > p + q``.
    """
    spec = _as_model(model)
    k, p, q = spec.k, spec.p, spec.q
    if m <= p + q:
        raise DegenerateDf(f"need m > p + q (m={m}, p={p}, q={q})")
    kk = k * k
    cov = spec.innov_cov
    psi = ma_weights(spec, m)
    pi = inverse_ma_weights(spec, m)

    g_blocks = [sum(np.kron(cov @ psi[i].T, pi[r - i]) for i in range(r + 1)) for r in range(m)]
    g = _block_banded(g_blocks, p)
    h = _block_banded([np.kron(cov, pi[r]) for r in range(m)], q)
    x = np.hstack([g, -h])

    cov_inv = spd_inverse(cov)
    w = np.kron(np.eye(m), np.kron(cov, cov))

    if x.shape[1] == 0:
        q_mat = np.zeros((kk * m, kk * m))
    else:
        # W^{-1} = I_m kron (cov^{-1} kron cov^{-1}) weights each kk-row block of x
        wx = (np.kron(cov_inv, cov_inv) @ x.reshape(m, kk, -1)).reshape(x.shape)
        gram = x.T @ wx
        try:
            gram_inv = spd_inverse(gram)
        except NotPositiveDefinite as exc:
            raise SingularDesign(f"design matrix is rank deficient: {exc}") from None
        q_mat = x @ gram_inv @ wx.T

    m_mat = np.diag(np.repeat(np.arange(m, 0, -1, dtype=float), kk))
    return DesignSet(k, m, p, q, g, h, x, w, m_mat, q_mat)


def lambda_traces(design: DesignSet) -> TraceSums:
    """Trace of (I - Q) M and of its square, the two eigenvalue power sums."""
    core = (np.eye(design.q_mat.shape[0]) - design.q_mat) @ design.m_mat
    return TraceSums(float(np.trace(core)), float(np.trace(core @ core)))


def ab_params(k: int, m: int, p: int, q: int) -> AbParams:
    """Closed-form scale and degrees of freedom of the approximation.

    One degree of freedom is subtracted for each estimated coefficient;
    raises :class:`DegenerateDf` when that leaves nothing.
    """
    a = (2.0 * m + 1.0) / 3.0
    b = 3.0 * k * k * m * (m + 1.0) / (2.0 * (2.0 * m + 1.0)) - k * k * (p + q)
    if b <= 0.0:
        raise DegenerateDf(f"nonpositive df b={b:.4f} (k={k}, m={m}, p={p}, q={q})")
    return AbParams(a, b)


def ab_params_from_traces(traces: TraceSums) -> AbParams:
    """Two-moment match from the eigenvalue trace sums."""
    if traces.sum <= 0.0 or traces.sum_sq <= 0.0:
        raise DegenerateDf(f"nonpositive trace sums {traces}")
    return AbParams(traces.sum_sq / traces.sum, traces.sum ** 2 / traces.sum_sq)


_GAMMA_EPS = 1e-15
_GAMMA_MAX_ITER = 1000


def _lower_gamma_series(a: float, x: float) -> float:
    # Regularized lower incomplete gamma by power series; good for x < a + 1.
    if x == 0.0:
        return 0.0
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_GAMMA_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_gamma_cf(a: float, x: float) -> float:
    # Regularized upper incomplete gamma by continued fraction (modified
    # Lentz); good for x >= a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _GAMMA_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chisq_sf(x: float, df: float) -> float:
    """Chi-square survival function, valid for non-integer degrees of freedom.

    Uses the regularized incomplete gamma function: a power series for small
    arguments and a continued fraction for large ones, accurate to about
    1e-13 in double precision.
    """
    if not 0.0 < df < math.inf:
        raise ValueError(f"df must be positive and finite, got {df}")
    if not x >= 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    a = df / 2.0
    half = x / 2.0
    if half < a + 1.0:
        return min(1.0, max(0.0, 1.0 - _lower_gamma_series(a, half)))
    return min(1.0, max(0.0, _upper_gamma_cf(a, half)))


def approx_pvalue(stat: float, ab: AbParams) -> float:
    """Tail probability of the scaled chi-square approximation."""
    if math.isinf(stat):
        return 0.0
    if stat < 0.0:
        # Hadamard guarantees nonnegativity up to rounding; clamp tiny noise.
        stat = 0.0
    return chisq_sf(stat / ab.a, ab.b)


def q_pvalue_asymptotic(stat: float, k: int, m: int, p: int, q: int) -> float:
    """Asymptotic chi-square p-value of the classical portmanteau statistic."""
    df = k * k * (m - p - q)
    if df <= 0:
        raise DegenerateDf(f"need m > p + q (m={m}, p={p}, q={q})")
    if math.isinf(stat):
        return 0.0
    return chisq_sf(stat, float(df))
