"""Dense matrix kernels used throughout the package.

All routines operate on plain float64 numpy arrays.  Problem sizes here are
at most a few hundred rows, so everything is dense and unstructured.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

# Relative pivot floor separating genuine singularity from rounding noise.
PIVOT_RTOL = 1e-12


def _require_square(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor with positive diagonal.

    Raises :class:`NotPositiveDefinite` when any pivot falls at or below
    ``PIVOT_RTOL * max(diag(a))``, which flags singular or indefinite input
    rather than double-precision rounding.
    """
    a = np.asarray(a, dtype=float)
    _require_square(a)
    scale = np.abs(a).max() if a.size else 0.0
    if scale > 0.0 and np.abs(a - a.T).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("matrix is not positive definite") from None
    floor = PIVOT_RTOL * max(float(np.diag(a).max()), 0.0)
    if (np.diag(lower) ** 2 <= floor).any():
        raise NotPositiveDefinite("pivot at or below relative tolerance floor")
    return lower


def log_det_spd(a: np.ndarray) -> float:
    """Log-determinant of a symmetric positive definite matrix via Cholesky."""
    lower = cholesky_lower(a)
    return 2.0 * float(np.sum(np.log(np.diag(lower))))


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky.

    The result is symmetrized exactly so downstream code can rely on it.
    """
    lower = cholesky_lower(a)
    lower_inv = np.linalg.solve(lower, np.eye(lower.shape[0]))
    inv = lower_inv.T @ lower_inv
    return (inv + inv.T) / 2.0
