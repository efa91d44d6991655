"""Dense matrix kernels used throughout the package.

All routines operate on plain float64 numpy arrays.  Problem sizes here are
at most a few hundred rows, so everything is dense and unstructured.
``cholesky_lower`` and ``spd_inverse`` also accept a stack of matrices of
shape ``(..., n, n)``; every check applies to each matrix on its own, and the
stack is refused as a whole if any member fails.  ``cholesky_lower`` refuses
non-finite input; the gv factor in ``diagnostics`` skips only the checks that
its block-Toeplitz construction makes true.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

# Relative pivot floor separating genuine singularity from rounding noise.
PIVOT_RTOL = 1e-12


def _require_square(a: np.ndarray) -> None:
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")


def _diagonal(a: np.ndarray) -> np.ndarray:
    return np.diagonal(a, axis1=-2, axis2=-1)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a' b`` for each matrix of two stacks."""
    return np.swapaxes(a, -1, -2) @ b


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor with positive diagonal.

    Raises :class:`NotPositiveDefinite` when an entry is not finite, or when
    a pivot falls at or below ``PIVOT_RTOL * max(diag(a))``, which flags
    singular or indefinite input rather than double-precision rounding.  On a
    stack of shape ``(..., n, n)`` the symmetry test and the pivot floor use
    each matrix's own scale, and one failing member fails the whole call.
    """
    a = np.asarray(a, dtype=float)
    _require_square(a)
    if not np.isfinite(a).all():
        raise NotPositiveDefinite("matrix has non-finite entries")
    if a.size:
        scale = np.maximum(a.max(axis=(-2, -1)), -a.min(axis=(-2, -1)))
        # a - a' is antisymmetric, so its largest entry is its largest magnitude
        if ((a - np.swapaxes(a, -1, -2)).max(axis=(-2, -1)) > 1e-10 * scale).any():
            raise ValueError("matrix is not symmetric")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("matrix is not positive definite") from None
    floor = PIVOT_RTOL * np.maximum(_diagonal(a).max(axis=-1), 0.0)
    if (_diagonal(lower) ** 2 <= floor[..., None]).any():
        raise NotPositiveDefinite("pivot at or below relative tolerance floor")
    return lower


def log_det_spd(a: np.ndarray) -> float:
    """Log-determinant of a symmetric positive definite matrix via Cholesky."""
    lower = cholesky_lower(a)
    return 2.0 * float(np.sum(np.log(np.diag(lower))))


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, or of each in a stack, via Cholesky.

    The result is symmetrized exactly so downstream code can rely on it.
    """
    lower = cholesky_lower(a)
    lower_inv = np.linalg.solve(lower, np.eye(lower.shape[-1]))
    inv = _cross(lower_inv, lower_inv)
    return (inv + np.swapaxes(inv, -1, -2)) / 2.0
