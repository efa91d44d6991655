"""VARMA(p, q) models: representation, validity checks, weights, simulation.

The model convention for a k-dimensional series z_t with mean mu is

    (z_t - mu) = sum_i phi_i (z_{t-i} - mu) + a_t - sum_j theta_j a_{t-j},

with innovations a_t ~ N(0, innov_cov).  Note the minus sign in front of the
moving-average coefficients; the built-in catalog stores coefficients under
this convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidModel, UnknownModel
from .estimate import _check_count
from .linalg import cholesky_lower

#: Stationarity/invertibility margin: spectral radius must stay below 1 - this.
STATIONARITY_MARGIN = 1e-6


def _floats(name: str, value, what: str) -> np.ndarray:
    """``value`` as a float array; ``DimensionMismatch`` naming ``name`` if it is not numeric."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise DimensionMismatch(f"{name} must be {what}, got {value!r}") from None


def _matrices(name: str, mats, k: int) -> tuple:
    """``mats`` as a tuple of finite (k, k) float arrays; ``DimensionMismatch`` otherwise."""
    try:
        checked = tuple(np.asarray(m, dtype=float) for m in mats)
    except (TypeError, ValueError):
        raise DimensionMismatch(
            f"{name} must be a sequence of ({k}, {k}) matrices, got {mats!r}") from None
    for i, m in enumerate(checked, start=1):
        if m.shape != (k, k):
            raise DimensionMismatch(f"{name}[{i}] has shape {m.shape}, expected ({k}, {k})")
        if not np.isfinite(m).all():
            raise DimensionMismatch(f"{name}[{i}] has non-finite entries")
    return checked


@dataclass(frozen=True, eq=False)
class VarmaModel:
    """Full VARMA(p, q) parameterization.

    Models are immutable: derive a variant with ``dataclasses.replace``, which
    checks the new fields as the constructor does.

    Parameters
    ----------
    phi : sequence of (k, k) arrays
        Autoregressive coefficient matrices, lag 1 first.
    theta : sequence of (k, k) arrays
        Moving-average coefficient matrices, lag 1 first.
    innov_cov : (k, k) array
        Innovation covariance matrix; must be symmetric positive definite.
    mean : (k,) array, optional
        Process mean, zero by default.
    """

    phi: tuple = ()
    theta: tuple = ()
    innov_cov: np.ndarray = None
    mean: np.ndarray = None
    _innov_chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.innov_cov is None:
            raise DimensionMismatch("innov_cov is required")
        innov_cov = _floats("innov_cov", self.innov_cov, "a square matrix of numbers")
        if innov_cov.ndim != 2 or innov_cov.shape[0] != innov_cov.shape[1] or not innov_cov.size:
            raise DimensionMismatch("innov_cov must be square, with at least one row")
        k = innov_cov.shape[0]
        phi, theta = _matrices("phi", self.phi, k), _matrices("theta", self.theta, k)
        mean = np.zeros(k) if self.mean is None else _floats("mean", self.mean, f"{k} numbers")
        if mean.shape != (k,):
            raise DimensionMismatch(f"mean must have length {k}")
        if not np.isfinite(mean).all():
            raise DimensionMismatch("mean has non-finite entries")
        if not np.isfinite(innov_cov).all():
            raise DimensionMismatch("innov_cov has non-finite entries")
        # Also establishes positive definiteness.
        chol = cholesky_lower(innov_cov)
        for name, value in (("phi", phi), ("theta", theta), ("innov_cov", innov_cov),
                            ("mean", mean), ("_innov_chol", chol)):
            object.__setattr__(self, name, value)

    @property
    def k(self) -> int:
        return self.innov_cov.shape[0]

    @property
    def p(self) -> int:
        return len(self.phi)

    @property
    def q(self) -> int:
        return len(self.theta)


@dataclass(frozen=True)
class ModelCheck:
    """Stationarity/invertibility verdict with the spectral radii behind it."""

    stationary: bool
    invertible: bool
    spectral_radius_ar: float
    spectral_radius_ma: float


def companion_matrix(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Companion matrix of a matrix polynomial I - m1 B - ... - ms B^s."""
    mats = [np.asarray(m, dtype=float) for m in mats]
    s = len(mats)
    if s == 0:
        return np.zeros((0, 0))
    k = mats[0].shape[0]
    comp = np.zeros((k * s, k * s))
    comp[:k, :] = np.hstack(mats)
    if s > 1:
        comp[k:, :-k] = np.eye(k * (s - 1))
    return comp


def polynomial_radius(mats: Sequence[np.ndarray]) -> tuple:
    """``(inside, radius)`` for the matrix polynomial I - m1 B - ... - ms B^s.

    ``radius`` is the spectral radius (largest eigenvalue modulus) of its
    companion matrix, 0 when there are no terms; ``inside`` says whether it
    stays below ``1 - STATIONARITY_MARGIN``, i.e. whether the polynomial is
    stationary (AR side) or invertible (MA side).
    """
    comp = companion_matrix(mats)
    radius = float(np.max(np.abs(np.linalg.eigvals(comp)))) if comp.size else 0.0
    return radius < 1.0 - STATIONARITY_MARGIN, radius


def validate_model(model: VarmaModel) -> ModelCheck:
    """Check stationarity (AR side) and invertibility (MA side) of a model."""
    stationary, rho_ar = polynomial_radius(model.phi)
    invertible, rho_ma = polynomial_radius(model.theta)
    return ModelCheck(stationary, invertible, rho_ar, rho_ma)


def _impulse_response(ar: tuple, ma: tuple, k: int, count: int) -> list:
    """First ``count`` weights of ar(B)^{-1} ma(B), lag 0 (the identity) first."""
    count = _check_count("count", count, 1)
    # path i answers a unit impulse in component i, so it is column i of every weight
    impulses = np.eye(k, count * k).reshape(k, count, k)
    return list(np.moveaxis(innovation_recursion(ar, ma, impulses), 0, -1))


def ma_weights(model: VarmaModel, count: int) -> list:
    """Moving-average representation weights of the model.

    Returns the first ``count`` coefficient matrices of the expansion of
    phi(B)^{-1} theta(B); the leading weight is the identity and subsequent
    weights obey the convolution recursion implied by phi(B) psi(B) = theta(B).
    """
    return _impulse_response(model.phi, model.theta, model.k, count)


def inverse_ma_weights(model: VarmaModel, count: int) -> list:
    """Weights of the inverted moving-average operator theta(B)^{-1}."""
    return _impulse_response(model.theta, (), model.k, count)


def burn_in_length(p: int, q: int) -> int:
    """Discarded transient length used by the simulator."""
    return 100 + 10 * (p + q)


def innovation_recursion(phi: tuple, theta: tuple, innovations: np.ndarray) -> np.ndarray:
    """Run the VARMA difference equation in deviation-from-mean form.

    ``innovations`` is one path of shape ``(steps, k)`` or a stack of paths
    of shape ``(..., steps, k)``, and the result has the same shape.
    Pre-sample states and innovations are treated as zero; callers discard an
    adequate burn-in prefix.

    The MA part is q shifted subtractions.  The AR part, x_t = C x_{t-1} + u_t
    in the companion matrix C, is a doubling scan: the pass with shift s adds
    C^s x_{t-s}.  All states sit time-major in one (kp, steps * paths) array,
    so each of the log2(steps) passes is one product over a block of columns.
    The result never shares memory with ``innovations``, which are read only.
    """
    shape = innovations.shape
    steps, k = shape[-2:]
    u = innovations if phi and not theta else innovations.copy()
    for j, coef in enumerate(theta, start=1):
        u[..., j:, :] -= innovations[..., :-j, :] @ coef.T
    if not phi:
        return u
    power = companion_matrix(phi)
    width = int(np.prod(shape[:-2]))
    states = np.zeros((power.shape[0], steps * width))
    states[:k].reshape(k, steps, width)[...] = u.reshape(width, steps, k).T
    # The scan reads the states only.  Innovations passed as a temporary belong to
    # this frame from CPython 3.11 on, and are freed here, before the scan's buffer.
    del u, innovations
    shifted = np.empty_like(states)  # one buffer reused by every pass
    shift = 1
    while shift < steps:
        cols = (steps - shift) * width
        np.matmul(power, states[:, :cols], out=shifted[:, :cols])
        states[:, shift * width:] += shifted[:, :cols]
        shift, power = 2 * shift, power @ power
    # a VAR(1)'s products take one path, so their spent buffer takes the result
    out = shifted.reshape(width, steps, k) if len(phi) == 1 else np.empty((width, steps, k))
    out[...] = states[:k].reshape(k, steps, width).T
    return out.reshape(shape)


def simulate(model: VarmaModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Simulate ``n`` observations of a validated VARMA model.

    Innovations are Gaussian with covariance ``model.innov_cov``; the state is
    initialized at the mean and a burn-in of ``burn_in_length(p, q)`` steps is
    discarded.  The same generator state always yields the same output.

    Returns an (n, k) array.
    """
    n = _check_count("n", n, 1)
    check = validate_model(model)
    if not (check.stationary and check.invertible):
        raise InvalidModel(
            "model must be stationary and invertible to simulate "
            f"(AR radius {check.spectral_radius_ar:.6f}, "
            f"MA radius {check.spectral_radius_ma:.6f})")
    burn = burn_in_length(model.p, model.q)
    noise = rng.standard_normal((burn + n, model.k))
    innovations = noise @ model._innov_chol.T
    path = innovation_recursion(model.phi, model.theta, innovations)
    return model.mean + path[burn:]


# ``VarmaModel`` keyword arguments of the built-in models, as lists: ``VarmaModel`` copies
# them into fresh arrays, so no caller's edits reach the next ``catalog()`` call.  The
# key order is ``CATALOG_NAMES``, from which study trials take their seeds.
_CATALOG = {
    "phi1": dict(phi=([[0.9, 0.1], [-0.6, 0.4]],), innov_cov=[[1.0, 0.5], [0.5, 1.0]]),
    "phi2": dict(phi=([[-1.5, 1.2], [-0.9, 0.5]],), innov_cov=[[1.0, 0.5], [0.5, 1.0]]),
    "phi3": dict(phi=([[0.4, 0.1], [-1.0, 0.5]],), innov_cov=[[1.0, 0.5], [0.5, 1.0]]),
    "phi4": dict(phi=([[0.3, 0.5], [0.0, 0.3]],), innov_cov=[[1.0, 0.5], [0.5, 1.0]]),
    "model1": dict(phi=([[0.5, 0.1], [0.4, 0.5]], [[0.0, 0.0], [0.3, 0.0]]),
                   innov_cov=[[1.0, 0.71], [0.71, 1.0]]),
    "model2": dict(phi=([[0.7, 0.0], [0.0, 0.6]],),
                   theta=([[0.5, 0.6], [-0.7, 0.8]],),
                   innov_cov=[[1.0, 0.71], [0.71, 2.0]]),
    "model3": dict(phi=([[1.2, -0.5], [0.6, 0.3]],),
                   theta=([[-0.6, 0.3], [0.3, 0.6]],),
                   innov_cov=[[1.0, 0.5], [0.5, 1.25]]),
    "model4": dict(phi=([[0.8, -2.0], [0.0, 0.0]],),
                   theta=([[-0.5, 0.0], [0.0, 0.0]],),
                   innov_cov=[[1.0, 0.71], [0.71, 1.0]]),
    "model5": dict(theta=([[0.8, 0.7], [-0.4, 0.6]],), innov_cov=[[4.0, 1.0], [1.0, 2.0]]),
    "model6": dict(theta=([[0.2, 0.3], [-0.6, 1.1]],), innov_cov=[[2.0, 1.0], [1.0, 1.0]]),
    "model7": dict(phi=([[0.5, 0.1], [0.4, 0.5]], [[0.0, 0.0], [0.25, 0.0]]),
                   theta=([[0.6, 0.2], [0.0, 0.3]],),
                   innov_cov=[[1.0, 0.3], [0.3, 1.0]]),
    "model8": dict(phi=([[0.4, 0.3, -0.6], [0.0, 0.8, 0.4], [0.3, 0.0, 0.0]],),
                   theta=([[0.7, 0.0, 0.0], [0.1, 0.2, 0.0], [-0.4, 0.5, -0.1]],),
                   innov_cov=[[1.0, 0.5, 0.4], [0.5, 1.0, 0.7], [0.4, 0.7, 1.0]]),
}

#: Stable CLI-visible identifiers of the built-in models.
CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str) -> VarmaModel:
    """Return a fresh instance of a built-in model by its stable name."""
    try:
        spec = _CATALOG[name]
    except KeyError:
        raise UnknownModel(
            f"unknown model {name!r}; choose one of {', '.join(CATALOG_NAMES)}"
        ) from None
    return VarmaModel(**spec)
