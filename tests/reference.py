"""Reference implementations and inputs shared by the test modules."""

import numpy as np

import vardiag as vd


def kron_q(acf, m, variant="classic", mode="hosking"):
    """Portmanteau Q as a quadratic form in the row-stacked autocorrelations.

    The reference route that ``portmanteau_q``'s trace form must match under
    every standardization.  For the hosking and li_mcleod modes the weight is
    the Kronecker square of the inverse lag-0 autocorrelation matrix.  The
    chitturi lag-0 matrix is the identity and carries no scale, so its
    row-stacked matrices are weighted by (G0^{-1} x G0) instead.
    """
    rs = vd.racf(acf, mode)
    if mode == "chitturi":
        g0 = acf.values[0]
        weight = np.kron(np.linalg.inv(g0), g0)
    else:
        r0_inv = np.linalg.inv(rs.values[0])
        weight = np.kron(r0_inv, r0_inv)
    n = acf.n_eff
    total = 0.0
    for lag in range(1, m + 1):
        stacked = rs.values[lag].ravel()
        scale = n if variant == "classic" else n * n / (n - lag)
        total += scale * float(stacked @ weight @ stacked)
    return total


def loop_recursion(phi, theta, innovations):
    """The VARMA difference equation advanced one time step at a time.

    The oracle for ``innovation_recursion``'s doubling scan: same convention
    (zero pre-sample, deviation from the mean), same shapes, and the
    arithmetic taken in time order, as the equation is written.
    """
    steps = innovations.shape[-2]
    out = np.empty_like(innovations)
    for t in range(steps):
        acc = innovations[..., t, :].copy()
        for i in range(1, min(t, len(phi)) + 1):
            acc += out[..., t - i, :] @ phi[i - 1].T
        for j in range(1, min(t, len(theta)) + 1):
            acc -= innovations[..., t - j, :] @ theta[j - 1].T
        out[..., t, :] = acc
    return out


def explosive_series():
    """x_t = 1.05 x_{t-1} + e_t, n=60, k=2: its fitted VAR(1) has radius 1.053."""
    noise = np.random.default_rng(3).standard_normal((60, 2))
    out = np.zeros((60, 2))
    for t in range(1, 60):
        out[t] = 1.05 * out[t - 1] + noise[t]
    return out


def persistent_series():
    """z_t = [[0.97, 0.3], [0, 0.97]] z_{t-1} + e_t, n=100: its fitted VAR(1) has radius 0.986.

    The fit is non-normal, so ||phi_hat^64||_F^(1/64) overstates its radius as 1.010.
    """
    phi = np.array([[0.97, 0.3], [0.0, 0.97]])
    noise = np.random.default_rng(10).standard_normal((100, 2))
    out = np.zeros((100, 2))
    for t in range(1, 100):
        out[t] = phi @ out[t - 1] + noise[t]
    return out
