"""Output checks against an oracle written independently of the program.

The oracle refits the VAR by ``numpy.linalg.lstsq`` and recomputes the
statistics from raw residual autocovariances:

* gv(m) = -n * [logdet T_G(m) - (m + 1) logdet G_0], where T_G(m) is the
  block-Toeplitz matrix of autocovariances G_0..G_m.  This equals -n logdet of
  the block-Toeplitz matrix of hosking autocorrelations, because that matrix
  is (I x L') T_G (I x L) with L L' = G_0^{-1}.  The log-determinants come
  from ``slogdet`` (an LU factorization), not from Cholesky.
* Q~(m) = n^2 sum_l tr(G_l' G_0^{-1} G_l G_0^{-1}) / (n - l).
"""

from __future__ import annotations

import math

import numpy as np

from workloads import REPLICATES

REL_TOL = 1e-9


def var_residuals(series: np.ndarray, order: int) -> np.ndarray:
    """Least-squares VAR(order) residuals with an intercept."""
    n = series.shape[0]
    design = np.hstack([np.ones((n - order, 1))]
                       + [series[order - lag:n - lag] for lag in range(1, order + 1)])
    target = series[order:]
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    return target - design @ coef


def transformed(resid: np.ndarray, kind: str) -> np.ndarray:
    if kind == "identity":
        return resid
    work = resid ** 2 if kind == "square" else np.abs(resid)
    return work - work.mean(axis=0)


def autocovariances(work: np.ndarray, m: int) -> list:
    """G_l = sum_t e_{t+l} e_t' / n for l = 0..m."""
    n = work.shape[0]
    return [work[lag:].T @ work[:n - lag] / n for lag in range(m + 1)]


def gv(work: np.ndarray, m: int) -> float:
    gam = autocovariances(work, m)
    big = np.block([[gam[j - i] if j >= i else gam[i - j].T for j in range(m + 1)]
                    for i in range(m + 1)])
    sign, logdet = np.linalg.slogdet(big)
    if sign <= 0:
        return math.inf
    return -work.shape[0] * (logdet - (m + 1) * np.linalg.slogdet(gam[0])[1])


def q_modified(work: np.ndarray, m: int) -> float:
    n = work.shape[0]
    gam = autocovariances(work, m)
    g0_inv = np.linalg.inv(gam[0])
    return n * n * sum(np.trace(gam[l].T @ g0_inv @ gam[l] @ g0_inv) / (n - l)
                       for l in range(1, m + 1))


STATISTICS = {"gv": gv, "q_modified": q_modified}


def close(actual: float, expected: float) -> bool:
    if math.isinf(expected) or math.isinf(actual):
        return actual == expected
    return abs(actual - expected) <= REL_TOL * max(abs(actual), abs(expected))


def check(wl, inp, result, reference) -> list:
    """Problems found in one operation's result; empty when it is correct.

    ``reference`` is the entry's outcome at the seed commit: exceedances per
    lag, or rejections per study column.  Each count may differ from it by
    one, which leaves room for a replicate statistic that moves at the 1e-15
    level and flips a tie.
    """
    if wl.kind == "power":
        return _check_power(wl, result, reference)
    series, _ = inp
    problems = []
    lags = [row.lag for row in result.lags]
    if lags != list(wl.lags) or result.replicates != REPLICATES:
        return [f"report covers lags {lags} with {result.replicates} replicates, "
                f"expected {list(wl.lags)} with {REPLICATES}"]
    work = transformed(var_residuals(series, wl.order), wl.transform)
    oracle = STATISTICS[wl.statistic]
    for row, ref in zip(result.lags, reference):
        expected = oracle(work, row.lag)
        if not close(row.observed, expected):
            problems.append(f"lag {row.lag}: observed {row.observed!r}, oracle {expected!r}")
        problems.extend(_check_count(f"lag {row.lag}", row.exceedances, REPLICATES, ref))
        if row.p_value != (row.exceedances + 1) / (REPLICATES + 1):
            problems.append(f"lag {row.lag}: p-value {row.p_value!r} is not "
                            f"({row.exceedances}+1)/({REPLICATES}+1)")
        if not 0 <= row.nonpd_replicates <= REPLICATES:
            problems.append(f"lag {row.lag}: nonpd count {row.nonpd_replicates} out of range")
    return problems


def _check_count(where: str, count, limit: int, ref: int) -> list:
    if count is None or not 0 <= count <= limit:
        return [f"{where}: count {count!r} outside 0..{limit}"]
    if abs(count - ref) > 1:
        return [f"{where}: count {count}, seed-commit reference {ref}"]
    return []


def _check_power(wl, result, reference) -> list:
    problems = []
    if result.skipped or result.trials != wl.trials:
        problems.append(f"study skipped {list(result.skipped)} or ran "
                        f"{result.trials} trials, expected {wl.trials}")
    cells = {(c.model, c.n, c.lag, c.column): c for c in result.cells}
    for col, ref in zip(wl.statistics, reference):
        cell = cells.get((wl.model, wl.n, wl.lags[0], col))
        problems.extend(_check_count(col, None if cell is None else cell.rejections,
                                     wl.trials, ref))
    return problems
