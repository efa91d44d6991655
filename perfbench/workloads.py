"""Workloads of the vardiag benchmark: seeded inputs and the one operation each times.

Every workload draws its inputs from a fixed pool of ``POOL_SIZE`` entries.
An entry is a series the benchmark simulates itself (so the inputs do not
depend on the program's simulator) plus the Monte-Carlo master seed, or, for
the study workload, the study's master seed.  ``reference.json`` holds the
outcome of every entry at the seed commit, so each operation a run makes can
be checked against it.  The workload seed picks the order in which a run
visits the pool.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass

import numpy as np

import vardiag as vd

REPLICATES = 199
POOL_SIZE = 64

# Catalog model phi1, copied here so the benchmark generates its own series.
PHI1 = np.array([[0.9, 0.1], [-0.6, 0.4]])
PHI1_COV = np.array([[1.0, 0.5], [0.5, 1.0]])
BURN_IN = 100


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``"mc"`` (one ``mc_test`` call per operation) or ``"power"``
    (one single-cell ``power_study`` call per operation).  ``trials`` is the
    number of Monte-Carlo tests (``mc_pvalues`` calls) in one operation.
    """

    name: str
    kind: str
    n: int
    order: int
    lags: tuple
    workers: int
    statistic: str = "gv"
    innovations: str = "gaussian"
    transform: str = "identity"
    model: str = "phi1"
    trials: int = 1

    @property
    def statistics(self) -> tuple:
        return ("gv", "q_modified") if self.kind == "power" else (self.statistic,)


WORKLOADS = {w.name: w for w in (
    # The ROADMAP's `vardiag test` case: block-Toeplitz work dominates.
    Workload("mc_long_lags", "mc", n=200, order=1, lags=(5, 10, 15, 20, 25, 30),
             workers=1),
    # One power-study cell: short lags, so the VAR recursion dominates; runs
    # the studies process pool across trials.  At 16 trials the pool maps 16
    # chunks of one trial, the same 16-chunk layout as the 300-trial
    # acceptance cell, and a call is short enough for several calls per run.
    Workload("power_short_pool", "power", n=50, order=1, lags=(5,), workers=2,
             model="model3", trials=16),
    # Bootstrap innovations, squared residuals, no gv at all; runs the
    # montecarlo replicate pool inside one test.
    Workload("hetero_bootstrap", "mc", n=500, order=1, lags=(5, 10, 20), workers=2,
             statistic="q_modified", innovations="bootstrap", transform="square"),
)}


def var1_series(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gaussian VAR(1) path of phi1 after a discarded burn-in."""
    shocks = rng.standard_normal((BURN_IN + n, 2)) @ np.linalg.cholesky(PHI1_COV).T
    path = np.zeros_like(shocks)
    for t in range(1, path.shape[0]):
        path[t] = PHI1 @ path[t - 1] + shocks[t]
    return path[BURN_IN:]


def entry_input(wl: Workload, entry: int):
    """Input of one pool entry: ``(series, master_seed)``; series is None for studies."""
    rng = np.random.default_rng([zlib.crc32(wl.name.encode()), entry])
    master = int(rng.integers(1, 2 ** 62))
    series = var1_series(rng, wl.n) if wl.kind == "mc" else None
    return series, master


def entry_order(seed: int) -> list:
    """Order in which a run with this workload seed visits the pool."""
    return [int(i) for i in np.random.default_rng(seed).permutation(POOL_SIZE)]


def pool_digest(wl: Workload) -> str:
    """SHA-256 of every pool input, to detect a change in input generation."""
    digest = hashlib.sha256()
    for entry in range(POOL_SIZE):
        series, master = entry_input(wl, entry)
        digest.update(master.to_bytes(8, "little"))
        if series is not None:
            digest.update(np.ascontiguousarray(series).tobytes())
    return digest.hexdigest()


def run_op(wl: Workload, inp, workers: int):
    """Run one operation through the public API and return its result object."""
    series, master = inp
    if wl.kind == "mc":
        config = vd.McConfig(replicates=REPLICATES, master_seed=master,
                             innovations=wl.innovations, transform=wl.transform,
                             statistic=wl.statistic, lags=wl.lags, workers=workers)
        return vd.mc_test(series, wl.order, config)
    return vd.power_study(models=(wl.model,), ns=(wl.n,), lags=wl.lags,
                          trials=wl.trials, replicates=REPLICATES,
                          master_seed=master, fit_order=wl.order, workers=workers)


def outcome(wl: Workload, result) -> list:
    """The counts recorded in the reference: exceedances per lag, or rejections per column."""
    if wl.kind == "mc":
        return [row.exceedances for row in result.lags]
    return [next((c.rejections for c in result.cells if c.column == col), None)
            for col in wl.statistics]
