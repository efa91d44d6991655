"""Monte-Carlo significance test for portmanteau statistics.

The test fits a VAR(p) to the observed series, computes the chosen statistic
at each requested lag, then simulates the fitted model N times, refits, and
rescores.  The p-value at each lag is the add-one exceedance proportion

    p_hat = (#{replicate statistic >= observed} + 1) / (N + 1).

Replicates are seeded individually from a 64-bit mix of (master seed,
replicate index, attempt), so the report is identical whatever the worker
count; aggregation is a commutative exceedance count.  A chunk's first
attempts are seeded in one vectorised pass that yields exactly the generators
``derive_seed`` builds; redraws go through ``derive_seed``.

Replicates run in contiguous index chunks of one width: as many rows as fit
their simulated paths into ``_FACTOR_FLOATS`` floats, and never fewer than
``_CHUNK``.  A chunk's first attempts are simulated by one doubling scan, then
refitted and scored as one stack: ``fit_var``, ``sample_acov``, ``racf``, the
block-Toeplitz Cholesky and the Q terms each run once per chunk.  If a numeric
error stops the stacked scoring, the chunk is rescored row by row and each
failing row is redrawn on its own, so the retry and non-PD rules are those of
a single replicate.  Chunk boundaries depend on the replicate count and the
path shape only, never on the worker count.

At ``workers > 1`` the chunks, and the trials of a study, run on one process
pool that tests and studies share.  It starts at the first call that needs
more than one process and lives until the process exits, so it helps only a
caller that makes repeated pooled calls; a one-off call pays its start-up.
"""

from __future__ import annotations

import json
import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from multiprocessing.util import Finalize

import numpy as np

from ._version import __version__
from .diagnostics import (
    TRANSFORMS,
    _FACTOR_FLOATS,
    _gv_log_steps,
    racf,
    gv_stat,
    residual_transform,
    sample_acov,
    _q_lag_terms,
    _q_weights,
)
from .errors import (
    DegenerateResiduals,
    InvalidModel,
    NonFinitePath,
    NotPositiveDefinite,
    ReplicateFailure,
    SingularDesign,
    TooShort,
)
from .estimate import FittedVar, fit_var, implied_mean
from .linalg import cholesky_lower
from .varma import burn_in_length, innovation_recursion, polynomial_radius

STATISTICS = ("gv", "q_classic", "q_modified")
INNOVATION_MODES = ("gaussian", "bootstrap")

_MAX_ATTEMPTS = 10
# The fewest replicates simulated and scored as one stack; short series get
# wider chunks, up to the ``_FACTOR_FLOATS`` path budget (see ``_chunk_rows``).
_CHUNK = 32
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_key(master: int, *words: int) -> int:
    """Fixed 64-bit mixing of a master seed with integer context words."""
    key = _splitmix64(master & _MASK64)
    for word in words:
        key = _splitmix64(key ^ _splitmix64(word & _MASK64))
    return key


def derive_seed(master: int, replicate_index: int, attempt: int = 0) -> np.random.Generator:
    """Independent generator for one replicate, stable across platforms."""
    return np.random.Generator(np.random.PCG64(derive_key(master, replicate_index, attempt)))


def _hasher(const: int, mult: int):
    """numpy SeedSequence's uint32 hash step, starting from ``const``; vectorises over arrays."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)
    return hashmix


def _seed_words(keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)`` for every uint64 key, as columns.

    A key is the entropy words ``[lo, hi]`` (a key below 2**32 hashes the
    same as ``[lo, 0]``), mixed into a pool of 4 words and drawn out as 8.
    """
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    zero = np.zeros(keys.shape, np.uint32)
    pool = [hashmix(word) for word in ((keys & _MASK32).astype(np.uint32),
                                       (keys >> 32).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> 16)
    draw = _hasher(0x8B51F9DD, 0x58F38DED)
    halves = np.array([draw(pool[i % 4]) for i in range(8)], dtype=np.uint64)
    return halves[0::2] | halves[1::2] << 32


def _seeded(master: int, start: int, stop: int):
    """Generators of ``derive_seed(master, i, 0)`` for i in start..stop-1, seeded in one pass.

    One generator is reset to each replicate's PCG64 state in turn, so a
    draw must be taken before the next one is yielded.
    """
    words = _seed_words(derive_key(master, np.arange(start, stop, dtype=np.uint64), 0))
    rng = np.random.Generator(np.random.PCG64(0))
    for init_hi, init_lo, seq_hi, seq_lo in words.T.tolist():
        # PCG64's srandom: inc = 2·seq + 1, state = (inc + init)·M + inc (mod 2**128)
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (init_hi << 64 | init_lo)) * _PCG64_MULT + inc) & _MASK128
        rng.bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng


def _check_lags(lags) -> tuple:
    """``lags`` as a tuple of ints; ``ValueError`` unless nonempty, positive and strictly ascending."""
    lags = tuple(int(l) for l in lags)
    if not lags or any(l < 1 for l in lags) or list(lags) != sorted(set(lags)):
        raise ValueError("lags must be a nonempty ascending tuple of positive integers")
    return lags


@dataclass(frozen=True)
class McConfig:
    """Configuration of one Monte-Carlo test run.

    ``workers`` is advisory parallelism; results do not depend on it.
    """

    replicates: int = 199
    master_seed: int = 0
    innovations: str = "gaussian"
    transform: str = "identity"
    statistic: str = "gv"
    lags: tuple = (5,)
    workers: int = 1

    def __post_init__(self):
        if self.replicates < 19:
            raise ValueError("replicates must be at least 19")
        if self.innovations not in INNOVATION_MODES:
            raise ValueError(f"innovations must be one of {INNOVATION_MODES}")
        if self.transform not in TRANSFORMS:
            raise ValueError(f"transform must be one of {TRANSFORMS}")
        if self.statistic not in STATISTICS:
            raise ValueError(f"statistic must be one of {STATISTICS}")
        object.__setattr__(self, "lags", _check_lags(self.lags))
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class LagResult:
    """Outcome of the test at a single lag."""

    lag: int
    observed: float
    p_value: float
    margin_of_error: float
    exceedances: int
    nonpd_replicates: int


@dataclass(frozen=True)
class TestReport:
    """Full result of one Monte-Carlo test.

    Serializes without timing or worker-count fields, so reports from runs
    that differ only in parallelism are byte-identical.
    """

    statistic: str
    replicates: int
    master_seed: int
    innovations: str
    transform: str
    order: int
    with_intercept: bool
    n_eff: int
    lags: tuple
    version: str = field(default=None)

    def __post_init__(self):
        if self.version is None:
            object.__setattr__(self, "version", __version__)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def p_hat(exceedances, n_reps: int):
    """Add-one Monte-Carlo p-value estimate of an exceedance count, or of an array of them."""
    if np.any((exceedances < 0) | (exceedances > n_reps)):
        raise ValueError("exceedances must lie in 0..n_reps")
    return (exceedances + 1) / (n_reps + 1)


def margin_of_error(p: float, n_reps: int) -> float:
    """Approximate 95% margin of error of a Monte-Carlo p-value."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return 1.96 * math.sqrt(p * (1.0 - p) / n_reps)


def _gv_row(rs, lags, n_eff: int) -> np.ndarray:
    """gv at each lag from one factor; lag by lag only if the largest is not PD.

    On a stack, a member that is not PD fails the call, and the caller
    rescores the stack row by row.
    """
    try:
        log_steps = _gv_log_steps(rs, max(lags))
    except NotPositiveDefinite:
        if rs.values[0].ndim > 2:
            raise
        return np.array([gv_stat(rs, lag, n_eff) for lag in lags])
    return -n_eff * np.cumsum(log_steps, axis=-1)[..., np.asarray(lags) - 1]


def evaluate_statistics(residuals, statistics, lags, transform: str = "identity") -> np.ndarray:
    """Statistic values for every (statistic, lag) pair, one row per statistic.

    The generalized-variance statistic is ``+inf`` at lags where the
    block-Toeplitz correlation matrix is not positive definite.  A stack of
    residual series of shape ``(..., n, k)`` is scored in one pass and gives
    ``(..., statistics, lags)``; there a matrix that is not positive definite
    raises :class:`NotPositiveDefinite` instead.
    """
    work = residual_transform(residuals, transform)
    n_eff = work.shape[-2]
    max_lag = max(lags)
    acf = sample_acov(work, max_lag)
    out = np.empty(work.shape[:-2] + (len(statistics), len(lags)))
    q_terms = None
    for row, stat in enumerate(statistics):
        if stat == "gv":
            out[..., row, :] = _gv_row(racf(acf, "hosking"), lags, n_eff)
        else:
            if q_terms is None:
                q_terms = _q_lag_terms(acf, max_lag)
            weights = _q_weights(n_eff, max_lag, stat.removeprefix("q_"))
            out[..., row, :] = np.cumsum(weights * q_terms, axis=-1)[..., np.asarray(lags) - 1]
    return out


@dataclass(frozen=True)
class _ReplicatePlan:
    """Everything a worker needs to generate and score one replicate."""

    phi: tuple
    mean: np.ndarray
    innov_chol: np.ndarray
    pool: np.ndarray
    n: int
    order: int
    with_intercept: bool
    transform: str
    statistics: tuple
    lags: tuple
    master_seed: int


def _draw_innovations(plan: _ReplicatePlan, rng: np.random.Generator) -> np.ndarray:
    steps = burn_in_length(plan.order, 0) + plan.n
    if plan.pool is not None:
        return plan.pool[rng.integers(0, plan.pool.shape[0], size=steps)]
    k = plan.innov_chol.shape[0]
    return rng.standard_normal((steps, k)) @ plan.innov_chol.T


def _score_path(plan: _ReplicatePlan, path: np.ndarray) -> np.ndarray:
    """Refit one simulated deviation path, or a stack of them, and score it."""
    if not np.isfinite(path).all():
        raise NonFinitePath(
            "simulated path is not finite (numerically explosive fitted model)")
    refit = fit_var(plan.mean + path[..., burn_in_length(plan.order, 0):, :],
                    plan.order, plan.with_intercept)
    return evaluate_statistics(refit.residuals, plan.statistics, plan.lags, plan.transform)


# Numeric failures after which a replicate is redrawn with the next attempt.
_RETRIED = (SingularDesign, TooShort, DegenerateResiduals, NotPositiveDefinite,
            NonFinitePath)


def _one_replicate(plan: _ReplicatePlan, index: int, first_attempt: int = 0) -> np.ndarray:
    last_error = None
    for attempt in range(first_attempt, _MAX_ATTEMPTS):
        rng = derive_seed(plan.master_seed, index, attempt)
        try:
            path = innovation_recursion(plan.phi, (), _draw_innovations(plan, rng))
            return _score_path(plan, path)
        except _RETRIED as err:
            last_error = err
    raise ReplicateFailure(
        f"replicate {index} failed after {_MAX_ATTEMPTS} attempts: {last_error}")


def _replicate_chunk(args) -> list:
    """First attempts of replicates start..stop-1, seeded, simulated and scored as one stack.

    If the stack fails, it is rescored row by row, and a row that fails is
    redrawn on its own from attempt 1.
    """
    plan, start, stop = args
    paths = innovation_recursion(plan.phi, (), np.stack([
        _draw_innovations(plan, rng) for rng in _seeded(plan.master_seed, start, stop)]))
    try:
        return list(_score_path(plan, paths))
    except _RETRIED:
        pass
    rows = []
    for index, path in zip(range(start, stop), paths):
        try:
            rows.append(_score_path(plan, path))
        except _RETRIED:
            rows.append(_one_replicate(plan, index, first_attempt=1))
    return rows


def _forget_pool() -> None:
    """Start with no pool and a free lock; also runs in every forked child.

    A child must not touch its parent's pool, and a lock a parent thread held
    at the fork would never be released there.
    """
    global _POOL, _POOL_LOCK
    # ``(process count, executor)`` or None; one pooled call at a time holds the lock.
    _POOL, _POOL_LOCK = None, threading.Lock()


_forget_pool()
os.register_at_fork(after_in_child=_forget_pool)


def _drop_pool() -> None:
    """Shut the pool down, if there is one, and forget it."""
    global _POOL
    if _POOL is not None:
        _POOL[1].shutdown(wait=True)
    _POOL = None


def _pool_map(fn, tasks, workers: int, chunksize: int = 1) -> list:
    """``[fn(t) for t in tasks]``, across at most one process per task when ``workers > 1``.

    The pool outlives the call and serves the next one of the same process
    count.  Another count shuts it down before a new one forks, so the process
    never forks while a second pool's manager thread runs.  Pooled calls from
    several threads take turns.  A broken pool is dropped and its error
    raised.  ``concurrent.futures`` joins the workers when the interpreter
    exits.
    """
    global _POOL
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != workers:
            _drop_pool()
            _POOL = (workers, ProcessPoolExecutor(max_workers=workers))
            # A multiprocessing child joins its children before that exit hook
            # runs, so shut the pool down first, ahead of the call queue's own
            # finalizer (priority 10) that must still carry the workers' sentinels.
            Finalize(None, _drop_pool, exitpriority=20)
        try:
            return list(_POOL[1].map(fn, tasks, chunksize=chunksize))
        except BrokenProcessPool:
            _drop_pool()
            raise


def _chunk_rows(plan: _ReplicatePlan) -> int:
    """Replicates per chunk: paths of ``_FACTOR_FLOATS`` floats, at least ``_CHUNK``."""
    path_floats = (burn_in_length(plan.order, 0) + plan.n) * plan.mean.shape[-1]
    return max(_CHUNK, _FACTOR_FLOATS // path_floats)


def _run_replicates(plan: _ReplicatePlan, n_reps: int, workers: int) -> list:
    # Chunk boundaries depend on the replicate count and path shape, never on workers.
    rows = _chunk_rows(plan)
    jobs = [(plan, start, min(start + rows, n_reps + 1))
            for start in range(1, n_reps + 1, rows)]
    return [row for part in _pool_map(_replicate_chunk, jobs, workers) for row in part]


def _build_plan(fitted: FittedVar, n: int, config: McConfig, statistics) -> _ReplicatePlan:
    # The null is simulated from the fitted model, so it must be stationary.
    stationary, radius = polynomial_radius(fitted.phi_hat)
    if not stationary:
        raise InvalidModel(
            f"fitted VAR({fitted.order}) is not stationary (AR spectral radius "
            f"{radius:.6f}); its Monte-Carlo null cannot be simulated")
    if config.innovations == "bootstrap":
        pool = fitted.residuals - fitted.residuals.mean(axis=0)
        innov_chol = None
    else:
        pool = None
        innov_chol = cholesky_lower(fitted.gamma0_hat)
    return _ReplicatePlan(
        phi=fitted.phi_hat,
        mean=implied_mean(fitted),
        innov_chol=innov_chol,
        pool=pool,
        n=n,
        order=fitted.order,
        with_intercept=fitted.with_intercept,
        transform=config.transform,
        statistics=tuple(statistics),
        lags=config.lags,
        master_seed=config.master_seed,
    )


def mc_pvalues(series, order: int, config: McConfig, statistics=None,
               with_intercept: bool = True):
    """Shared engine: observed statistics and Monte-Carlo p-values.

    Runs one replicate set and scores every statistic in ``statistics``
    against it (defaults to the single statistic in ``config``).  Returns
    ``(fitted, observed, p_values, exceedances, nonpd_counts)`` where the
    array-valued entries have one row per statistic and one column per lag.
    """
    if statistics is None:
        statistics = (config.statistic,)
    series = np.asarray(series, dtype=float)
    fitted = fit_var(series, order, with_intercept=with_intercept)
    observed = evaluate_statistics(
        fitted.residuals, statistics, config.lags, config.transform)
    plan = _build_plan(fitted, series.shape[0], config, statistics)
    replicate_stats = np.array(_run_replicates(plan, config.replicates, config.workers))

    exceed = (replicate_stats >= observed).sum(axis=0)
    nonpd = np.isinf(replicate_stats).sum(axis=0)
    return fitted, observed, p_hat(exceed, config.replicates), exceed, nonpd


def mc_test(series, order: int, config: McConfig,
            with_intercept: bool = True) -> TestReport:
    """Monte-Carlo significance test of a VAR(p) fit at the configured lags."""
    fitted, observed, pvals, exceed, nonpd = mc_pvalues(
        series, order, config, with_intercept=with_intercept)
    results = tuple(
        LagResult(
            lag=lag,
            observed=float(observed[0, col]),
            p_value=float(pvals[0, col]),
            margin_of_error=margin_of_error(float(pvals[0, col]), config.replicates),
            exceedances=int(exceed[0, col]),
            nonpd_replicates=int(nonpd[0, col]),
        )
        for col, lag in enumerate(config.lags)
    )
    return TestReport(
        statistic=config.statistic,
        replicates=config.replicates,
        master_seed=config.master_seed,
        innovations=config.innovations,
        transform=config.transform,
        order=order,
        with_intercept=fitted.with_intercept,
        n_eff=fitted.n_eff,
        lags=results,
    )
