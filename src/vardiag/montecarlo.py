"""Monte-Carlo significance test for portmanteau statistics.

The test fits a VAR(p) to the observed series, computes the chosen statistic
at each requested lag, then simulates the fitted model N times, refits, and
rescores.  The p-value at each lag is the add-one exceedance proportion

    p_hat = (#{replicate statistic >= observed} + 1) / (N + 1).

Replicates are seeded individually from a 64-bit mix of (master seed,
replicate index, 0), so the report is identical whatever the worker count;
aggregation is a commutative exceedance count.  A chunk hashes its
replicates' keys in one vectorised pass of numpy's SeedSequence hash, whose
constants are computed once at import, and numpy's ``PCG64`` seeds from those
words exactly as ``derive_seed(master, index)`` does.

Replicates run in contiguous index chunks of one width: as many rows as fit
their simulated paths into ``2 * _FACTOR_FLOATS`` floats (512 KiB), and never
fewer than ``_CHUNK``.  For a bivariate VAR(1) that is one chunk for 199
replicates of a 50-row series, two (105 + 94 rows) at n = 200 and four at
n = 500.  A chunk's replicates are drawn into one buffer, coloured or
gathered once, simulated by one doubling scan, then refitted and scored as one
stack: ``fit_var``, ``sample_acov``, ``racf``, the block-Toeplitz Cholesky and
the Q terms each run once per chunk.  For a VAR(1) a chunk holds at most
three path-sized arrays at once (the draws, the scan's states and its
products), two once the scan has freed the draws, and it drops its paths once
the refit has read them.  Chunk boundaries depend on the replicate count and
the path shape only, never on the worker count.
A chunk is scored once, and no replicate is redrawn: a numeric error fails the
test with ``ReplicateFailure``, naming the chunk's rows, the master seed and
the cause.  Under a stationary fit it has probability zero with Gaussian
draws: a replicate's block-Toeplitz matrix is the Gram matrix of its padded
lag matrix, so it is PD unless that matrix loses column rank.

At ``workers > 1`` a test's chunks, and the trials of a study stratum, run
on one process pool that tests and studies share.  Every pooled map hands
each process one contiguous batch of its tasks, ``ceil(tasks / processes)``
long, and returns the results in task order (four chunks on two or three
processes are two batches of two).  A test of one chunk, such as 199
replicates at n = 50, runs in the calling process at any worker count.
The pool starts at the first call that needs more than one process and lives
until the process exits, so it helps only a caller that makes repeated pooled
calls; a one-off call pays its start-up.
That first call also imports ``concurrent.futures`` and ``multiprocessing``,
in ``_pool_map``, with their exit hooks; ``import vardiag`` and one-process
calls load neither.  ``numpy.random`` loads at the first replicate draw, or at
the first pooled call before the pool forks, so forked workers inherit it;
``import vardiag``, fitting and scoring never load it.
On glibc its workers keep the heap they free, so a chunk's arrays are not
handed back to the kernel and faulted in again by the next chunk.  The
caller's own process keeps its allocator settings, at any worker count.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import asdict, dataclass
from functools import partial

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
    _q_values,
)
from .errors import (
    InvalidModel,
    NonFinitePath,
    NotPositiveDefinite,
    ReplicateFailure,
    VardiagError,
)
from .estimate import FittedVar, _check_count, fit_var
from .linalg import cholesky_lower
from .varma import burn_in_length, innovation_recursion, polynomial_radius

STATISTICS = ("gv", "q_classic", "q_modified")
INNOVATION_MODES = ("gaussian", "bootstrap")

# The fewest replicates simulated and scored as one stack; short series get
# wider chunks, up to the ``2 * _FACTOR_FLOATS`` path budget (see ``_chunk_rows``).
_CHUNK = 32
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_key(master: int, *words: int) -> int:
    """Fixed 64-bit mixing of a master seed with integer words; an integer array of words
    gives one key per entry.  Anything else raises ``ValueError`` naming the master or word."""
    key = _splitmix64(_check_count("master", master, -math.inf) & _MASK64)
    for word in words:
        if isinstance(word, np.ndarray) and word.ndim and word.dtype.kind in "iu":
            word = word.astype(np.uint64)
        else:
            word = _check_count("word", word, -math.inf) & _MASK64
        key = _splitmix64(key ^ _splitmix64(word))
    return key


def derive_seed(master: int, replicate_index: int) -> np.random.Generator:
    """Independent generator of one replicate, stable across platforms."""
    return np.random.Generator(np.random.PCG64(derive_key(master, replicate_index, 0)))


def _hash_steps(const: int, mult: int, count: int) -> np.ndarray:
    """The ``(xor, multiply)`` uint32 constants of numpy SeedSequence's next ``count`` hash
    steps from ``const``, shaped ``(2, count, 1)`` to hash one row of words per step."""
    steps = []
    for _ in range(count):
        steps.append((const, const * mult & _MASK32))
        const = steps[-1][1]
    return np.array(steps, dtype=np.uint32).T[..., None]


def _hash(words: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """SeedSequence's hash step of each row of ``words`` with that row's constants."""
    words = (words ^ steps[0]) * steps[1]
    return words ^ (words >> 16)


# A key's pool takes 4 hash steps, then 3 more per source word as it mixes into the
# other three; drawing the state takes 8 steps of a second sequence.
_POOL_STEPS = _hash_steps(0x43B0D7E5, 0x931E8875, 16)
_DRAW_STEPS = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)
_OTHER_WORDS = tuple([dst for dst in range(4) if dst != src] for src in range(4))


def _seed_words(keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)`` for every uint64 key, as columns.

    ``PCG64(key)`` seeds itself from these words.  A key is the entropy words
    ``[lo, hi]`` (a key below 2**32 hashes the same as ``[lo, 0]``), mixed
    into a pool of 4 words and drawn out as 8.  Every source word mixes into
    the other three at once: those three mixes read no word they write.
    """
    pool = np.zeros((4,) + keys.shape, np.uint32)
    pool[0], pool[1] = keys & _MASK32, keys >> 32
    pool = _hash(pool, _POOL_STEPS[:, :4])
    for src, dst in enumerate(_OTHER_WORDS):
        mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * _hash(
            pool[src], _POOL_STEPS[:, 4 + 3 * src:7 + 3 * src])
        pool[dst] = mixed ^ (mixed >> 16)
    halves = _hash(np.concatenate((pool, pool)), _DRAW_STEPS).astype(np.uint64)
    return halves[0::2] | halves[1::2] << 32


@dataclass(eq=False)
class _Words:
    """A seed sequence whose state is already drawn: one key's ``_seed_words`` for ``PCG64``."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _load_random() -> None:
    """Import ``numpy.random`` and register ``_Words`` as its ``ISeedSequence`` (idempotent)."""
    np.random.bit_generator.ISeedSequence.register(_Words)


def _seeded(master: int, start: int, stop: int) -> list:
    """Generators of ``derive_seed(master, i)`` for i in start..stop-1, hashed in one pass."""
    words = _seed_words(derive_key(master, np.arange(start, stop, dtype=np.uint64), 0))
    _load_random()
    # PCG64 reads each key's words straight from memory, so the rows must be contiguous
    return [np.random.Generator(np.random.PCG64(_Words(w))) for w in np.ascontiguousarray(words.T)]


def _check_lags(lags) -> tuple:
    """``lags`` as a tuple of ints; ``ValueError`` unless nonempty, positive and strictly ascending."""
    try:
        checked = tuple(map(operator.index, lags))
    except TypeError:
        checked = ()
    if not checked or any(l < 1 for l in checked) or list(checked) != sorted(set(checked)):
        raise ValueError(f"lags must be nonempty ascending positive integers, got {lags!r}")
    return checked


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
        object.__setattr__(self, "replicates", _check_count("replicates", self.replicates, 19))
        # any integer seeds a test, a negative one too
        object.__setattr__(self, "master_seed",
                           _check_count("master_seed", self.master_seed, -math.inf))
        if self.innovations not in INNOVATION_MODES:
            raise ValueError(f"innovations must be one of {INNOVATION_MODES}")
        if self.transform not in TRANSFORMS:
            raise ValueError(f"transform must be one of {TRANSFORMS}")
        if self.statistic not in STATISTICS:
            raise ValueError(f"statistic must be one of {STATISTICS}")
        object.__setattr__(self, "lags", _check_lags(self.lags))
        object.__setattr__(self, "workers", _check_count("workers", self.workers, 1))


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
    version: str = __version__

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def p_hat(exceedances, n_reps: int):
    """Add-one Monte-Carlo p-value estimate of an exceedance count, or of an array of them."""
    n_reps = _check_count("n_reps", n_reps, 1)
    counts = np.asarray(exceedances)
    if counts.dtype.kind not in "biu" or np.any((counts < 0) | (counts > n_reps)):
        raise ValueError(f"exceedances must be integers in 0..n_reps, got {exceedances!r}")
    return (counts + 1) / (n_reps + 1)


def margin_of_error(p: float, n_reps: int) -> float:
    """Approximate 95% margin of error of a Monte-Carlo p-value."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    n_reps = _check_count("n_reps", n_reps, 1)
    return 1.96 * math.sqrt(p * (1.0 - p) / n_reps)


def _gv_row(rs, lags, n_eff: int) -> np.ndarray:
    """gv at each lag from one factor; lag by lag only if the largest is not PD.

    On a stack, a member that is not PD raises :class:`NotPositiveDefinite`,
    so a replicate chunk fails the test rather than score ``+inf``.
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
    raises :class:`NotPositiveDefinite` instead.  A 1-D array is one ``(n, 1)`` series.
    No statistic, a name outside ``STATISTICS`` or lags that are not ascending
    positive integers raise ``ValueError``.
    """
    if len(statistics) == 0 or not set(statistics) <= set(STATISTICS):
        raise ValueError(f"statistics must be among {STATISTICS}, got {statistics!r}")
    lags = _check_lags(lags)
    max_lag = max(lags)
    acf = sample_acov(residual_transform(residuals, transform), max_lag)
    n_eff = acf.n_eff
    out = np.empty(acf.values[0].shape[:-2] + (len(statistics), len(lags)))
    q_terms = None
    for row, stat in enumerate(statistics):
        if stat == "gv":
            out[..., row, :] = _gv_row(racf(acf, "hosking"), lags, n_eff)
        else:
            if q_terms is None:
                q_terms = _q_lag_terms(acf, max_lag)
            q_values = _q_values(q_terms, n_eff, stat.removeprefix("q_"))
            out[..., row, :] = q_values[..., np.asarray(lags) - 1]
    return out


@dataclass(frozen=True, eq=False)
class _ReplicatePlan:
    """Everything a worker needs to generate and score one replicate.

    The null is ``fitted``'s VAR about mean zero: a refit with an intercept is the
    same at any level, and without one the fitted mean is zero.  ``innov_chol``
    is ``None`` for bootstrap draws.
    """

    fitted: FittedVar
    config: McConfig
    statistics: tuple
    innov_chol: np.ndarray


def _path_steps(fitted: FittedVar) -> int:
    """Steps of one simulated path: the burn-in, then as many rows as the fitted series."""
    return burn_in_length(fitted.order, 0) + fitted.order + fitted.n_eff


def _draw_innovations(plan: _ReplicatePlan, rngs) -> np.ndarray:
    """One replicate's innovations per generator, in one buffer coloured or gathered once."""
    steps = _path_steps(plan.fitted)
    if plan.innov_chol is None:
        resid = plan.fitted.residuals
        idx = np.empty((len(rngs), steps), dtype=np.int64)
        for row, rng in zip(idx, rngs):
            row[:] = rng.integers(0, resid.shape[0], size=steps)
        return np.take(resid - resid.mean(axis=0), idx, axis=0)
    k = plan.innov_chol.shape[0]
    noise = np.empty((len(rngs), steps, k))
    for row, rng in zip(noise, rngs):
        rng.standard_normal(out=row)
    return (noise.reshape(-1, k) @ plan.innov_chol.T).reshape(noise.shape)


def _refit_and_score(plan: _ReplicatePlan, paths: np.ndarray) -> np.ndarray:
    """Refit one simulated deviation path, or a stack of them, after its burn-in, and score it."""
    if not np.isfinite(paths).all():
        raise NonFinitePath(
            "simulated path is not finite (numerically explosive fitted model)")
    fitted, config = plan.fitted, plan.config
    residuals = fit_var(paths[..., burn_in_length(fitted.order, 0):, :],
                        fitted.order, fitted.with_intercept).residuals
    del paths  # passed as a temporary, they are freed here from CPython 3.11 on
    return evaluate_statistics(residuals, plan.statistics, config.lags, config.transform)


def _replicate_chunk(plan: _ReplicatePlan, rows: range) -> np.ndarray:
    """Replicates ``rows``, seeded, simulated and scored once, as one stack.

    Returns one ``(rows, statistics, lags)`` array.  A numeric failure of the
    stack raises :class:`ReplicateFailure` from its cause, naming the rows and
    the master seed; a ``ValueError`` passes through as it is.
    """
    # the generators, the innovations and the paths are freed as soon as they are spent
    try:
        return _refit_and_score(plan, innovation_recursion(
            plan.fitted.phi_hat, (), _draw_innovations(
                plan, _seeded(plan.config.master_seed, rows.start, rows.stop))))
    except VardiagError as err:
        raise ReplicateFailure(
            f"replicates {rows.start}..{rows.stop - 1} of master seed {plan.config.master_seed} "
            f"failed: {type(err).__name__}: {err}") from err


def _keep_freed_heap() -> None:
    """Pool-worker initializer: on glibc, keep freed arrays in the heap between chunks.

    By default glibc hands a chunk's freed arrays back to the kernel, and the
    next chunk faults them in again, page by page.  The thresholds set here
    are the ceilings that glibc's own dynamic rule reaches, so no path length
    is served worse than by the default.  Other C libraries are left as they are.
    """
    import ctypes
    import platform

    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: arrays below 32 MiB come from the heap
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep up to 64 MiB free at the heap top


def _forget_pool() -> None:
    """Start with no pool and a free lock; also runs in every forked child.

    A child must not touch its parent's pool, and a lock a parent thread held
    at the fork would never be released there.
    """
    global _POOL, _POOL_LOCK
    # ``(process count, executor, exit hook)`` or None; one pooled call at a time holds the lock.
    _POOL, _POOL_LOCK = None, threading.Lock()


_forget_pool()
os.register_at_fork(after_in_child=_forget_pool)


def _drop_pool() -> None:
    """Shut the pool down, if there is one, and forget it and its exit hook."""
    global _POOL
    if _POOL is not None:
        _POOL[2].cancel()
        _POOL[1].shutdown(wait=True)
    _POOL = None


def _pool_map(fn, tasks, workers: int) -> list:
    """``[fn(t) for t in tasks]``, across at most one process per task when ``workers > 1``.

    The tasks go out in one contiguous batch per process, in task order.
    The pool outlives the call and serves the next one of the same process count,
    ``min(workers, len(tasks))``: at ``workers=4`` a test's two chunks take two
    processes and a study stratum's 500 trials four, so each replaces the other's pool.
    Another count shuts it down before a new one forks, so the process never
    forks while a second pool's manager thread runs.  Pooled calls from several
    threads take turns.  A broken pool is dropped and its error raised.  The
    first pooled call imports the pool's modules here, and so registers their
    exit hooks and ours: ``concurrent.futures`` joins the workers at exit.  It
    loads ``numpy.random`` before any fork, so forked workers need not.
    """
    global _POOL
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    from multiprocessing.util import Finalize
    _load_random()
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != workers:
            _drop_pool()
            # A multiprocessing child joins its children before that exit hook
            # runs, so shut the pool down first, ahead of the call queue's own
            # finalizer (priority 10) that must still carry the workers' sentinels.
            _POOL = (workers, ProcessPoolExecutor(workers, initializer=_keep_freed_heap),
                     Finalize(None, _drop_pool, exitpriority=20))
        try:
            return list(_POOL[1].map(fn, tasks, chunksize=math.ceil(len(tasks) / workers)))
        except BrokenProcessPool:
            _drop_pool()
            raise


def _chunk_rows(plan: _ReplicatePlan) -> int:
    """Replicates per chunk: paths of ``2 * _FACTOR_FLOATS`` floats, at least ``_CHUNK``."""
    return max(_CHUNK, 2 * _FACTOR_FLOATS // (_path_steps(plan.fitted) * plan.fitted.k))


def _run_replicates(plan: _ReplicatePlan, n_reps: int, workers: int) -> np.ndarray:
    """Statistics of replicates 1..n_reps as one ``(replicates, statistics, lags)`` array."""
    # Chunk boundaries depend on the replicate count and path shape, never on workers.
    rows = _chunk_rows(plan)
    chunks = [range(start, min(start + rows, n_reps + 1)) for start in range(1, n_reps + 1, rows)]
    return np.concatenate(_pool_map(partial(_replicate_chunk, plan), chunks, workers))


def _build_plan(fitted: FittedVar, config: McConfig, statistics) -> _ReplicatePlan:
    # The null is simulated from the fitted model, so it must be stationary.
    stationary, radius = polynomial_radius(fitted.phi_hat)
    if not stationary:
        raise InvalidModel(
            f"fitted VAR({fitted.order}) is not stationary (AR spectral radius "
            f"{radius:.6f}); its Monte-Carlo null cannot be simulated")
    innov_chol = None if config.innovations == "bootstrap" else cholesky_lower(fitted.gamma0_hat)
    return _ReplicatePlan(fitted, config, tuple(statistics), innov_chol)


def mc_pvalues(series, order: int, config: McConfig, statistics=None,
               with_intercept: bool = True):
    """Shared engine: observed statistics and Monte-Carlo p-values.

    Runs one replicate set and scores every statistic in ``statistics``
    against it (defaults to the single statistic in ``config``).  Returns
    ``(fitted, observed, p_values, exceedances, nonpd_counts)`` where the
    array-valued entries have one row per statistic and one column per lag.
    ``nonpd_counts`` reads 0, because a replicate stack that is not PD fails the test.
    """
    if statistics is None:
        statistics = (config.statistic,)
    fitted = fit_var(series, order, with_intercept=with_intercept)
    observed = evaluate_statistics(
        fitted.residuals, statistics, config.lags, config.transform)
    plan = _build_plan(fitted, config, statistics)
    replicate_stats = _run_replicates(plan, config.replicates, config.workers)

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
        order=fitted.order,
        with_intercept=fitted.with_intercept,
        n_eff=fitted.n_eff,
        lags=results,
    )
