"""Size and power experiment harnesses.

Both harnesses run one trial function on many independent series drawn from
built-in models.  It returns the trial's rejections at a fixed nominal level,
a row per column and a column per lag, and a study sums them per (model, n)
stratum into empirical rejection rates.  Trials are seeded individually from
the master seed, so results do not depend on the worker count, and every cell
is regenerable from the metadata embedded in the result.

Default scale (trials=500, replicates=199) finishes in minutes on a
multi-core desktop; the full reference scale (trials=10^4, replicates=10^3)
needs hours of CPU.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from ._version import __version__
from .asymptotics import ab_params, approx_pvalue
from .diagnostics import _lag_fits
from .errors import InvalidModel, ReplicateFailure
from .estimate import _check_count, fit_var
from .montecarlo import (
    McConfig, _pool_map, derive_key, derive_seed, evaluate_statistics, mc_pvalues)
from .varma import CATALOG_NAMES, catalog, simulate

DEFAULT_TRIALS = 500
NOMINAL_LEVEL = 0.05

# The columns of each size-study method, in table order.
SIZE_METHODS = {"mc": ("mc",), "chi2": ("chi2",), "both": ("chi2", "mc")}
_POWER_COLUMNS = ("gv", "q_modified")
# The statistic each Monte-Carlo column scores; ``chi2`` is gv by the approximation.
_MC_STATISTIC = {"mc": "gv", "gv": "gv", "q_modified": "q_modified"}


@dataclass(frozen=True)
class StudyCell:
    """Rejection count for one (model, n, lag, column) combination."""

    model: str
    n: int
    lag: int
    column: str
    rejections: int
    trials: int

    @property
    def rate_percent(self) -> float:
        return 100.0 * self.rejections / self.trials


@dataclass(frozen=True)
class StudyResult:
    """Tabulated rejection rates plus everything needed to regenerate them."""

    kind: str
    models: tuple
    ns: tuple
    lags: tuple
    trials: int
    replicates: int
    master_seed: int
    level: float
    columns: tuple
    cells: tuple
    skipped: tuple
    version: str = __version__

    def rate(self, model: str, n: int, lag: int, column: str):
        for cell in self.cells:
            if (cell.model, cell.n, cell.lag, cell.column) == (model, n, lag, column):
                return cell.rate_percent
        return None

    def to_dict(self) -> dict:
        out = asdict(self)
        for cell, row in zip(self.cells, out["cells"]):
            row["rate_percent"] = cell.rate_percent
        out["skipped"] = [list(s) for s in self.skipped]
        return out

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def format_table(self) -> str:
        """The rates as text; ``NA`` marks a lag the m-guard refuses, or chi2 at m <= p."""
        lines = [
            f"{self.kind}  nominal {100 * self.level:g}%  trials={self.trials}"
            f"  replicates={self.replicates}  seed={self.master_seed}",
            "rates in percent",
            "",
        ]
        header = f"{'model':<8}{'m':>4}"
        for n in self.ns:
            for col in self.columns:
                header += f"{f'{col}@{n}':>14}"
        lines.append(header)
        reasons = set()
        for model in self.models:
            for lag in self.lags:
                row = f"{model:<8}{lag:>4}"
                for n in self.ns:
                    for col in self.columns:
                        rate = self.rate(model, n, lag, col)
                        if rate is None:
                            guarded = (model, n, lag) in self.skipped
                            reasons.add("lag refused by the m-guard" if guarded
                                        else "chi2 needs m above the fit order p")
                        row += f"{'NA':>14}" if rate is None else f"{rate:>14.1f}"
                lines.append(row)
        lines[1] += f"  (NA: {'; '.join(sorted(reasons))})" if reasons else ""
        return "\n".join(lines)


def _trial(args) -> np.ndarray:
    """One trial's rejections at the nominal level: a row per column, a column per lag.

    The Monte-Carlo columns are scored against one replicate set; ``chi2``
    refers the observed gv to its scaled chi-square approximation.
    """
    name, n, trial, master_seed, lags, replicates, columns, order = args
    model = catalog(name)
    words = (master_seed, CATALOG_NAMES.index(name), n, trial)
    series = simulate(model, n, derive_seed(derive_key(*words), 0))
    statistics = tuple(_MC_STATISTIC[column] for column in columns if column != "chi2")
    if statistics:
        config = McConfig(replicates=replicates, master_seed=derive_key(*words, 1), lags=lags)
        try:
            _, observed, pvals, _, _ = mc_pvalues(series, order, config, statistics=statistics)
        except ReplicateFailure as err:  # the test's seed is a hash, so name the trial
            raise ReplicateFailure(f"{name}, n={n}, trial {trial}: {err}") from err
    else:
        statistics = ("gv",)
        observed = evaluate_statistics(fit_var(series, order).residuals, statistics, lags)
    reject = np.empty((len(columns), len(lags)), dtype=bool)
    for row, column in enumerate(columns):
        if column == "chi2":
            # the approximation needs m > p; other lags have no chi2 cell
            gv = observed[statistics.index("gv")]
            reject[row] = [lag > order and approx_pvalue(
                               float(stat), ab_params(model.k, lag, order, 0)) <= NOMINAL_LEVEL
                           for stat, lag in zip(gv, lags)]
        else:
            reject[row] = pvals[statistics.index(_MC_STATISTIC[column])] <= NOMINAL_LEVEL
    return reject


def check_study_args(models, trials, replicates, workers, lags, ns, master_seed) -> tuple:
    """``(trials, ns, config)``, with ints for counts; ``ValueError`` for any argument out of range.

    ``config`` is the :class:`McConfig` that checks replicates, workers, lags and the seed.
    """
    if isinstance(models, str) or not models or len(set(models)) < len(models):
        raise ValueError(f"models must be a nonempty list of names without repeats, got {models!r}")
    trials = _check_count("trials", trials, 1)
    checked = tuple(_check_count("sample sizes", n, 1) for n in ns) if np.iterable(ns) else None
    if checked is None or len(set(checked)) < len(checked):
        raise ValueError(f"ns must be a list of distinct sample sizes, got {ns!r}")
    return trials, checked, McConfig(replicates=replicates, master_seed=master_seed,
                                     workers=workers, lags=lags)


def _run_study(kind, columns, order, models, trials, ns, config) -> StudyResult:
    """Run every trial of every (model, n) stratum in one pool map, and sum the rejections.

    ``trials``, ``ns`` and ``config`` are as ``check_study_args`` returns them.
    A trial sees its stratum's lags that pass the lag guard; a stratum with no
    such lag runs none.  Every model name and the fit order are checked first.
    """
    order = _check_count("fit_order", order, 0)
    strata = []          # (model, n, usable lags) of the strata that run trials
    tasks, skipped = [], []
    for name in models:
        k = catalog(name).k
        for n in ns:
            usable = tuple(lag for lag in config.lags if _lag_fits(n - order, lag, k))
            skipped.extend((name, n, lag) for lag in config.lags if lag not in usable)
            if usable:
                strata.append((name, n, usable))
                tasks.extend((name, n, trial, config.master_seed, usable, config.replicates,
                              columns, order) for trial in range(trials))
    results = iter(_pool_map(_trial, tasks, config.workers))
    cells = []
    for model, n, usable in strata:
        counts = sum(islice(results, trials))
        cells.extend(StudyCell(model, n, lag, column, int(counts[row, col]), trials)
                     for col, lag in enumerate(usable) for row, column in enumerate(columns)
                     if column != "chi2" or lag > order)
    return StudyResult(kind, tuple(models), ns, config.lags, trials, config.replicates,
                       config.master_seed, NOMINAL_LEVEL, tuple(columns), tuple(cells),
                       tuple(skipped))


def size_study(models=("phi1", "phi2", "phi3", "phi4"), ns=(100, 200, 500),
               lags=(5, 10, 15, 20, 25, 30), trials: int = DEFAULT_TRIALS,
               replicates: int = McConfig.replicates, master_seed: int = McConfig.master_seed,
               method: str = "both", workers: int = McConfig.workers) -> StudyResult:
    """Empirical rejection rate of a nominal-5% test under the null.

    Each trial simulates a catalog VAR(1) model, refits a VAR(1), and tests
    the residuals with the generalized-variance statistic, evaluating the
    p-value by the scaled chi-square approximation, the Monte-Carlo method,
    or both.  A model that is not a VAR(1) raises ``InvalidModel`` before
    any trial runs.
    """
    if method not in SIZE_METHODS:
        *others, last = map(repr, SIZE_METHODS)
        raise ValueError(f"method must be {', '.join(others)} or {last}")
    checked = check_study_args(models, trials, replicates, workers, lags, ns, master_seed)
    for name in models:
        model = catalog(name)
        if (model.p, model.q) != (1, 0):
            # the refitted VAR(1) is the null, so another model would measure power
            raise InvalidModel(f"size-study needs a VAR(1) model; {name} is a "
                               f"VARMA({model.p}, {model.q})")
    return _run_study("size-study", SIZE_METHODS[method], 1, models, *checked)


def power_study(models=tuple(f"model{i}" for i in range(1, 9)), ns=(50, 100, 200),
                lags=(5, 10, 15, 20, 30), trials: int = DEFAULT_TRIALS,
                replicates: int = McConfig.replicates, master_seed: int = McConfig.master_seed,
                fit_order: int = 1, workers: int = McConfig.workers) -> StudyResult:
    """Empirical power of nominal-5% Monte-Carlo tests under misspecification.

    Each trial simulates a catalog model, fits a (generally wrong) VAR of
    ``fit_order``, and runs the Monte-Carlo test once, scoring both the
    generalized-variance statistic and the modified classical statistic
    against the same replicate set.
    """
    return _run_study("power-study", _POWER_COLUMNS, fit_order, models, *check_study_args(
        models, trials, replicates, workers, lags, ns, master_seed))
