"""Size and power experiment harnesses.

Both harnesses draw many independent trial series from built-in models, run
the diagnostic test on every trial, and tabulate empirical rejection rates at
a fixed nominal level.  Trials are seeded individually from the master seed,
so results do not depend on the worker count, and every cell is regenerable
from the metadata embedded in the result.

Default scale (trials=500, replicates=199) finishes in minutes on a
multi-core desktop; the full reference scale (trials=10^4, replicates=10^3)
needs a cluster.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import islice

from ._version import __version__
from .asymptotics import ab_params, approx_pvalue
from .diagnostics import _lag_fits
from .errors import InvalidModel
from .estimate import fit_var
from .montecarlo import (
    McConfig, _pool_map, derive_key, derive_seed, evaluate_statistics, mc_pvalues)
from .varma import CATALOG_NAMES, catalog, simulate

DEFAULT_TRIALS = 500
DEFAULT_REPLICATES = 199
NOMINAL_LEVEL = 0.05

_SIZE_COLUMNS = ("chi2", "mc")
_POWER_COLUMNS = ("gv", "q_modified")


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
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def format_table(self) -> str:
        lines = [
            f"{self.kind}  nominal {100 * self.level:g}%  trials={self.trials}"
            f"  replicates={self.replicates}  seed={self.master_seed}",
            "rates in percent" + ("  (NA: lag refused by the m-guard)" if self.skipped else ""),
            "",
        ]
        header = f"{'model':<8}{'m':>4}"
        for n in self.ns:
            for col in self.columns:
                header += f"{f'{col}@{n}':>14}"
        lines.append(header)
        for model in self.models:
            for lag in self.lags:
                row = f"{model:<8}{lag:>4}"
                for n in self.ns:
                    for col in self.columns:
                        rate = self.rate(model, n, lag, col)
                        row += f"{'NA':>14}" if rate is None else f"{rate:>14.1f}"
                lines.append(row)
        return "\n".join(lines)


def _model_code(name: str) -> int:
    return CATALOG_NAMES.index(name)


def _trial_inputs(name: str, n: int, trial: int, master_seed: int):
    """One trial's model, simulated series and Monte-Carlo master key."""
    model = catalog(name)
    code = _model_code(name)
    series = simulate(model, n, derive_seed(derive_key(master_seed, code, n, trial), 0))
    return model, series, derive_key(master_seed, code, n, trial, 1)


def _size_trial(args) -> dict:
    (name, n, trial, master_seed, lags, replicates, method, order) = args
    model, series, mc_master = _trial_inputs(name, n, trial, master_seed)
    rejections = {}
    config = McConfig(replicates=replicates, master_seed=mc_master,
                      statistic="gv", lags=lags)
    if method in ("mc", "both"):
        _, observed, pvals, _, _ = mc_pvalues(series, order, config)
    else:
        fitted = fit_var(series, order)
        observed = evaluate_statistics(fitted.residuals, ("gv",), lags)
        pvals = None
    for col, lag in enumerate(lags):
        if pvals is not None:
            rejections[(lag, "mc")] = bool(pvals[0, col] <= NOMINAL_LEVEL)
        if method in ("chi2", "both") and lag > order:
            # the scaled chi-square approximation needs m > p
            pv = approx_pvalue(float(observed[0, col]),
                               ab_params(model.k, lag, order, 0))
            rejections[(lag, "chi2")] = bool(pv <= NOMINAL_LEVEL)
    return rejections


def _power_trial(args) -> dict:
    (name, n, trial, master_seed, lags, replicates, fit_order) = args
    _, series, mc_master = _trial_inputs(name, n, trial, master_seed)
    config = McConfig(replicates=replicates, master_seed=mc_master,
                      statistic="gv", lags=lags)
    _, _, pvals, _, _ = mc_pvalues(series, fit_order, config,
                                   statistics=_POWER_COLUMNS)
    rejections = {}
    for row, stat in enumerate(_POWER_COLUMNS):
        for col, lag in enumerate(lags):
            rejections[(lag, stat)] = bool(pvals[row, col] <= NOMINAL_LEVEL)
    return rejections


def check_study_args(trials: int, replicates: int, workers: int, lags, ns) -> None:
    """Raise ``ValueError`` for a count, a lag list or a sample size out of range."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if any(n < 1 for n in ns):
        raise ValueError(f"sample sizes must be at least 1, got {tuple(ns)}")
    # the replicate, worker and lag rules of a single test
    McConfig(replicates=replicates, workers=workers, lags=lags)


def _run_study(kind, trial_fn, columns, task_tail, *, models, ns, lags,
               trials, replicates, master_seed, workers) -> StudyResult:
    """Run ``trial_fn`` on every trial of every (model, n) stratum and tabulate.

    Each task is ``(name, n, trial, master_seed, lags, replicates, *task_tail)``,
    where ``lags`` are the stratum's lags that pass the lag guard and the last
    element of ``task_tail`` is the fitted VAR order.  A stratum with no such
    lag runs no trials.  Every model name is resolved before the first trial,
    and all strata's trials run in one pool map.
    """
    check_study_args(trials, replicates, workers, lags, ns)
    order = task_tail[-1]
    strata = []          # (model, n, trials run)
    tasks = []
    skipped = []
    for name in models:
        k = catalog(name).k
        for n in ns:
            usable = tuple(lag for lag in lags if _lag_fits(n - order, lag, k))
            skipped.extend((name, n, lag) for lag in lags if lag not in usable)
            runs = trials if usable else 0
            strata.append((name, n, runs))
            tasks.extend((name, n, trial, master_seed, usable, replicates, *task_tail)
                         for trial in range(runs))
    results = iter(_pool_map(trial_fn, tasks, workers, max(1, len(tasks) // (8 * workers))))
    cells = []
    for model, n, runs in strata:
        flag_dicts = list(islice(results, runs))
        for lag in lags:
            for column in columns:
                key = (lag, column)
                if not any(key in flags for flags in flag_dicts):
                    continue
                count = sum(1 for flags in flag_dicts if flags.get(key, False))
                cells.append(StudyCell(model, n, lag, column, count, trials))
    return StudyResult(kind, tuple(models), tuple(ns), tuple(lags), trials,
                       replicates, master_seed, NOMINAL_LEVEL, tuple(columns),
                       tuple(cells), tuple(skipped))


def size_study(models=("phi1", "phi2", "phi3", "phi4"), ns=(100, 200, 500),
               lags=(5, 10, 15, 20, 25, 30), trials: int = DEFAULT_TRIALS,
               replicates: int = DEFAULT_REPLICATES, master_seed: int = 0,
               method: str = "both", workers: int = 1) -> StudyResult:
    """Empirical rejection rate of a nominal-5% test under the null.

    Each trial simulates a catalog VAR(1) model, refits a VAR(1), and tests
    the residuals with the generalized-variance statistic, evaluating the
    p-value by the scaled chi-square approximation, the Monte-Carlo method,
    or both.  A model that is not a VAR(1) raises ``InvalidModel`` before
    any trial runs.
    """
    if method not in ("mc", "chi2", "both"):
        raise ValueError("method must be 'mc', 'chi2' or 'both'")
    for name in models:
        model = catalog(name)
        if (model.p, model.q) != (1, 0):
            # the refitted VAR(1) is the null, so another model would measure power
            raise InvalidModel(f"size-study needs a VAR(1) model; {name} is a "
                               f"VARMA({model.p}, {model.q})")
    columns = {"mc": ("mc",), "chi2": ("chi2",), "both": _SIZE_COLUMNS}[method]
    return _run_study("size-study", _size_trial, columns, (method, 1), models=models,
                      ns=ns, lags=lags, trials=trials, replicates=replicates,
                      master_seed=master_seed, workers=workers)


def power_study(models=tuple(f"model{i}" for i in range(1, 9)), ns=(50, 100, 200),
                lags=(5, 10, 15, 20, 30), trials: int = DEFAULT_TRIALS,
                replicates: int = DEFAULT_REPLICATES, master_seed: int = 0,
                fit_order: int = 1, workers: int = 1) -> StudyResult:
    """Empirical power of nominal-5% Monte-Carlo tests under misspecification.

    Each trial simulates a catalog model, fits a (generally wrong) VAR of
    ``fit_order``, and runs the Monte-Carlo test once, scoring both the
    generalized-variance statistic and the modified classical statistic
    against the same replicate set.
    """
    return _run_study("power-study", _power_trial, _POWER_COLUMNS, (fit_order,),
                      models=models, ns=ns, lags=lags, trials=trials,
                      replicates=replicates, master_seed=master_seed, workers=workers)
