"""Print one SHA-256 of the Monte-Carlo outputs per worker count; exit 1 if they differ.

A change that should move no output bit must leave the digest as it was at
its parent commit, and the determinism contract makes it the same at every
worker count.  The digest covers, at workers 1, 2 and 3:

- the raw ``_run_replicates`` statistics (gv, Q~ and Q at lags 2, 5 and 10,
  199 replicates) for phi1 at n = 50, 200 and 500, fitted as a VAR(1), with
  Gaussian and with bootstrap innovations;
- the ``mc_test`` JSON report of each of those cases under each statistic;
- the JSON report of an 8-trial power study (model3, n = 50, lags 2 and 5).

It imports the package from the ``src/`` beside it, never an installed copy::

    python3 tools/replicate_digest.py
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from vardiag import McConfig, catalog, fit_var, mc_test, power_study, simulate  # noqa: E402
from vardiag.montecarlo import STATISTICS, _build_plan, _run_replicates  # noqa: E402

WORKERS = (1, 2, 3)
SIZES = (50, 200, 500)
INNOVATIONS = ("gaussian", "bootstrap")
LAGS = (2, 5, 10)


def digest(workers: int) -> str:
    sha = hashlib.sha256()
    for n in SIZES:
        series = simulate(catalog("phi1"), n, np.random.default_rng(n))
        fitted = fit_var(series, 1)
        for seed, innovations in enumerate(INNOVATIONS, start=n):
            config = McConfig(master_seed=seed, innovations=innovations, lags=LAGS,
                              workers=workers)
            plan = _build_plan(fitted, config, STATISTICS)
            sha.update(_run_replicates(plan, config.replicates, workers).tobytes())
            for statistic in STATISTICS:
                report = mc_test(series, 1, replace(config, statistic=statistic))
                sha.update(report.to_json().encode())
    study = power_study(models=("model3",), ns=(50,), lags=(2, 5), trials=8, replicates=19,
                        master_seed=7, workers=workers)
    sha.update(study.to_json().encode())
    return sha.hexdigest()


def main() -> int:
    digests = {workers: digest(workers) for workers in WORKERS}
    for workers, value in digests.items():
        print(f"workers={workers} sha256={value}")
    return 0 if len(set(digests.values())) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
