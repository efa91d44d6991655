"""Print SHA-256s of the Monte-Carlo outputs per worker count; exit 1 if they differ.

A change that should move no output bit must leave the digest as it was at
its parent commit, and the determinism contract makes it the same at every
worker count.  The digest covers, at workers 1, 2 and 3:

- the raw ``_run_replicates`` statistics (gv, Q~ and Q at lags 2, 5 and 10,
  199 replicates) for phi1 at n = 50, 200 and 500, fitted as a VAR(1), with
  Gaussian and with bootstrap innovations;
- the ``mc_test`` JSON report of each of those cases under each statistic;
- the JSON report of an 8-trial power study (model3, n = 50, lags 2 and 5).

A ``study workers=W sha256=`` line per worker count covers the JSON report
of the size-study pin: phi1 and phi2 at n = 14 and 60, lags 1, 3 and 8,
``method="both"``, 8 trials.  The guard refuses lag 8 at n = 14, and at 3
workers each stratum's 8 trials go out in uneven batches of 3, 3 and 2.

A last line, ``public sha256=``, covers the public one-series routes on the
same three fits, once, since no worker count reaches them: ``portmanteau_q``
(both variants), ``gv_stat`` and ``gv_decompose`` at lags 1..10, then
``log_det_spd`` of ``gamma0_hat`` and ``implied_mean``.  It also covers the
1-D route on each series' first column: its VAR(1) fit by ``fit_var``, and
``residual_transform`` of the column under each transform, with the
``sample_acov`` of each at lags 0..10.

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

from vardiag import (McConfig, catalog, fit_var, gv_decompose, gv_stat, implied_mean,  # noqa: E402
                     log_det_spd, mc_test, portmanteau_q, power_study, racf,
                     residual_transform, sample_acov, simulate, size_study)
from vardiag.diagnostics import Q_VARIANTS, TRANSFORMS  # noqa: E402
from vardiag.montecarlo import STATISTICS, _build_plan, _run_replicates  # noqa: E402

WORKERS = (1, 2, 3)
SIZES = (50, 200, 500)
INNOVATIONS = ("gaussian", "bootstrap")
LAGS = (2, 5, 10)
PUBLIC_LAGS = range(1, 11)


def fits():
    """The phi1 series at each size, with its VAR(1) fit."""
    for n in SIZES:
        series = simulate(catalog("phi1"), n, np.random.default_rng(n))
        yield n, series, fit_var(series, 1)


def digest(workers: int) -> str:
    sha = hashlib.sha256()
    for n, series, fitted in fits():
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


def study_digest(workers: int) -> str:
    study = size_study(models=("phi1", "phi2"), ns=(14, 60), lags=(1, 3, 8), trials=8,
                       replicates=19, master_seed=9, method="both", workers=workers)
    return hashlib.sha256(study.to_json().encode()).hexdigest()


def public_digest() -> str:
    sha = hashlib.sha256()
    for _, series, fitted in fits():
        column = series[:, 0]
        flat = fit_var(column, 1)
        for array in (flat.residuals, *flat.phi_hat, flat.intercept, flat.gamma0_hat):
            sha.update(array.tobytes())
        for kind in TRANSFORMS:
            transformed = residual_transform(column, kind)
            sha.update(transformed.tobytes())
            sha.update(np.stack(sample_acov(transformed, max(PUBLIC_LAGS)).values).tobytes())
        acf = sample_acov(fitted.residuals, max(PUBLIC_LAGS))
        rs = racf(acf, "hosking")
        for m in PUBLIC_LAGS:
            parts = gv_decompose(rs, m)
            values = [portmanteau_q(acf, m, variant) for variant in Q_VARIANTS]
            values += [gv_stat(rs, m, acf.n_eff), *parts.eta_sq, *parts.step_dets]
            sha.update(np.array(values).tobytes())
        sha.update(np.array([log_det_spd(fitted.gamma0_hat), *implied_mean(fitted)]).tobytes())
    return sha.hexdigest()


def main() -> int:
    digests = {workers: digest(workers) for workers in WORKERS}
    for workers, value in digests.items():
        print(f"workers={workers} sha256={value}")
    studies = {workers: study_digest(workers) for workers in WORKERS}
    for workers, value in studies.items():
        print(f"study workers={workers} sha256={value}")
    print(f"public sha256={public_digest()}")
    return 0 if len(set(digests.values())) == len(set(studies.values())) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
