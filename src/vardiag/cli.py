"""Command-line front end.

Subcommands: simulate, fit, test, size-study, power-study.  Human-readable
tables go to stdout.  ``main`` times every command and writes its
machine-readable JSON document, embedding the full invocation and seed, to
the path given by --out (--meta for simulate).

Exit status: 0 success, 1 usage error, 2 data or numeric error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from ._version import __version__
from .asymptotics import ab_params, approx_pvalue, q_pvalue_asymptotic
from .csvio import CsvTable, read_csv, write_csv
from .errors import UnknownModel, VardiagError
from .estimate import fit_var
from .montecarlo import McConfig, _check_lags, derive_seed, evaluate_statistics, mc_test
from .studies import check_study_args, power_study, size_study
from .varma import CATALOG_NAMES, VarmaModel, catalog, simulate

_STAT_NAMES = {"gv": "gv", "q": "q_classic", "qtilde": "q_modified"}
_TRANSFORMS = {"none": "identity", "square": "square", "abs": "abs"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _int_list(text: str, flag: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"{flag}: expected a comma-separated integer list, got {text!r}")
    if not values:
        raise _UsageError(f"{flag}: empty list")
    return values


def _name_list(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _check_flag(args, flag: str, value: int, least: int) -> None:
    # runs before any work, so an error raised by the work itself keeps exit 2
    if value < least:
        raise _UsageError(f"vardiag {args.command}: {flag} must be at least {least}, got {value}")


def _load_model(spec: str) -> VarmaModel:
    if spec in CATALOG_NAMES:
        return catalog(spec)
    try:
        with open(spec) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise UnknownModel(
            f"{spec!r} is neither a catalog name ({', '.join(CATALOG_NAMES)}) "
            "nor a readable model file") from None
    return VarmaModel(
        phi=tuple(payload.get("phi", ())),
        theta=tuple(payload.get("theta", ())),
        innov_cov=payload["innov_cov"],
        mean=payload.get("mean"),
    )


def _cmd_simulate(args) -> tuple:
    _check_flag(args, "--n", args.n, 1)
    model = _load_model(args.model)
    rng = derive_seed(args.seed, 0)
    data = simulate(model, args.n, rng)
    header = tuple(f"z{i + 1}" for i in range(model.k))
    write_csv(args.out, CsvTable(header, data))
    print(f"wrote {args.n} x {model.k} simulated observations to {args.out}")
    return args.seed, {"model": args.model, "n": args.n, "out": args.out}


def _cmd_fit(args) -> tuple:
    _check_flag(args, "--order", args.order, 0)
    table = read_csv(args.input)
    fitted = fit_var(table.values, args.order, with_intercept=not args.no_intercept)
    payload = {
        "fit": {
            "order": fitted.order,
            "with_intercept": fitted.with_intercept,
            "intercept": fitted.intercept.tolist(),
            "phi_hat": [m.tolist() for m in fitted.phi_hat],
            "gamma0_hat": fitted.gamma0_hat.tolist(),
            "n_eff": fitted.n_eff,
            "columns": list(table.header),
            "residuals": fitted.residuals.tolist(),
        }
    }
    print(f"fitted VAR({fitted.order}) to {args.input}: "
          f"n_eff={fitted.n_eff}, k={fitted.k}")
    for lag, mat in enumerate(fitted.phi_hat, start=1):
        print(f"phi[{lag}] = {np.array2string(mat, precision=4)}")
    return None, payload


def _chi2_rows(fitted, observed, stat_key, lags, order):
    rows = []
    k = fitted.k
    for col, lag in enumerate(lags):
        value = float(observed[0, col])
        if stat_key == "gv":
            ab = ab_params(k, lag, order, 0)
            pv = approx_pvalue(value, ab)
            rows.append({"lag": lag, "observed": value, "p_value": pv,
                         "scale": ab.a, "df": ab.b})
        else:
            pv = q_pvalue_asymptotic(value, k, lag, order, 0)
            rows.append({"lag": lag, "observed": value, "p_value": pv,
                         "df": k * k * (lag - order)})
    return rows


def _cmd_test(args) -> tuple:
    _check_flag(args, "--order", args.order, 0)
    if args.method == "chi2" and args.transform != "none":
        # the chi-square degrees of freedom hold for raw residuals only
        raise _UsageError(f"vardiag test: --transform {args.transform} needs --method mc")
    lags = _int_list(args.lags, "--lags")
    try:
        _check_lags(lags)
    except ValueError as err:
        raise _UsageError(f"vardiag test: --lags: {err}") from None
    stat_key = args.stat
    statistic = _STAT_NAMES[stat_key]
    transform = _TRANSFORMS[args.transform]
    with_intercept = not args.no_intercept
    if args.method == "mc":
        try:
            config = McConfig(
                replicates=args.reps, master_seed=args.seed,
                innovations=args.innovations, transform=transform,
                statistic=statistic, lags=lags, workers=args.workers)
        except ValueError as err:
            # flag-level constraint (e.g. --reps below 19)
            raise _UsageError(f"vardiag test: {err}") from None
    table = read_csv(args.input)

    if args.method == "mc":
        report = mc_test(table.values, args.order, config,
                         with_intercept=with_intercept)
        payload = {"method": "mc", "report": report.to_dict()}
        print(f"Monte-Carlo test: statistic={stat_key} order={args.order} "
              f"n_eff={report.n_eff} replicates={report.replicates} seed={report.master_seed}")
        print(f"{'lag':>5} {'statistic':>14} {'p-value':>10} {'margin':>9} {'nonpd':>6}")
        for row in report.lags:
            print(f"{row.lag:>5} {row.observed:>14.5f} {row.p_value:>10.4f} "
                  f"{row.margin_of_error:>9.4f} {row.nonpd_replicates:>6}")
    else:
        fitted = fit_var(table.values, args.order, with_intercept=with_intercept)
        observed = evaluate_statistics(fitted.residuals, (statistic,), lags, transform)
        rows = _chi2_rows(fitted, observed, stat_key, lags, args.order)
        payload = {
            "method": "chi2",
            "report": {
                "statistic": statistic,
                "transform": transform,
                "order": args.order,
                "with_intercept": with_intercept,
                "n_eff": fitted.n_eff,
                "version": __version__,
                "lags": rows,
            },
        }
        print(f"chi-square test: statistic={stat_key} order={args.order} "
              f"n_eff={fitted.n_eff}")
        print(f"{'lag':>5} {'statistic':>14} {'p-value':>10}")
        for row in rows:
            print(f"{row['lag']:>5} {row['observed']:>14.5f} {row['p_value']:>10.4f}")
    return args.seed, payload


def _study_args(args) -> dict:
    """The keyword arguments both studies take, checked before any trial runs."""
    ns, lags = _int_list(args.n, "--n"), _int_list(args.lags, "--lags")
    try:
        check_study_args(args.trials, args.reps, args.workers, lags, ns)
    except ValueError as err:
        # errors raised by the trials themselves keep their own exit code
        raise _UsageError(f"vardiag {args.command}: {err}") from None
    return dict(ns=ns, lags=lags, trials=args.trials, replicates=args.reps,
                master_seed=args.seed, workers=args.workers)


def _cmd_size_study(args) -> tuple:
    result = size_study(models=_name_list(args.phi), method=args.method, **_study_args(args))
    print(result.format_table())
    return args.seed, {"result": result.to_dict()}


def _cmd_power_study(args) -> tuple:
    study = _study_args(args)
    _check_flag(args, "--fit-order", args.fit_order, 0)
    result = power_study(models=_name_list(args.model), fit_order=args.fit_order, **study)
    print(result.format_table())
    return args.seed, {"result": result.to_dict()}


def _build_parser() -> _Parser:
    parser = _Parser(prog="vardiag",
                     description="Diagnostic checking of fitted VAR models.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a catalog or file-defined model")
    sim.add_argument("--model", required=True,
                     help="catalog name or JSON model file")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--meta", default=None, help="optional JSON metadata path")
    sim.set_defaults(func=_cmd_simulate)

    fit = sub.add_parser("fit", help="fit a VAR(p) by least squares")
    fit.add_argument("--input", required=True, help="input CSV path")
    fit.add_argument("--order", type=int, required=True)
    fit.add_argument("--no-intercept", action="store_true")
    fit.add_argument("--out", default=None, help="output JSON path")
    fit.set_defaults(func=_cmd_fit)

    test = sub.add_parser("test", help="portmanteau test of a VAR(p) fit")
    test.add_argument("--input", required=True, help="input CSV path")
    test.add_argument("--order", type=int, required=True)
    test.add_argument("--lags", required=True, help="comma list, e.g. 5,10,15")
    test.add_argument("--stat", choices=sorted(_STAT_NAMES), default="gv")
    test.add_argument("--method", choices=("mc", "chi2"), default="mc")
    test.add_argument("--reps", type=int, default=199)
    test.add_argument("--seed", type=int, default=0)
    test.add_argument("--transform", choices=sorted(_TRANSFORMS), default="none")
    test.add_argument("--innovations", choices=("gaussian", "bootstrap"),
                      default="gaussian")
    test.add_argument("--workers", type=int, default=1)
    test.add_argument("--no-intercept", action="store_true")
    test.add_argument("--out", default=None, help="output JSON path")
    test.set_defaults(func=_cmd_test)

    size = sub.add_parser("size-study", help="empirical size table")
    size.add_argument("--phi", default="phi1,phi2,phi3,phi4",
                      help="comma list of catalog VAR(1) models")
    size.add_argument("--n", default="100,200,500")
    size.add_argument("--lags", default="5,10,15,20,25,30")
    size.add_argument("--trials", type=int, default=500)
    size.add_argument("--reps", type=int, default=199)
    size.add_argument("--seed", type=int, default=0)
    size.add_argument("--method", choices=("mc", "chi2", "both"), default="both")
    size.add_argument("--workers", type=int, default=1)
    size.add_argument("--out", default=None, help="output JSON path")
    size.set_defaults(func=_cmd_size_study)

    power = sub.add_parser("power-study", help="empirical power table")
    power.add_argument("--model", default=",".join(f"model{i}" for i in range(1, 9)),
                       help="comma list of catalog models")
    power.add_argument("--fit-order", type=int, default=1)
    power.add_argument("--n", default="50,100,200")
    power.add_argument("--lags", default="5,10,15,20,30")
    power.add_argument("--trials", type=int, default=500)
    power.add_argument("--reps", type=int, default=199)
    power.add_argument("--seed", type=int, default=0)
    power.add_argument("--workers", type=int, default=1)
    power.add_argument("--out", default=None, help="output JSON path")
    power.set_defaults(func=_cmd_power_study)

    return parser


def main(argv=None) -> int:
    """Run one command; time it and write its JSON document to --out (--meta for simulate)."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        start = time.perf_counter()
        seed, payload = args.func(args)
        path = args.meta if args.command == "simulate" else args.out
        if path:
            document = {"command": args.command, "invocation": argv, "seed": seed,
                        "version": __version__,
                        "timing": {"elapsed_seconds": time.perf_counter() - start},
                        **payload}
            with open(path, "w") as handle:
                json.dump(document, handle, sort_keys=True, indent=2)
                handle.write("\n")
        return 0
    except _UsageError as err:
        print(err, file=sys.stderr)
        return 1
    except (VardiagError, OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
