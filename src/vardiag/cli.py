"""Command-line front end.

Subcommands: simulate, fit, test, size-study, power-study.  Human-readable
tables go to stdout.  ``main`` times every command and writes its
machine-readable JSON document, embedding the full invocation and seed, to
the path given by --out (--meta for simulate).

Exit status: 0 success, 1 usage error, 2 data or numeric error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time

import numpy as np

from ._version import __version__
from .asymptotics import ab_params, approx_pvalue, q_pvalue_asymptotic
from .csvio import CsvTable, read_csv, write_csv
from .errors import DegenerateDf, UnknownModel, VardiagError
from .estimate import fit_var
from .montecarlo import (
    INNOVATION_MODES, McConfig, _check_lags, derive_seed, evaluate_statistics, mc_test)
from .studies import SIZE_METHODS, check_study_args, power_study, size_study
from .varma import CATALOG_NAMES, VarmaModel, catalog, simulate

_STAT_NAMES = {"gv": "gv", "q": "q_classic", "qtilde": "q_modified"}
_TRANSFORMS = {"none": "identity", "square": "square", "abs": "abs"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}") from None


def _names(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parameters(fn) -> dict:
    """``fn``'s parameters and their defaults, in order."""
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()}


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
    keys = tuple(_parameters(VarmaModel))
    if not isinstance(payload, dict):
        raise UnknownModel(f"model file {spec!r} is not a JSON object with keys among "
                           f"{', '.join(keys)}")
    unknown = sorted(set(payload) - set(keys))
    if unknown:
        raise UnknownModel(f"model file {spec!r} has unknown keys {', '.join(unknown)}; "
                           f"expected keys among {', '.join(keys)}")
    return VarmaModel(**payload)


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


def _chi2_rows(fitted, observed, statistic, lags, order):
    rows = []
    k = fitted.k
    for col, lag in enumerate(lags):
        value = float(observed[0, col])
        if statistic == "gv":
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
    try:
        lags = _check_lags(args.lags)
    except ValueError as err:
        raise _UsageError(f"vardiag test: --lags: {err}") from None
    try:
        # both methods take the Monte-Carlo flags, so both check them
        config = McConfig(
            replicates=args.replicates, master_seed=args.master_seed,
            innovations=args.innovations, transform=_TRANSFORMS[args.transform],
            statistic=_STAT_NAMES[args.stat], lags=lags, workers=args.workers)
    except ValueError as err:
        raise _UsageError(f"vardiag test: {err}") from None
    if args.method == "chi2":
        # chi2 simulates no null, and its approximations hold for raw residuals at lags m > p
        for field in ("transform", "innovations"):
            if getattr(config, field) != getattr(McConfig, field):
                raise _UsageError(f"vardiag test: --{field} {getattr(args, field)} "
                                  "needs --method mc")
        if lags[0] <= args.order:
            raise _UsageError(f"vardiag test: --method chi2 needs every lag above --order "
                              f"{args.order} (m > p), got lag {lags[0]}")
        if config.statistic == "gv":
            # the sign of gv's df does not depend on k, so k = 1 checks it before any input
            try:
                ab_params(1, lags[0], args.order, 0)
            except DegenerateDf:
                raise _UsageError(f"vardiag test: --method chi2 --stat gv has no degrees of "
                                  f"freedom at lag {lags[0]} for --order {args.order}; "
                                  "use a longer first lag") from None
    with_intercept = not args.no_intercept
    table = read_csv(args.input)

    if args.method == "mc":
        report = mc_test(table.values, args.order, config,
                         with_intercept=with_intercept)
        payload = {"method": "mc", "report": report.to_dict()}
        print(f"Monte-Carlo test: statistic={args.stat} order={args.order} "
              f"n_eff={report.n_eff} replicates={report.replicates} seed={report.master_seed}")
        print(f"{'lag':>5} {'statistic':>14} {'p-value':>10} {'margin':>9} {'nonpd':>6}")
        for row in report.lags:
            print(f"{row.lag:>5} {row.observed:>14.5f} {row.p_value:>10.4f} "
                  f"{row.margin_of_error:>9.4f} {row.nonpd_replicates:>6}")
        return args.master_seed, payload
    fitted = fit_var(table.values, args.order, with_intercept=with_intercept)
    observed = evaluate_statistics(fitted.residuals, (config.statistic,), lags, config.transform)
    rows = _chi2_rows(fitted, observed, config.statistic, lags, args.order)
    payload = {
        "method": "chi2",
        "report": {
            "statistic": config.statistic,
            "transform": config.transform,
            "order": args.order,
            "with_intercept": with_intercept,
            "n_eff": fitted.n_eff,
            "version": __version__,
            "lags": rows,
        },
    }
    print(f"chi-square test: statistic={args.stat} order={args.order} "
          f"n_eff={fitted.n_eff}")
    print(f"{'lag':>5} {'statistic':>14} {'p-value':>10}")
    for row in rows:
        print(f"{row['lag']:>5} {row['observed']:>14.5f} {row['p_value']:>10.4f}")
    return None, payload


def _cmd_study(args) -> tuple:
    """Run ``args.study`` on its parameters, read off ``args`` and checked before any trial."""
    study = {name: getattr(args, name) for name in _parameters(args.study)}
    try:
        check_study_args(args.models, args.trials, args.replicates, args.workers, args.lags,
                         args.ns, args.master_seed)
    except ValueError as err:
        # errors raised by the trials themselves keep their own exit code
        raise _UsageError(f"vardiag {args.command}: {err}") from None
    if "fit_order" in study:
        _check_flag(args, "--fit-order", args.fit_order, 0)
    result = args.study(**study)
    print(result.format_table())
    return args.master_seed, {"result": result.to_dict()}


def _add_parser(sub, name: str, help: str, study=None) -> _Parser:
    """A subcommand with the flags test and the studies share, at McConfig's defaults.

    A study's subcommand also takes --trials, and its flags default to ``study``'s arguments.
    """
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--reps", dest="replicates", metavar="REPS", type=int,
                        default=McConfig.replicates)
    parser.add_argument("--seed", dest="master_seed", metavar="SEED", type=int,
                        default=McConfig.master_seed)
    parser.add_argument("--workers", type=int, default=McConfig.workers)
    parser.add_argument("--out", default=None, help="output JSON path")
    if study is not None:
        # set first, so the flags added after it take the study's defaults too
        parser.set_defaults(func=_cmd_study, study=study, **_parameters(study))
        parser.add_argument("--trials", type=int)
    return parser


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

    test = _add_parser(sub, "test", "portmanteau test of a VAR(p) fit")
    test.add_argument("--input", required=True, help="input CSV path")
    test.add_argument("--order", type=int, required=True)
    test.add_argument("--lags", required=True, type=_int_list, help="comma list, e.g. 5,10,15")
    test.add_argument("--stat", choices=sorted(_STAT_NAMES), default="gv")
    test.add_argument("--method", choices=("mc", "chi2"), default="mc")
    test.add_argument("--transform", choices=sorted(_TRANSFORMS), default="none")
    test.add_argument("--innovations", choices=INNOVATION_MODES, default=McConfig.innovations)
    test.add_argument("--no-intercept", action="store_true")
    test.set_defaults(func=_cmd_test)

    size = _add_parser(sub, "size-study", "empirical size table", size_study)
    size.add_argument("--phi", dest="models", metavar="PHI", type=_names,
                      help="comma list of catalog VAR(1) models")
    size.add_argument("--n", dest="ns", metavar="N", type=_int_list)
    size.add_argument("--lags", type=_int_list)
    size.add_argument("--method", choices=SIZE_METHODS)

    power = _add_parser(sub, "power-study", "empirical power table", power_study)
    power.add_argument("--model", dest="models", metavar="MODEL", type=_names,
                       help="comma list of catalog models")
    power.add_argument("--fit-order", type=int)
    power.add_argument("--n", dest="ns", metavar="N", type=_int_list)
    power.add_argument("--lags", type=_int_list)

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
    except (VardiagError, OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
