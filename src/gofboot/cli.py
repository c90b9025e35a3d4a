"""Command line interface: ``gofboot fit | test | simulate``.

Exit codes: 0 success (test: null not rejected), 3 test ran and rejected,
1 usage error, 2 data or numeric error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import secrets
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .bootstrap import BootstrapConfig, run_test
from .diagnostics import breusch_pagan, white_test
from .errors import DataFormatError, GofbootError
from .regression import Dataset, ModelSpec, aic, bic, fit_mle, gof_term
from .simulation import ScenarioSpec, run_monte_carlo
from .variance import exact_var_gof, theoretical_var_gof, var_gof

__all__ = ["ingest_csv", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_REJECT = 3


def ingest_csv(path) -> Dataset:
    """Read a strictly numeric CSV with a header row into a Dataset.

    Every row must have exactly as many fields as the header, and every
    cell must parse as a finite float. Diagnostics cite the 1-based file
    line on which the offending record ends, and the offending column.

    Raises
    ------
    DataFormatError
        On any structural or numeric defect.
    """
    path = Path(path)
    # utf-8-sig strips the byte-order mark that spreadsheet exports put first
    with path.open(newline="", encoding="utf-8-sig") as handle:
        records = csv.reader(handle)
        reader = _csv_rows(path, records)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: file is empty") from None
        names = [h.strip() for h in header]
        if any(not name for name in names):
            raise DataFormatError(f"{path}: line 1: empty column name in header")
        seen = set()
        for name in names:
            if name in seen:
                raise DataFormatError(f"{path}: line 1: duplicate column {name!r}")
            seen.add(name)
        columns = [[] for _ in names]
        rows = 0
        for row in reader:
            rows += 1
            if len(row) != len(names):
                raise DataFormatError(
                    f"{path}: line {records.line_num}: "
                    f"expected {len(names)} fields, got {len(row)}"
                )
            for name, cell, store in zip(names, row, columns):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: line {records.line_num}: column {name!r}: "
                        f"not a number: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataFormatError(
                        f"{path}: line {records.line_num}: column {name!r}: "
                        f"non-finite value {cell!r}"
                    )
                store.append(value)
        if rows == 0:
            raise DataFormatError(f"{path}: no data rows")
    return Dataset({name: np.array(col) for name, col in zip(names, columns)})


def _csv_rows(path, reader):
    # the csv module's own errors, such as a cell over its field size limit,
    # become diagnostics that cite the line the reader stopped on
    try:
        yield from reader
    except csv.Error as exc:
        raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GofbootError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def _cmd_fit(args) -> int:
    spec = _model_spec(args)
    data = ingest_csv(args.data)
    model = fit_mle(data, spec)
    record = _fit_record(model)
    _emit(record, args.format, _fit_lines(record))
    return EXIT_OK


def _cmd_test(args) -> int:
    # white and breusch-pagan are undefined for an intercept-only model
    if not args.covariates:
        raise _UsageError("test requires at least one covariate")
    spec = _model_spec(args)
    seed = args.seed if args.seed is not None else secrets.randbits(64)
    cfg = _build(BootstrapConfig, n_boot=args.boot, alpha=args.alpha, seed=seed)
    data = ingest_csv(args.data)
    result = run_test(data, spec, cfg, threads=args.threads)
    aux_tests = {}
    for name, test in (("white", white_test), ("breusch_pagan", breusch_pagan)):
        aux = test(result.model, data)
        aux_tests[name] = {**asdict(aux), "reject": aux.reject_at(cfg.alpha)}

    record = _fit_record(result.model)
    record.update(
        alpha=cfg.alpha,
        B=cfg.n_boot,
        seed=seed,
        interval=[result.interval_low, result.interval_high],
        reject=result.reject,
        redraw_count=result.redraw_count,
        **aux_tests,
    )
    lines = _fit_lines(record)
    lines.append(
        f"bootstrap interval: [{result.interval_low:.6f}, {result.interval_high:.6f}]"
    )
    lines.append(f"bootstrap reject: {_yesno(result.reject)}")
    for name, aux in aux_tests.items():
        lines.append(
            f"{name}: statistic={aux['statistic']:.6f} df={aux['df']} "
            f"p_value={aux['p_value']:.6f} reject: {_yesno(aux['reject'])}"
        )
    lines.append(f"alpha: {cfg.alpha:.6f}")
    lines.append(f"B: {cfg.n_boot}")
    lines.append(f"seed: {seed}")
    lines.append(f"redraws: {result.redraw_count}")
    _emit(record, args.format, lines)
    return EXIT_REJECT if result.reject else EXIT_OK


def _cmd_simulate(args) -> int:
    cell = _build(ScenarioSpec, scenario=args.scenario, n=args.n)
    cfg = _build(BootstrapConfig, n_boot=args.boot, alpha=args.alpha, seed=args.seed)
    report = run_monte_carlo(cell, args.reps, cfg, threads=args.threads)
    record = {
        ("B" if key == "n_boot" else key): value
        for key, value in asdict(report).items()
    }
    lines = [
        f"scenario {report.scenario}  n={report.n}  reps={report.reps}  "
        f"B={report.n_boot}  alpha={report.alpha:.6f}  seed={report.seed}",
        f"{'test':<16}{'reject_rate':>12}{'mc_stderr':>12}",
    ]
    for name in ("bootstrap", "white", "breusch_pagan"):
        lines.append(
            f"{name:<16}{report.rates[name]:>12.6f}{report.mc_stderr[name]:>12.6f}"
        )
    lines.append(f"excluded: {report.excluded}")
    _emit(record, args.format, lines)
    return EXIT_OK


def _fit_record(model) -> dict:
    names = (["intercept"] if model.spec.intercept else []) + list(
        model.spec.covariates
    )
    return {
        "n": model.n,
        "r": model.r,
        "coefficient_names": names,
        "beta_hat": [float(b) for b in model.beta_hat],
        "sigma2_hat": model.sigma2_hat,
        "gof_term": gof_term(model),
        "aic": aic(model),
        "bic": bic(model),
        "var_gof": var_gof(model.residuals),
        "reference": theoretical_var_gof(model.n),
        "exact_var_gof": exact_var_gof(model.n, model.r),
    }


def _fit_lines(record) -> list[str]:
    lines = [f"n: {record['n']}  r: {record['r']}", "coefficients:"]
    width = max(len(name) for name in record["coefficient_names"])
    for name, value in zip(record["coefficient_names"], record["beta_hat"]):
        lines.append(f"  {name:<{width}}  {value:.6f}")
    for key in ("sigma2_hat", "gof_term", "aic", "bic", "var_gof"):
        lines.append(f"{key}: {record[key]:.6f}")
    lines.append(f"reference_2n: {record['reference']:.6f}")
    lines.append(f"exact_var_gof: {record['exact_var_gof']:.6f}")
    return lines


def _emit(record: dict, fmt: str, lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(_round6(record), indent=2))
    else:
        print("\n".join(lines))


def _round6(obj):
    # fixed 6-significant-digit policy so emitted JSON parses back exactly
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round6(v) for v in obj]
    return obj


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; usage errors must be 1
    def error(self, message):
        raise _UsageError(message)


def _build(factory, **fields):
    # the library's constructors own every argument rule; a value they refuse
    # is a usage error, raised before any data is read
    try:
        return factory(**fields)
    except ValueError as exc:
        raise _UsageError(exc) from None


def _model_spec(args) -> ModelSpec:
    return _build(
        ModelSpec,
        response=args.response,
        covariates=tuple(args.covariates),
        intercept=not args.no_intercept,
    )


def _min_int_type(minimum: int, label: str):
    def convert(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"{label} must be at least {minimum}, got {text}"
            )
        return value

    # argparse names the type in its "invalid <type> value" message
    convert.__name__ = "int"
    return convert


def _covariates_type(text: str) -> list[str]:
    return [piece.strip() for piece in text.split(",") if piece.strip()]


def _add_model_flags(sub) -> None:
    sub.add_argument("--data", required=True, help="path to a numeric CSV file")
    sub.add_argument("--response", required=True, help="name of the outcome column")
    sub.add_argument(
        "--covariates",
        type=_covariates_type,
        default=[],
        help="comma-separated covariate column names",
    )
    sub.add_argument(
        "--no-intercept",
        action="store_true",
        help="fit without an intercept column",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gofboot",
        description="Bootstrap goodness-of-fit test for normal linear regression.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="fit the model and report diagnostics")
    _add_model_flags(fit)
    fit.set_defaults(handler=_cmd_fit)

    test = commands.add_parser("test", help="run the bootstrap test on a CSV")
    _add_model_flags(test)
    test.add_argument("--alpha", type=float, default=0.05, help="test level")
    test.add_argument("--boot", type=int, default=1000, help="bootstrap iterations")
    test.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed; a random one is drawn and printed when omitted",
    )
    test.set_defaults(handler=_cmd_test)

    sim = commands.add_parser("simulate", help="Monte Carlo rejection rates")
    sim.add_argument(
        "--scenario", type=int, required=True, help="data-generating scenario, 1-4"
    )
    sim.add_argument("--n", type=int, required=True, help="sample size")
    sim.add_argument(
        "--reps",
        type=_min_int_type(1, "reps"),
        default=500,
        help="Monte Carlo replicates",
    )
    sim.add_argument(
        "--boot", type=int, default=500, help="bootstrap iterations per replicate"
    )
    sim.add_argument("--alpha", type=float, default=0.05, help="test level")
    sim.add_argument("--seed", type=int, required=True, help="master seed")
    sim.set_defaults(handler=_cmd_simulate)

    for sub in (fit, test, sim):
        sub.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
    for sub in (test, sim):
        sub.add_argument(
            "--threads",
            type=_min_int_type(1, "threads"),
            default=1,
            help="worker processes; results are identical for any value",
        )
    return parser


if __name__ == "__main__":
    sys.exit(main())
