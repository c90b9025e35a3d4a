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
from pathlib import Path

import numpy as np

from .bootstrap import BootstrapConfig, run_test
from .diagnostics import breusch_pagan, white_test
from .errors import DataFormatError, GofbootError
from .regression import Dataset, ModelSpec, aic, bic, fit_mle, gof_term
from .simulation import run_monte_carlo
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
    line number and the offending column.

    Raises
    ------
    DataFormatError
        On any structural or numeric defect.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = _csv_rows(path, csv.reader(handle))
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
        line = 1
        for row in reader:
            line += 1
            if len(row) != len(names):
                raise DataFormatError(
                    f"{path}: line {line}: expected {len(names)} fields, got {len(row)}"
                )
            for name, cell, store in zip(names, row, columns):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: line {line}: column {name!r}: "
                        f"not a number: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataFormatError(
                        f"{path}: line {line}: column {name!r}: "
                        f"non-finite value {cell!r}"
                    )
                store.append(value)
        if line == 1:
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
    data = ingest_csv(args.data)
    spec = ModelSpec(
        response=args.response,
        covariates=tuple(args.covariates),
        intercept=not args.no_intercept,
    )
    model = fit_mle(data, spec)
    record = _fit_record(model)
    _emit(record, args.format, _fit_lines(record))
    return EXIT_OK


def _cmd_test(args) -> int:
    # white and breusch-pagan are undefined for an intercept-only model
    if not args.covariates:
        raise _UsageError("test requires at least one covariate")
    data = ingest_csv(args.data)
    spec = ModelSpec(
        response=args.response,
        covariates=tuple(args.covariates),
        intercept=not args.no_intercept,
    )
    seed = args.seed if args.seed is not None else secrets.randbits(64)
    cfg = BootstrapConfig(n_boot=args.boot, alpha=args.alpha, seed=seed)
    result = run_test(data, spec, cfg, threads=args.threads)
    white = white_test(result.model, data)
    bp = breusch_pagan(result.model, data)

    record = _fit_record(result.model)
    record.update(
        alpha=cfg.alpha,
        B=cfg.n_boot,
        seed=seed,
        interval=[result.interval_low, result.interval_high],
        reject=result.reject,
        redraw_count=result.redraw_count,
        white={
            "statistic": white.statistic,
            "df": white.df,
            "p_value": white.p_value,
            "reject": white.reject_at(cfg.alpha),
        },
        breusch_pagan={
            "statistic": bp.statistic,
            "df": bp.df,
            "p_value": bp.p_value,
            "reject": bp.reject_at(cfg.alpha),
        },
    )
    lines = _fit_lines(record)
    lines.append(
        f"bootstrap interval: [{result.interval_low:.6f}, {result.interval_high:.6f}]"
    )
    lines.append(f"bootstrap reject: {_yesno(result.reject)}")
    for name, aux in (("white", white), ("breusch_pagan", bp)):
        lines.append(
            f"{name}: statistic={aux.statistic:.6f} df={aux.df} "
            f"p_value={aux.p_value:.6f} reject: {_yesno(aux.reject_at(cfg.alpha))}"
        )
    lines.append(f"alpha: {cfg.alpha:.6f}")
    lines.append(f"B: {cfg.n_boot}")
    lines.append(f"seed: {seed}")
    lines.append(f"redraws: {result.redraw_count}")
    _emit(record, args.format, lines)
    return EXIT_REJECT if result.reject else EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = BootstrapConfig(n_boot=args.boot, alpha=args.alpha, seed=args.seed)
    report = run_monte_carlo(
        args.scenario, args.n, args.reps, cfg, threads=args.threads
    )
    record = {
        "scenario": report.scenario,
        "n": report.n,
        "reps": report.reps,
        "B": report.n_boot,
        "alpha": report.alpha,
        "seed": report.seed,
        "rates": dict(report.rates),
        "mc_stderr": dict(report.mc_stderr),
        "excluded": report.excluded,
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
        "var_gof": var_gof(model.residuals, model.sigma2_hat),
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


def _alpha_type(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must be in (0, 1), got {text}")
    return value


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(
            f"seed must be an unsigned 64-bit integer, got {text}"
        )
    return value


def _min_int_type(minimum: int, label: str):
    def convert(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"{label} must be at least {minimum}, got {text}"
            )
        return value

    return convert


def _covariates_type(text: str) -> list[str]:
    names = [piece.strip() for piece in text.split(",") if piece.strip()]
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError("covariate names must be unique")
    return names


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
    test.add_argument("--alpha", type=_alpha_type, default=0.05, help="test level")
    test.add_argument(
        "--boot",
        type=_min_int_type(2, "boot"),
        default=1000,
        help="bootstrap iterations",
    )
    test.add_argument(
        "--seed",
        type=_seed_type,
        default=None,
        help="master seed; a random one is drawn and printed when omitted",
    )
    test.set_defaults(handler=_cmd_test)

    sim = commands.add_parser("simulate", help="Monte Carlo rejection rates")
    sim.add_argument(
        "--scenario",
        type=int,
        choices=(1, 2, 3, 4),
        required=True,
        help="data-generating scenario",
    )
    sim.add_argument(
        "--n", type=_min_int_type(10, "n"), required=True, help="sample size"
    )
    sim.add_argument(
        "--reps",
        type=_min_int_type(1, "reps"),
        default=500,
        help="Monte Carlo replicates",
    )
    sim.add_argument(
        "--boot",
        type=_min_int_type(2, "boot"),
        default=500,
        help="bootstrap iterations per replicate",
    )
    sim.add_argument("--alpha", type=_alpha_type, default=0.05, help="test level")
    sim.add_argument("--seed", type=_seed_type, required=True, help="master seed")
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
