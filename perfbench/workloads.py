"""Workload definitions, seeded input generation and the output oracle.

Each workload is one ``gofboot`` CLI invocation at a fixed size. The
benchmark generates every input from its own seed; the program sees only
the generated CSV path and its argv.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import polygamma

# The seed whose CLI output must match perfbench/golden/<workload>.json byte
# for byte.
DEFAULT_SEED = 1

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass(frozen=True)
class Workload:
    """One CLI invocation at a stated size; why it was chosen is in
    BENCHMARK.json under the same name.

    ``work`` is the unit count behind ``work_per_s``: bootstrap refits
    (B x reps) or CSV rows. ``rows``/``covariates`` describe the generated
    CSV; ``rows == 0`` means the workload reads no CSV.
    """

    name: str
    command: str
    rows: int
    covariates: int
    heteroskedastic: bool
    options: tuple[str, ...]
    work: int
    work_unit: str

    def argv(self, csv_path: str | None, seed: int, threads: int | None = None):
        """The CLI argv; ``threads`` overrides the workload's own value."""
        argv = [self.command]
        if self.rows:
            names = ",".join(f"x{j}" for j in range(1, self.covariates + 1))
            argv += ["--data", csv_path, "--response", "y", "--covariates", names]
        argv += list(self.options)
        if self.command != "fit":
            argv += ["--seed", str(seed)]
        if threads is not None and "--threads" in argv:
            argv[argv.index("--threads") + 1] = str(threads)
        return argv + ["--format", "json"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="boot-small",
            command="test",
            rows=200,
            covariates=2,
            heteroskedastic=False,
            options=("--boot", "10000", "--threads", "1"),
            work=10000,
            work_unit="refits",
        ),
        Workload(
            name="boot-wide",
            command="test",
            rows=5000,
            covariates=5,
            heteroskedastic=True,
            options=("--boot", "1000", "--threads", "1"),
            work=1000,
            work_unit="refits",
        ),
        Workload(
            name="sim-s3",
            command="simulate",
            rows=0,
            covariates=0,
            heteroskedastic=False,
            options=(
                "--scenario", "3", "--n", "500", "--reps", "100",
                "--boot", "200", "--threads", "2",
            ),
            work=100 * 200,
            work_unit="refits",
        ),
        Workload(
            name="ingest-large",
            command="fit",
            rows=200_000,
            covariates=5,
            heteroskedastic=False,
            options=(),
            work=200_000,
            work_unit="rows",
        ),
    )
}

# Which end-to-end metric each per-layer metric is predicted to move, and
# where. Printed beside the per-layer table of a traced run.
LAYER_TARGETS = {
    "bootstrap.self_s": "wall_s, work_per_s on boot-small and sim-s3; none on ingest-large",
    "variance.self_s": "wall_s on boot-small and sim-s3",
    "variance.self_cpu_s": "cpu_s on boot-wide",
    "regression.self_s": "wall_s on boot-wide",
    "regression.self_cpu_s": "cpu_s on boot-wide",
    "cli.self_s": "wall_s on ingest-large only",
    "simulation.self_s": "wall_s on sim-s3; unmoved by bootstrap changes",
    "diagnostics.self_s": "wall_s on sim-s3; unmoved by bootstrap changes",
    "bootstrap.useful_ratio": "work_per_s on any workload with redraws",
}


def generate(workload: Workload, seed: int):
    """The workload's data as (y, X without intercept), from ``seed`` alone.

    Returns None for workloads that read no CSV.
    """
    if not workload.rows:
        return None
    index = list(WORKLOADS).index(workload.name)
    rng = np.random.default_rng([seed, index])
    n, k = workload.rows, workload.covariates
    x = 5.0 * rng.random((n, k))
    z = rng.standard_normal(n)
    slopes = np.linspace(2.0, 0.5, k)
    scale = 2.0 + 0.05 * x[:, 0] if workload.heteroskedastic else 2.0
    y = 2.0 + x @ slopes + scale * z
    return y, x


def write_csv(path: Path, y: np.ndarray, x: np.ndarray) -> None:
    """Write ``y, x1..xk`` with shortest round-trip float text."""
    header = ",".join(["y"] + [f"x{j}" for j in range(1, x.shape[1] + 1)])
    table = np.column_stack([y, x]).tolist()
    with path.open("w") as handle:
        handle.write(header + "\n")
        handle.write("\n".join(",".join(map(repr, row)) for row in table))
        handle.write("\n")


@dataclass(frozen=True)
class Expected:
    """What the oracle knows before any invocation."""

    n: int
    r: int
    beta: np.ndarray
    var_gof: float
    exact_var_gof: float


def expected_for(data) -> Expected | None:
    """Reference values computed independently of gofboot."""
    if data is None:
        return None
    y, x = data
    n = y.size
    X = np.column_stack([np.ones(n), x])
    r = X.shape[1]
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    e = y - X @ beta
    sigma2 = float(np.mean(e * e))
    m4 = float(np.mean(e**4))
    return Expected(
        n=n,
        r=r,
        beta=beta,
        var_gof=n * (m4 / sigma2**2 - 1.0),
        exact_var_gof=n * n * float(polygamma(1, 0.5 * (n - r))),
    )


def agrees6(printed: float, exact: float, scale: float = 0.0) -> bool:
    """Whether ``printed`` is ``exact`` to the six significant digits the CLI
    prints. ``scale`` sets the magnitude for values near zero."""
    size = max(abs(exact), scale)
    if size == 0.0:
        return printed == 0.0
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(size)) - 5)
    return abs(printed - exact) <= half_unit * (1.0 + 1e-6)


def check_output(workload: Workload, expected: Expected | None, code: int, stdout: str):
    """Problems with one invocation's exit code and JSON output; [] if none."""
    try:
        record = json.loads(stdout)
    except ValueError:
        return [f"exit {code}, output is not JSON: {stdout[:200]!r}"]
    try:
        if workload.command == "simulate":
            return _check_simulate(workload, code, record)
        return _check_fit(workload, expected, code, record)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"exit {code}, malformed record: {exc!r}"]


def _check_fit(workload, expected, code, record):
    problems = []
    n, r = expected.n, expected.r
    if (record.get("n"), record.get("r")) != (n, r):
        problems.append(f"n, r = {record.get('n')}, {record.get('r')}, want {n}, {r}")
        return problems
    beta = record["beta_hat"]
    scale = float(np.max(np.abs(expected.beta)))
    if len(beta) != r or not all(
        agrees6(b, e, 1e-6 * scale) for b, e in zip(beta, expected.beta)
    ):
        problems.append(f"beta_hat {beta} != lstsq {expected.beta.tolist()}")
    if not agrees6(record["var_gof"], expected.var_gof):
        problems.append(
            f"var_gof {record['var_gof']} != n(m4/s^4 - 1) = {expected.var_gof!r}"
        )
    if not agrees6(record["exact_var_gof"], expected.exact_var_gof):
        problems.append(
            f"exact_var_gof {record['exact_var_gof']} != {expected.exact_var_gof!r}"
        )
    if record["reference"] != 2 * n:
        problems.append(f"reference {record['reference']} != 2n = {2 * n}")
    if workload.command == "fit":
        if code != 0:
            problems.append(f"exit {code}, want 0")
        return problems
    lo, hi = record["interval"]
    reject = not lo <= 2 * n <= hi
    if record["reject"] != reject:
        problems.append(f"reject {record['reject']} but interval [{lo}, {hi}] vs 2n={2 * n}")
    if code != (3 if record["reject"] else 0):
        problems.append(f"exit {code} disagrees with reject={record['reject']}")
    if record["B"] != workload.work or record["redraw_count"] < 0:
        problems.append(f"B={record['B']} redraw_count={record['redraw_count']}")
    return problems


def _check_simulate(workload, code, record):
    problems = []
    if code != 0:
        problems.append(f"exit {code}, want 0")
    if record.get("excluded") != 0:
        problems.append(f"excluded {record.get('excluded')}, want 0")
    reps = record.get("reps")
    if reps * record.get("B", 0) != workload.work:
        problems.append(f"reps={reps} B={record.get('B')}, want work {workload.work}")
        return problems
    for name, rate in record["rates"].items():
        stderr = math.sqrt(rate * (1.0 - rate) / reps)
        if not 0.0 <= rate <= 1.0 or not agrees6(record["mc_stderr"][name], stderr, 1e-6):
            problems.append(f"{name}: rate {rate}, mc_stderr {record['mc_stderr'][name]}")
    return problems


def golden_path(workload: Workload) -> Path:
    return GOLDEN_DIR / f"{workload.name}.json"


def check_golden(workload: Workload, stdout: str) -> list[str]:
    """Compare output at DEFAULT_SEED with the committed golden, byte for byte."""
    want = golden_path(workload).read_text()
    if stdout == want:
        return []
    for i, (got_line, want_line) in enumerate(
        zip(stdout.splitlines(), want.splitlines()), start=1
    ):
        if got_line != want_line:
            return [f"golden line {i}: got {got_line!r}, want {want_line!r}"]
    return [f"golden length differs: got {len(stdout)} bytes, want {len(want)}"]
