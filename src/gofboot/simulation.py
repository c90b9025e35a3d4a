"""Monte Carlo harness for size and power studies of the tests.

Four data-generating scenarios share the mean structure
y = 2 + 2 x1 + 2 x2 + eps with covariates drawn iid Uniform(0, 5):

1. eps ~ N(0, 4); the fitted model y ~ x1 + x2 is correct.
2. eps ~ N(0, 4), but x2 is withheld from the dataset and the fitted
   model is y ~ x1 (omitted covariate).
3. eps ~ N(0, (2 + x3)**2) for a hidden x3 ~ Uniform(0, 5); the fitted
   model is y ~ x1 + x2 (heteroskedasticity from an unobserved source).
4. eps ~ N(0, (2 + 0.5 x2)**2); the fitted model is y ~ x1 + x2
   (heteroskedasticity driven by an observed covariate).

Each replicate draws, in order, x1, x2, the hidden x3 when scenario 3,
then the standard normals behind eps, all from a replicate-specific
stream, so reports are reproducible and independent of parallelism.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

# map_chunks is reached through its module: perfbench/tracer.py wraps the
# functions bound across modules, and would bill a replicate to bootstrap
from . import bootstrap
from .bootstrap import BootstrapConfig, run_test
from .diagnostics import breusch_pagan, white_test
from .errors import (
    ArgumentError,
    DegenerateFitError,
    ExclusionLimitError,
    InsufficientDataError,
    RankDeficientError,
    SingularInformationError,
    as_int,
)
from .regression import Dataset, ModelSpec

__all__ = [
    "ScenarioSpec",
    "SimReport",
    "generate",
    "run_monte_carlo",
]

TRUE_COEFFICIENTS = (2.0, 2.0, 2.0)

# A run aborts when at least this fraction of replicates fails to fit.
EXCLUSION_LIMIT = 0.001

_FIT_ERRORS = (
    DegenerateFitError,
    InsufficientDataError,
    RankDeficientError,
    SingularInformationError,
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One data-generating configuration: scenario id 1-4 and sample size."""

    scenario: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "scenario", as_int(self.scenario, "scenario"))
        object.__setattr__(self, "n", as_int(self.n, "sample size", minimum=10))
        if self.scenario not in (1, 2, 3, 4):
            raise ArgumentError(f"scenario must be 1, 2, 3, or 4, got {self.scenario}")


@dataclass(frozen=True)
class SimReport:
    """Aggregated rejection rates for one (scenario, n) cell.

    ``rates`` and ``mc_stderr`` map test name (``bootstrap``, ``white``,
    ``breusch_pagan``) to the rejection rate p over the included
    replicates, reps - excluded of them, and its binomial standard error
    sqrt(p (1 - p) / (reps - excluded)).
    """

    scenario: int
    n: int
    reps: int
    n_boot: int
    alpha: float
    seed: int
    rates: dict[str, float]
    mc_stderr: dict[str, float]
    excluded: int


def generate(spec: ScenarioSpec, rng: np.random.Generator) -> Dataset:
    """Draw one dataset under ``spec``.

    The returned dataset contains only the columns the fitted model may
    see: (y, x1) for scenario 2 and (y, x1, x2) otherwise. Hidden
    variables never leave this function.
    """
    n = spec.n
    x1 = 5.0 * rng.random(n)
    x2 = 5.0 * rng.random(n)
    if spec.scenario == 3:
        x3 = 5.0 * rng.random(n)
    z = rng.standard_normal(n)
    if spec.scenario in (1, 2):
        eps = 2.0 * z
    elif spec.scenario == 3:
        eps = (2.0 + x3) * z
    else:
        eps = (2.0 + 0.5 * x2) * z
    b0, b1, b2 = TRUE_COEFFICIENTS
    y = b0 + b1 * x1 + b2 * x2 + eps
    if spec.scenario == 2:
        return Dataset({"y": y, "x1": x1})
    return Dataset({"y": y, "x1": x1, "x2": x2})


def run_monte_carlo(
    cell: ScenarioSpec, reps: int, cfg: BootstrapConfig, threads: int = 1
) -> SimReport:
    """Estimate rejection rates of all three tests over ``reps`` replicates.

    Replicate j draws a dataset of ``cell`` from a stream derived from
    (cfg.seed, j), fits y on every other column that dataset holds, and
    hands the bootstrap a seed derived the same way, so a report is
    reproducible bit for bit regardless of ``threads``, which is capped at
    one worker process per CPU. Replicates whose original fit fails are
    counted as exclusions.

    Raises
    ------
    ExclusionLimitError
        If at least 0.1 percent of replicates fails to fit.
    """
    reps = as_int(reps, "reps", minimum=1)
    flags = np.concatenate(
        bootstrap.map_chunks(_replicate_chunk, reps, threads, (cell, cfg))
    )
    excluded = flags[:, 3]
    n_excluded = int(excluded.sum())
    if n_excluded / reps >= EXCLUSION_LIMIT:
        raise ExclusionLimitError(f"{n_excluded} of {reps} replicates failed to fit")
    included = ~excluded
    n_used = int(included.sum())
    rates = {}
    stderr = {}
    for column, name in enumerate(("bootstrap", "white", "breusch_pagan")):
        p = float(flags[included, column].sum()) / n_used
        rates[name] = p
        stderr[name] = math.sqrt(p * (1.0 - p) / n_used)
    return SimReport(
        scenario=cell.scenario,
        n=cell.n,
        reps=reps,
        n_boot=cfg.n_boot,
        alpha=cfg.alpha,
        seed=cfg.seed,
        rates=rates,
        mc_stderr=stderr,
        excluded=n_excluded,
    )


def _replicate_streams(master_seed: int, j: int) -> tuple[np.random.Generator, int]:
    data_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(j, 0))
    )
    boot_seed = int(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(j, 1)).generate_state(
            1, np.uint64
        )[0]
    )
    return data_rng, boot_seed


def _replicate_chunk(payload) -> np.ndarray:
    # one row per replicate j in [start, stop): the bootstrap, White and
    # Breusch-Pagan rejections, then whether the replicate was excluded
    cell, cfg, start, stop = payload
    flags = np.zeros((stop - start, 4), dtype=bool)
    for j in range(start, stop):
        data_rng, boot_seed = _replicate_streams(cfg.seed, j)
        data = generate(cell, data_rng)
        spec = ModelSpec("y", tuple(name for name in data.columns if name != "y"))
        rep_cfg = dataclasses.replace(cfg, seed=boot_seed)
        row = flags[j - start]
        try:
            result = run_test(data, spec, rep_cfg)
            row[0] = result.reject
            row[1] = white_test(result.model, data).reject_at(cfg.alpha)
            row[2] = breusch_pagan(result.model, data).reject_at(cfg.alpha)
        except _FIT_ERRORS:
            row[3] = True
    return flags
