"""Shared fixtures: small worked examples and random regression problems."""

import concurrent.futures
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import gofboot.regression
from gofboot import Dataset, ModelSpec


def env_with_this_gofboot():
    """The environment with the tested gofboot's src directory first on PYTHONPATH.

    A subprocess started with it imports the same gofboot as the tests, not
    some other installed copy.
    """
    env = dict(os.environ)
    src = str(Path(gofboot.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def three_point():
    """The hand-solved example: x = (0, 1, 2), y = (0, 1, 3).

    Exact solution: beta = (-1/6, 3/2), sigma2_hat = 1/18.
    """
    data = Dataset({"x": np.array([0.0, 1.0, 2.0]), "y": np.array([0.0, 1.0, 3.0])})
    return data, ModelSpec(response="y", covariates=("x",))


@pytest.fixture
def sign_flip():
    """Intercept-only fit of y = (1, -1, 1, -1): every residual equals sigma_hat."""
    data = Dataset({"y": np.array([1.0, -1.0, 1.0, -1.0])})
    return data, ModelSpec(response="y", covariates=())


def random_regression(seed, n=None, r=None):
    """A random well-conditioned regression problem.

    Draws n in [10, 50] and r in [1, 4] (r counts all mean parameters,
    intercept included) unless pinned, then Gaussian covariates, uniform
    coefficients, and N(0, sigma2) errors.
    """
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(10, 51))
    if r is None:
        r = int(rng.integers(1, 5))
    names = [f"x{j}" for j in range(1, r)]
    columns = {name: rng.standard_normal(n) * rng.uniform(0.5, 3.0) for name in names}
    beta = rng.uniform(-3.0, 3.0, size=r)
    sigma = rng.uniform(0.3, 2.5)
    X = np.column_stack([np.ones(n)] + [columns[name] for name in names])
    y = X @ beta + sigma * rng.standard_normal(n)
    columns["y"] = y
    data = Dataset(columns)
    return data, ModelSpec(response="y", covariates=tuple(names))


def scenario1_dataset(seed, n):
    """One draw of the correctly specified simulation design."""
    rng = np.random.default_rng(seed)
    x1 = 5.0 * rng.random(n)
    x2 = 5.0 * rng.random(n)
    y = 2.0 + 2.0 * x1 + 2.0 * x2 + 2.0 * rng.standard_normal(n)
    data = Dataset({"y": y, "x1": x1, "x2": x2})
    return data, ModelSpec(response="y", covariates=("x1", "x2"))


def _permute_rows(columns):
    order = np.random.default_rng(0).permutation(columns["y"].size)
    return {name: values[order] for name, values in columns.items()}


# Maps of a scenario-1 column dict that leave var_gof unchanged in exact
# arithmetic: a change of units of y, affine maps of the covariates, and a
# reordering of the rows. The y maps scale y + 5 rather than shift a scaled
# y, because 3 - 1e-8 y would lose eight digits to rounding in the data.
INVARIANT_TRANSFORMS = {
    "y-to-1e-8(y+5)": lambda cols: {**cols, "y": 1e-8 * (cols["y"] + 5.0)},
    "y-to-1e5(y+5)": lambda cols: {**cols, "y": 1e5 * (cols["y"] + 5.0)},
    "x1-to-1e6x1+3": lambda cols: {**cols, "x1": 1e6 * cols["x1"] + 3.0},
    "x2-to-1e3-0.5x2": lambda cols: {**cols, "x2": -0.5 * cols["x2"] + 1e3},
    "x1-to-x1+1e5": lambda cols: {**cols, "x1": cols["x1"] + 1e5},
    "x1-to-x1+3e5": lambda cols: {**cols, "x1": cols["x1"] + 3e5},
    "row-permutation": _permute_rows,
}


def count_fit_mle(monkeypatch):
    """Count ``fit_mle`` calls through every module that binds it.

    Returns a list that grows by the ``data.n`` of each call.
    """
    calls = []
    real = gofboot.regression.fit_mle

    def counted(data, spec):
        calls.append(data.n)
        return real(data, spec)

    for name, module in list(sys.modules.items()):
        if name.startswith("gofboot") and getattr(module, "fit_mle", None) is real:
            monkeypatch.setattr(module, "fit_mle", counted)
    return calls


class _InlinePool:
    """A ProcessPoolExecutor stand-in that maps in this process."""

    def __init__(self, record, max_workers):
        record.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


def fake_process_pools(monkeypatch, cpus):
    """Make gofboot see ``cpus`` CPUs and record each pool's max_workers.

    No process is started: the pools run their work inline.
    """
    record = []
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        lambda max_workers: _InlinePool(record, max_workers),
    )
    return record
