"""Which refusals are usage errors and which concern the data.

An ArgumentError breaks a rule that holds whatever the data, and the CLI
exits 1 on it wherever it is raised. A refusal that depends on the data
is a plain ValueError, and the CLI exits 2 on it.
"""

import math

import numpy as np
import pytest

import gofboot.cli
from gofboot import (
    ArgumentError,
    AuxTestResult,
    BootstrapConfig,
    Dataset,
    GofbootError,
    ModelSpec,
    ScenarioSpec,
    breusch_pagan,
    chi_squared_cdf,
    chi_squared_sf,
    exact_var_gof,
    fit_mle,
    percentile_interval,
    run_monte_carlo,
    run_test,
    theoretical_var_gof,
    trigamma,
    white_test,
)
from gofboot.cli import main
from conftest import count_fit_mle

CFG = BootstrapConfig(n_boot=50, alpha=0.05, seed=1)
CELL = ScenarioSpec(1, 40)
THREE_POINT = Dataset({"x": [0.0, 1.0, 2.0], "y": [0.0, 1.0, 3.0]})
SIGN_FLIP = Dataset({"y": [1.0, -1.0, 1.0, -1.0]})

ARGUMENT_REFUSALS = {
    "ModelSpec response": lambda: ModelSpec(response=""),
    "ModelSpec duplicates": lambda: ModelSpec("y", ("x", "x")),
    "ModelSpec response as covariate": lambda: ModelSpec("y", ("y",)),
    "ModelSpec no mean": lambda: ModelSpec("y", (), intercept=False),
    "BootstrapConfig n_boot": lambda: BootstrapConfig(n_boot=1),
    "BootstrapConfig float n_boot": lambda: BootstrapConfig(n_boot=10.5),
    "BootstrapConfig alpha": lambda: BootstrapConfig(alpha=1.5),
    "BootstrapConfig seed": lambda: BootstrapConfig(seed=-3),
    "ScenarioSpec scenario": lambda: ScenarioSpec(7, 50),
    "ScenarioSpec n": lambda: ScenarioSpec(1, 9),
    "reps": lambda: run_monte_carlo(CELL, 0, CFG),
    "float reps": lambda: run_monte_carlo(CELL, 2.5, CFG),
    "simulate threads": lambda: run_monte_carlo(CELL, 2, CFG, threads=0),
    "test threads": lambda: run_test(THREE_POINT, ModelSpec("y", ("x",)), CFG, 0),
    "interval alpha": lambda: percentile_interval([1.0, 2.0], 0.0),
    "reject_at alpha": lambda: AuxTestResult(1.0, 1, 0.5).reject_at(1.0),
    "white covariates": lambda: white_test(
        fit_mle(SIGN_FLIP, ModelSpec("y")), SIGN_FLIP
    ),
    "breusch-pagan covariates": lambda: breusch_pagan(
        fit_mle(SIGN_FLIP, ModelSpec("y")), SIGN_FLIP
    ),
    "df": lambda: chi_squared_sf(1.0, 0),
    "float df": lambda: chi_squared_cdf(1.0, 2.5),
    "chi-squared x": lambda: chi_squared_sf(-1.0, 2),
    "trigamma x": lambda: trigamma(0.0),
    "theoretical n": lambda: theoretical_var_gof(0),
    "exact n": lambda: exact_var_gof(3, 3),
    "exact r": lambda: exact_var_gof(10, 0),
    "float n": lambda: exact_var_gof(10.5, 2),
}

DATA_REFUSALS = {
    "Dataset empty": lambda: Dataset({}),
    "Dataset no rows": lambda: Dataset({"a": np.array([])}),
    "Dataset ragged": lambda: Dataset({"a": [1.0, 2.0], "b": [1.0]}),
    "Dataset non-finite": lambda: Dataset({"a": [1.0, math.nan]}),
    "Dataset name": lambda: Dataset({"": [1.0]}),
    "missing column": lambda: fit_mle(THREE_POINT, ModelSpec("y", ("theta",))),
    "non-finite bootstrap value": lambda: percentile_interval([1.0, math.nan], 0.5),
}


def test_argument_error_is_a_package_value_error():
    assert issubclass(ArgumentError, GofbootError)
    assert issubclass(ArgumentError, ValueError)


@pytest.mark.parametrize("refusal", ARGUMENT_REFUSALS.values(), ids=ARGUMENT_REFUSALS)
def test_argument_rules_raise_argument_error(refusal):
    with pytest.raises(ArgumentError):
        refusal()


@pytest.mark.parametrize("refusal", DATA_REFUSALS.values(), ids=DATA_REFUSALS)
def test_data_rules_raise_plain_value_error(refusal):
    with pytest.raises(ValueError) as info:
        refusal()
    assert not isinstance(info.value, GofbootError)


@pytest.mark.parametrize(
    "refusal,code",
    [(r, 1) for r in ARGUMENT_REFUSALS.values()]
    + [(r, 2) for r in DATA_REFUSALS.values()],
    ids=[f"usage: {k}" for k in ARGUMENT_REFUSALS]
    + [f"data: {k}" for k in DATA_REFUSALS],
)
def test_fit_exit_code_follows_the_error_class(monkeypatch, capsys, refusal, code):
    # wherever a refusal is raised, its class alone picks the exit code
    def ingest(path):
        refusal()

    monkeypatch.setattr(gofboot.cli, "ingest_csv", ingest)
    assert main(["fit", "--data", "x.csv", "--response", "y"]) == code
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("threads", [0, 2.5])
def test_run_test_refuses_threads_before_it_fits(monkeypatch, threads):
    calls = count_fit_mle(monkeypatch)
    with pytest.raises(ArgumentError, match="threads"):
        run_test(THREE_POINT, ModelSpec("y", ("x",)), CFG, threads=threads)
    assert calls == []


@pytest.mark.parametrize(
    "argv,message",
    [
        (["simulate", "--scenario", "1", "--n", "50", "--seed", "1", "--reps", "0"],
         "reps must be at least 1, got 0"),
        (["simulate", "--scenario", "1", "--n", "50", "--seed", "1",
          "--threads", "0"],
         "threads must be at least 1, got 0"),
        # refused before the CSV, which does not exist, is read
        (["test", "--data", "x.csv", "--response", "y", "--covariates", "x",
          "--alpha", "1.5"],
         "alpha must be in (0, 1), got 1.5"),
        (["test", "--data", "x.csv", "--response", "y", "--covariates", "x",
          "--seed", "-3"],
         "seed must be an unsigned 64-bit integer, got -3"),
        (["test", "--data", "x.csv", "--response", "y", "--covariates", "x",
          "--boot", "1"],
         "n_boot must be at least 2, got 1"),
        (["test", "--data", "x.csv", "--response", "y", "--covariates", "x",
          "--threads", "0"],
         "threads must be at least 1, got 0"),
        (["test", "--data", "x.csv", "--response", "y"],
         "White and Breusch-Pagan tests require at least one covariate"),
    ],
)
def test_cli_prints_the_rule_owners_message(argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
