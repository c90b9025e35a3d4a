"""Acceptance checklist for the package.

One test per criterion, so ``pytest -v`` reads as a pass/fail scorecard:

1. size of all three tests under a correctly specified model,
2. power of the bootstrap test against an omitted covariate,
3. power against heteroskedasticity driven by an unobserved variable,
4. comparison when the variance driver is an observed covariate,
5. sandwich variance agrees with two independent derivations,
6. the estimated variance tracks the 2n reference under the null,
7. the exact finite-sample variance matches a brute-force series,
8. special-function reference values,
9. CLI output is invariant to the worker thread count.

Rejection-rate targets were frozen from a calibration run at seed 1729
with 500 replicates and 500 bootstrap draws per test; the tolerance on
each rate covers its binomial Monte Carlo error (about two standard
errors, wider for rates near one half). All Monte Carlo cells share one
session-scoped cache so each (scenario, n) pair is simulated once.
"""

import json
import math

import numpy as np
import pytest

from gofboot import (
    BootstrapConfig,
    chi_squared_cdf,
    exact_var_gof,
    fit_mle,
    run_monte_carlo,
    theoretical_var_gof,
    trigamma,
    var_gof,
)
from gofboot.cli import main
from gofboot.regression import build_design
from conftest import random_regression, scenario1_dataset
from oracle import observed_information, sandwich
from test_special import trigamma_series
from test_variance import closed_form_var_gof, finite_difference_hessian

ACCEPTANCE_SEED = 1729
REPS = 500
N_BOOT = 500
ALPHA = 0.05


@pytest.fixture(scope="session")
def mc_cell():
    """Memoized Monte Carlo runner, one entry per (scenario, n)."""
    cfg = BootstrapConfig(n_boot=N_BOOT, alpha=ALPHA, seed=ACCEPTANCE_SEED)
    cache = {}

    def cell(scenario, n):
        key = (scenario, n)
        if key not in cache:
            cache[key] = run_monte_carlo(scenario, n, REPS, cfg)
        return cache[key]

    return cell


def test_criterion_1_size_under_correct_specification(mc_cell):
    targets = {
        100: {"bootstrap": 0.094, "white": 0.071, "breusch_pagan": 0.059},
        500: {"bootstrap": 0.088, "white": 0.045, "breusch_pagan": 0.049},
        1000: {"bootstrap": 0.077, "white": 0.053, "breusch_pagan": 0.051},
    }
    for n, row in targets.items():
        report = mc_cell(1, n)
        assert report.excluded == 0
        assert abs(report.rates["bootstrap"] - row["bootstrap"]) <= 0.04
        assert abs(report.rates["white"] - row["white"]) <= 0.03
        assert abs(report.rates["breusch_pagan"] - row["breusch_pagan"]) <= 0.03


def test_criterion_2_power_against_omitted_covariate(mc_cell):
    at_100, at_500 = mc_cell(2, 100), mc_cell(2, 500)
    assert abs(at_100.rates["bootstrap"] - 0.549) <= 0.07
    assert at_500.rates["bootstrap"] >= 0.93
    # variance-targeted tests stay blind to a lurking mean-model covariate
    assert abs(at_100.rates["white"] - 0.050) <= 0.03
    assert abs(at_500.rates["white"] - 0.053) <= 0.03
    assert abs(at_100.rates["breusch_pagan"] - 0.043) <= 0.03
    assert abs(at_500.rates["breusch_pagan"] - 0.049) <= 0.03


def test_criterion_3_power_against_hidden_heteroskedasticity(mc_cell):
    at_500, at_1000 = mc_cell(3, 500), mc_cell(3, 1000)
    assert at_500.rates["bootstrap"] >= 0.82
    assert at_1000.rates["bootstrap"] >= 0.97
    # the variance driver never enters the fitted design, so white and
    # breusch-pagan hold their nominal size here
    assert abs(at_500.rates["white"] - 0.048) <= 0.03
    assert abs(at_1000.rates["white"] - 0.058) <= 0.03
    assert abs(at_500.rates["breusch_pagan"] - 0.047) <= 0.03
    assert abs(at_1000.rates["breusch_pagan"] - 0.050) <= 0.03


def test_criterion_4_observable_heteroskedasticity_comparison(mc_cell):
    at_100, at_500 = mc_cell(4, 100), mc_cell(4, 500)
    assert abs(at_100.rates["breusch_pagan"] - 0.674) <= 0.07
    assert abs(at_100.rates["white"] - 0.462) <= 0.07
    assert at_500.rates["breusch_pagan"] >= 0.99
    assert at_500.rates["white"] >= 0.99
    assert abs(at_500.rates["bootstrap"] - 0.344) <= 0.06
    # targeted tests dominate when the variance driver is observable
    assert at_500.rates["breusch_pagan"] > at_500.rates["bootstrap"]


def test_criterion_5_sandwich_agrees_with_independent_routes():
    for seed in range(24):
        data, spec = random_regression(seed)
        model = fit_mle(data, spec)
        estimate = sandwich(model, data)
        assert estimate.var_gof == pytest.approx(
            closed_form_var_gof(model), rel=1e-8
        )
        X, y = build_design(data, spec)
        theta = np.append(model.beta_hat, model.sigma2_hat)
        H = finite_difference_hessian(theta, X, y)
        info = observed_information(model, data)
        assert np.linalg.norm(info - (-H)) / np.linalg.norm(info) <= 1e-5


def test_criterion_6_variance_tracks_reference_under_null():
    n = 2000
    ratios = [
        var_gof(model.residuals, model.sigma2_hat) / theoretical_var_gof(n)
        for seed in range(200)
        for data, spec in (scenario1_dataset(seed, n),)
        for model in (fit_mle(data, spec),)
    ]
    assert 0.90 <= float(np.mean(ratios)) <= 1.10


def test_criterion_7_exact_variance_matches_series_oracle():
    r = 3
    oracle = 100.0**2 * trigamma_series((100 - r) / 2.0)
    assert exact_var_gof(100, r) == pytest.approx(oracle, rel=1e-6)
    ratios = [
        exact_var_gof(n, r) / theoretical_var_gof(n) for n in (50, 100, 500, 5000)
    ]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(value > 1.0 for value in ratios)
    assert exact_var_gof(10_000, r) / theoretical_var_gof(10_000) <= 1.001


def test_criterion_8_special_function_reference_values():
    assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-10)
    assert trigamma(0.5) == pytest.approx(math.pi**2 / 2.0, rel=1e-10)
    assert chi_squared_cdf(3.8414588, 1) == pytest.approx(0.9500, abs=1e-4)


def test_criterion_9_cli_output_invariant_to_thread_count(tmp_path, capsys):
    rng = np.random.default_rng(501)
    n = 150
    x1, x2 = 5.0 * rng.random(n), 5.0 * rng.random(n)
    y = 2.0 + 2.0 * x1 + 2.0 * x2 + 2.0 * rng.standard_normal(n)
    path = tmp_path / "data.csv"
    with open(path, "w") as handle:
        handle.write("y,x1,x2\n")
        for row in zip(y, x1, x2):
            handle.write(",".join(f"{v:.17g}" for v in row) + "\n")

    test_args = ["test", "--data", str(path), "--response", "y",
                 "--covariates", "x1,x2", "--boot", "200", "--seed", "424242",
                 "--format", "json"]
    runs = []
    for threads in ("1", "2"):
        code = main(test_args + ["--threads", threads])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert json.loads(runs[0][1])["seed"] == 424242

    sim_args = ["simulate", "--scenario", "4", "--n", "60", "--reps", "10",
                "--boot", "60", "--seed", "31337", "--format", "json"]
    sim_runs = []
    for threads in ("1", "2"):
        code = main(sim_args + ["--threads", threads])
        sim_runs.append((code, capsys.readouterr().out))
    assert sim_runs[0] == sim_runs[1]
