"""Tests for the White and Breusch-Pagan comparator tests."""

import numpy as np
import pytest

from gofboot import (
    Dataset,
    ModelSpec,
    RankDeficientError,
    breusch_pagan,
    fit_mle,
    white_test,
)
from gofboot.simulation import ScenarioSpec, generate
from conftest import INVARIANT_TRANSFORMS, scenario1_dataset
from oracle import het_reference

# ---------------------------------------------------------------------------
# auxiliary design construction
# ---------------------------------------------------------------------------


class TestAuxiliaryDesign:
    def test_two_continuous_covariates_give_five_white_regressors(self):
        data, spec = scenario1_dataset(seed=6, n=60)
        model = fit_mle(data, spec)
        # x1, x2, x1^2, x2^2, x1 x2 all survive
        assert white_test(model, data).df == 5
        assert breusch_pagan(model, data).df == 2

    def test_binary_covariate_square_is_dropped(self):
        rng = np.random.default_rng(9)
        x = rng.integers(0, 2, size=50).astype(float)
        y = 1.0 + x + rng.standard_normal(50)
        data = Dataset({"x": x, "y": y})
        model = fit_mle(data, ModelSpec(response="y", covariates=("x",)))
        result = white_test(model, data)
        assert result.df == 1  # x^2 == x exactly

    def test_white_equals_breusch_pagan_when_designs_coincide(self):
        rng = np.random.default_rng(10)
        x = rng.integers(0, 2, size=80).astype(float)
        y = 2.0 + 3.0 * x + (1.0 + x) * rng.standard_normal(80)
        data = Dataset({"x": x, "y": y})
        model = fit_mle(data, ModelSpec(response="y", covariates=("x",)))
        w = white_test(model, data)
        bp = breusch_pagan(model, data)
        assert w.df == bp.df == 1
        assert w.statistic == pytest.approx(bp.statistic, rel=1e-12)
        assert w.p_value == pytest.approx(bp.p_value, rel=1e-12)

    def test_single_continuous_covariate_keeps_square(self):
        data = Dataset(
            {"x": np.array([0.0, 1.0, 2.0, 3.0, 4.0]), "y": np.array([0.1, 1.2, 1.8, 3.3, 3.9])}
        )
        model = fit_mle(data, ModelSpec(response="y", covariates=("x",)))
        assert white_test(model, data).df == 2  # x and x^2


# ---------------------------------------------------------------------------
# statistic properties
# ---------------------------------------------------------------------------


class TestStatisticProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_ranges(self, seed):
        data, spec = scenario1_dataset(seed=seed, n=70)
        model = fit_mle(data, spec)
        for result in (white_test(model, data), breusch_pagan(model, data)):
            assert 0.0 <= result.statistic <= data.n
            assert 0.0 <= result.p_value <= 1.0

    def test_constant_squared_residuals_give_zero_statistic(self):
        # residuals (c, -c, -c, c) against x = (0, 1, 2, 3) are exact LS
        # residuals with constant square, so the auxiliary R^2 is zero
        x = np.array([0.0, 1.0, 2.0, 3.0])
        c = 0.75
        y = 1.0 + 2.0 * x + np.array([c, -c, -c, c])
        data = Dataset({"x": x, "y": y})
        model = fit_mle(data, ModelSpec(response="y", covariates=("x",)))
        assert model.residuals == pytest.approx([c, -c, -c, c], abs=1e-12)
        for result in (white_test(model, data), breusch_pagan(model, data)):
            assert result.statistic == 0.0
            assert result.p_value == 1.0

    def test_affine_response_invariance(self):
        data, spec = scenario1_dataset(seed=14, n=90)
        model = fit_mle(data, spec)
        shifted = Dataset(
            {
                "y": 3.0 * data.columns["y"] + 7.0,
                "x1": data.columns["x1"],
                "x2": data.columns["x2"],
            }
        )
        shifted_model = fit_mle(shifted, spec)
        for test in (white_test, breusch_pagan):
            a = test(model, data)
            b = test(shifted_model, shifted)
            assert a.statistic == pytest.approx(b.statistic, rel=1e-10)
            assert a.df == b.df

    @pytest.mark.parametrize(
        "transform",
        INVARIANT_TRANSFORMS.values(),
        ids=list(INVARIANT_TRANSFORMS),
    )
    def test_invariant_to_units_affine_maps_and_row_order(self, transform):
        # the auxiliary designs span the same space after any of these maps
        data, spec = scenario1_dataset(seed=1, n=500)
        moved = Dataset(transform(data.columns))
        model, moved_model = fit_mle(data, spec), fit_mle(moved, spec)
        for test in (white_test, breusch_pagan):
            a = test(model, data)
            b = test(moved_model, moved)
            assert b.statistic == pytest.approx(a.statistic, rel=1e-8)
            assert b.df == a.df

    def test_reject_at(self):
        data, spec = scenario1_dataset(seed=15, n=90)
        model = fit_mle(data, spec)
        result = breusch_pagan(model, data)
        assert result.reject_at(0.05) == (result.p_value < 0.05)
        tighter = min(result.p_value / 2.0, 0.5) or 1e-6
        assert not result.reject_at(tighter)
        with pytest.raises(ValueError):
            result.reject_at(0.0)


# ---------------------------------------------------------------------------
# degenerate designs
# ---------------------------------------------------------------------------


class TestDegenerateDesigns:
    def test_intercept_only_model_rejected(self, sign_flip):
        data, spec = sign_flip
        model = fit_mle(data, spec)
        with pytest.raises(ValueError, match="covariate"):
            breusch_pagan(model, data)
        with pytest.raises(ValueError, match="covariate"):
            white_test(model, data)

    @pytest.mark.parametrize(
        "name,test,expected_df",
        [("white", white_test, 2), ("breusch_pagan", breusch_pagan, 1)],
        ids=["white", "breusch_pagan"],
    )
    def test_counts_columns_beside_a_constant_covariate(self, name, test, expected_df):
        # in a no-intercept model the centered constant and its products are
        # all-zero columns, which add nothing to the rank; x (and x^2) count
        rng = np.random.default_rng(16)
        x = rng.standard_normal(30)
        y = x + (1.0 + x**2) * rng.standard_normal(30)
        data = Dataset({"c": np.full(30, 2.0), "x": x, "y": y})
        spec = ModelSpec(response="y", covariates=("c", "x"), intercept=False)
        result = test(fit_mle(data, spec), data)
        statistic, df = het_reference(data, spec)[name]
        assert result.df == df == expected_df
        assert result.statistic == pytest.approx(statistic, rel=1e-8)

    def test_white_with_no_surviving_regressors(self):
        rng = np.random.default_rng(17)
        data = Dataset(
            {"c": np.full(25, 3.0), "y": rng.standard_normal(25) + 1.0}
        )
        model = fit_mle(
            data, ModelSpec(response="y", covariates=("c",), intercept=False)
        )
        with pytest.raises(RankDeficientError) as info:
            white_test(model, data)
        assert info.value.rank == 0


# ---------------------------------------------------------------------------
# agreement with an independent implementation
# ---------------------------------------------------------------------------


def reference_case(kind, seed):
    """Scenario data, or a design whose White columns are collinear."""
    rng = np.random.default_rng(seed)
    if kind == "binary":  # x^2 == x
        x = rng.integers(0, 2, size=80).astype(float)
        y = 2.0 + 3.0 * x + (1.0 + x) * rng.standard_normal(80)
        return Dataset({"x": x, "y": y}), ModelSpec(response="y", covariates=("x",))
    if kind == "exclusive-dummies":  # d1 d2 == 0
        level = rng.integers(0, 3, size=90)
        d1, d2 = (level == 1).astype(float), (level == 2).astype(float)
        y = 1.0 + d1 - d2 + (1.0 + d1) * rng.standard_normal(90)
        data = Dataset({"d1": d1, "d2": d2, "y": y})
        return data, ModelSpec(response="y", covariates=("d1", "d2"))
    return scenario_draw(int(kind.removeprefix("scenario")), 120, rng)


def scenario_draw(scenario, n, rng):
    # as each Monte Carlo replicate does: fit y on every other generated column
    data = generate(ScenarioSpec(scenario, n), rng)
    return data, ModelSpec("y", tuple(name for name in data.columns if name != "y"))


class TestAgainstReference:
    @pytest.mark.parametrize(
        "kind,seed",
        [(f"scenario{s}", seed) for s in (1, 2, 3, 4) for seed in range(3)]
        + [("binary", 9), ("exclusive-dummies", 11)],
    )
    def test_statistics_and_df_match(self, kind, seed):
        data, spec = reference_case(kind, seed)
        model = fit_mle(data, spec)
        reference = het_reference(data, spec)
        for name, test in (("white", white_test), ("breusch_pagan", breusch_pagan)):
            statistic, df = reference[name]
            result = test(model, data)
            assert result.statistic == pytest.approx(statistic, rel=1e-8)
            assert result.df == df


class TestAgainstStatsmodels:
    @pytest.mark.parametrize("scenario,seed", [(1, 0), (3, 1), (4, 2)])
    def test_statistics_match(self, scenario, seed):
        sm_api = pytest.importorskip("statsmodels.api")
        sm_diag = pytest.importorskip("statsmodels.stats.diagnostic")
        data, spec = scenario_draw(scenario, 120, np.random.default_rng(seed))
        model = fit_mle(data, spec)
        X = np.column_stack(
            [np.ones(data.n)] + [data.columns[c] for c in spec.covariates]
        )
        resid = sm_api.OLS(data.columns["y"], X).fit().resid
        lm_white, p_white, _, _ = sm_diag.het_white(resid, X)
        lm_bp, p_bp, _, _ = sm_diag.het_breuschpagan(resid, X)
        assert white_test(model, data).statistic == pytest.approx(lm_white, rel=1e-8)
        assert white_test(model, data).p_value == pytest.approx(p_white, abs=1e-8)
        assert breusch_pagan(model, data).statistic == pytest.approx(lm_bp, rel=1e-8)
        assert breusch_pagan(model, data).p_value == pytest.approx(p_bp, abs=1e-8)


# ---------------------------------------------------------------------------
# operating characteristics
# ---------------------------------------------------------------------------


def classical_rates(scenario, n, reps=500, alpha=0.05, seed=1729):
    white = bp = 0
    for j in range(reps):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(j, 0))
        )
        data, spec = scenario_draw(scenario, n, rng)
        model = fit_mle(data, spec)
        white += white_test(model, data).reject_at(alpha)
        bp += breusch_pagan(model, data).reject_at(alpha)
    return white / reps, bp / reps


class TestOperatingCharacteristics:
    def test_size_under_correct_model(self):
        white, bp = classical_rates(1, 1000)
        assert abs(bp - 0.051) <= 0.04
        assert abs(white - 0.053) <= 0.04

    def test_power_under_observed_heteroskedasticity(self):
        white, bp = classical_rates(4, 100)
        assert abs(white - 0.462) <= 0.07
        assert abs(bp - 0.674) <= 0.07
        white500, bp500 = classical_rates(4, 500)
        assert white500 >= 0.99
        assert bp500 >= 0.99

    def test_blindness_to_hidden_heteroskedasticity(self):
        # neither test can see scenario 3's unobserved variance driver
        white, bp = classical_rates(3, 1000)
        assert abs(white - 0.058) <= 0.04
        assert abs(bp - 0.050) <= 0.04
