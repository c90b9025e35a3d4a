"""Tests for trigamma and the chi-squared CDF against independent oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import scipy.special

from gofboot import chi_squared_cdf, chi_squared_sf, trigamma

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def trigamma_series(x, terms=200_000):
    """Brute-force series sum_k 1/(x + k)^2 with a midpoint tail completion.

    The midpoint correction 1/(x + N - 1/2) bounds the truncation error by
    O((x + N)^-3), far below 1e-12 for N = 2e5.
    """
    k = np.arange(terms, dtype=np.float64)
    return float(np.sum((x + k) ** -2.0) + 1.0 / (x + terms - 0.5))


def chi2_cdf_quadrature(x, df):
    """Adaptive quadrature of the chi-squared density.

    For df = 1 the integrable singularity at zero is removed by the
    substitution t = sqrt(x); higher df have bounded densities.
    """
    if df == 1:
        value, _ = quad(
            lambda t: math.sqrt(2.0 / math.pi) * math.exp(-0.5 * t * t),
            0.0,
            math.sqrt(x),
        )
        return value
    a = 0.5 * df
    norm = math.exp(-a * math.log(2.0) - math.lgamma(a))

    def density(u):
        return norm * u ** (a - 1.0) * math.exp(-0.5 * u)

    value, _ = quad(density, 0.0, x, limit=200)
    return value


# ---------------------------------------------------------------------------
# trigamma
# ---------------------------------------------------------------------------


class TestTrigamma:
    def test_at_one_matches_pi_squared_over_six(self):
        exact = math.pi**2 / 6.0
        assert trigamma(1.0) == pytest.approx(exact, rel=1e-10)
        assert trigamma(1.0) == pytest.approx(trigamma_series(1.0), rel=1e-10)

    def test_at_half_matches_pi_squared_over_two(self):
        exact = math.pi**2 / 2.0
        assert trigamma(0.5) == pytest.approx(exact, rel=1e-10)
        assert trigamma(0.5) == pytest.approx(trigamma_series(0.5), rel=1e-10)

    @pytest.mark.parametrize(
        "x", [0.05, 0.3, 0.7, 1.0, 1.7, 2.4, 5.0, 9.2, 10.0, 11.5, 48.5, 250.0, 5e3]
    )
    def test_matches_series_oracle(self, x):
        assert trigamma(x) == pytest.approx(trigamma_series(x), rel=1e-10)

    @pytest.mark.parametrize("x", [0.3, 1.7, 9.2])
    def test_upward_recurrence_identity(self, x):
        # psi1(x) = psi1(x + 1) + 1/x^2
        lhs = trigamma(x)
        rhs = trigamma(x + 1.0) + 1.0 / (x * x)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_positive_and_strictly_decreasing(self):
        grid = np.linspace(0.1, 60.0, 240)
        values = np.array([trigamma(x) for x in grid])
        assert np.all(values > 0.0)
        assert np.all(np.diff(values) < 0.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            trigamma(bad)


# ---------------------------------------------------------------------------
# chi-squared CDF
# ---------------------------------------------------------------------------


class TestChiSquaredCdf:
    @pytest.mark.parametrize("df", [1, 2, 3, 10, 50])
    def test_zero_at_origin(self, df):
        assert chi_squared_cdf(0.0, df) == 0.0

    def test_df_two_closed_form(self):
        # with two degrees of freedom the CDF is 1 - exp(-x/2)
        for x in (0.1, 1.3862944, 3.0, 12.0):
            assert chi_squared_cdf(x, 2) == pytest.approx(
                1.0 - math.exp(-0.5 * x), rel=1e-12
            )
        assert chi_squared_cdf(1.3862944, 2) == pytest.approx(0.5, abs=1e-7)

    def test_ninety_five_percent_point_df_one(self):
        value = chi_squared_cdf(3.8414588, 1)
        assert value == pytest.approx(0.9500, abs=1e-4)
        assert value == pytest.approx(chi2_cdf_quadrature(3.8414588, 1), abs=1e-10)

    @pytest.mark.parametrize(
        "x,df",
        [
            (0.5, 1),
            (2.0, 1),
            (7.3, 1),
            (0.8, 2),
            (4.1, 3),
            (2.5, 4),
            (11.07, 5),
            (3.0, 8),
            (18.3, 10),
            (30.0, 25),
            (75.0, 60),
            (3.0, np.int64(2)),
        ],
    )
    def test_matches_quadrature_oracle(self, x, df):
        assert chi_squared_cdf(x, df) == pytest.approx(
            chi2_cdf_quadrature(x, df), abs=1e-10
        )
        assert chi_squared_sf(x, df) + chi_squared_cdf(x, df) == pytest.approx(
            1.0, abs=1e-15
        )

    @pytest.mark.parametrize("df", [1, 2, 5, 20])
    def test_monotone_nondecreasing_in_x(self, df):
        grid = np.linspace(0.0, df + 30.0, 200)
        values = np.array([chi_squared_cdf(x, df) for x in grid])
        assert np.all(np.diff(values) >= 0.0)
        assert np.all((values >= 0.0) & (values <= 1.0))

    @pytest.mark.parametrize("df", [1, 3, 10, 40])
    def test_tends_to_one(self, df):
        far = df + 40.0 * math.sqrt(2.0 * df)
        assert chi_squared_cdf(far, df) >= 1.0 - 1e-9

    @pytest.mark.parametrize(
        "x,df",
        [(-1.0, 2), (math.nan, 2), (math.inf, 2), (1.0, 0), (1.0, -3), (1.0, 2.5), (1.0, True),
         (1.0, np.float64(2.0)), (1.0, np.bool_(True)), (1.0, np.int64(0))],
    )
    def test_domain_errors(self, x, df):
        with pytest.raises(ValueError):
            chi_squared_cdf(x, df)

    @pytest.mark.parametrize("offset", [-1.0, 0.0, 1.0])
    def test_large_df_matches_scipy_near_the_mean(self, offset):
        # near x = df the series needs about 8 sqrt(df / 2) terms, 800 here
        df = 20_000
        x = df + offset
        assert chi_squared_cdf(x, df) == pytest.approx(
            scipy.special.chdtr(df, x), rel=0, abs=1e-10
        )
        if x >= df + 1:
            assert chi_squared_sf(x, df) == pytest.approx(
                scipy.special.chdtrc(df, x), rel=1e-10
            )


class TestChiSquaredSf:
    def test_df_two_far_tail_is_exp(self):
        # 1 - cdf cancels to 0.0 here; the tail is exp(-x/2) exactly
        assert 1.0 - chi_squared_cdf(80.0, 2) == 0.0
        assert chi_squared_sf(80.0, 2) == pytest.approx(math.exp(-40.0), rel=1e-12)

    def test_far_tail_matches_scipy(self):
        assert chi_squared_sf(200.0, 5) == pytest.approx(
            scipy.special.chdtrc(5, 200.0), rel=1e-10
        )

    @pytest.mark.parametrize("df", [1, 2, 5, 20, np.int64(2)])
    def test_cdf_equals_one_minus_sf(self, df):
        # below df + 1 and past it, into the tail where the cdf rounds to 1
        for x in np.linspace(0.0, 4.0 * (df + 1.0) + 80.0, 100):
            assert chi_squared_cdf(x, df) == 1.0 - chi_squared_sf(x, df)

    @pytest.mark.parametrize("df", [1, 2, 5, 20, 27, 231])
    def test_matches_scipy_below_df_plus_one(self, df):
        for x in np.linspace(0.0, df + 1.0, 50, endpoint=False):
            assert chi_squared_sf(x, df) == pytest.approx(
                scipy.special.chdtrc(df, x), rel=1e-10
            )

    @pytest.mark.parametrize(
        "x,df",
        [(-1.0, 2), (math.nan, 2), (math.inf, 2), (1.0, 0), (1.0, 2.5), (1.0, True),
         (1.0, np.float64(2.0)), (1.0, np.bool_(True)), (1.0, np.int64(0))],
    )
    def test_domain_errors(self, x, df):
        with pytest.raises(ValueError):
            chi_squared_sf(x, df)
