"""Scalar special functions: trigamma and the chi-squared CDF and tail.

All are implemented from scratch so the package has no special-function
dependency in its numerical core. Accuracy targets: relative error below
1e-10 for ``trigamma`` on the positive axis, absolute error below 1e-10
for ``chi_squared_cdf``, and relative error below 1e-10 for
``chi_squared_sf`` on the whole axis x > 0. For the integer df the
functions accept, the tail is a finite sum of df // 2 positive terms, plus
erfc for odd df, so it needs no iteration or convergence test. The
chi-squared targets are checked for df <= 2e4; past that the rounding of
each term's exponent a log h - h - lgamma(a + 1) approaches 1e-10 relative.
"""

from __future__ import annotations

import math

from .errors import ArgumentError, as_int

__all__ = ["trigamma", "chi_squared_cdf", "chi_squared_sf"]

# Asymptotic series coefficients B_{2k} (Bernoulli numbers) for k = 1..6.
_BERNOULLI_2K = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
)

# Recurrence shift threshold: the asymptotic tail is accurate past this point.
_SHIFT_THRESHOLD = 10.0


def trigamma(x: float) -> float:
    """Trigamma function, the second derivative of log Gamma.

    Uses the upward recurrence psi1(x) = psi1(x + 1) + 1/x**2 to shift the
    argument above 10, then the asymptotic expansion

        psi1(x) ~ 1/x + 1/(2 x**2) + sum_k B_{2k} / x**(2k + 1)

    truncated after k = 6.

    Parameters
    ----------
    x : float
        Evaluation point, must be positive and finite.

    Returns
    -------
    float

    Raises
    ------
    ArgumentError
        If ``x`` is not a positive finite number.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ArgumentError(f"trigamma requires a positive finite argument, got {x!r}")

    acc = 0.0
    while x < _SHIFT_THRESHOLD:
        acc += 1.0 / (x * x)
        x += 1.0

    inv = 1.0 / x
    inv2 = inv * inv
    tail = inv + 0.5 * inv2
    power = inv * inv2
    for b2k in _BERNOULLI_2K:
        tail += b2k * power
        power *= inv2
    return acc + tail


def chi_squared_cdf(x: float, df: int) -> float:
    """CDF of the chi-squared distribution with ``df`` degrees of freedom.

    Computed as ``1 - chi_squared_sf(x, df)``, so its error is absolute.

    Parameters
    ----------
    x : float
        Quantile, must be >= 0.
    df : int
        Degrees of freedom, must be a positive integer.

    Returns
    -------
    float
        P(X <= x), in [0, 1].

    Raises
    ------
    ArgumentError
        If ``x`` is negative or non-finite, or ``df`` is not an integer of
        at least 1.
    """
    return 1.0 - chi_squared_sf(x, df)


def chi_squared_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of the chi-squared distribution.

    For integer df the tail is a finite sum (Abramowitz & Stegun
    26.4.4-26.4.5). With h = x / 2 and a = j + (df mod 2) / 2 it is

        sum_{j < df // 2} h^a e^{-h} / Gamma(a + 1),

    plus erfc(sqrt(h)) when df is odd. Every term is positive, so the tail
    keeps its relative accuracy where ``1 - chi_squared_cdf`` would cancel
    to 0.0.

    Parameters and errors are those of :func:`chi_squared_cdf`.
    """
    df = as_int(df, "degrees of freedom", minimum=1)
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ArgumentError(f"chi-squared x must be finite and >= 0, got {x!r}")
    if x == 0.0:
        return 1.0
    h = 0.5 * x
    log_h = math.log(h)
    half = 0.5 * (df % 2)
    terms = [
        math.exp((j + half) * log_h - h - math.lgamma(j + half + 1.0))
        for j in range(df // 2)
    ]
    if half:
        terms.append(math.erfc(math.sqrt(h)))
    return math.fsum(terms)

