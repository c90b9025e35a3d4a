"""Scalar special functions: trigamma and the chi-squared CDF and tail.

All are implemented from scratch so the package has no special-function
dependency in its numerical core. Accuracy targets: relative error below
1e-10 for ``trigamma`` on the positive axis, absolute error below 1e-10
for ``chi_squared_cdf``, and relative error below 1e-10 for
``chi_squared_sf`` in the upper tail x >= df + 1. The chi-squared targets
are checked for df <= 2e4; past that the rounding of the prefactor
exp(a log x - x - lgamma(a)) alone approaches 1e-10 relative.
"""

from __future__ import annotations

import math
import operator

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
    ValueError
        If ``x`` is not a positive finite number.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"trigamma requires a positive finite argument, got {x!r}")

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

    Evaluates the regularized lower incomplete gamma function P(df/2, x/2),
    using its power series for x < df + 1 and the continued fraction for the
    upper tail otherwise.

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
    ValueError
        If ``x`` is negative or non-finite, or ``df`` is not a positive
        integer.
    """
    x, df = _check_chi_squared_args(x, df, "chi_squared_cdf")
    if x == 0.0:
        return 0.0
    if x < df + 1.0:
        return _lower_gamma_series(0.5 * df, 0.5 * x)
    return 1.0 - _upper_gamma_cf(0.5 * df, 0.5 * x)


def chi_squared_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of the chi-squared distribution.

    Equals ``1 - chi_squared_cdf(x, df)`` for x < df + 1. From x = df + 1
    on it is the continued fraction for Q(df/2, x/2) itself, so it keeps
    its relative accuracy where the subtraction would cancel to 0.0.

    Parameters and errors are those of :func:`chi_squared_cdf`.
    """
    x, df = _check_chi_squared_args(x, df, "chi_squared_sf")
    if x == 0.0:
        return 1.0
    if x < df + 1.0:
        return 1.0 - _lower_gamma_series(0.5 * df, 0.5 * x)
    return _upper_gamma_cf(0.5 * df, 0.5 * x)


def _check_chi_squared_args(x, df, name: str) -> tuple[float, int]:
    # operator.index takes numpy integers and refuses floats; bool is an int
    try:
        count = operator.index(df)
    except TypeError:
        count = 0
    if isinstance(df, bool) or count < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"{name} requires x >= 0, got {x!r}")
    return x, count


def _max_terms(a: float) -> int:
    # both expansions need about 8 sqrt(a) terms near x = a, where the
    # series and the continued fraction meet
    return 500 + int(10.0 * math.sqrt(a))


def _lower_gamma_series(a: float, x: float) -> float:
    # P(a, x) = x^a e^{-x} / Gamma(a+1) * sum_n x^n / ((a+1)...(a+n))
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_max_terms(a)):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    log_front = a * math.log(x) - x - math.lgamma(a)
    return total * math.exp(log_front)


def _upper_gamma_cf(a: float, x: float) -> float:
    # Q(a, x) via Lentz's method on the standard continued fraction.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _max_terms(a) + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    log_front = a * math.log(x) - x - math.lgamma(a)
    return math.exp(log_front) * h
