"""Nonparametric bootstrap test of fit for the normal linear model.

The test compares the robust variance estimate of -2 loglik against its
value under correct specification, 2n. Whole rows are resampled with
replacement, the model is refit on each resample, and the robust variance
is recomputed; the null is rejected when the percentile interval of the
bootstrap values does not contain 2n.

Every bootstrap iteration draws from its own RNG stream: a counter-based
Philox generator keyed by the master seed whose counter starts at the
iteration index. Results are therefore bit-identical for any degree of
parallelism.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
from dataclasses import dataclass

import numpy as np

# numpy loads np.random on first use; every test and simulate run needs it,
# so its import belongs to the import of this module, not to the first run
from numpy.random import Generator, Philox

from .errors import RedrawLimitError
from .regression import (
    DEGENERATE_TOLERANCE,
    Dataset,
    FittedModel,
    ModelSpec,
    build_design,
    fit_mle,
    least_squares,
)
from .variance import theoretical_var_gof, var_gof

__all__ = [
    "BootstrapConfig",
    "GofTestResult",
    "iteration_stream",
    "percentile_interval",
    "run_test",
]


@dataclass(frozen=True)
class BootstrapConfig:
    """Bootstrap test settings.

    Parameters
    ----------
    n_boot : int
        Number of bootstrap iterations, at least 2. Emitted as ``B`` in
        CLI output.
    alpha : float
        Test level in (0, 1).
    seed : int
        Master seed, an unsigned 64-bit integer.
    max_redraws : int
        Per-iteration limit on redraws after rank-deficient or degenerate
        resamples.
    """

    n_boot: int = 1000
    alpha: float = 0.05
    seed: int = 0
    max_redraws: int = 100

    def __post_init__(self):
        if self.n_boot < 2:
            raise ValueError(f"n_boot must be at least 2, got {self.n_boot}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.max_redraws < 0:
            raise ValueError(f"max_redraws must be nonnegative, got {self.max_redraws}")


@dataclass(frozen=True)
class GofTestResult:
    """Outcome of the bootstrap goodness-of-fit test.

    Attributes
    ----------
    var_gof_observed : float
        Robust variance estimate of -2 loglik on the original data.
    boot_values : np.ndarray
        The n_boot bootstrap variance estimates, in iteration order.
    interval_low, interval_high : float
        Percentile interval endpoints; both are elements of ``boot_values``.
    reference : float
        2n, the variance under correct specification.
    reject : bool
        True when ``reference`` lies outside the interval.
    redraw_count : int
        Total resamples discarded as rank deficient or degenerate.
    model : FittedModel
        The fit to the original data that the test bootstraps.
    """

    var_gof_observed: float
    boot_values: np.ndarray
    interval_low: float
    interval_high: float
    reference: float
    reject: bool
    redraw_count: int
    model: FittedModel


def iteration_stream(seed: int, iteration: int) -> np.random.Generator:
    """RNG stream for one bootstrap iteration.

    Stream ``iteration`` is a Philox generator keyed by ``seed`` whose
    counter starts where ``jumped(iteration)`` would put it, so streams are
    independent and reproducible in any execution order.
    """
    return _stream_positioner(seed)(iteration)


def percentile_interval(
    boot_values: np.ndarray, alpha: float
) -> tuple[float, float]:
    """Percentile interval from order statistics ceil(B q) of the values.

    The endpoints are the ceil(B alpha / 2)-th and ceil(B (1 - alpha / 2))-th
    smallest values, 1-indexed, so both endpoints are elements of the input.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    values = np.sort(np.asarray(boot_values, dtype=np.float64))
    b = values.size
    if b < 1:
        raise ValueError("need at least one bootstrap value")
    low = values[_order_index(b, 0.5 * alpha) - 1]
    high = values[_order_index(b, 1.0 - 0.5 * alpha) - 1]
    return float(low), float(high)


def run_test(
    data: Dataset, spec: ModelSpec, cfg: BootstrapConfig, threads: int = 1
) -> GofTestResult:
    """Run the bootstrap goodness-of-fit test.

    Fits the model, bootstraps the robust variance of -2 loglik, and
    rejects when 2n falls outside the percentile interval. Iterations may
    run across up to ``threads`` worker processes, at most one per CPU;
    the result is bit-identical for any value because iteration b always
    uses ``iteration_stream(seed, b)`` and redraws continue on that same
    stream.

    Raises
    ------
    RedrawLimitError
        If any iteration exceeds ``cfg.max_redraws`` discarded resamples.
    """
    model = fit_mle(data, spec)
    X, y = build_design(data, spec)
    var_observed = var_gof(model.residuals, model.sigma2_hat)

    chunks = map_chunks(
        _chunk_worker, cfg.n_boot, threads, (X, y, cfg.seed, cfg.max_redraws)
    )
    boot_values = np.concatenate([values for values, _ in chunks])
    redraw_count = sum(redraws for _, redraws in chunks)

    interval_low, interval_high = percentile_interval(boot_values, cfg.alpha)
    reference = theoretical_var_gof(data.n)
    reject = not interval_low <= reference <= interval_high
    return GofTestResult(
        var_gof_observed=var_observed,
        boot_values=boot_values,
        interval_low=interval_low,
        interval_high=interval_high,
        reference=reference,
        reject=reject,
        redraw_count=redraw_count,
        model=model,
    )


def map_chunks(worker, total: int, threads: int, args: tuple) -> list:
    """Run ``worker((*args, start, stop))`` over chunks that cover [0, total).

    Uses ``min(threads, total, os.cpu_count())`` worker processes and runs
    inline when that is one. The chunks are contiguous and non-empty, since
    there are at most ``total`` of them; the results come back in chunk
    order.
    """
    workers = min(threads, total, os.cpu_count() or 1)
    if workers <= 1:
        return [worker((*args, 0, total))]
    bounds = np.linspace(0, total, workers + 1).astype(int)
    payloads = [(*args, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
    with concurrent.futures.ProcessPoolExecutor(workers) as pool:
        return list(pool.map(worker, payloads))


def _order_index(count: int, q: float) -> int:
    # 1-indexed ceil(count * q), with a guard against FP noise pushing an
    # exact integer product over the next ceiling.
    k = math.ceil(count * q - 1e-9)
    return min(max(k, 1), count)


def _stream_positioner(seed: int):
    """Return ``seek``, where ``seek(b)`` puts one reused generator at stream b.

    Every call restores the state the Philox generator keyed by ``seed`` had
    when new, with its counter set to [0, 0, b, 0]: empty buffer, no cached
    32-bit half. That is ``jumped(b)``, at about a fifth of the cost of
    building a new generator.
    """
    rng = Generator(Philox(key=seed))
    fresh = rng.bit_generator.state
    counter = fresh["state"]["counter"]

    def seek(iteration: int) -> np.random.Generator:
        counter[2] = iteration
        rng.bit_generator.state = fresh
        return rng

    return seek


def _variance_bound(y: np.ndarray) -> float:
    """An upper bound on ``np.var(yb)`` for every resample ``yb`` of ``y``.

    var(yb) <= mean((yb - c)**2) <= max((y - c)**2) for any center c. The
    added square covers the rounding of np.var's own mean of yb, the
    factor the rounding of its sums.
    """
    mean_error = y.size * np.finfo(np.float64).eps * float(np.max(np.abs(y)))
    spread = float(np.max((y - y.mean()) ** 2))
    return (spread + mean_error**2) * (1.0 + 1e-9)


def _resample_var_gof(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    max_redraws: int,
    var_bound: float,
    Xb: np.ndarray,
    yb: np.ndarray,
) -> tuple[float, int]:
    # Xb and yb are the caller's buffers, reused by every iteration: a fresh
    # X[idx] past glibc's mmap threshold is mapped and faulted in each time.
    # "clip" lets np.take write to out unbuffered; every index is in range.
    n, r = X.shape
    redraws = 0
    while True:
        idx = rng.integers(0, n, size=n)
        np.take(X, idx, axis=0, out=Xb, mode="clip")
        np.take(y, idx, out=yb, mode="clip")
        beta, residuals, rank = least_squares(Xb, yb)
        if rank == r:
            sigma2 = float(residuals @ residuals) / n
            # var_bound >= np.var(yb), so passing on it passes on np.var(yb)
            if sigma2 > DEGENERATE_TOLERANCE * var_bound or sigma2 > (
                DEGENERATE_TOLERANCE * float(np.var(yb))
            ):
                return var_gof(residuals, sigma2), redraws
        redraws += 1
        if redraws > max_redraws:
            raise RedrawLimitError(
                f"iteration discarded {redraws} resamples, limit {max_redraws}"
            )


def _chunk_worker(payload) -> tuple[np.ndarray, int]:
    X, y, seed, max_redraws, start, stop = payload
    seek = _stream_positioner(seed)
    var_bound = _variance_bound(y)
    values = np.empty(stop - start)
    Xb = np.empty_like(X)
    yb = np.empty_like(y)
    redraws_total = 0
    for b in range(start, stop):
        value, redraws = _resample_var_gof(
            X, y, seek(b), max_redraws, var_bound, Xb, yb
        )
        values[b - start] = value
        redraws_total += redraws
    return values, redraws_total
