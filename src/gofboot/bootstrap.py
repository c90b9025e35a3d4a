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
import operator
import os
from dataclasses import dataclass

import numpy as np

# numpy loads np.random on first use; every test and simulate run needs it,
# so its import belongs to the import of this module, not to the first run
from numpy.random import Generator, Philox

from .errors import RedrawLimitError
from .regression import CONDITION_LIMIT, Dataset, FittedModel, ModelSpec, fit_mle
from .variance import theoretical_var_gof, var_gof

__all__ = [
    "BootstrapConfig",
    "GofTestResult",
    "iteration_stream",
    "percentile_interval",
    "run_test",
]

# Per-iteration limit on redraws after rank-deficient or degenerate resamples.
MAX_REDRAWS = 100


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
    """

    n_boot: int = 1000
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_boot", as_int(self.n_boot, "n_boot"))
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
        if self.n_boot < 2:
            raise ValueError(f"n_boot must be at least 2, got {self.n_boot}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


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
        If any iteration exceeds ``MAX_REDRAWS`` discarded resamples.
    """
    model = fit_mle(data, spec)
    var_observed = var_gof(model.residuals, model.sigma2_hat)

    payload = (_refit_rows(model), cfg.seed)
    chunks = map_chunks(_chunk_worker, cfg.n_boot, threads, payload)
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


def as_int(value, name: str) -> int:
    """``value`` as a Python int; ValueError if it is not an integer.

    Accepts anything ``operator.index`` does, numpy integers included, and
    so refuses a float rather than truncating it.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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


def _refit_rows(model: FittedModel) -> np.ndarray:
    """The rows ``[basis, e / |e|]`` that every resample refits in.

    A resample of the data's rows is a resample of these rows: the basis
    spans the design and y is its projection onto the basis plus e, so a
    refit of y on a resample has the residuals of a refit of e.
    """
    e = model.residuals
    return np.column_stack([model.basis, e / math.sqrt(float(e @ e))])


def _resample_var_gof(
    rows: np.ndarray, rng: np.random.Generator, A: np.ndarray
) -> tuple[float, int]:
    """var_gof of one resample of ``rows``, redrawing until one is usable.

    With A = [Q, a] the resampled rows, the last row of inv(A'A) is
    [-gamma, 1] / RSS for gamma the least-squares coefficients of a on Q,
    so A @ inv(A'A)[-1] is the refit's residual vector divided by RSS, a
    scale var_gof ignores. A resample is redrawn when A'A is singular or
    its Frobenius condition number exceeds ``CONDITION_LIMIT``: that one
    rule discards both a rank-deficient design and an exact fit.
    """
    # A is the caller's buffer, reused by every iteration: a fresh rows[idx]
    # past glibc's mmap threshold is mapped and faulted in each time.
    # "clip" lets np.take write to out unbuffered; every index is in range.
    n = rows.shape[0]
    redraws = 0
    while True:
        idx = rng.integers(0, n, size=n)
        np.take(rows, idx, axis=0, out=A, mode="clip")
        gram = A.T @ A
        try:
            inverse = np.linalg.inv(gram)
        except np.linalg.LinAlgError:  # exactly singular
            pass
        else:
            if np.vdot(gram, gram) * np.vdot(inverse, inverse) <= CONDITION_LIMIT**2:
                residuals = A @ inverse[-1]
                return var_gof(residuals, float(residuals @ residuals) / n), redraws
        redraws += 1
        if redraws > MAX_REDRAWS:
            raise RedrawLimitError(
                f"iteration discarded {redraws} resamples, limit {MAX_REDRAWS}"
            )


def _chunk_worker(payload) -> tuple[np.ndarray, int]:
    rows, seed, start, stop = payload
    seek = _stream_positioner(seed)
    values = np.empty(stop - start)
    A = np.empty_like(rows)
    redraws_total = 0
    for b in range(start, stop):
        value, redraws = _resample_var_gof(rows, seek(b), A)
        values[b - start] = value
        redraws_total += redraws
    return values, redraws_total
