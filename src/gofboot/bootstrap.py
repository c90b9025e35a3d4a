"""Nonparametric bootstrap test of fit for the normal linear model.

The test compares the robust variance estimate of -2 loglik against its
value under correct specification, 2n. Whole rows are resampled with
replacement, the model is refit on each resample, and the robust variance
is recomputed; the null is rejected when the percentile interval of the
bootstrap values does not contain 2n.

Every bootstrap iteration draws from its own RNG stream: a counter-based
Philox generator keyed by the master seed whose counter starts at the
iteration index. A resample is the vector of its row counts, and the
iterations are refit in fixed blocks whose length depends only on n.
Results are therefore bit-identical for any degree of parallelism.
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
    rejects when 2n falls outside the percentile interval. Blocks of
    iterations may run across up to ``threads`` worker processes, at most
    one per CPU; the result is bit-identical for any value because
    iteration b always uses ``iteration_stream(seed, b)``, redraws
    continue on that same stream, and no block is ever split.

    Raises
    ------
    RedrawLimitError
        If any iteration exceeds ``MAX_REDRAWS`` discarded resamples.
    """
    model = fit_mle(data, spec)
    var_observed = var_gof(model.residuals, model.sigma2_hat)

    blocks = -(-cfg.n_boot // _block_length(data.n))
    payload = (_refit_columns(model), cfg.seed, cfg.n_boot)
    chunks = map_chunks(_chunk_worker, blocks, threads, payload)
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


# float64 entries in the block kernel's scratch buffers: the count and
# residual buffers and a tile of the per-row product table take at most
# _BUFFER_ELEMENTS (2 MB) each, a whole table _PAIRS_ELEMENTS (16 MB) and
# a tile of count-scaled columns _TILE_ELEMENTS (256 KB)
_BUFFER_ELEMENTS = 2**18
_PAIRS_ELEMENTS = 2**21
_TILE_ELEMENTS = 2**15


def _refit_columns(model: FittedModel) -> np.ndarray:
    """The columns ``[basis, e / |e|]`` that every resample refits in, as rows.

    Row j of the p x n result is column j; entry i belongs to data row i.
    A resample of the data's rows is a resample of these entries: the basis
    spans the design and y is its projection onto the basis plus e, so a
    refit of y on a resample has the residuals of a refit of e.
    """
    e = model.residuals
    return np.vstack([model.basis.T, e / math.sqrt(float(e @ e))])


def _block_length(n: int) -> int:
    """Iterations per block for n rows: at most 64, and 1 when n > 2**17.

    Keeps the m x n count and residual buffers within ``_BUFFER_ELEMENTS``
    each, unless one row alone is larger. It depends on n alone, so block
    k covers the same iterations in every run.
    """
    return max(1, min(64, _BUFFER_ELEMENTS // n))


def _count_gram(columns: np.ndarray):
    """Return ``gram``, where ``gram(W)[k]`` is A'A for the row counts W[k].

    For counts w, A'A = sum_i w_i c_i c_i' over the columns c_i of
    ``columns``. Its q = p (p + 1) / 2 upper entries are ``pairs @ w`` for
    the table of per-row products pairs[(j, l), i] = c_ji c_li, j <= l.
    One of three forms is used, chosen from p and n alone, and none holds
    a buffer that grows past a fixed size with p or n:

    - the table of all n rows, formed once, if it fits in
      ``_PAIRS_ELEMENTS``;
    - else tables of ``_BUFFER_ELEMENTS // q`` rows, refilled tile by tile
      for every block, if the block's m resamples would write at least as
      much by scaling the p columns once each (m p >= q);
    - else each count vector scales tiles of ``_TILE_ELEMENTS // p``
      columns, one small product per tile.
    """
    p, n = columns.shape
    upper = np.triu_indices(p)
    q = len(upper[0])
    if q * n > _PAIRS_ELEMENTS and _block_length(n) * p < q:
        tile = max(1, _TILE_ELEMENTS // p)
        scaled = np.empty((p, min(n, tile)))

        def gram(W: np.ndarray) -> np.ndarray:
            stack = np.zeros((len(W), p, p))
            for w, total in zip(W, stack):
                for a in range(0, n, tile):
                    part = scaled[:, : min(tile, n - a)]
                    np.multiply(columns[:, a : a + tile], w[a : a + tile], out=part)
                    total += part @ columns[:, a : a + tile].T
            return stack

        return gram

    tile = n if q * n <= _PAIRS_ELEMENTS else max(1, _BUFFER_ELEMENTS // q)
    pairs = np.empty((q, tile))

    def fill(a: int) -> np.ndarray:
        part = columns[:, a : a + tile]
        out = pairs[:, : part.shape[1]]
        k = 0
        for j in range(p):
            np.multiply(part[j], part[j:], out=out[k : k + p - j])
            k += p - j
        return out

    if tile == n:
        fill(0)

    def gram(W: np.ndarray) -> np.ndarray:
        triangles = np.zeros((q, len(W)))
        for a in range(0, n, tile):
            # pairs @ W.T, not W @ pairs.T: the latter is many times slower
            triangles += (pairs if tile == n else fill(a)) @ W[:, a : a + tile].T
        stack = np.empty((len(W), p, p))
        stack[:, upper[0], upper[1]] = stack[:, upper[1], upper[0]] = triangles.T
        return stack

    return gram


def _block_var_gof(
    count_gram, columns: np.ndarray, W: np.ndarray, R: np.ndarray
) -> np.ndarray:
    """var_gof of the resamples whose row counts are the rows of ``W``.

    With A = [Q, a] the resampled rows, the last row of inv(A'A) is
    [-gamma, 1] / RSS for gamma the least-squares coefficients of a on Q,
    so inv(A'A)[-1] @ columns is the refit's residual r_i for each
    original row i, divided by RSS, a scale var_gof ignores. For counts w
    summing to n, var_gof is n (m4 / sigma2**2 - 1) = n**2 S4 / S2**2 - n
    with Sk = sum_i w_i r_i**k. ``count_gram`` is ``_count_gram(columns)``.

    A resample is unusable when A'A is singular or its Frobenius condition
    number exceeds ``CONDITION_LIMIT``: that one rule discards both a
    rank-deficient design and an exact fit. Its value is NaN. ``R`` is
    scratch space of W's shape.
    """
    m, n = W.shape
    gram = count_gram(W)
    try:
        inverse = np.linalg.inv(gram)
    except np.linalg.LinAlgError:  # some matrix is exactly singular
        inverse = np.full_like(gram, np.nan)
        for j in range(m):
            try:
                inverse[j] = np.linalg.inv(gram[j])
            except np.linalg.LinAlgError:
                pass
    squares = np.einsum("kij,kij->k", gram, gram)
    usable = squares * np.einsum("kij,kij->k", inverse, inverse) <= CONDITION_LIMIT**2
    inverse[~usable] = np.nan  # NaN passes through the arithmetic silently
    np.matmul(inverse[:, -1], columns, out=R)
    R *= R
    s2 = np.einsum("kn,kn->k", W, R)
    R *= R
    s4 = np.einsum("kn,kn->k", W, R)
    return n * n * s4 / (s2 * s2) - n


def _chunk_worker(payload) -> tuple[np.ndarray, int]:
    """Bootstrap values and total redraws of blocks [start, stop) of n_boot.

    Block k covers iterations [k m, min((k + 1) m, n_boot)) for m =
    ``_block_length(n)``, so the values do not depend on how the blocks
    are split among workers. Iteration b fills row b - k m of the block's
    counts from the first draw of ``seek(b)``; one ``_block_var_gof`` call
    refits the block. An unusable resample redraws on stream b, after its
    first draw, one at a time through the same kernel.

    Raises
    ------
    RedrawLimitError
        If any iteration exceeds ``MAX_REDRAWS`` discarded resamples.
    """
    columns, seed, n_boot, start, stop = payload
    n = columns.shape[1]
    m = _block_length(n)
    count_gram = _count_gram(columns)
    seek = _stream_positioner(seed)
    first, last = start * m, min(stop * m, n_boot)
    values = np.empty(last - first)
    # per-chunk buffers: fresh ones past glibc's mmap threshold would be
    # mapped and faulted in for every block
    W = np.empty((m, n))
    R = np.empty((m, n))
    redraws_total = 0
    for a in range(first, last, m):
        size = min(m, last - a)
        for j in range(size):
            W[j] = np.bincount(seek(a + j).integers(0, n, size=n), minlength=n)
        out = values[a - first : a - first + size]
        out[:] = _block_var_gof(count_gram, columns, W[:size], R[:size])
        for j in np.flatnonzero(np.isnan(out)):
            rng = seek(a + j)
            rng.integers(0, n, size=n)  # the draw the block already refused
            redraws = 0
            while np.isnan(out[j]):
                redraws += 1
                if redraws > MAX_REDRAWS:
                    raise RedrawLimitError(
                        f"iteration discarded {redraws} resamples, limit {MAX_REDRAWS}"
                    )
                W[0] = np.bincount(rng.integers(0, n, size=n), minlength=n)
                out[j] = _block_var_gof(count_gram, columns, W[:1], R[:1])[0]
            redraws_total += redraws
    return values, redraws_total
