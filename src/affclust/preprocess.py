"""Normalization, pairwise geometry and the histogram-based affinity threshold.

Every quantity downstream of the raw points is derived here: column z-scores,
the dispersion of all n x n Euclidean distances, the histogram of the
Gaussian affinities, and the data-driven threshold picked from it. Nothing in
this module is tunable except the bin count.

No n x n matrix is materialised. The distances are streamed twice over the
upper triangle in row blocks of about _BLOCK_ENTRIES entries: the first pass
gives each block's moments, the second recomputes each block and bins its
affinities. Every distance is computed on its own, so a block holds the same
bits as the dense matrix would, and the histogram is the dense one's; only
the summation order of the dispersion differs. The second pass also takes
each point's distance to its nearest other point, as the minimum of its
block rows and columns, which detection uses to skip provably idle sweeps.

Both passes spread their blocks over up to one thread per available core
(scipy's cdist and numpy's ufuncs release the GIL); worker t takes blocks t,
t+W, t+2W, ... and stores each result at the block's index. The dispersion
folds the block moments in block order, the histogram is a sum of integer
counts and the nearest distances are minima, so none of them depends on the
number of workers. The calling thread allocates every block-sized buffer
and each worker reuses its own: arrays allocated inside a worker would stay
in that thread's malloc arena after it exits.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .data import Dataset
from .errors import DegenerateDataError

# Distance entries computed per block (2 MB of float64), or one row of n
# entries when n exceeds it. The row partition fixes the dispersion's bits.
# Each worker owns one buffer of rows x n entries, which holds a block's
# distances, then its affinities, then its bin indices; no other block-sized
# array is allocated.
_BLOCK_ENTRIES = 1 << 18


@dataclass
class NormalizedData:
    """Column-standardized points plus the statistics used to produce them."""

    values: np.ndarray        # (n, d) z-scores
    column_means: np.ndarray  # (d,)
    column_stds: np.ndarray   # (d,) population standard deviations

    @property
    def n_points(self) -> int:
        return self.values.shape[0]


@dataclass
class AffinityModel:
    """The Gaussian affinity histogram and the threshold derived from it."""

    dispersion: float      # population standard deviation of all n*n distances
    histogram: np.ndarray  # (bins,) counts over equal-width affinity bins
    threshold: float       # midpoint of the bin below the steepest positive jump
    threshold_bin: int     # 1-based index k of that bin
    nearest2: np.ndarray   # (n,) squared distance from each point to its nearest other point


def normalize(dataset: Dataset) -> NormalizedData:
    """Z-score each column using the population standard deviation.

    Constant columns carry no spatial information and map to all zeros with
    std 0 instead of dividing by zero. They are found by their zero range,
    because the std of a constant column can round to a tiny nonzero value.
    Each column is first scaled by the power of two that brings its largest
    magnitude into [0.5, 1), so the squares inside std can neither overflow
    nor underflow to zero at any finite input scale. Power-of-two scaling is
    exact for normal numbers, so the z-scores, means and stds (reported back
    in input units) are the bits an unscaled computation gives wherever that
    one does not overflow.
    """
    _, exponents = np.frexp(np.abs(dataset.points).max(axis=0, initial=0.0))
    z = np.ldexp(dataset.points, -exponents)  # scaled points, z-scores below
    means = z.mean(axis=0)
    constant = np.ptp(z, axis=0) == 0.0
    stds = np.where(constant, 0.0, z.std(axis=0))  # ddof=0: population convention
    z -= means
    z /= np.where(constant, 1.0, stds)
    z[:, constant] = 0.0
    return NormalizedData(
        values=z,
        column_means=np.ldexp(means, exponents),
        column_stds=np.ldexp(stds, exponents),
    )


def _available_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fold_nearest(rect: np.ndarray, i0: int, fold: np.ndarray) -> None:
    """Lower fold[0, i] to point i's distances in a block's rectangle.

    Entry (a, b) is the distance between points i0 + a and i0 + b. Below the
    diagonal it repeats a pair that is also above it, which a minimum does
    not mind, so only the diagonal (each point to itself) is set to inf.
    Column minima then cover each column's point, row minima each row's
    point. fold[1] holds the column minima, so no block-sized array is
    allocated even when a block is one row.
    """
    r, m = rect.shape
    near, col = fold[0, i0:], fold[1, :m]
    np.fill_diagonal(rect, np.inf)
    np.min(rect, axis=0, out=col)
    np.minimum(near, col, out=near)
    rows = near[:r]
    np.minimum(rows, rect.min(axis=1), out=rows)


def _upper_block(
    z: np.ndarray, i0: int, i1: int, buf: np.ndarray, fold: np.ndarray | None = None
) -> np.ndarray:
    """Pack the strict upper triangle of rows i0..i1-1 of the distance matrix into buf.

    cdist writes the (i1 - i0) x (n - i0) rectangle right of column i0 into
    buf; each row's entries right of the diagonal are then moved left, in
    row order, into one row-major run. A row's destination never passes its
    source, so the moves need no second buffer. Given fold, the rectangle
    is first folded into it by _fold_nearest. Returns the packed view.
    """
    m = z.shape[0] - i0
    rect = buf[: (i1 - i0) * m].reshape(i1 - i0, m)
    cdist(z[i0:i1], z[i0:], out=rect)
    if fold is not None:
        _fold_nearest(rect, i0, fold)
    flat = memoryview(buf)  # a memmove per row, cheaper than numpy slicing
    dst, src = 0, 1
    for length in range(m - 1, m - 1 - min(i1 - i0, m - 1), -1):
        flat[dst : dst + length] = flat[src : src + length]
        dst += length
        src += m + 1
    return buf[:dst]


def _map_blocks(
    z: np.ndarray, work: Callable[[np.ndarray], object], nearest: np.ndarray | None = None
) -> list:
    """Return work(block) for every upper-triangle row block, in block order.

    The blocks are rows i0..i0+rows-1 with rows = max(1, _BLOCK_ENTRIES // n).
    They run on W = min(cores, ceil(pairs / _BLOCK_ENTRIES)) workers, inline
    when W is 1. Each worker packs its blocks into its own buffer, allocated
    here; work may overwrite the block. Given nearest (n floats), it is set
    to each point's distance to its nearest other point: every worker folds
    its blocks into its own n floats (plus n of scratch), and those are
    min-folded once all blocks are done.
    """
    n = z.shape[0]
    rows = max(1, _BLOCK_ENTRIES // n)
    starts = range(0, n - 1, rows)
    workers = max(1, min(_available_cores(), -(-(n * (n - 1) // 2) // _BLOCK_ENTRIES)))
    # One allocation for all of them: freed at the top of the heap, it stays
    # under glibc's trim threshold (twice the largest freed mmap chunk), so a
    # later call reuses the pages instead of faulting them in again.
    buffers = np.empty((workers, min(rows, n) * n))
    folds = None if nearest is None else np.full((workers, 2, n), np.inf)
    results: list = [None] * len(starts)

    def run(t: int) -> None:
        fold = None if folds is None else folds[t]
        for b in range(t, len(starts), workers):
            i0 = starts[b]
            results[b] = work(_upper_block(z, i0, min(i0 + rows, n), buffers[t], fold))

    if workers == 1:
        run(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(run, t) for t in range(workers)]:
                future.result()
    if folds is not None:
        np.min(folds[:, 0], axis=0, out=nearest)
    return results


def _block_moments(block: np.ndarray) -> tuple[float, float, float]:
    """Count, mean and squared-deviation sum of a block's distances, each counted twice."""
    b_mean = float(block.mean())
    block -= b_mean
    return 2.0 * block.size, b_mean, 2.0 * float(np.square(block, out=block).sum())


def distance_matrix(normalized: NormalizedData) -> float:
    """Return the dispersion: the population standard deviation of all n*n
    pairwise distances.

    The spread is taken over the whole matrix, zero diagonal included; it
    doubles as the affinity bandwidth. The moments of the upper-triangle
    blocks are folded in block order, whatever the worker count, with the
    pairwise (Chan-Golub-LeVeque) update of count, mean and sum of squared
    deviations; each off-diagonal distance counts twice, and the n diagonal
    zeros seed the running moments.
    """
    z = normalized.values
    n = z.shape[0]
    if n < 2:
        raise ValueError("distance matrix needs at least 2 points")
    count, mean, m2 = float(n), 0.0, 0.0
    for b_count, b_mean, b_m2 in _map_blocks(z, _block_moments):
        total = count + b_count
        delta = b_mean - mean
        mean += delta * (b_count / total)
        m2 += b_m2 + delta * delta * (count * b_count / total)
        count = total
    return math.sqrt(m2 / count)


def affinity_histogram(affinity: np.ndarray, bins: int = 10) -> np.ndarray:
    """Count affinity values of any shape into equal-width bins over (0, 1].

    A value v lands in bin ceil(v * bins), so self-affinities of exactly 1
    land in the top bin. Counts always sum to the number of values.
    """
    if bins < 2:
        raise ValueError("need at least 2 bins")
    idx = np.ceil(affinity * float(bins)).astype(np.int64)
    np.clip(idx, 1, bins, out=idx)
    return np.bincount(idx.ravel(), minlength=bins + 1)[1:]


def select_threshold(histogram: np.ndarray) -> tuple[float, int]:
    """Pick the affinity threshold from the steepest positive histogram jump.

    Scans consecutive bin pairs, takes the (smallest) index k maximizing
    H(k+1) - H(k), and returns the midpoint of bin k: (k - 0.5) / bins.
    """
    h = np.asarray(histogram, dtype=np.int64)
    if h.size < 2:
        raise ValueError("threshold selection needs at least 2 bins")
    jumps = h[1:] - h[:-1]
    k = int(np.argmax(jumps)) + 1  # argmax returns the first (smallest) maximizer
    return (k - 0.5) / h.size, k


def build_affinity_model(
    normalized: NormalizedData, dispersion: float, bins: int = 10
) -> AffinityModel:
    """Histogram the affinities exp(-d^2 / (2 * dispersion)) and pick the threshold.

    The dispersion enters linearly, not squared: the bandwidth is the square
    root of the distance spread, which keeps the exponent dimensionally mild
    for both tight and diffuse data. Each upper-triangle block is binned and
    counted twice; the n self-affinities of exactly 1 go to the top bin. The
    same stream gives nearest2: the square of each point's smallest cdist
    distance to another point, the same bits at any worker count.
    """
    if dispersion <= 0.0:
        raise DegenerateDataError(
            "zero distance dispersion: all points are identical; "
            "the only valid clustering is a single cluster holding every point"
        )
    scale = -2.0 * dispersion

    def bin_block(block: np.ndarray) -> np.ndarray:
        # affinity_histogram's steps, in place: v -> clip(ceil(v * bins), 1, bins)
        np.multiply(block, block, out=block)
        np.divide(block, scale, out=block)
        np.exp(block, out=block)
        np.multiply(block, float(bins), out=block)
        np.ceil(block, out=block)
        np.clip(block, 1.0, float(bins), out=block)
        # numpy casts a 1-D array onto itself element by element, with no copy
        idx = block.view(np.int64)
        np.copyto(idx, block, casting="unsafe")
        return np.bincount(idx, minlength=bins + 1)[1:]

    n = normalized.values.shape[0]
    histogram = affinity_histogram(np.ones(n), bins)
    nearest = np.empty(n)
    for counts in _map_blocks(normalized.values, bin_block, nearest):
        histogram += 2 * counts
    threshold, threshold_bin = select_threshold(histogram)
    return AffinityModel(
        dispersion=dispersion,
        histogram=histogram,
        threshold=threshold,
        threshold_bin=threshold_bin,
        nearest2=np.multiply(nearest, nearest, out=nearest),
    )
