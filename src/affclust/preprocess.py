"""Normalization, pairwise geometry and the histogram-based affinity threshold.

Every quantity downstream of the raw points is derived here: column z-scores,
the dispersion of all n x n Euclidean distances, each point's distance to its
nearest other point, the histogram of the Gaussian affinities, and the
data-driven threshold picked from it. Nothing in this module is tunable
except the bin count.

No n x n matrix is materialised. One walker, _map_blocks, goes over the
strict upper triangle in row blocks of about _BLOCK_ENTRIES entries, and
every pass over the distances is a visit it makes to each block: the
dispersion folds the blocks' moments in block order, the nearest distances
are the minima of the blocks' rows and columns (detection uses them to skip
provably idle sweeps), and the histogram sums the blocks' integer bin
counts. Every distance is computed on its own, so a block holds the same
bits whichever way it is computed; only the summation order of the
dispersion differs from a dense computation.

The walker hands each visit its block's rectangle over the buffer of the
worker that takes it. Up to _ONE_PASS_PAIRS pairs the calling thread is the
one worker. Above that, up to one thread per available core shares the
blocks (cdist, BLAS and numpy's ufuncs release the GIL), worker t taking
blocks t, t+W, t+2W, ...; the moments are folded in block order, minima and
integer counts do not depend on the order, so no result depends on the
number of workers. The calling thread allocates every array a worker
writes to, the block buffers and each visit's per-worker folds or masks:
arrays allocated inside a worker would stay in that thread's malloc arena
after it exits.

distance_matrix has one visit for each way to compute the distances, and
the two give the same bits:

- Up to _ONE_PASS_PAIRS pairs (n <= 1,448), _kernel computes each distance
  once, in row tiles of the block, and the visit packs them into the
  triangle (8 MB at most) returned in the Geometry. The affinity pass bins
  the packed triangle instead of computing the distances again.
- Above that, scipy's cdist computes each block in place. scipy is imported
  on the first such call, so a small input never loads it.

_kernel does cdist's operations in cdist's order (the squared differences
summed in coordinate order, then one square root), each correctly rounded,
so its bits are cdist's under any SIMD dispatch.

On the streamed path the histogram comes from a screen (_screened_counts)
instead of a second cdist pass. A pair's bin is fixed by where its distance
lies among the bin edges (affinity_edges: for each m, the least distance
binned at m or below). Matrix products estimate every squared distance of a
block, and a pair farther from every squared edge than a derived rounding
bound is counted as it is; a block holding any other pair is computed by
cdist and binned exactly. Either way each pair lands in the bin its cdist
distance gives, so the histogram is the dense one's.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DegenerateDataError

# Distance entries per block (2 MB of float64), or one row of n entries when
# n exceeds it. The row partition fixes the dispersion's bits. Each worker
# owns one buffer of rows x n entries, which holds a block's distances, then
# its affinities, then its bin indices; no other block-sized array of floats
# is allocated.
_BLOCK_ENTRIES = 1 << 18
# Inputs with at most this many pairs (8 MB of packed float64) compute each
# distance once, by _kernel, on the calling thread, and keep the packed
# triangle until the threshold is known.
_ONE_PASS_PAIRS = 1 << 20
# Entries in each of _kernel's tiles (256 KB of float64): its output, at the
# start of the block buffer, and one scratch tile.
_TILE_ENTRIES = 1 << 15
# Multiply-adds in each of the screen's matrix products. OpenBLAS runs a
# product this small on the thread that calls it (on 2 cores it threads from
# about twice this), so the screen's workers are the only threads at work. A
# product it threads can wait a scheduler quantum for its helper thread.
_PRODUCT_VOLUME = 1 << 18


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
class Geometry:
    """What the pairwise distances give before a bin count is chosen."""

    dispersion: float        # population standard deviation of all n*n distances
    nearest2: np.ndarray     # (n,) squared distance from each point to its nearest other point
    packed: np.ndarray | None  # the strict upper triangle, row-major; None above _ONE_PASS_PAIRS


@dataclass
class AffinityModel:
    """The Gaussian affinity histogram, its threshold, and detection's two bars."""

    histogram: np.ndarray  # (bins,) counts over equal-width affinity bins
    threshold: float       # midpoint of the bin below the steepest positive jump
    threshold_bin: int     # 1-based index k of that bin
    bar: float             # g*: gap2 < bar exactly when gap2's affinity clears threshold
    floor: np.ndarray      # (n,) a lower bound on every gap2 of a sweep opened at point i


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


def _kernel(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """Write the Euclidean distance between a[:, i] and b[:, j] to out[i, j].

    a is (d, r) and b is (d, m), one row per coordinate; tmp is scratch of
    out's shape. The squared differences are summed in coordinate order and
    the square root is taken last: cdist's operations in cdist's order. Each
    is correctly rounded, so out holds cdist's bits under any SIMD dispatch.
    """
    np.subtract.outer(a[0], b[0], out=out)
    np.multiply(out, out, out=out)
    for k in range(1, a.shape[0]):
        np.subtract.outer(a[k], b[k], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(out, tmp, out=out)
    np.sqrt(out, out=out)


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (r, m) Euclidean distances between the rows of a (r, d) and b (m, d), by _kernel."""
    out = np.empty((a.shape[0], b.shape[0]))
    _kernel(a.T, b.T, out, np.empty_like(out))
    return out


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


def _pack_upper(rect: np.ndarray, dst: np.ndarray) -> int:
    """Move the strict upper triangle of the C-contiguous rectangle rect into dst.

    Row a's entries right of the diagonal (a, a) go, in row order, into one
    row-major run at the start of dst, one memmove per row (cheaper than
    numpy); dst may share rect's memory, since a row's destination never
    passes its source. Returns the number of entries written.
    """
    r, m = rect.shape
    src, out = memoryview(rect.reshape(-1)), memoryview(dst)
    written, start = 0, 1
    for length in range(m - 1, m - 1 - min(r, m - 1), -1):
        out[written : written + length] = src[start : start + length]
        written += length
        start += m + 1
    return written


def _row_offset(n: int, i: int) -> int:
    """Where row i starts in the packed strict upper triangle of n points."""
    return i * (n - 1) - i * (i - 1) // 2


def _packed_block(packed: np.ndarray, rect: np.ndarray, i0: int) -> np.ndarray:
    """The packed distances of the block rect covers, copied into rect's memory."""
    n = i0 + rect.shape[1]
    lo, hi = _row_offset(n, i0), _row_offset(n, i0 + rect.shape[0])
    block = rect.reshape(-1)[: hi - lo]
    np.copyto(block, packed[lo:hi])
    return block


def _block_plan(n: int) -> tuple[int, int]:
    """Rows per block, and how many workers share the blocks.

    A block is rows i0..i0+rows-1 with rows = max(1, _BLOCK_ENTRIES // n).
    Up to _ONE_PASS_PAIRS pairs the calling thread is the one worker; above
    that, W = min(cores, ceil(pairs / _BLOCK_ENTRIES)).
    """
    rows, pairs = max(1, _BLOCK_ENTRIES // n), n * (n - 1) // 2
    workers = 1 if pairs <= _ONE_PASS_PAIRS else min(_available_cores(), -(-pairs // _BLOCK_ENTRIES))
    return rows, workers


def _map_blocks(n: int, visit: Callable[[np.ndarray, int, int], object]) -> list:
    """Return visit(rect, i0, t) for every row block of the upper triangle, in block order.

    rect is the r x (n - i0) rectangle of the block's rows i0..i0+r-1
    against points i0..n-1, laid over worker t's buffer; the visit fills it
    as it likes. The blocks are _block_plan's, worker t taking blocks t,
    t+W, ..., each worker on its own thread, or on the calling thread when
    W is 1.
    """
    rows, workers = _block_plan(n)
    starts = range(0, n - 1, rows)
    # One allocation for all of them: freed at the top of the heap, it stays
    # under glibc's trim threshold (twice the largest freed mmap chunk), so a
    # later call reuses the pages instead of faulting them in again.
    buffers = np.empty((workers, min(rows, n) * n))
    results: list = [None] * len(starts)

    def run(t: int) -> None:
        for b in range(t, len(starts), workers):
            i0 = starts[b]
            r, m = min(rows, n - i0), n - i0
            results[b] = visit(buffers[t, : r * m].reshape(r, m), i0, t)

    if workers == 1:
        run(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(run, t) for t in range(workers)]:
                future.result()
    return results


def _block_moments(block: np.ndarray) -> tuple[float, float, float]:
    """Count, mean and squared-deviation sum of a block's distances, each counted twice."""
    b_mean = float(block.mean())
    block -= b_mean
    return 2.0 * block.size, b_mean, 2.0 * float(np.square(block, out=block).sum())


def distance_matrix(normalized: NormalizedData) -> Geometry:
    """Return the dispersion, the nearest distances and, for a small input,
    the packed distances.

    The dispersion is the population standard deviation of all n*n pairwise
    distances. The spread is taken over the whole matrix, zero diagonal
    included; it doubles as the affinity bandwidth. The moments of the
    upper-triangle blocks are folded in block order, whatever the worker
    count or the way the distances were computed, with the pairwise
    (Chan-Golub-LeVeque) update of count, mean and sum of squared
    deviations; each off-diagonal distance counts twice, and the n diagonal
    zeros seed the running moments. Each worker folds its blocks' nearest
    distances into its own n floats (plus n of scratch), and those are
    min-folded once all blocks are done.
    """
    z = normalized.values
    n = z.shape[0]
    if n < 2:
        raise ValueError("distance matrix needs at least 2 points")
    _, workers = _block_plan(n)
    folds = np.full((workers, 2, n), np.inf)
    if n * (n - 1) // 2 <= _ONE_PASS_PAIRS:
        packed = np.empty(n * (n - 1) // 2)
        cols = np.ascontiguousarray(z.T)  # (d, n): one contiguous run per coordinate
        tile_rows = max(1, _TILE_ENTRIES // n)
        scratch = np.empty(min(tile_rows, n) * n)

        def visit(rect: np.ndarray, i0: int, t: int) -> tuple[float, float, float]:
            """The block's rows in tiles at the start of rect's memory, each the
            rectangle right of its first row's diagonal, so all but its small
            lower corner is the triangle's: each is folded and packed while it
            is in cache. Then the packed block is copied back over the tiles."""
            i1 = i0 + rect.shape[0]
            for a0 in range(i0, i1, tile_rows):
                a1 = min(a0 + tile_rows, i1)
                tile = rect.reshape(-1)[: (a1 - a0) * (n - a0)].reshape(a1 - a0, n - a0)
                _kernel(cols[:, a0:a1], cols[:, a0:], tile, scratch[: tile.size].reshape(tile.shape))
                _fold_nearest(tile, a0, folds[t])
                _pack_upper(tile, packed[_row_offset(n, a0) :])
            return _block_moments(_packed_block(packed, rect, i0))

    else:
        from scipy.spatial.distance import cdist  # here, before any worker starts

        packed = None

        def visit(rect: np.ndarray, i0: int, t: int) -> tuple[float, float, float]:
            cdist(z[i0 : i0 + rect.shape[0]], z[i0:], out=rect)
            _fold_nearest(rect, i0, folds[t])
            flat = rect.reshape(-1)
            return _block_moments(flat[: _pack_upper(rect, flat)])

    count, mean, m2 = float(n), 0.0, 0.0
    for b_count, b_mean, b_m2 in _map_blocks(n, visit):
        total = count + b_count
        delta = b_mean - mean
        mean += delta * (b_count / total)
        m2 += b_m2 + delta * delta * (count * b_count / total)
        count = total
    nearest = np.min(folds[:, 0], axis=0)
    return Geometry(
        dispersion=math.sqrt(m2 / count),
        nearest2=np.multiply(nearest, nearest, out=nearest),
        packed=packed,
    )


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


def bisect_floats(holds: Callable[[np.ndarray], np.ndarray], guess: np.ndarray) -> np.ndarray:
    """The least float x >= 0 at which each of a set of tests holds.

    holds(probes) judges probes[i] by test i and returns one boolean per
    test; it may overwrite probes. Every test fails at 0.0, holds at inf and
    changes once as x grows. The int64 bit patterns of the non-negative
    floats order as the floats do, so each answer is bisected over them:
    over the 2^10 patterns either side of guess[i] where the test fails at
    the lower end of that bracket and holds at the upper, else over all of
    [0.0, inf]. 11 halvings, or at most 63, find every answer, so a poor
    guess costs steps, never the answer. The midpoint is
    lo + (hi - lo) // 2, because lo + hi overflows int64 near inf's pattern.
    A probe may overflow to inf or meet it, so those warnings are off while
    the tests run.
    """
    top = int(np.array(np.inf).view(np.int64))
    near = np.clip(np.asarray(guess, dtype=np.float64).view(np.int64), 0, top)
    lo = np.maximum(near - (1 << 10), 0)
    hi = np.minimum(near + (1 << 10), top)
    with np.errstate(over="ignore", invalid="ignore"):
        bracketed = holds(hi.view(np.float64).copy()) & ~holds(lo.view(np.float64).copy())
        lo[~bracketed], hi[~bracketed] = 0, top
        for _ in range(int((hi - lo).max() - 1).bit_length()):
            mid = lo + (hi - lo) // 2
            holding = holds(mid.view(np.float64).copy())
            hi = np.where(holding, mid, hi)
            lo = np.where(holding, lo, mid)
    return hi.view(np.float64)


def _affinities(gap2: np.ndarray, dispersion: float) -> np.ndarray:
    """exp(gap2 / (-2 * dispersion)) in place: every affinity production tests."""
    np.divide(gap2, -2.0 * dispersion, out=gap2)
    return np.exp(gap2, out=gap2)


def _affinity_bins(block: np.ndarray, dispersion: float, bins: int) -> np.ndarray:
    """Bin each distance d in a 1-D block by its affinity, in place.

    The affinity of d * d is binned by affinity_histogram's steps,
    v -> clip(ceil(v * bins), 1, bins); the indices are returned in block's
    own memory, viewed as int64.
    """
    np.multiply(block, block, out=block)
    _affinities(block, dispersion)
    np.multiply(block, float(bins), out=block)
    np.ceil(block, out=block)
    np.clip(block, 1.0, float(bins), out=block)
    # numpy casts a 1-D array onto itself element by element, with no copy
    idx = block.view(np.int64)
    np.copyto(idx, block, casting="unsafe")
    return idx


def _bin_counts(block: np.ndarray, dispersion: float, bins: int) -> np.ndarray:
    """How many of a 1-D block's distances fall in each affinity bin; block is overwritten."""
    return np.bincount(_affinity_bins(block, dispersion, bins), minlength=bins + 1)[1:]


def affinity_edges(dispersion: float, bins: int) -> np.ndarray:
    """The least distance of bin m or below, for m = 1..bins-1, by bisect_floats.

    edges[m - 1] is the least float distance that _affinity_bins, the
    binning of every pair, puts in bin m or a lower one. Its steps are
    monotone, given an exp that is (_affinity_bar assumes the same), so a
    distance's bin is at most m exactly when the distance is at least
    edges[m - 1], and the edges do not rise with m. Distance 0.0 has bin
    bins and inf has bin 1, so every edge is positive and at most the
    largest float.
    """
    top = np.arange(1, bins)
    guess = np.sqrt(2.0 * dispersion * np.log(bins / top))  # where exp(-d^2 / 2 sigma) * bins = m
    return bisect_floats(lambda d: _affinity_bins(d, dispersion, bins) <= top, guess)


def _affinity_bar(dispersion: float, threshold: float) -> float:
    """g*, the least gap2 >= 0 whose affinity does not clear threshold.

    bisect_floats finds it on an array, as detection's windows hold gap2.
    The test holds at 0 (threshold < 1), fails at inf and, exp taken to be
    monotone, turns false once, so gap2 < g* is the test itself."""
    guess = np.array([2.0 * dispersion * -math.log(threshold)])  # where the affinity = threshold
    return float(bisect_floats(lambda gap2: _affinities(gap2, dispersion) <= threshold, guess)[0])


def _skip_floor(nearest2: np.ndarray, d: int) -> np.ndarray:
    """A lower bound on every gap2 a detection pass opened at point i computes, per i.

    The pass compares gap2_j, the einsum of the d differences z_j - z_i,
    each rounded once, with bar[j]; nearest2 comes from the distance kernel
    or from cdist, which square and sum the same differences. Let S be the
    exact sum of their squares. Any order of summing d non-negative
    products, fused or not, lands within a relative
    gamma_d = d u / (1 - d u) of S (u = 2^-53), give or take d 2^-1075
    where products underflow. So gap2_j >= S (1 - gamma_d) - d 2^-1075.
    The kernel and cdist round the square root of their sum once, and
    squaring the least distance rounds once more, so nearest2[i] <=
    (S (1 + gamma_d) + d 2^-1075) (1 + u)^3 + 2^-1075. Eliminating S, for
    any d below 10^13,

        gap2_j >= nearest2[i] (1 - (2.02 d + 3) u) - (2 d + 1) 2^-1075.

    The floor takes the relative slack (4 d + 8) u, which also covers the
    two roundings of the product and difference below, and the absolute
    slack (d + 1) 2^-1073. That is 2.9e-14 relative at d = 64, far below
    the gaps between a noise point and its neighbours.
    """
    return nearest2 * (1.0 - (4 * d + 8) * 2.0**-53) - (d + 1) * 2.0**-1073


def _screened_counts(z: np.ndarray, dispersion: float, bins: int) -> np.ndarray:
    """The bin counts of the strict upper triangle, each pair counted once.

    With E = edges[m - 1], C_m pairs have a cdist distance D >= E, that is a
    bin of m or below; bin 1 holds C_1 pairs, bin m C_m - C_(m-1), and the
    top bin the rest. A visit of _map_blocks estimates its block's squared
    distances by matrix products, counts C_m on them where that is certain,
    and returns the block's bin counts; integer counts, whose sum does not
    depend on the worker count.

    Let a and b be two rows of z, S the exact sum of the squares of a - b,
    M = |a|^2 + |b|^2 exactly, u = 2^-53 and g = gamma_(d+2) =
    (d + 2) u / (1 - (d + 2) u). cdist rounds each difference and its
    square once (or fuses the square into the sum) and adds d non-negative
    terms in some order, so its sum lies within g S + d 2^-1074 of S, the
    absolute term for squares that underflow. D, the correctly rounded
    square root of that sum, is then at least E when the sum is at least
    E^2, and at most P, the float below E, when the sum is at most P^2. So

        D >= E  once  S >= (E^2 + d 2^-1074) / (1 - g),
        D < E   once  S <= (P^2 - d 2^-1074) / (1 + g).

    The estimate is X = (G + n_a) + n_b: G is (-2 a) . b, and n_a and n_b
    are |a|^2 and |b|^2, each a sum of d products in any order, fused or
    not, however BLAS blocks it. Doubling a is exact. Each sum is within
    gamma_d of its terms' absolute sum (M for G) plus d 2^-1075, and the two
    rounded additions err by at most 4 u (1 + u) (1 + gamma_d) M. In all

        |X - S| <= 2 g M + d 2^-1073.

    A pair is then counted at or below bin m when X >= hi_m and above it
    when X < lo_m, with

        hi_m = (E^2 + tiny) (1 + 4 g) + delta,
        lo_m = (P^2 - tiny) (1 - 4 g) - delta,
        delta = 4 g Mhat + tiny,  tiny = (d + 4) 2^-1072,

    where Mhat is the block's largest computed row norm plus its largest
    column norm. 1 + 4 g exceeds 1 / (1 - g), and 1 - 4 g falls below
    1 / (1 + g), by more than 2.9 g >= 8.7 u; Mhat bounds M up to gamma_d;
    and tiny is at least twice each absolute term. The spare 2.9 g, half of
    4 g Mhat and the rest of tiny cover the at most six roundings in
    evaluating each of hi_m, lo_m and delta. An edge whose square overflows
    lies beyond every X. A block with a pair in
    some [lo_m, hi_m) is computed by cdist and binned by _affinity_bins
    instead. The lower r x r corner of a block's rectangle, its pairs below
    the diagonal and each point with itself, is set to -inf, below every
    lo_m.

    X overflows nowhere while every squared norm is below 2^1000; normalize
    keeps them below d n. Past that every block is binned exactly.

    Each product covers at most _PRODUCT_VOLUME multiply-adds. Each worker
    has a mask of as many booleans as its block buffer, allocated here.
    """
    from scipy.spatial.distance import cdist  # here, before any worker starts

    n, d = z.shape
    with np.errstate(over="ignore"):
        edges = affinity_edges(dispersion, bins)
        below = np.nextafter(edges, 0.0)
        norms = np.einsum("ij,ij->i", z, z)
        g = (d + 2) * 2.0**-53 / (1.0 - (d + 2) * 2.0**-53)  # gamma_(d+2)
        tiny = (d + 4) * 2.0**-1072
        hi = (edges * edges + tiny) * (1.0 + 4.0 * g)
        lo = (below * below - tiny) * (1.0 - 4.0 * g)
    screen = bool(norms.max() < 2.0**1000)
    col_max = np.maximum.accumulate(norms[::-1])[::-1]  # largest norm of rows i..n-1
    rows, workers = _block_plan(n)
    tile_rows = max(1, min(rows, math.isqrt(_PRODUCT_VOLUME // d)))
    tile_cols = max(1, _PRODUCT_VOLUME // (tile_rows * d))
    cols = z.T
    masks = np.empty((workers, min(rows, n) * n), dtype=bool)
    lower = np.tri(min(rows, n), dtype=bool)

    def estimate(rect: np.ndarray, i0: int, i1: int) -> None:
        """X for rows i0..i1-1 against rows i0..n-1, into rect."""
        for a0 in range(i0, i1, tile_rows):
            a1 = min(a0 + tile_rows, i1)
            a = np.multiply(z[a0:a1], -2.0)
            for b0 in range(i0, n, tile_cols):
                b1 = min(b0 + tile_cols, n)
                np.matmul(a, cols[:, b0:b1], out=rect[a0 - i0 : a1 - i0, b0 - i0 : b1 - i0])
        rect += norms[i0:i1, None]
        rect += norms[i0:]

    def visit(rect: np.ndarray, i0: int, t: int) -> np.ndarray:
        r, m = rect.shape
        if screen:
            estimate(rect, i0, i0 + r)
            np.copyto(rect[:, :r], -np.inf, where=lower[:r, :r])
            delta = 4.0 * g * (norms[i0 : i0 + r].max() + col_max[i0]) + tiny
            mask = masks[t, : r * m].reshape(r, m)
            at_least = []  # C_1..C_(bins-1), then the block's pair count
            for hi_m, lo_m in zip(hi + delta, lo - delta):
                above = np.count_nonzero(np.greater_equal(rect, hi_m, out=mask))
                if np.count_nonzero(np.greater_equal(rect, lo_m, out=mask)) != above:
                    break
                at_least.append(above)
            else:
                at_least.append(r * m - r * (r + 1) // 2)
                return np.diff(at_least, prepend=0)
        cdist(z[i0 : i0 + r], z[i0:], out=rect)
        flat = rect.reshape(-1)
        return _bin_counts(flat[: _pack_upper(rect, flat)], dispersion, bins)

    return sum(_map_blocks(n, visit))


def build_affinity_model(
    normalized: NormalizedData, geometry: Geometry, bins: int = 10
) -> AffinityModel:
    """Histogram the affinities exp(-d^2 / (2 * dispersion)) and pick the threshold.

    The dispersion enters linearly, not squared: the bandwidth is the square
    root of the distance spread, which keeps the exponent dimensionally mild
    for both tight and diffuse data. Each pair of the upper triangle is
    counted twice; the n self-affinities of exactly 1 go to the top bin. A
    geometry with a packed triangle has its blocks binned by
    _affinity_bins; otherwise the pairs are counted by _screened_counts,
    which computes no distance by cdist except in a block holding a pair
    too close to a bin edge for its estimate to be certain, and gives the
    same counts. The model keeps detection's bars (_affinity_bar,
    _skip_floor), not the packed triangle.
    """
    dispersion = geometry.dispersion
    if dispersion <= 0.0:
        raise DegenerateDataError(
            "zero distance dispersion: all points are identical; "
            "the only valid clustering is a single cluster holding every point"
        )
    z = normalized.values
    n = z.shape[0]
    if geometry.packed is None:
        counts = _screened_counts(z, dispersion, bins)
    else:

        def visit(rect: np.ndarray, i0: int, t: int) -> np.ndarray:
            return _bin_counts(_packed_block(geometry.packed, rect, i0), dispersion, bins)

        counts = sum(_map_blocks(n, visit))
    histogram = affinity_histogram(np.ones(n), bins) + 2 * counts
    threshold, threshold_bin = select_threshold(histogram)
    return AffinityModel(
        histogram=histogram,
        threshold=threshold,
        threshold_bin=threshold_bin,
        bar=_affinity_bar(dispersion, threshold),
        floor=_skip_floor(geometry.nearest2, z.shape[1]),
    )
