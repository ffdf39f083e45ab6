"""Normalization, pairwise geometry and the histogram-based affinity threshold.

Every quantity downstream of the raw points is derived here: column z-scores,
the dispersion of all n x n Euclidean distances, a lower bound on each
point's distance to its nearest other point, the histogram of the Gaussian
affinities, and the data-driven threshold picked from it. Nothing in this
module is tunable except the bin count.

No n x n matrix is materialised. One walker, _map_blocks, goes over the
strict upper triangle in row blocks of about _BLOCK_ENTRIES entries, and
every pass over the distances is a visit it makes to each block: the
dispersion adds the blocks' sums in block order, the skip floor comes
from the minima of the blocks' rows and columns (detection uses it to skip
provably idle sweeps), and the screen sums the blocks' integer counts.

The walker hands each visit its block's rectangle over the buffer of the
worker that takes it. Up to one thread per available core shares the
blocks (BLAS and numpy's ufuncs release the GIL), worker t taking blocks t,
t+W, t+2W, ..., and an input of at most _BLOCK_ENTRIES pairs has the
calling thread as its one worker. The sums are added in block order;
minima and integer counts do not depend on the order, so no result
depends on the number of workers. The calling thread allocates every
block-sized array a worker writes to, the block buffers and each visit's
folds, scratch or masks, as those would stay in a worker's malloc arena
after it exits; a worker allocates only a tile's product operand and the
sketch's counts.

Every exact distance comes from _kernel, whose bits are cdist's under any
SIMD dispatch. The dispersion has one rule on every path: the mean squared
distance needs no distances at all (_second_moment, O(n d)), the blocks'
sums give the mean distance, and the dispersion is the root of the mean
square less the squared mean. distance_matrix has two visits, which differ
only in their distance engine. Each fills its block's whole rectangle,
folds it into the skip floor (_fold_nearest), sets the rectangle's lower
corner, which repeats pairs, to 0 and returns the sum of the rectangle as
it is:

- The product visit, which every run takes first, estimates each block's
  squared distances by matrix products (_products, the screen's own): one
  (d + 2)-wide product per tile, which adds both squared norms as it goes.
  It sums the roots of X+ = max(X, 0) (_root_sum; the clip runs only on a
  block with a negative estimate) and counts them, in place, into a sketch
  of fixed buckets (_sketch). The mean square is the exact visit's own, so
  the dispersion's estimate has a certified slack from the two means
  alone: the exact dispersion lies within it (_dispersion_slack).
- The exact visit, slack 0, sums _exact_block's exact distances. A caller
  asks for it once the product geometry has left a decision uncertain.

Affinity falls as distance grows, so every affinity decision compares a
distance with a cut. affinity_cuts finds every cut at both ends of a
dispersion interval in one bisection, the only place exp is applied: the
bin edges, and detection's join bar g* for each threshold a histogram can
pick. Every histogram counts C_m, the pairs at or beyond edge m
(_at_least), one compare per edge on exact distances, and a bin's count is
the difference of adjacent C_m.

The product geometry's dispersion is an interval. The cuts are monotone in
the dispersion, so a pair's bin and a join are decided wherever the cuts at
the interval's two ends agree; where they do not, Uncertain is raised and
the caller reruns from the exact geometry. Only the bin below the steepest
jump reaches the clustering, and on the product geometry the sketch usually
names it: a bucket wholly past a bin edge's rounding band (_bands) at both
ends of the interval is decided, so the sketch bounds each bin's count
(_sketch_bounds), and select_threshold names the bin where no rival jump
can reach the winner's. Otherwise the counts come from a screen
(_screened_counts) on either geometry: matrix products estimate every
squared distance of a block, and a pair outside every band is counted as
it is. A block holding any other pair is computed by _exact_block and
counted against the edges on the exact geometry, and raises Uncertain on
the product geometry. Either way each pair lands in the bin its exact
distance gives at the exact dispersion, so the histogram is the dense
one's.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DegenerateDataError

# Distance entries per block (2 MB of float64), or one row of n entries when
# n exceeds it. The row partition fixes the dispersion's bits. Each worker
# owns one buffer of rows x n entries for a block's distances or their
# estimates (and, in the exact visit, one for the kernel's scratch).
_BLOCK_ENTRIES = 1 << 18
# Multiply-adds in each of the screen's matrix products. OpenBLAS runs a
# product this small on the thread that calls it (on 2 cores it threads from
# about twice this), so the workers are the only threads at work. A product
# it threads can wait a scheduler quantum for its helper thread.
_PRODUCT_VOLUME = 1 << 18
# float64's unit roundoff: a correctly rounded result is within a relative _U.
_U = 2.0**-53
# The sketch's buckets. A root D~ = fl(sqrt(X+)) >= 0 is keyed by its
# pattern's exponent and top _SKETCH_BITS mantissa bits, so an inner bucket
# spans a relative 2^-7 of D~, about 2^-6 of X+. The inner buckets
# 0.._SKETCH_INNER - 1 cover the window [2^-32, 2^32) in order; bucket
# _SKETCH_INNER takes everything below and above it, and is never decided.
_SKETCH_BITS = 7
_SKETCH_SHIFT = 52 - _SKETCH_BITS
_SKETCH_FIRST = (1023 - 32) << _SKETCH_BITS  # the key of 2^-32
_SKETCH_INNER = 64 << _SKETCH_BITS
# The square of each inner bucket's least root, and of the last one's bound:
# exact, each root having 8 significant bits.
_SKETCH_SQUARES = np.square(
    ((np.arange(_SKETCH_INNER + 1) + _SKETCH_FIRST) << _SKETCH_SHIFT).view(np.float64)
)
# _sketch_bounds' x0 and x1 of each inner bucket: its pairs have x0 <= X+ < x1.
_SKETCH_ENDS = (np.nextafter(np.nextafter(_SKETCH_SQUARES[:-1], 0.0), 0.0), _SKETCH_SQUARES[1:])


class Uncertain(Exception):
    """A count or a join that the product geometry's slack cannot decide.

    The caller reruns from the exact geometry, distance_matrix(..., exact=True).
    """


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

    dispersion: float        # population SD of all n*n distances, or the product estimate of it
    slack: float             # the exact dispersion is within slack of it; 0.0 when exact
    floor: np.ndarray        # (n,) a lower bound on every gap2 of a sweep opened at point i
    # On the product geometry, the roots of the upper triangle's estimates
    # counted into the _SKETCH_INNER + 1 buckets (_sketch), and the largest
    # block's delta (_products); None and 0.0 on the exact geometry
    sketch: np.ndarray | None = None
    delta: float = 0.0


@dataclass
class AffinityModel:
    """The Gaussian affinity histogram, its threshold, and detection's two bars."""

    # (bins,) counts over equal-width affinity bins: a lower and an upper
    # bound on each, the same array twice when the counts are exact
    histogram: tuple[np.ndarray, np.ndarray]
    threshold: float       # midpoint of the bin below the steepest positive jump
    threshold_bin: int     # 1-based index k of that bin
    # g* at the two ends of the dispersion interval, equal when it is exact:
    # a gap2 below bar[0] clears the threshold, one of bar[1] or more does not
    bar: tuple[float, float]
    floor: np.ndarray      # the geometry's floor


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
    np.square(out, out=out)
    for k in range(1, a.shape[0]):
        np.subtract.outer(a[k], b[k], out=tmp)
        np.square(tmp, out=tmp)
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


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u): k roundings err by at most this relative amount."""
    return k * _U / (1.0 - k * _U)


def _fold_nearest(rect: np.ndarray, i0: int, fold: np.ndarray, less: float = 0.0) -> np.ndarray:
    """Lower fold[0, i] to point i's entries in a block's rectangle, less `less`.

    Entry (a, b) is the distance, or its estimate, between points i0 + a and
    i0 + b. Below the diagonal it repeats a pair that is also above it,
    which a minimum does not mind, so only the diagonal (each point to
    itself) is set to inf. Column minima then cover each column's point,
    row minima each row's point. fold[1] holds the column minima, so no
    block-sized array is allocated even when a block is one row. Returns
    the row minima.
    """
    r, m = rect.shape
    near, col = fold[0, i0:], fold[1, :m]
    np.fill_diagonal(rect, np.inf)
    np.min(rect, axis=0, out=col)
    col -= less
    np.minimum(near, col, out=near)
    least = rect.min(axis=1)
    rows = near[:r]
    np.minimum(rows, least - less, out=rows)
    return least


def _block_plan(n: int) -> tuple[int, int]:
    """Rows per block, and how many workers share the blocks.

    A block is rows i0..i0+rows-1 with rows = max(1, _BLOCK_ENTRIES // n),
    and W = min(cores, ceil(pairs / _BLOCK_ENTRIES)): an input of at most
    _BLOCK_ENTRIES pairs has one worker, the calling thread.
    """
    rows, pairs = max(1, _BLOCK_ENTRIES // n), n * (n - 1) // 2
    return rows, min(_available_cores(), -(-pairs // _BLOCK_ENTRIES))


def _map_blocks(n: int, visit: Callable[[np.ndarray, int, int], object]) -> list:
    """Return visit(rect, i0, t) for every row block of the upper triangle, in block order.

    rect is the r x (n - i0) rectangle of the block's rows i0..i0+r-1
    against points i0..n-1, laid over worker t's buffer; the visit fills it
    as it likes. The blocks are _block_plan's, worker t taking blocks t,
    t+W, ..., each worker on its own thread, or on the calling thread when
    W is 1. A visit that raises ends its worker; the exception reaches the
    caller once every worker is done.
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


def _exact_block(cols: np.ndarray, rect: np.ndarray, i0: int, tmp: np.ndarray) -> None:
    """Write rect's block of exact distances into rect, by _kernel.

    cols is the (d, n) points, one contiguous run per coordinate, and tmp
    is flat scratch of rect's size or more. rect[a, b] becomes the distance
    between points i0 + a and i0 + b, the whole rectangle, its lower corner
    of repeated pairs and the zero diagonal included.
    """
    r = rect.shape[0]
    _kernel(cols[:, i0 : i0 + r], cols[:, i0:], rect, tmp[: rect.size].reshape(rect.shape))


def _sketch(block: np.ndarray) -> np.ndarray:
    """Each bucket's count of the roots D~ >= 0 in a 1-D block, keyed in the block's own memory.

    Non-negative floats' bit patterns order as the floats do. A root's key
    is its pattern less that of 2^-32, shifted right by _SKETCH_SHIFT as an
    unsigned integer. A root below 2^-32 wraps round to a key above every
    inner bucket's, and -0.0 (pattern 2^63) and a root of 2^32 or more land
    there too; the keys are capped at _SKETCH_INNER, the outside bucket.
    """
    keys = block.view(np.int64)
    np.subtract(keys, _SKETCH_FIRST << _SKETCH_SHIFT, out=keys)
    wrapped = keys.view(np.uint64)
    np.right_shift(wrapped, np.uint64(_SKETCH_SHIFT), out=wrapped)
    np.minimum(wrapped, np.uint64(_SKETCH_INNER), out=wrapped)
    return np.bincount(keys, minlength=_SKETCH_INNER + 1)


def _rounding(d: int) -> tuple[float, float]:
    """g = gamma_(d+2) and tiny = (d + 4) 2^-1072, the screen's rounding terms at d coordinates."""
    return _gamma(d + 2), (d + 4) * 2.0**-1072


def _products(z: np.ndarray) -> Callable[[np.ndarray, int], float] | None:
    """estimate(rect, i0): a block's squared distances estimated by matrix products.

    estimate writes X = [-2 a, n_a, 1] . [b, 1, n_b] for rows i0..i0+r-1
    against rows i0..n-1 into rect, one (d + 2)-term product per pair, n_a
    and n_b being the computed squared row norms, and returns the block's
    delta = 4 g Mhat + tiny (_rounding), Mhat being the block's largest
    computed row norm plus its largest column norm. _screened_counts
    derives |X - S| <= g (3 + g) M + (d + 1) 2^-1073 < delta for every
    pair, S the exact squared distance and M = |a|^2 + |b|^2, with spare
    for rounding. The column operand [z^T; 1; norms] is built once, one
    contiguous run per row; each product covers at most _PRODUCT_VOLUME
    multiply-adds.

    None when a squared norm reaches 2^1000: X could overflow. normalize
    keeps them below d n.
    """
    n, d = z.shape
    width = d + 2
    cols = np.empty((width, n))
    norms = np.einsum("ij,ij->i", z, z, out=cols[d + 1])
    if not norms.max() < 2.0**1000:
        return None
    cols[:d] = z.T
    cols[d] = 1.0
    col_max = np.maximum.accumulate(norms[::-1])[::-1]  # largest norm of rows i..n-1
    g, tiny = _rounding(d)
    rows, _ = _block_plan(n)
    tile_rows = max(1, min(rows, math.isqrt(_PRODUCT_VOLUME // width)))
    tile_cols = max(1, _PRODUCT_VOLUME // (tile_rows * width))

    def estimate(rect: np.ndarray, i0: int) -> float:
        i1 = i0 + rect.shape[0]
        for a0 in range(i0, i1, tile_rows):
            a1 = min(a0 + tile_rows, i1)
            a = np.empty((a1 - a0, width))
            np.multiply(z[a0:a1], -2.0, out=a[:, :d])
            a[:, d] = norms[a0:a1]
            a[:, d + 1] = 1.0
            for b0 in range(i0, n, tile_cols):
                b1 = min(b0 + tile_cols, n)
                np.matmul(a, cols[:, b0:b1], out=rect[a0 - i0 : a1 - i0, b0 - i0 : b1 - i0])
        return 4.0 * g * (norms[i0:i1].max() + col_max[i0]) + tiny

    return estimate


def _second_moment(z: np.ndarray) -> float:
    """The mean squared distance over all n^2 ordered pairs, in O(n d).

    In reals, sum_ij |z_i - z_j|^2 = 2 n A - 2 |T|^2 for any c, with A =
    sum_i |z_i - c|^2 and T = sum_i (z_i - c). c is the computed column
    mean, so A has no cancellation and |T| is rounding noise; the result
    is 2 A^ / n, A^ the computed A. Every path takes it from this call on
    the same z, so its bits are the same on each.
    """
    y = z - z.mean(axis=0)
    with np.errstate(over="ignore"):  # only where a norm passes 2^1000
        return 2.0 * float(np.square(y, out=y).sum()) / z.shape[0]


def _root_sum(block: np.ndarray, clip: bool) -> float:
    """The sum of sqrt(max(x, 0)) over a 1-D block of estimates, the roots left in block.

    clip is False when no entry is negative, and the max pass is skipped.
    """
    if clip:
        np.maximum(block, 0.0, out=block)
    return float(np.sqrt(block, out=block).sum())


def _dispersion_slack(variance: float, mean: float, spread: float, count: float, terms: int) -> float:
    """A bound on |sigma - dispersion|, where sigma is the exact path's dispersion.

    Both paths take count = N = n^2 entries, the zero diagonal and each
    pair twice, in the same B blocks, each a sum of at most K = min(rows, n)
    n terms (each path sums a block's whole rectangle, the corner's zeros
    included), with terms = K + B, and share S2, _second_moment's bits.
    Each computes its mean m = 2 sum_b (sum of block b) / N, the variance
    S2 - m^2 and the dispersion, its root; sigma is 0 where the sum is. The
    exact path sums the distances D, the product path their estimates D~ =
    fl(sqrt(max(X, 0))), and `mean` and `variance` are the product path's
    m~ and v~. S2 cancels in the difference of the variances, so the bound
    has three pieces, all from the difference of the means.

    1. One pair. |X - S| <= 3.01 g Mhat + (d + 1) 2^-1073, and _kernel's
    sum S_c is within g S + d 2^-1074 of S <= 2 M (_screened_counts), so
    |S_c - max(X, 0)| <= E = 2 delta (_products) with room. Hence
    |sqrt(S_c) - sqrt(max(X, 0))| <= min(sqrt(E), E / sqrt(max(X, 0))),
    whose square is at most E^2 / max(E, L), L being the least X of the
    pair's row in the block. `spread` sums that over every pair, twice.

    2. The means. By Cauchy and Schwarz, the mean over the N entries of
    |sqrt(S_c) - sqrt(max(X, 0))| is at most r = sqrt(spread / N), and the
    two rounded square roots add at most u (D + D~) / (1 - u) to each
    |D - D~|. A sum of k non-negative terms in any order, pairwise or not,
    errs by at most gamma_(k-1) times their sum, so each path's m, a block
    sum of at most K terms, B block sums added and one division, is within
    gamma = gamma_(K+B) of its exact mean, mu or mu~. Eliminating mu and
    mu~, for n below 2^30,

        |m - m~| <= e1 = (r + 2 (gamma + u) m~) (1 + 2^-20),

    and mu >= m~ - e1. Where m~ <= e1 every D may be 0, and sigma with
    them whatever the variances; the bound is then inf.

    3. The cancellation term. v = (S2 - m^2 (1 + a)) (1 + b) with |a|,
    |b| <= u, and the same for v~, so

        |v - v~| <= Delta = (e1 (2 m~ + e1) + 2 u ((m~ + e1)^2 + |v~|)) (1 + 2^-20).

    With w = max(v~, 0), sqrt(max(v, 0)) lies within

        cancel = Delta / (sqrt(w) + sqrt(max(w - Delta, 0)))

    of sqrt(w), or within sqrt(Delta) when w = 0. The means' error is
    relative to m^2, and their difference is v, so cancel grows with m /
    sigma: about e1 m / sigma. The two rounded square roots add at most
    u (2 sqrt(w) + cancel), so

        |sigma - dispersion| <= cancel + u (2 sqrt(w) + cancel),

    returned with a factor (1 + 2^-20)^2 for the roundings of its own
    evaluation and of the sums of positive terms in `spread`, 2^-536 more
    in r for squares that underflow in `spread`, and 2^-1070 more in Delta
    for products that underflow.
    """
    up = 1.0 + 2.0**-20
    e1 = (math.sqrt(spread / count) + 2.0**-536 + 2.0 * (_gamma(terms) + _U) * mean) * up
    if not mean > e1:
        return math.inf
    err = (e1 * (2.0 * mean + e1) + 2.0 * _U * ((mean + e1) ** 2 + abs(variance))) * up + 2.0**-1070
    root = math.sqrt(max(variance, 0.0))
    cancel = err / (root + math.sqrt(max(variance - err, 0.0))) if root > 0.0 else math.sqrt(err)
    return (cancel + _U * (2.0 * root + cancel)) * up * up


def _interval(sigma: float, slack: float) -> tuple[float, float]:
    """The least and the largest dispersion within slack of sigma.

    One step outward from each rounded end covers its rounding, so the
    exact dispersion lies in the closed interval.
    """
    if not slack:
        return sigma, sigma
    return float(np.nextafter(sigma - slack, -np.inf)), float(np.nextafter(sigma + slack, np.inf))


def distance_matrix(normalized: NormalizedData, exact: bool = False) -> Geometry:
    """Return the dispersion, its slack and the skip floor, and on the product
    geometry the sketch.

    The dispersion is the population standard deviation of all n*n pairwise
    distances. The spread is taken over the whole matrix, zero diagonal
    included; it doubles as the affinity bandwidth. Each off-diagonal
    distance counts twice. On both geometries it is sqrt(max(S2 - m^2, 0)):
    S2 is _second_moment's mean squared distance, taken before any block
    buffer is allocated, so that those can take the pages its temporary
    frees, and m = 2 sum_b (sum of block b) / n^2, the blocks' sums added in
    block order, whatever the worker count. It is 0.0 where that sum is 0,
    every distance being 0. Each worker folds its blocks' row and column
    minima into its own n floats (plus n of scratch), and those are
    min-folded once all blocks are done.

    By default the blocks are _products' estimates X, and their sums are of
    the clipped square roots. The slack is _dispersion_slack's, and the
    floor is _skip_floor of the least X - delta of each point, which bounds
    every exact squared distance from below; the geometry also carries the
    sketch of the roots, less the r (r + 1) / 2 zeros of each rectangle's
    lower corner, and the largest block's delta, for _sketch_bounds. That
    raises Uncertain where the interval reaches 0 but the points are not
    all zero (the exact dispersion could be 0 or not), or where a squared
    norm is too large to estimate. When exact is set, the blocks hold the
    exact distances, and the dispersion is exact (slack 0.0): the exact
    geometry's dispersion is by definition this one. The floor is then
    _skip_floor of the squared nearest distances.
    """
    z = normalized.values
    n, d = z.shape
    if n < 2:
        raise ValueError("distance matrix needs at least 2 points")
    rows, workers = _block_plan(n)
    folds = np.full((workers, 2, n), np.inf)
    second = _second_moment(z)
    corner = np.tri(min(rows, n), dtype=bool)
    if exact:
        cols, scratch = np.ascontiguousarray(z.T), np.empty((workers, min(rows, n) * n))

        def fill(rect: np.ndarray, i0: int, t: int) -> float:
            _exact_block(cols, rect, i0, scratch[t])
            return 0.0

    else:
        estimate = _products(z)
        if estimate is None:
            raise Uncertain("a squared norm is too large for the product estimate")
        sketches = np.zeros((workers, _SKETCH_INNER + 1), dtype=np.int64)

        def fill(rect: np.ndarray, i0: int, t: int) -> float:
            return estimate(rect, i0)

    def visit(rect: np.ndarray, i0: int, t: int) -> tuple[float, float, float]:
        r, m = rect.shape
        delta = fill(rect, i0, t)
        least = _fold_nearest(rect, i0, folds[t], delta)
        np.copyto(rect[:, :r], 0.0, where=corner[:r, :r])  # repeated pairs and the diagonal
        block = rect.reshape(-1)
        if exact:
            return float(block.sum()), 0.0, 0.0
        e = 2.0 * delta
        pairs = np.arange(m - 1, m - 1 - r, -1, dtype=np.float64)  # each row's, right of (a, a)
        spread = 2.0 * float(pairs @ (e * (e / np.maximum(least, e))))
        total = _root_sum(block, least.min() < 0.0)
        sketches[t] += _sketch(block)
        sketches[t, -1] -= r * (r + 1) // 2  # the corner's zeros
        return total, spread, delta

    blocks = _map_blocks(n, visit)  # each block's (sum, spread, delta)
    least = np.min(folds[:, 0], axis=0)
    count, total = float(n) * n, 0.0
    for b_sum, _, _ in blocks:
        total += b_sum
    mean = 2.0 * total / count
    variance = second - mean * mean
    dispersion = math.sqrt(max(variance, 0.0)) if total else 0.0
    if exact:
        np.multiply(least, least, out=least)  # nearest2: the squared nearest distances
        return Geometry(dispersion=dispersion, slack=0.0, floor=_skip_floor(least, d))
    slack = 0.0
    if z.any():  # else every estimate is exactly 0, and so is every distance
        spread = 0.0
        for _, b_spread, _ in blocks:
            spread += b_spread
        terms = min(rows, n) * n + len(blocks)  # K + B
        slack = _dispersion_slack(variance, mean, spread, count, terms)
        if not _interval(dispersion, slack)[0] > 0.0:
            raise Uncertain("the dispersion interval reaches 0")
    return Geometry(
        dispersion=dispersion,
        slack=slack,
        floor=_skip_floor(least, d),
        sketch=sketches.sum(axis=0),
        delta=max(b[2] for b in blocks),
    )


def select_threshold(
    lower: np.ndarray, upper: np.ndarray | None = None
) -> tuple[float, int] | None:
    """Pick the affinity threshold from the steepest positive histogram jump.

    Scans consecutive bin pairs, takes the (smallest) index k maximizing
    H(k+1) - H(k), and returns the midpoint of bin k: (k - 0.5) / bins.

    The counts may be known only within bounds, lower <= H <= upper (upper
    defaults to lower: exact counts). Jump k then lies between
    lower(k+1) - upper(k) and upper(k+1) - lower(k), and k is named only
    when no rival can beat it or, before it, tie it: every jump before k
    has its upper bound below k's lower bound, and every jump after k its
    upper bound at most that. The candidate is the first maximizer of the
    lower bounds, the only bin that can pass. On exact counts it is the
    first maximizer of the jumps and always passes; on wider bounds the
    result is None where they leave the bin open.
    """
    lo = np.asarray(lower, dtype=np.int64)
    hi = lo if upper is None else np.asarray(upper, dtype=np.int64)
    if lo.size < 2:
        raise ValueError("threshold selection needs at least 2 bins")
    least, most = lo[1:] - hi[:-1], hi[1:] - lo[:-1]
    k = int(np.argmax(least))  # argmax returns the first (smallest) maximizer
    if (most[:k] < least[k]).all() and (most[k + 1 :] <= least[k]).all():
        return (k + 0.5) / lo.size, k + 1
    return None


def bisect_floats(holds: Callable[[np.ndarray], np.ndarray], guess: np.ndarray) -> np.ndarray:
    """The least float x >= 0 at which each of a set of tests holds.

    holds(probes) judges probes[i] by test i, i any index of guess, and
    returns one boolean per test; it may overwrite probes. Every test fails
    at 0.0, holds at inf and changes once as x grows. The int64 bit patterns
    of the non-negative floats order as the floats do, so each answer is
    bisected over them: over the 2^10 patterns either side of guess[i] where
    the test fails at the lower end of that bracket and holds at the upper,
    else over all of [0.0, inf]. 11 halvings, or at most 63, find every
    answer, so a poor guess costs steps, never the answer. The midpoint is
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
    """exp(gap2 / (-2 * dispersion)) in place: the only exp, which affinity_cuts applies."""
    np.divide(gap2, -2.0 * dispersion, out=gap2)
    return np.exp(gap2, out=gap2)


def affinity_cuts(dispersion: float | tuple[float, ...], bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Every cut an affinity model compares with, at a dispersion or at each of several.

    With A = _affinities, each cut is the least float probe p >= 0 at
    which fl(A(p) * s) <= c:

    - edges[m - 1], m = 1..bins-1, is the least distance of bin m or
      below: p is a distance, squared before A, s = bins and c = m. A
      pair's bin is clip(ceil(fl(A * bins)), 1, bins), so affinities of
      exactly 1 land in the top bin, and for 1 <= m < bins it is at most
      m exactly when fl(A * bins) <= m. So a distance's bin is at most m
      exactly when the distance is at least edges[m - 1].
    - bars[k], k = 0..bins-1, is detection's join bar g* for the threshold
      t = (k + 0.5) / bins, the float select_threshold returns for bin
      k + 1: p is a gap2, s = 1.0 (exact) and c = t. So gap2 < g* is the
      affinity test A(gap2) > t itself.

    Each step is monotone, given an exp that is, so each test changes once;
    every test fails at 0.0 and holds at inf, so every cut is positive and
    at most the largest float. The edges do not rise with m, and no cut
    falls as the dispersion grows (a correctly rounded quotient is monotone
    in its divisor).

    One bisect_floats finds them all. Given a sequence of dispersions, such
    as a model's two interval ends, edges and bars gain a leading axis, one
    row per dispersion. Each row's tests divide by -2 sigma of its own
    dispersion, elementwise, so its cuts are the bits a call at that
    dispersion alone gives.
    """
    sigma = np.asarray(dispersion, dtype=np.float64)[..., None]
    m, t, two_sigma = np.arange(1.0, bins), (np.arange(bins) + 0.5) / bins, 2.0 * sigma
    scale, cuts = np.repeat([float(bins), 1.0], [bins - 1, bins]), np.concatenate([m, t])
    # where exp(-d^2 / 2 sigma) * bins = m, and where exp(-gap2 / 2 sigma) = t
    guess = np.concatenate([np.sqrt(two_sigma * np.log(bins / m)), two_sigma * -np.log(t)], axis=-1)

    def holds(probes: np.ndarray) -> np.ndarray:
        distances = probes[..., : bins - 1]
        np.multiply(distances, distances, out=distances)
        return _affinities(probes, sigma) * scale <= cuts

    found = bisect_floats(holds, guess)
    return found[..., : bins - 1], found[..., bins - 1 :]


def _skip_floor(least2: np.ndarray, d: int) -> np.ndarray:
    """A lower bound on every gap2 a detection pass opened at point i computes, per i.

    least2[i] is point i's squared nearest distance on the exact paths, or
    the least X - delta over its pairs on the product path (distance_matrix).
    Let T be the exact squared distance from z_i to z_j. The pass compares
    gap2_j, the einsum of the d differences z_j - z_i, each rounded once,
    with bar[j]. Rounding each difference and its square, then adding d
    non-negative products in any order, fused or not, lands within a
    relative gamma_(d+2) = (d + 2) u / (1 - (d + 2) u) of T (u = 2^-53),
    give or take d 2^-1075 where products underflow. So gap2_j >= T (1 -
    gamma_(d+2)) - d 2^-1075. The kernel sums the same kind of terms and
    rounds the square root of their sum once, and squaring the
    least distance rounds once more, so nearest2[i] <= (T (1 + gamma_(d+2))
    + d 2^-1075) (1 + u)^3 + 2^-1075. On the product path least2[i] <= T
    (1 + u): X - delta <= T for every pair, and the subtraction rounds
    once. Eliminating T, for any d below 10^13,

        gap2_j >= least2[i] (1 - (2.02 d + 7) u) - (2 d + 1) 2^-1075.

    The floor takes the relative slack (4 d + 8) u, which also covers the
    two roundings of the product and difference below, and the absolute
    slack (d + 1) 2^-1073. That is 2.9e-14 relative at d = 64, far below
    the gaps between a noise point and its neighbours.
    """
    return least2 * (1.0 - (4 * d + 8) * _U) - (d + 1) * 2.0**-1073


def _bands(d: int, high_edges: np.ndarray, low_edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi_m and lo_m of _screened_counts for m = 1..bins-1, before delta.

    high_edges and low_edges are affinity_cuts' edges at the two ends of
    the dispersion interval, the same array on an exact geometry. A pair
    whose estimate X is at least hi_m + delta has a bin of m or below at
    every dispersion in the interval, and one whose X is below lo_m - delta
    a bin above m. Both fall as m grows, as the edges do.
    """
    (g, tiny), below = _rounding(d), np.nextafter(low_edges, 0.0)
    with np.errstate(over="ignore"):
        hi = (high_edges * high_edges + tiny) * (1.0 + 4.0 * g)
        return hi, (below * below - tiny) * (1.0 - 4.0 * g)


def _sketch_bounds(
    sketch: np.ndarray, delta: float, bands: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """A lower and an upper bound on each bin count of the upper triangle, from the sketch.

    An inner bucket holds the pairs whose root D~ = fl(sqrt(X+)), X+ =
    max(X, 0), lies in [y0, y1), its ends' patterns, of 8 significant bits
    each. Rounded to nearest, D~ < y1 gives X+ < x1 = y1^2, exact, and D~
    >= y0 gives X+ >= y0^2 (1 - u)^2 >= x0, two floats below y0^2 (a step
    there is at least u y0^2). Against _bands widened by delta, the largest
    block's, a bucket with x0 >= hi_m + delta holds pairs of bin m or
    below, and one with x1 <= lo_m - delta pairs above bin m (X <= X+ <
    x1). So its pairs' bins lie in [1 + #{m: lo_m - delta >= x1}, bins -
    #{m: hi_m + delta <= x0}], and a bucket a band touches spans two bins
    or more. The outside bucket spans every bin. A bucket of one bin adds
    its pairs to that bin's lower and upper bound, any other bucket to the
    upper bound of each bin it spans; the exact counts lie between.
    """
    bins = bands[0].size + 1
    hi, lo = (bands[0] + delta)[::-1], (bands[1] - delta)[::-1]  # ascending
    x0, x1 = _SKETCH_ENDS
    first = np.ones(sketch.size, dtype=np.int64)  # the least bin each bucket may hold
    last = np.full(sketch.size, bins, dtype=np.int64)  # and the largest
    first[:-1] += bins - 1 - np.searchsorted(lo, x1, side="left")
    last[:-1] -= np.searchsorted(hi, x0, side="right")
    one = first == last
    lower = np.zeros(bins, dtype=np.int64)
    np.add.at(lower, first[one] - 1, sketch[one])
    spans = np.zeros(bins + 1, dtype=np.int64)  # each bucket's pairs from bin `first` to `last`
    np.add.at(spans, first - 1, sketch)
    np.subtract.at(spans, last, sketch)
    return lower, np.cumsum(spans[:bins])


def _at_least(
    x: np.ndarray, mask: np.ndarray, hi: np.ndarray, lo: np.ndarray | None = None
) -> np.ndarray | None:
    """C_m = #(x >= hi[m - 1]) for m = 1..bins-1: the count every histogram takes.

    On exact distances x, hi is affinity_cuts' edges, one compare per edge,
    and C_m counts the pairs of bin m or below: bin 1 holds C_1 of them, bin
    m C_m - C_(m-1) and the top bin the rest. On estimates x, hi and lo are
    the ends of each edge's band, and None is returned where an x lies in
    some [lo_m, hi_m). mask is flat boolean scratch of x's size or more.
    """
    mask = mask[: x.size].reshape(x.shape)
    at_least = np.empty(hi.size, dtype=np.int64)
    for m, edge in enumerate(hi):
        at_least[m] = np.count_nonzero(np.greater_equal(x, edge, out=mask))
        if lo is not None and np.count_nonzero(np.greater_equal(x, lo[m], out=mask)) > at_least[m]:
            return None
    return at_least


def _screened_counts(
    z: np.ndarray, bands: tuple[np.ndarray, np.ndarray], edges: np.ndarray | None
) -> np.ndarray:
    """_at_least's C_m over the strict upper triangle, each pair counted once.

    bands is _bands' (hi, lo) over the geometry's dispersion interval, and
    edges is affinity_cuts' edges on an exact geometry, None on an interval.
    With E = edges[m - 1], C_m pairs have an exact distance D >= E, that is
    a bin of m or below. A visit of _map_blocks estimates its block's
    squared distances by _products and returns the block's C_m where the
    estimates decide them; integer counts, whose sum does not depend on the
    worker count.

    Let a and b be two rows of z, S the exact sum of the squares of a - b,
    M = |a|^2 + |b|^2 exactly, u = 2^-53 and g = gamma_(d+2) =
    (d + 2) u / (1 - (d + 2) u). _kernel rounds each difference and its
    square once and adds the d non-negative terms (in any order, fused or
    not, the bound is the same), so its sum lies within g S + d 2^-1074 of
    S, the absolute term for squares that underflow. D, the correctly rounded
    square root of that sum, is then at least E when the sum is at least
    E^2, and at most P, the float below E, when the sum is at most P^2. So

        D >= E  once  S >= (E^2 + d 2^-1074) / (1 - g),
        D < E   once  S <= (P^2 - d 2^-1074) / (1 + g).

    The estimate X is one sum of the d + 2 products of [-2 a, n_a, 1] and
    [b, 1, n_b] (_products), in any order, fused or not, however BLAS
    blocks it; n_a and n_b are |a|^2 and |b|^2 computed once, each a sum of
    d products. Doubling a is exact, and so are the products with 1. With
    eta = 2^-1075 for each product that underflows, a sum of k products is
    within gamma_k of their absolute sum plus k eta, give or take a factor
    1 + gamma_k on the eta. So each computed norm is within gamma_d of its
    value plus d eta, the d + 2 terms add up exactly to within gamma_d M +
    2 d eta of S, and their absolute sum, 2 |a| |b| <= M for the first d
    and the two norms, is at most (2 + gamma_d) M + 2 d eta. The rounded
    sum errs by gamma_(d+2) of that plus (d + 2) eta more. As gamma_d < g,
    in all

        |X - S| <= g (3 + g) M + (d + 1) 2^-1073.

    A pair is then counted at or below bin m when X >= hi_m and above it
    when X < lo_m, with

        hi_m = (E^2 + tiny) (1 + 4 g) + delta,
        lo_m = (P^2 - tiny) (1 - 4 g) - delta,
        delta = 4 g Mhat + tiny,  tiny = (d + 4) 2^-1072,

    where Mhat is the block's largest computed row norm plus its largest
    column norm. 1 + 4 g exceeds 1 / (1 - g), and 1 - 4 g falls below
    1 / (1 + g), by more than 2.9 g >= 8.7 u; Mhat bounds M up to a factor
    1 / ((1 - u) (1 - gamma_d)) and 2 d eta, so g (3 + g) M is below
    3.01 g Mhat for any d below 10^12; and tiny is at least twice each
    absolute term. The spare
    2.9 g, the 0.99 g Mhat left of delta's 4 g Mhat and the rest of tiny
    cover the at most six roundings in evaluating each of hi_m, lo_m and
    delta. An edge whose square overflows
    lies beyond every X. The lower r x r corner of a block's rectangle, its
    pairs below the diagonal and each point with itself, is set to -inf,
    below every lo_m and every edge, in estimates and exact distances alike.

    On an interval, E comes from the edges at its high end and P from those
    at its low end. The edges do not fall as the dispersion grows, so a
    pair counted either way is counted as at every dispersion in the
    interval, the exact one among them.

    A block with a pair in some [lo_m, hi_m) is computed by _exact_block and
    counted against the edges on an exact geometry, and raises Uncertain on
    an interval; so do all blocks where _products cannot estimate. Each
    worker has a mask of as many booleans as its block buffer and, on an
    exact geometry, as many floats of kernel scratch, both allocated here.
    """
    n, d = z.shape
    estimate = _products(z)
    if estimate is None and edges is None:
        raise Uncertain("a squared norm is too large for the product estimate")
    hi, lo = bands
    rows, workers = _block_plan(n)
    masks = np.empty((workers, min(rows, n) * n), dtype=bool)
    lower = np.tri(min(rows, n), dtype=bool)
    if edges is not None:
        cols, scratch = np.ascontiguousarray(z.T), np.empty(masks.shape)

    def visit(rect: np.ndarray, i0: int, t: int) -> np.ndarray:
        r = rect.shape[0]
        if estimate is not None:
            delta = estimate(rect, i0)
            np.copyto(rect[:, :r], -np.inf, where=lower[:r, :r])
            at_least = _at_least(rect, masks[t], hi + delta, lo - delta)
            if at_least is not None:
                return at_least
            if edges is None:
                raise Uncertain("a pair lies within its bin edge's band")
        _exact_block(cols, rect, i0, scratch[t])
        np.copyto(rect[:, :r], -np.inf, where=lower[:r, :r])
        return _at_least(rect, masks[t], edges)

    return sum(_map_blocks(n, visit))


def build_affinity_model(
    normalized: NormalizedData,
    geometry: Geometry,
    bins: int = 10,
    timings: dict[str, float] | None = None,
) -> AffinityModel:
    """Histogram the affinities exp(-d^2 / (2 * dispersion)) and pick the threshold.

    The dispersion enters linearly, not squared: the bandwidth is the square
    root of the distance spread, which keeps the exponent dimensionally mild
    for both tight and diffuse data. Each pair of the upper triangle is
    counted twice; the n self-affinities of exactly 1 go to the top bin.

    One affinity_cuts call bisects the cuts at both ends of the dispersion
    interval (at its one end when it is a point) and gives every cut the
    model compares with: the edges, whose _bands the sketch and the screen
    share, and the bars. A geometry with a sketch (the product geometry)
    first bounds the counts by _sketch_bounds; where select_threshold names
    the bin from those bounds, the model keeps them. Otherwise
    _screened_counts counts them exactly, or raises Uncertain. timings, when
    given, gets the screen's wall time in seconds under "screen" when a
    sketch left the bin open. The model keeps the threshold bin's bar at
    both ends of the interval and the geometry's skip floor.
    """
    if bins < 2:
        raise ValueError("need at least 2 bins")
    dispersion = geometry.dispersion
    if dispersion <= 0.0:
        raise DegenerateDataError(
            "zero distance dispersion: all points are identical; "
            "the only valid clustering is a single cluster holding every point"
        )
    z = normalized.values
    n, d = z.shape
    low, high = _interval(dispersion, geometry.slack)
    edges, bars = affinity_cuts((low,) if high == low else (low, high), bins)
    bands = _bands(d, edges[-1], edges[0])

    def histogram(counts: np.ndarray) -> np.ndarray:
        doubled = 2 * counts
        doubled[-1] += n
        return doubled

    picked = None
    if geometry.sketch is not None:
        lower, upper = map(histogram, _sketch_bounds(geometry.sketch, geometry.delta, bands))
        picked = select_threshold(lower, upper)
    if picked is None:
        started = time.perf_counter()
        at_least = _screened_counts(z, bands, edges[0] if high == low else None)
        lower = upper = histogram(np.diff(at_least, prepend=0, append=n * (n - 1) // 2))
        picked = select_threshold(lower)
        if geometry.sketch is not None and timings is not None:
            timings["screen"] = time.perf_counter() - started
    threshold, threshold_bin = picked
    return AffinityModel(
        histogram=(lower, upper),
        threshold=threshold,
        threshold_bin=threshold_bin,
        bar=(float(bars[0, threshold_bin - 1]), float(bars[-1, threshold_bin - 1])),
        floor=geometry.floor,
    )
