"""Normalization, pairwise geometry and the histogram-based affinity threshold.

Every quantity downstream of the raw points is derived here: column z-scores,
the dispersion of all n x n Euclidean distances, the histogram of the
Gaussian affinities, and the data-driven threshold picked from it. Nothing in
this module is tunable except the bin count.

No n x n matrix is materialised. The distances are streamed twice over the
upper triangle in row blocks of about _BLOCK_ENTRIES entries: the first pass
combines the blocks' moments into the dispersion, the second recomputes each
block and bins its affinities. Every distance is computed on its own, so a
block holds the same bits as the dense matrix would, and the histogram is the
dense one's; only the summation order of the dispersion differs.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .data import Dataset
from .errors import DegenerateDataError

# Distance entries computed per block (2 MB of float64), or one row of n
# entries when n exceeds it. A few block-sized temporaries (the triangle
# mask, the masked copy, the binning indices) live at once.
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
class DistanceMatrix:
    """The population spread of all pairwise Euclidean distances.

    The distances themselves are not stored; points keeps what they are
    taken between, so the affinity pass can stream them again.
    """

    points: np.ndarray  # (n, d) normalized points
    dispersion: float   # population standard deviation over all n*n entries


@dataclass
class AffinityModel:
    """The Gaussian affinity histogram and the threshold derived from it."""

    histogram: np.ndarray  # (bins,) counts over equal-width affinity bins
    bins: int
    threshold: float       # midpoint of the bin below the steepest positive jump
    threshold_bin: int     # 1-based index k of that bin


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


def _distance_blocks(z: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the strict upper triangle of the distance matrix, row block by row block.

    Each block is a fresh 1-D array that the caller may overwrite: the
    entries right of the diagonal in rows i0..i1-1, in row-major order.
    """
    n = z.shape[0]
    rows = max(1, _BLOCK_ENTRIES // n)
    for i0 in range(0, n - 1, rows):
        i1 = min(i0 + rows, n)
        upper = np.arange(i1 - i0)[:, None] < np.arange(n - i0)
        yield cdist(z[i0:i1], z[i0:])[upper]


def distance_matrix(normalized: NormalizedData) -> DistanceMatrix:
    """Population standard deviation of all n*n pairwise distances.

    The spread is taken over the whole matrix, zero diagonal included; it
    doubles as the affinity bandwidth. Blocks of the upper triangle are
    folded in, in a fixed order, with the pairwise (Chan-Golub-LeVeque)
    update of count, mean and sum of squared deviations; each off-diagonal
    distance counts twice, and the n diagonal zeros seed the running moments.
    """
    z = normalized.values
    n = z.shape[0]
    if n < 2:
        raise ValueError("distance matrix needs at least 2 points")
    count, mean, m2 = float(n), 0.0, 0.0
    for block in _distance_blocks(z):
        b_count = 2.0 * block.size
        b_mean = float(block.mean())
        block -= b_mean
        b_m2 = 2.0 * float(np.square(block, out=block).sum())
        total = count + b_count
        delta = b_mean - mean
        mean += delta * (b_count / total)
        m2 += b_m2 + delta * delta * (count * b_count / total)
        count = total
    return DistanceMatrix(points=z, dispersion=math.sqrt(m2 / count))


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


def build_affinity_model(distances: DistanceMatrix, bins: int = 10) -> AffinityModel:
    """Histogram the affinities exp(-d^2 / (2 * dispersion)) and pick the threshold.

    The dispersion enters linearly, not squared: the bandwidth is the square
    root of the distance spread, which keeps the exponent dimensionally mild
    for both tight and diffuse data. Each upper-triangle block is binned and
    counted twice; the n self-affinities of exactly 1 go to the top bin.
    """
    if distances.dispersion <= 0.0:
        raise DegenerateDataError(
            "zero distance dispersion: all points are identical; "
            "the only valid clustering is a single cluster holding every point"
        )
    z = distances.points
    scale = -2.0 * distances.dispersion
    histogram = affinity_histogram(np.ones(z.shape[0]), bins)
    for block in _distance_blocks(z):
        np.multiply(block, block, out=block)
        np.divide(block, scale, out=block)
        np.exp(block, out=block)
        histogram += 2 * affinity_histogram(block, bins)
    threshold, threshold_bin = select_threshold(histogram)
    return AffinityModel(
        histogram=histogram,
        bins=bins,
        threshold=threshold,
        threshold_bin=threshold_bin,
    )
