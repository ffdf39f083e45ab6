"""Normalization, pairwise geometry and the histogram-based affinity threshold.

Every quantity downstream of the raw points is derived here: column z-scores,
the full n x n Euclidean distance matrix together with its dispersion, the
Gaussian affinity matrix, and the data-driven threshold picked from the
affinity histogram. Nothing in this module is tunable except the bin count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .data import Dataset
from .errors import DegenerateDataError


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
    """All pairwise Euclidean distances and their population spread."""

    values: np.ndarray  # (n, n), symmetric, zero diagonal
    dispersion: float   # population standard deviation over all n*n entries


@dataclass
class AffinityModel:
    """Gaussian affinities with the histogram and threshold derived from them."""

    values: np.ndarray     # (n, n) affinities in (0, 1]
    histogram: np.ndarray  # (bins,) counts over equal-width affinity bins
    bins: int
    threshold: float       # midpoint of the bin below the steepest positive jump
    threshold_bin: int     # 1-based index k of that bin


def normalize(dataset: Dataset) -> NormalizedData:
    """Z-score each column using the population standard deviation.

    Constant columns carry no spatial information and map to all zeros
    instead of dividing by zero. Each column is first scaled by the power of
    two that brings its largest magnitude into [0.5, 1), so the squares
    inside std can neither overflow nor underflow to zero at any finite
    input scale. Power-of-two scaling is exact for normal numbers, so the
    z-scores, means and stds (reported back in input units) are the bits
    an unscaled computation gives wherever that one does not overflow.
    """
    _, exponents = np.frexp(np.abs(dataset.points).max(axis=0, initial=0.0))
    z = np.ldexp(dataset.points, -exponents)  # scaled points, z-scores below
    means = z.mean(axis=0)
    stds = z.std(axis=0)  # ddof=0: population convention
    safe = np.where(stds == 0.0, 1.0, stds)
    z -= means
    z /= safe
    z[:, stds == 0.0] = 0.0
    return NormalizedData(
        values=z,
        column_means=np.ldexp(means, exponents),
        column_stds=np.ldexp(stds, exponents),
    )


def distance_matrix(normalized: NormalizedData) -> DistanceMatrix:
    """Dense Euclidean distances between all normalized point pairs.

    The dispersion is the population standard deviation taken over the whole
    matrix, zero diagonal included; it doubles as the affinity bandwidth.
    """
    z = normalized.values
    if z.shape[0] < 2:
        raise ValueError("distance matrix needs at least 2 points")
    dist = cdist(z, z)
    return DistanceMatrix(values=dist, dispersion=float(dist.std()))


def affinity_matrix(distances: DistanceMatrix) -> np.ndarray:
    """Map distances to affinities via exp(-d^2 / (2 * dispersion)).

    The dispersion enters linearly, not squared: the bandwidth is the square
    root of the distance spread, which keeps the exponent dimensionally mild
    for both tight and diffuse data.
    """
    if distances.dispersion <= 0.0:
        raise DegenerateDataError(
            "zero distance dispersion: all points are identical; "
            "the only valid clustering is a single cluster holding every point"
        )
    a = distances.values * distances.values
    np.divide(a, -2.0 * distances.dispersion, out=a)
    np.exp(a, out=a)
    return a


def affinity_histogram(affinity: np.ndarray, bins: int = 10) -> np.ndarray:
    """Count all n*n affinity entries into equal-width bins over (0, 1].

    A value v lands in bin ceil(v * bins); the diagonal self-affinities of
    exactly 1 land in the top bin. Counts always sum to n*n.
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
    """Compose affinity matrix, histogram and threshold into one model."""
    values = affinity_matrix(distances)
    histogram = affinity_histogram(values, bins)
    threshold, threshold_bin = select_threshold(histogram)
    return AffinityModel(
        values=values,
        histogram=histogram,
        bins=bins,
        threshold=threshold,
        threshold_bin=threshold_bin,
    )
