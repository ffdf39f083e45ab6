"""The numpy distance kernel gives cdist's bits.

preprocess._kernel sums the squared coordinate differences in coordinate
order and takes one square root, as cdist does; every operation is correctly
rounded, so the two must agree bit for bit, under any SIMD dispatch. Each
comparison is array_equal on the int64 views, so a 0.0 against a -0.0 or
one NaN payload against another would fail too.
"""

import dataclasses

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from affclust import merge, preprocess
from affclust.data import SyntheticSpec, generate_synthetic
from affclust.detect import extract_outliers, find_clusters
from affclust.preprocess import (
    NormalizedData,
    build_affinity_model,
    distance_matrix,
    normalize,
    pairwise_distances,
)


def same_bits(got, expect):
    return got.shape == expect.shape and np.array_equal(
        got.view(np.int64), expect.view(np.int64)
    )


def upper(dist):
    return dist[np.triu_indices(dist.shape[0], 1)]


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150, 1e300, 1e-300])
def test_kernel_matches_cdist_for_every_dimension(scale):
    """d = 1..100, at scales where squares overflow to inf or underflow to
    subnormals and zero; some inputs hold an inf coordinate."""
    rng = np.random.default_rng(int(np.log10(scale)) + 400)
    for d in range(1, 101):
        a = rng.normal(size=(7, d)) * scale
        b = rng.normal(size=(9, d)) * scale
        if d % 5 == 0:
            a[1, d // 2] = np.inf
            b[2, 0] = -np.inf
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            got, expect = pairwise_distances(a, b), cdist(a, b)
        assert same_bits(got, expect), d


def test_kernel_matches_cdist_on_identical_rows_and_constant_columns():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(40, 6))
    z[:, 2] = 0.0
    z[:, 4] = 3.5
    z[10:20] = z[0]
    assert same_bits(pairwise_distances(z, z), cdist(z, z))
    geometry = distance_matrix(NormalizedData(z, z.mean(0), z.std(0)))
    assert same_bits(geometry.packed, upper(cdist(z, z)))
    assert (geometry.floor[10:20] < 0.0).all()  # nearest2 is 0.0, less the floor's slack


@pytest.mark.parametrize("tile_entries", [1, 64, 1 << 12, preprocess._TILE_ENTRIES, 1 << 20])
@pytest.mark.parametrize(("n", "d"), [(2, 1), (5, 3), (90, 2), (300, 17), (700, 64)])
def test_packed_triangle_matches_cdist_at_any_tile_width(monkeypatch, tile_entries, n, d):
    """Tiles of one row, several rows, and one tile wider than a whole block
    all give cdist's distances. On the one-pass path they pack cdist's upper
    triangle. Above the cap, in blocks of a few rows on one worker and on
    two, the exact geometry packs each block in place: its dispersion is
    the fold of cdist's blocks, and so is the screen's histogram when every
    block is computed exactly (_products estimating none). Every path folds
    the same nearest distances into the skip floor."""
    from test_preprocess import serial_blocks, serial_dispersion, serial_histogram

    monkeypatch.setattr(preprocess, "_TILE_ENTRIES", tile_entries)
    monkeypatch.setattr(preprocess, "_STREAMED_TILE_ENTRIES", tile_entries)
    monkeypatch.setattr(preprocess, "_products", lambda z: None)
    z = np.random.default_rng(n * d).normal(size=(n, d))
    norm = NormalizedData(z, z.mean(0), z.std(0))
    dense = cdist(z, z)
    packed = upper(dense)
    np.fill_diagonal(dense, np.inf)
    nearest = dense.min(axis=1)
    for workers in (None, 1, 2):  # None: the one-pass path
        if workers is not None:
            monkeypatch.setattr(preprocess, "_ONE_PASS_PAIRS", 0)
            monkeypatch.setattr(preprocess, "_BLOCK_ENTRIES", 1 << 12)
            monkeypatch.setattr(preprocess, "_available_cores", lambda: workers)
        geometry = distance_matrix(norm, exact=workers is not None)
        assert (geometry.packed is None) == (workers is not None)
        if workers is None:
            assert same_bits(geometry.packed, packed)
        sigma = serial_dispersion(z, serial_blocks(z))
        assert geometry.dispersion == sigma and geometry.slack == 0.0, workers
        assert same_bits(geometry.floor, preprocess._skip_floor(nearest * nearest, d))
        screened = build_affinity_model(norm, dataclasses.replace(geometry, packed=None), 10)
        assert np.array_equal(screened.histogram[0], serial_histogram(n, serial_blocks(z), sigma, 10))


def test_merge_centroid_distances_match_cdist(monkeypatch):
    """merge.py's p x p centroid distances, and so the whole merge plan, are
    cdist's."""
    spec = SyntheticSpec(
        cluster_count=6, points_per_cluster=40, dimension=5, center_separation=6.0,
        noise_fraction=0.1, seed=3,
    )
    norm = normalize(generate_synthetic(spec))
    model = build_affinity_model(norm, distance_matrix(norm))
    cleaned = extract_outliers(find_clusters(norm, model))
    assert cleaned.cluster_count > 6
    cent, _ = merge._group_stats(norm.values, cleaned.assignment.astype(np.int64))
    assert same_bits(pairwise_distances(cent, cent), cdist(cent, cent))

    plan = merge.merge_clusters(norm, cleaned, 6)
    monkeypatch.setattr(merge, "pairwise_distances", cdist)
    reference = merge.merge_clusters(norm, cleaned, 6)
    assert plan.merge_steps == reference.merge_steps
    assert plan.cost_after == reference.cost_after
    assert np.array_equal(plan.final_assignment, reference.final_assignment)

