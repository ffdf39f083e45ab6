"""The numpy distance kernel gives cdist's bits.

preprocess._kernel sums the squared coordinate differences in coordinate
order and takes one square root, as cdist does; every operation is correctly
rounded, so the two must agree bit for bit, under any SIMD dispatch. Each
comparison is array_equal on the int64 views, so a 0.0 against a -0.0 or
one NaN payload against another would fail too.
"""

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
    geometry = distance_matrix(NormalizedData(z, z.mean(0), z.std(0)), exact=True)
    assert (geometry.floor[10:20] < 0.0).all()  # nearest2 is 0.0, less the floor's slack


def exact_blocks(norm):
    """The exact geometry of norm, and the strict upper triangle of each
    rectangle _exact_block writes, packed row-major, keyed by its first row."""
    exact, blocks = preprocess._exact_block, {}

    def spy(cols, rect, i0, tmp):
        exact(cols, rect, i0, tmp)
        blocks[i0] = rect[np.arange(rect.shape[0])[:, None] < np.arange(rect.shape[1])]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(preprocess, "_exact_block", spy)
        geometry = distance_matrix(norm, exact=True)
    return geometry, [blocks[i0] for i0 in sorted(blocks)]


@pytest.mark.parametrize("block_entries", [1, 64, 1 << 12, 1 << 15, 1 << 20])
@pytest.mark.parametrize(("n", "d"), [(2, 1), (5, 3), (90, 2), (300, 17), (700, 64)])
def test_packed_triangle_matches_cdist_at_any_tile_width(monkeypatch, block_entries, n, d):
    """_kernel's tile is the exact visit's whole block. Blocks of one row,
    several rows, and one block holding the whole triangle, on one worker
    and on two, all give cdist's distances: the strict upper triangles of
    the rectangles _exact_block writes, packed row-major in block order,
    are cdist's upper triangle. The dispersion is the fold of cdist's
    blocks, and so is the screen's histogram when every block is computed
    exactly (_products estimating none). Every worker count folds the same
    nearest distances into the skip floor."""
    from test_preprocess import serial_blocks, serial_dispersion, serial_histogram

    monkeypatch.setattr(preprocess, "_BLOCK_ENTRIES", block_entries)
    monkeypatch.setattr(preprocess, "_products", lambda z: None)
    z = np.random.default_rng(n * d).normal(size=(n, d))
    norm = NormalizedData(z, z.mean(0), z.std(0))
    dense = cdist(z, z)
    packed = upper(dense)
    np.fill_diagonal(dense, np.inf)
    nearest = dense.min(axis=1)
    sigma = serial_dispersion(z, serial_blocks(z))
    for workers in (1, 2):
        monkeypatch.setattr(preprocess, "_available_cores", lambda: workers)
        geometry, blocks = exact_blocks(norm)
        assert same_bits(np.concatenate(blocks), packed)
        assert geometry.dispersion == sigma and geometry.slack == 0.0, workers
        assert same_bits(geometry.floor, preprocess._skip_floor(nearest * nearest, d))
        screened = build_affinity_model(norm, geometry, 10)
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

