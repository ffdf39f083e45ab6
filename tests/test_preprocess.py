"""Preprocess stage: z-scores, distance dispersion, affinity histogram, threshold.

Production streams the distances in blocks and never holds an n x n matrix;
the dense matrices these tests compare against are built here, by
`dense_distances` and `dense_affinities`.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from affclust.data import Dataset, SyntheticSpec, generate_synthetic
from affclust.errors import DegenerateDataError
from affclust.pipeline import run_pipeline
from affclust.preprocess import (
    NormalizedData,
    _distance_blocks,
    affinity_histogram,
    build_affinity_model,
    distance_matrix,
    normalize,
    select_threshold,
)


def ds(rows, name="t"):
    return Dataset(points=np.asarray(rows, dtype=np.float64), name=name)


def nd(rows):
    """NormalizedData wrapper for tests that want to control z-space directly."""
    z = np.asarray(rows, dtype=np.float64)
    return NormalizedData(values=z, column_means=z.mean(0), column_stds=z.std(0))


def random_dataset(seed, max_n=40, max_d=5):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    return ds(rng.normal(scale=rng.uniform(0.5, 20.0), size=(n, d)))


def dense_distances(z):
    """Reference: the full n x n distance matrix."""
    return cdist(z, z)


def dense_affinities(dist, sigma):
    """Reference: the full affinity matrix, with production's per-entry expression."""
    a = dist * dist
    a /= -2.0 * sigma
    return np.exp(a)


def model_of(norm, bins=10):
    """The affinity model over the dispersion production computes for norm."""
    return build_affinity_model(norm, distance_matrix(norm), bins)


def streamed_upper(z):
    """Every distance the block stream yields, concatenated in stream order."""
    return np.concatenate(list(_distance_blocks(z)))


# ---------------------------------------------------------------------------
# normalize

def test_symmetric_two_point_column_is_its_own_z_score():
    out = normalize(ds([[-1.0], [1.0]]))
    assert np.allclose(out.values, [[-1.0], [1.0]])
    assert out.column_means[0] == 0.0
    assert out.column_stds[0] == 1.0


def test_constant_column_normalizes_to_zeros():
    out = normalize(ds([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
    assert np.array_equal(out.values[:, 0], [0.0, 0.0, 0.0])
    assert out.column_stds[0] == 0.0
    assert np.abs(out.values[:, 1]).max() > 0


@pytest.mark.parametrize("rows", [3, 7])
def test_constant_column_with_inexact_mean_normalizes_to_zeros(rows):
    # the mean of n copies of 0.1 rounds away from 0.1, so std is ~1e-17, not 0
    out = normalize(ds([[0.1, float(i)] for i in range(rows)]))
    assert out.column_stds[0] == 0.0
    assert np.array_equal(out.values[:, 0], np.zeros(rows))


def test_normalization_divides_by_population_std():
    # [0,0,2,2]: mean 1, population SD 1 (sample SD would be ~1.1547)
    out = normalize(ds([[0.0], [0.0], [2.0], [2.0]]))
    assert np.array_equal(out.values[:, 0], [-1.0, -1.0, 1.0, 1.0])


def test_normalized_columns_recompute_to_zero_mean_unit_spread():
    rng = np.random.default_rng(7)
    out = normalize(ds(rng.normal(3.0, 11.0, size=(6, 3))))
    for c in range(3):
        col = out.values[:, c]
        mean = sum(col) / len(col)
        var = sum((v - mean) ** 2 for v in col) / len(col)
        assert abs(mean) < 1e-9
        assert abs(math.sqrt(var) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# distance dispersion

def test_three_four_five_triangle_distance():
    norm = nd([[0.0, 0.0], [3.0, 4.0]])
    assert streamed_upper(norm.values).tolist() == pytest.approx([5.0], abs=1e-12)
    assert distance_matrix(norm) == pytest.approx(2.5, abs=1e-12)  # std of [0, 5, 5, 0]


def test_distance_matrix_matches_double_loop_oracle():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(5, 2))
    got = streamed_upper(nd(z).values)
    expect = [math.sqrt(((z[i] - z[j]) ** 2).sum()) for i in range(5) for j in range(i + 1, 5)]
    assert np.abs(got - expect).max() < 1e-12


def test_distance_diagonal_zero_and_symmetric():
    """Streaming only the upper triangle is exact: the dense matrix mirrors it."""
    z = np.random.default_rng(5).normal(size=(9, 3))
    dist = dense_distances(z)
    assert np.array_equal(np.diag(dist), np.zeros(9))
    assert np.array_equal(dist, dist.T)
    assert np.array_equal(streamed_upper(z), dist[np.triu_indices(9, 1)])


def test_dispersion_is_population_std_over_all_entries():
    """Dispersion covers the full n*n matrix, zero diagonal included."""
    z = np.random.default_rng(11).normal(size=(7, 2))
    dist = dense_distances(z)
    flat = [dist[i, j] for i in range(7) for j in range(7)]
    mean = sum(flat) / len(flat)
    var = sum((v - mean) ** 2 for v in flat) / len(flat)
    assert distance_matrix(nd(z)) == pytest.approx(math.sqrt(var), abs=1e-12)


def test_distance_matrix_rejects_single_point():
    with pytest.raises(ValueError):
        distance_matrix(nd([[1.0, 2.0]]))


# ---------------------------------------------------------------------------
# affinities

def test_zero_distance_gives_unit_affinity():
    # the far pair's affinity is exp(-50), bin 1; the two self-affinities are exactly 1
    model = model_of(nd([[0.0], [50.0]]), bins=10)
    assert model.histogram.tolist() == [2, 0, 0, 0, 0, 0, 0, 0, 0, 2]


def test_distance_squared_twice_dispersion_maps_to_e_inverse():
    sigma = 0.37
    d = math.sqrt(2.0 * sigma)
    bins = 10_000
    model = build_affinity_model(nd([[0.0], [d]]), sigma, bins=bins)
    expect = np.zeros(bins, dtype=np.int64)
    expect[math.ceil(math.exp(-1.0) * bins) - 1] = 2  # 0.36788 lands in bin 3679
    expect[-1] = 2
    assert np.array_equal(model.histogram, expect)


def test_affinity_matches_scalar_recomputation():
    norm = normalize(random_dataset(23))
    dispersion = distance_matrix(norm)
    dist = dense_distances(norm.values)
    n = norm.values.shape[0]
    bins = 10
    expect = [0] * bins
    for i in range(n):
        for j in range(n):
            v = math.exp(-dist[i, j] ** 2 / (2.0 * dispersion))
            expect[min(bins, max(1, math.ceil(v * bins))) - 1] += 1
    assert build_affinity_model(norm, dispersion, bins).histogram.tolist() == expect


def test_identical_points_are_rejected_as_degenerate():
    with pytest.raises(DegenerateDataError):
        model_of(normalize(ds([[4.0, 4.0]] * 5)))


def test_affinity_decreases_with_distance():
    norm = normalize(random_dataset(31))
    dispersion = distance_matrix(norm)
    dist = dense_distances(norm.values)
    a = dense_affinities(dist, dispersion)
    iu = np.triu_indices_from(a, k=1)
    order = np.argsort(dist[iu])
    assert (np.diff(a[iu][order]) <= 1e-15).all()
    assert np.array_equal(
        build_affinity_model(norm, dispersion).histogram, affinity_histogram(a)
    )


@pytest.mark.parametrize("n", [2, 3, 513, 600, 1100])
def test_streamed_model_matches_dense_reference(n):
    """Several blocks and a partial last one: same histogram, same dispersion."""
    rng = np.random.default_rng(n)
    for z in (rng.normal(size=(n, 3)), np.eye(n)):  # eye: every pair equidistant
        dist = dense_distances(z)
        dispersion = distance_matrix(nd(z))
        assert np.array_equal(streamed_upper(z), dist[np.triu_indices(n, 1)])
        assert dispersion == pytest.approx(float(np.std(dist)), rel=1e-12, abs=0.0)
        model = build_affinity_model(nd(z), dispersion, bins=10)
        expect = affinity_histogram(dense_affinities(dist, dispersion), 10)
        assert np.array_equal(model.histogram, expect)


def test_affinity_model_memory_stays_far_below_one_dense_matrix():
    """Acceptance criterion 7's set (n=5,000, d=2): under 10% of one n x n float64."""
    dataset = generate_synthetic(
        SyntheticSpec(
            cluster_count=15,
            points_per_cluster=(334,) * 5 + (333,) * 10,
            dimension=2,
            center_separation=12.0,
            seed=4,
        )
    )
    norm = normalize(dataset)
    tracemalloc.start()
    try:
        model_of(norm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    budget = 0.1 * dataset.n_points**2 * 8
    assert peak < budget, f"peak {peak / 1e6:.1f} MB, budget {budget / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# histogram

def test_single_self_affinity_lands_in_top_bin():
    hist = affinity_histogram(np.array([[1.0]]), bins=10)
    assert hist.tolist() == [0, 0, 0, 0, 0, 0, 0, 0, 0, 1]


def test_value_at_085_buckets_into_ninth_bin():
    # ceiling rule: ceil(0.85 * 10) = 9
    hist = affinity_histogram(np.array([[0.85]]), bins=10)
    assert hist[8] == 1
    assert hist.sum() == 1


def test_histogram_matches_brute_force_bucketing():
    norm = normalize(random_dataset(41, max_n=4))
    dispersion = distance_matrix(norm)
    a = dense_affinities(dense_distances(norm.values), dispersion)
    bins = 10
    expect = [0] * bins
    for v in a.ravel():
        b = min(bins, max(1, math.ceil(v * bins)))
        expect[b - 1] += 1
    assert affinity_histogram(a, bins).tolist() == expect
    assert build_affinity_model(norm, dispersion, bins).histogram.tolist() == expect


def test_histogram_counts_sum_to_n_squared():
    norm = normalize(random_dataset(43, max_n=30))
    dispersion = distance_matrix(norm)
    n = norm.n_points
    for bins in (2, 7, 10, 30):
        assert build_affinity_model(norm, dispersion, bins).histogram.sum() == n * n


def test_histogram_rejects_single_bin():
    with pytest.raises(ValueError):
        affinity_histogram(np.array([[1.0]]), bins=1)


# ---------------------------------------------------------------------------
# threshold selection

def test_single_maximal_jump_picks_ninth_bin():
    hist = np.array([0, 0, 0, 0, 0, 0, 0, 0, 10, 90])
    threshold, k = select_threshold(hist)
    assert k == 9
    assert threshold == pytest.approx(0.85)


def test_threshold_tie_breaks_toward_smallest_bin():
    # jumps of +5 at positions 1 and 3; the first must win
    threshold, k = select_threshold(np.array([0, 5, 0, 5]))
    assert k == 1
    assert threshold == pytest.approx(0.125)


def test_threshold_matches_independent_difference_scan():
    rng = np.random.default_rng(59)
    pts = np.vstack([
        rng.normal(loc=(0, 0), scale=1.0, size=(20, 2)),
        rng.normal(loc=(10, 10), scale=1.0, size=(20, 2)),
    ])
    model = model_of(normalize(ds(pts)), bins=10)
    best_k, best_jump = None, None
    for i in range(1, 10):
        jump = int(model.histogram[i]) - int(model.histogram[i - 1])
        if best_jump is None or jump > best_jump:
            best_k, best_jump = i, jump
    assert model.threshold_bin == best_k
    assert model.threshold == pytest.approx((best_k - 0.5) / 10)


def test_all_negative_jumps_still_pick_a_bin():
    threshold, k = select_threshold(np.array([90, 50, 10]))
    assert k == 1  # least negative jump, first position
    assert 0.0 < threshold < 1.0


def test_model_composition_is_consistent():
    norm = normalize(random_dataset(61))
    model = model_of(norm, bins=10)
    assert model.dispersion == distance_matrix(norm)
    assert model.histogram.size == 10
    assert model.histogram.sum() == norm.n_points**2
    assert model.threshold == (model.threshold_bin - 0.5) / model.histogram.size
    assert 1 <= model.threshold_bin <= 9


# ---------------------------------------------------------------------------
# invariants on random data

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_normalize_invariants_hold_on_random_data(seed):
    norm = normalize(random_dataset(seed))
    means = norm.values.mean(axis=0)
    stds = norm.values.std(axis=0)
    assert np.abs(means).max() < 1e-9
    for c, s in enumerate(stds):
        if norm.column_stds[c] == 0.0:
            assert not norm.values[:, c].any()
        else:
            assert abs(s - 1.0) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from([2.0**-600, 0.25, 0.5, 2.0, 4.0, 8.0, 2.0**600]),
)
def test_power_of_two_column_scaling_is_exactly_invisible(seed, factor):
    """Column scaling by a binade multiple changes no bit downstream."""
    base = random_dataset(seed)
    scaled = Dataset(points=base.points * factor, name=base.name)
    n1, n2 = normalize(base), normalize(scaled)
    assert np.array_equal(n2.column_means, n1.column_means * factor)
    assert np.array_equal(n2.column_stds, n1.column_stds * factor)
    assert np.array_equal(n1.values, n2.values)
    s1, s2 = distance_matrix(n1), distance_matrix(n2)
    assert s1 == s2
    assert np.array_equal(
        dense_affinities(dense_distances(n1.values), s1),
        dense_affinities(dense_distances(n2.values), s2),
    )
    m1, m2 = build_affinity_model(n1, s1), build_affinity_model(n2, s2)
    assert np.array_equal(m1.histogram, m2.histogram)
    assert m1.threshold == m2.threshold


@pytest.mark.parametrize("factor", [1e-200, 1e200])
def test_two_blobs_survive_extreme_input_scales(factor):
    rng = np.random.default_rng(4)
    blobs = np.vstack([rng.normal(size=(30, 2)), rng.normal(size=(30, 2)) + 10.0])
    base = run_pipeline(ds(blobs))
    scaled = run_pipeline(ds(blobs * factor))
    assert not scaled.degenerate
    assert scaled.final_count == base.final_count == 2
    assert np.array_equal(scaled.assignment, base.assignment)


def test_arbitrary_positive_scaling_leaves_z_scores_close():
    base = random_dataset(97)
    scaled = Dataset(points=base.points * 3.7, name=base.name)
    z1 = normalize(base).values
    z2 = normalize(scaled).values
    assert np.abs(z1 - z2).max() < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_row_permutation_cannot_move_the_threshold(seed):
    """The histogram is a multiset statistic, blind to point order."""
    base = random_dataset(seed)
    rng = np.random.default_rng(seed + 1)
    perm = rng.permutation(base.n_points)
    shuffled = Dataset(points=base.points[perm], name=base.name)
    m1 = model_of(normalize(base))
    m2 = model_of(normalize(shuffled))
    assert np.array_equal(m1.histogram, m2.histogram)
    assert m1.threshold == m2.threshold


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_affinity_model_invariants_hold_on_random_data(seed):
    norm = normalize(random_dataset(seed))
    dispersion = distance_matrix(norm)
    n = norm.values.shape[0]
    model = build_affinity_model(norm, dispersion, bins=10)
    a = dense_affinities(dense_distances(norm.values), dispersion)
    assert ((a > 0) & (a <= 1)).all()
    assert np.array_equal(np.diag(a), np.ones(n))
    assert np.array_equal(a, a.T)
    assert np.array_equal(model.histogram, affinity_histogram(a, 10))
    assert model.histogram.sum() == n * n
    assert 0.0 < model.threshold < 1.0
