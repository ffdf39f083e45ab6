"""Detection scan: sequential absorption, incremental centroids, outliers."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affclust.data import Dataset, SyntheticSpec, generate_synthetic
from affclust.detect import (
    _FIRST_WINDOW,
    Clustering,
    ClusterState,
    _affinity_bar,
    _sweep,
    extract_outliers,
    find_clusters,
    relabel,
)
from affclust.preprocess import (
    NormalizedData,
    build_affinity_model,
    distance_matrix,
    normalize,
)


def prepared(points):
    norm = normalize(Dataset(points=np.asarray(points, dtype=np.float64), name="t"))
    dispersion = distance_matrix(norm)
    model = build_affinity_model(norm, dispersion) if dispersion > 0 else None
    return norm, model


def swept(points):
    """The normalized points and the scan's working state after the sweep."""
    norm, model = prepared(points)
    return norm, _sweep(norm.values, 2.0 * model.dispersion, model.threshold)


def gap2(z, j, c):
    """Squared distance from point j to centroid c as a one-row array.

    It is production's row-wise einsum, which may fuse multiply-adds, so a
    plain sum of squares can differ from it in the last bit; the oracle must
    compare the same values.
    """
    diff = z[j : j + 1] - c
    return np.einsum("ij,ij->i", diff, diff)


def naive_find_clusters(z, sigma, threshold):
    """Literal per-point transcription of the detection scan.

    Plain Python loops, dict-backed state, no windows or caches: the
    reference the production scan must agree with exactly.
    """
    n = z.shape[0]
    assign = [0] * n
    centroids: dict[int, np.ndarray] = {}
    sizes: dict[int, int] = {}
    opened = 0
    for i in range(n):
        if assign[i]:
            continue
        opened += 1
        k = opened
        assign[i] = k
        centroids[k] = z[i].copy()
        sizes[k] = 1
        for j in range(n):
            if assign[j] == 0:
                if np.exp(gap2(z, j, centroids[k]) / (-2.0 * sigma))[0] > threshold:
                    s = sizes[k]
                    centroids[k] = (s * centroids[k] + z[j]) / (s + 1)
                    sizes[k] = s + 1
                    assign[j] = k
            elif assign[j] != k:
                old = assign[j]
                if gap2(z, j, centroids[k])[0] < gap2(z, j, centroids[old])[0]:
                    s = sizes[old]
                    if s <= 1:
                        del centroids[old]
                        del sizes[old]
                    else:
                        centroids[old] = (s * centroids[old] - z[j]) / (s - 1)
                        sizes[old] = s - 1
                    s = sizes[k]
                    centroids[k] = (s * centroids[k] + z[j]) / (s + 1)
                    sizes[k] = s + 1
                    assign[j] = k
    live = sorted(sizes)
    remap = {k: r + 1 for r, k in enumerate(live)}
    return [remap[a] for a in assign]


def interesting_points(seed):
    """Mixtures that exercise joins, shifts and emptied clusters."""
    rng = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 0:
        k = int(rng.integers(2, 5))
        centers = rng.uniform(-30, 30, size=(k, 2))
        return np.vstack([c + rng.normal(size=(int(rng.integers(5, 20)), 2)) for c in centers])
    if kind == 1:
        return rng.uniform(-5, 5, size=(int(rng.integers(10, 60)), int(rng.integers(1, 4))))
    blob = rng.normal(size=(25, 3))
    far = rng.uniform(20, 40, size=(int(rng.integers(1, 5)), 3))
    return np.vstack([blob, far])


# ---------------------------------------------------------------------------
# scan versus the naive reference

@pytest.mark.parametrize("seed", range(30))
def test_scan_matches_naive_reference(seed):
    pts = interesting_points(seed)
    norm, model = prepared(pts)
    got = find_clusters(norm, model)
    expect = naive_find_clusters(norm.values, model.dispersion, model.threshold)
    assert got.assignment.tolist() == expect


@st.composite
def grid_points(draw):
    """Small z-score sets on an integer grid, sized around the window edges.

    Coordinates are 10 * coarse + fine, so the points fall into a few
    blobs. They are used as z-scores as they are: squared distances between
    grid points and two-point midpoints are exact, so a point equidistant
    from its own and the open centroid really ties (gap2 == own2) in the
    shift test, as do duplicated points.
    """
    w = _FIRST_WINDOW
    n = draw(st.sampled_from([2, 3, w - 1, w, w + 1, 2 * w, 2 * w + 1, 3 * w + 2]))
    d = draw(st.sampled_from([1, 2, 3, 5]))
    coord = st.builds(lambda c, f: 10 * c + f, st.integers(0, 2), st.integers(-2, 2))
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n))
    copies = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n // 2))
    for src, dst in copies:
        rows[dst] = list(rows[src])
    return np.array(rows, dtype=np.float64)


@settings(max_examples=60, deadline=None)
@given(grid_points())
def test_windowed_scan_matches_naive_reference_on_grids(pts):
    norm = NormalizedData(pts, np.zeros(pts.shape[1]), np.ones(pts.shape[1]))
    dispersion = distance_matrix(norm)
    assume(dispersion > 0)
    model = build_affinity_model(norm, dispersion)
    got = find_clusters(norm, model)
    expect = naive_find_clusters(norm.values, model.dispersion, model.threshold)
    assert got.assignment.tolist() == expect


def test_own_distance_cache_is_fresh_after_full_scan():
    spec = SyntheticSpec(
        cluster_count=4, points_per_cluster=50, dimension=6,
        center_separation=6.0, noise_fraction=0.1, noise_margin=0.75,
        center_scheme="axes", seed=3,
    )
    norm, state = swept(generate_synthetic(spec).points)
    assert (state.assignment > 0).all()
    diff = norm.values - state.centroids[state.assignment]
    assert np.array_equal(state.bar, np.einsum("ij,ij->i", diff, diff))


# ---------------------------------------------------------------------------
# the affinity bar

def affinity_test(gaps, two_sigma, threshold, length):
    """The scan's affinity test, applied to consecutive slices of `length` gaps."""
    return np.concatenate([
        np.exp(gaps[i : i + length] / (-two_sigma)) > threshold
        for i in range(0, gaps.size, length)
    ])


def bar_neighbours(bar, reach):
    """The non-negative floats within `reach` bit patterns of bar, in order."""
    centre = int(np.array(bar).view(np.int64))
    top = int(np.array(np.inf).view(np.int64))
    return np.arange(max(0, centre - reach), min(top, centre + reach) + 1).view(np.float64)


@st.composite
def thresholds(draw):
    """A threshold the histogram can pick: the midpoint of bin k of bins."""
    bins = draw(st.integers(2, 1000))
    k = draw(st.integers(1, bins))
    return (k - 0.5) / bins


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-3, 1e3), thresholds(), st.integers(0, 2**32 - 1))
def test_affinity_bar_is_the_affinity_test(two_sigma, threshold, seed):
    """gap2 < bar equals the exp test on every slice length the scan's
    windows and numpy's vector loops can produce, around the bar and away
    from it."""
    bar = _affinity_bar(two_sigma, threshold)
    near = bar_neighbours(bar, 1 << 16)
    for length in (31, 33, 1 << 17):
        assert np.array_equal(affinity_test(near, two_sigma, threshold, length), near < bar)
    rng = np.random.default_rng(seed)
    gaps = np.concatenate([
        bar_neighbours(bar, 256),
        rng.uniform(0.0, 4.0 * bar, 2048),
        bar * rng.exponential(size=2048),
        [0.0, 5e-324, 1e300],
    ])
    for length in (1, 31, 33, 1 << 17):
        assert np.array_equal(affinity_test(gaps, two_sigma, threshold, length), gaps < bar)


@pytest.mark.parametrize("threshold", [0.5 / 2, 0.5 / 1000, 999.5 / 1000, 1.0 - 2.0**-53])
@pytest.mark.parametrize("two_sigma", [1e-3, 1.0, 2.0 * np.sqrt(2.0), 1e3])
def test_affinity_bar_at_the_threshold_extremes(two_sigma, threshold):
    """Threshold bin 1 of 2 and of 1,000 bins, the top bin of 1,000, and
    the largest threshold below 1, where only exp(...) == 1.0 passes."""
    bar = _affinity_bar(two_sigma, threshold)
    assert 0.0 < bar < np.inf
    gaps = bar_neighbours(bar, 1 << 12)
    for length in (1, 33):
        assert np.array_equal(affinity_test(gaps, two_sigma, threshold, length), gaps < bar)


def test_scan_matches_naive_reference_at_threshold_bin_one():
    # Copies of the unit simplex's corners, jittered: most affinities fall
    # in bin 2 and a few in bin 1, so the threshold is bin 1's midpoint.
    pts = np.repeat(np.eye(4), 3, axis=0) + np.random.default_rng(1).normal(scale=0.1, size=(12, 4))
    norm = NormalizedData(pts, np.zeros(4), np.ones(4))
    model = build_affinity_model(norm, distance_matrix(norm))
    assert model.threshold_bin == 1
    got = find_clusters(norm, model)
    expect = naive_find_clusters(norm.values, model.dispersion, model.threshold)
    assert got.assignment.tolist() == expect


def test_scan_never_moves_a_point_within_the_open_cluster(monkeypatch):
    """Every shift takes its point from another cluster. The point that
    opened the cluster has bar 0.0, so even at distance 0 from the centroid
    it is not taken out and put back."""
    from_open = []
    remove = ClusterState.remove_point

    def recording_remove(self, j):
        from_open.append(int(self.assignment[j]) == self.opened)
        return remove(self, j)

    monkeypatch.setattr(ClusterState, "remove_point", recording_remove)
    for seed in range(30):
        find_clusters(*prepared(interesting_points(seed)))
    assert from_open and not any(from_open)


def test_two_far_duplicate_pairs_form_two_clusters():
    out = extract_outliers(find_clusters(*prepared([[0, 0], [0, 0], [100, 100], [100, 100]])))
    assert out.cluster_count == 2
    assert out.sizes.tolist() == [2, 2]
    assert out.outliers.size == 0


def test_three_blobs_and_two_isolated_points():
    rng = np.random.default_rng(2)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    pts = np.vstack([c + rng.normal(size=(30, 2)) for c in centers] + [[[40.0, 40.0], [-40.0, -40.0]]])
    out = extract_outliers(find_clusters(*prepared(pts)))
    assert out.cluster_count == 3
    assert sorted(out.sizes.tolist()) == [30, 30, 30]
    assert out.outliers.tolist() == [90, 91]


def test_scan_is_deterministic():
    pts = interesting_points(12)
    a = find_clusters(*prepared(pts))
    b = find_clusters(*prepared(pts))
    assert np.array_equal(a.assignment, b.assignment)
    (_, sa), (_, sb) = swept(pts), swept(pts)
    assert np.array_equal(sa.assignment, sb.assignment)
    assert np.array_equal(sa.centroids, sb.centroids)


def test_no_point_left_unassigned_and_ids_contiguous():
    for seed in (1, 4, 9, 16):
        out = find_clusters(*prepared(interesting_points(seed)))
        assert (out.assignment >= 1).all()
        p = out.cluster_count
        assert sorted(np.unique(out.assignment).tolist()) == list(range(1, p + 1))
        assert np.array_equal(
            np.bincount(out.assignment, minlength=p + 1)[1:], out.sizes
        )


def test_final_centroids_equal_batch_means():
    norm, state = swept(interesting_points(21))
    live = np.flatnonzero(state.sizes > 0)
    assert live.size == state.finalize().cluster_count
    for k in live:
        members = norm.values[state.assignment == k]
        assert np.abs(state.centroids[k] - members.mean(axis=0)).max() < 1e-9


# ---------------------------------------------------------------------------
# degenerate paths

def test_identical_points_collapse_to_one_cluster():
    norm, model = prepared([[3.0, 3.0]] * 6)
    assert model is None
    out = find_clusters(norm, None)
    assert out.cluster_count == 1
    assert out.sizes.tolist() == [6]
    assert (out.assignment == 1).all()


def test_missing_affinity_model_is_rejected_for_real_data():
    norm, _ = prepared([[0.0, 0.0], [5.0, 5.0]])
    with pytest.raises(ValueError):
        find_clusters(norm, None)


def test_single_point_is_rejected():
    norm = NormalizedData(np.zeros((1, 2)), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        find_clusters(norm, None)


# ---------------------------------------------------------------------------
# incremental centroid state

def test_midpoint_after_single_add():
    state = ClusterState(np.array([[0.0, 0.0], [2.0, 0.0]]))
    k = state.open_cluster(0)
    state.add_point(k, 1)
    assert state.centroids[k].tolist() == [1.0, 0.0]
    assert state.sizes[k] == 2


def test_add_moves_centroid_by_weighted_share():
    # size-3 cluster at (1,1,1) absorbing (5,5,5) lands on (2,2,2)
    pts = np.array([[1.0, 1.0, 1.0]] * 3 + [[5.0, 5.0, 5.0]])
    state = ClusterState(pts)
    k = state.open_cluster(0)
    state.add_point(k, 1)
    state.add_point(k, 2)
    state.add_point(k, 3)
    assert np.allclose(state.centroids[k], [2.0, 2.0, 2.0])


def test_sequential_adds_track_batch_mean():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(20, 4))
    state = ClusterState(pts)
    k = state.open_cluster(0)
    for j in range(1, 20):
        state.add_point(k, j)
        assert np.abs(state.centroids[k] - pts[: j + 1].mean(axis=0)).max() < 1e-9


def test_remove_is_inverse_of_add():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    state = ClusterState(pts)
    k = state.open_cluster(0)
    state.add_point(k, 1)
    state.remove_point(1)
    assert state.centroids[k].tolist() == [0.0, 0.0]
    assert state.sizes[k] == 1


def test_add_then_remove_restores_centroid():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(10, 3))
    state = ClusterState(pts)
    k = state.open_cluster(0)
    for j in range(1, 7):
        state.add_point(k, j)
    before = state.centroids[k].copy()
    state.add_point(k, 9)
    state.remove_point(9)
    assert np.abs(state.centroids[k] - before).max() < 1e-9


def test_random_interleavings_match_batch_mean():
    rng = np.random.default_rng(15)
    pts = rng.normal(size=(15, 2))
    state = ClusterState(pts)
    k = state.open_cluster(0)
    members = {0}
    for _ in range(400):
        j = int(rng.integers(1, 15))
        if j in members:
            if len(members) > 1:
                state.remove_point(j)
                members.discard(j)
        else:
            state.add_point(k, j)
            members.add(j)
        expect = pts[sorted(members)].mean(axis=0)
        assert np.abs(state.centroids[k] - expect).max() < 1e-9


def test_removing_last_member_deletes_the_cluster():
    state = ClusterState(np.array([[1.0], [2.0]]))
    k = state.open_cluster(0)
    state.remove_point(0)
    assert state.sizes[k] == 0
    assert state.assignment[0] == 0
    final = state.finalize()
    assert final.cluster_count == 0


# ---------------------------------------------------------------------------
# id compaction

def test_relabel_matches_dict_renumbering():
    rng = np.random.default_rng(43)
    for _ in range(500):
        top = int(rng.integers(1, 12))
        assignment = rng.integers(0, top + 1, size=int(rng.integers(0, 40)))
        keep = rng.permutation(np.arange(1, top + 1))[: int(rng.integers(0, top + 1))]
        if rng.random() < 0.5:
            keep = np.sort(keep)
        new_id = {int(old): new for new, old in enumerate(keep, start=1)}
        got = relabel(assignment, keep)
        assert got.tolist() == [new_id.get(int(a), 0) for a in assignment]
        assert not np.shares_memory(got, assignment)


# ---------------------------------------------------------------------------
# outlier extraction

def synthetic_clustering(assignment):
    assignment = np.asarray(assignment, dtype=np.int64)
    p = assignment.max()
    sizes = np.bincount(assignment, minlength=p + 1)[1:]
    return Clustering(assignment=assignment, sizes=sizes)


def test_singletons_become_outliers_and_ids_compact():
    out = extract_outliers(synthetic_clustering([1, 1, 1, 1, 1, 2, 3, 3, 3, 3, 3, 3, 3]))
    assert out.cluster_count == 2
    assert out.sizes.tolist() == [5, 7]
    assert out.outliers.tolist() == [5]
    assert out.assignment.tolist() == [1, 1, 1, 1, 1, 0, 2, 2, 2, 2, 2, 2, 2]


def test_no_singletons_is_a_clean_copy():
    base = synthetic_clustering([1, 1, 2, 2])
    out = extract_outliers(base)
    assert np.array_equal(out.assignment, base.assignment)
    assert out.outliers.size == 0
    out.assignment[0] = 99  # mutating the copy must not touch the source
    assert base.assignment[0] == 1


def test_points_already_unassigned_are_not_outliers_again():
    out = extract_outliers(synthetic_clustering([1, 1, 2, 3, 3]))
    assert out.outliers.tolist() == [2]
    again = extract_outliers(out)
    assert np.array_equal(again.assignment, out.assignment)
    assert again.sizes.tolist() == [2, 2]
    assert again.outliers.size == 0


def test_all_singletons_leave_zero_clusters():
    out = extract_outliers(synthetic_clustering([1, 2, 3, 4]))
    assert out.cluster_count == 0
    assert out.outliers.tolist() == [0, 1, 2, 3]
    assert (out.assignment == 0).all()


def test_detected_noise_points_are_flagged_on_generated_data():
    spec = SyntheticSpec(
        cluster_count=3, points_per_cluster=40, dimension=8,
        center_separation=24.0, noise_fraction=0.1, noise_margin=0.75,
        center_scheme="axes", seed=5,
    )
    dataset = generate_synthetic(spec)
    out = extract_outliers(find_clusters(*prepared(dataset.points)))
    noise = set(np.flatnonzero(dataset.labels == 0).tolist())
    flagged = set(out.outliers.tolist())
    assert noise, "spec should inject noise"
    covered = len(noise & flagged) / len(noise)
    assert covered >= 0.8
