"""Merge phase: count estimation, greedy merging, cost verdict, na reporting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affclust.detect import Clustering
from affclust.errors import DegenerateDataError
from affclust.merge import (
    MergePlan,
    estimate_cluster_count,
    merge_clusters,
    normalized_within_cost,
    report_cluster_count,
)
from affclust.preprocess import NormalizedData


def nd(rows):
    z = np.asarray(rows, dtype=np.float64)
    return NormalizedData(values=z, column_means=z.mean(0), column_stds=z.std(0))


def clustering_from(assignment):
    assignment = np.asarray(assignment, dtype=np.int64)
    p = assignment.max()
    sizes = np.bincount(assignment, minlength=p + 1)[1:]
    return Clustering(assignment=assignment, sizes=sizes)


def estimate_oracle(sizes):
    # independent form: left sum runs over i = 1..k, the i = k term being zero
    s = np.asarray(sizes, dtype=np.int64)
    p = s.size
    satisfying = [
        k for k in range(2, p + 1)
        if ((s[:k] - s[k - 1]) * s[:k]).sum() > ((s[k - 1] - s[k:]) * s[k:]).sum()
    ]
    return min(satisfying) if satisfying else p


# ---------------------------------------------------------------------------
# count estimation

def test_equal_sizes_propose_no_merge():
    assert estimate_cluster_count([5, 5, 5]) == 3


def test_hand_evaluated_gap_inequality():
    # k=2: above = (10-9)*10 = 10, below = (9-1)*1 = 8, so 2 wins
    assert estimate_cluster_count([10, 9, 1]) == 2


def test_dominant_cluster_is_split_off_early():
    assert estimate_cluster_count([100, 5, 4]) == 2


def test_single_cluster_estimates_one():
    assert estimate_cluster_count([7]) == 1


def test_estimate_matches_brute_force_oracle():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        p = int(rng.integers(1, 21))
        sizes = np.sort(rng.integers(1, 10_000, size=p))[::-1]
        assert estimate_cluster_count(sizes) == estimate_oracle(sizes)


def test_estimate_rejects_bad_input():
    with pytest.raises(ValueError):
        estimate_cluster_count([])
    with pytest.raises(ValueError):
        estimate_cluster_count([3, 5])  # ascending
    with pytest.raises(ValueError):
        estimate_cluster_count([4, 0])


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(1, 500), min_size=1, max_size=15),
    st.integers(2, 9),
)
def test_estimate_is_scale_invariant(raw, factor):
    sizes = sorted(raw, reverse=True)
    scaled = [s * factor for s in sizes]
    assert estimate_cluster_count(scaled) == estimate_cluster_count(sizes)


# ---------------------------------------------------------------------------
# cost functions

def test_two_point_cluster_costs():
    z = nd([[0.0, 0.0], [2.0, 0.0]])
    assignment = [1, 1]
    assert normalized_within_cost(z.values, assignment) == pytest.approx(1.0)


def test_singleton_clusters_cost_nothing():
    z = nd([[1.0], [5.0], [9.0]])
    assert normalized_within_cost(z.values, [1, 2, 3]) == 0.0


def test_costs_match_explicit_loops():
    rng = np.random.default_rng(19)
    values = rng.normal(size=(30, 3))
    assignment = rng.integers(1, 5, size=30)
    while np.unique(assignment).size < 4:  # keep ids contiguous
        assignment = rng.integers(1, 5, size=30)
    ssw = 0.0
    w = 0.0
    for k in range(1, 5):
        members = values[assignment == k]
        centroid = members.mean(axis=0)
        dev = ((members - centroid) ** 2).sum()
        ssw += dev
        w += dev / len(members)
    assert normalized_within_cost(values, assignment) == pytest.approx(w, abs=1e-12)
    assert w <= ssw


def test_outlier_points_are_excluded_from_costs():
    z = nd([[0.0], [2.0], [500.0]])
    with_outlier = normalized_within_cost(z.values, [1, 1, 0])
    without = normalized_within_cost(z.values[:2], [1, 1])
    assert with_outlier == pytest.approx(without)


def test_cost_requires_some_cluster():
    with pytest.raises(DegenerateDataError):
        normalized_within_cost(np.zeros((3, 2)), [0, 0, 0])


def test_cost_rejects_gapped_ids():
    with pytest.raises(ValueError):
        normalized_within_cost(np.zeros((3, 2)), [1, 3, 3])


# ---------------------------------------------------------------------------
# greedy merging

def test_identity_merge_keeps_everything():
    z = nd([[0.0], [0.1], [5.0], [5.1]])
    clustering = clustering_from([1, 1, 2, 2])
    plan = merge_clusters(z, clustering, 2)
    assert plan.merge_steps == []
    assert plan.accepted
    assert plan.cost_after == plan.cost_before
    assert np.array_equal(plan.final_assignment, clustering.assignment)
    assert plan.final_count == 2


def test_closest_pair_merges_first():
    # 1-d clusters at 0, 1, 10, 20: the 0/1 pair is closest
    z = nd([[0.0], [1.0], [10.0], [20.0]])
    clustering = clustering_from([1, 2, 3, 4])
    plan = merge_clusters(z, clustering, 3)
    assert plan.merge_steps == [(1, 2)]


def test_greedy_sequence_matches_recomputed_distances():
    rng = np.random.default_rng(37)
    values = rng.uniform(-10, 10, size=(18, 2))
    assignment = np.repeat(np.arange(1, 7), 3)
    clustering = clustering_from(assignment)
    plan = merge_clusters(nd(values), clustering, 2)
    assert len(plan.merge_steps) == 4

    # replay: recompute all pairwise centroid distances from scratch per step
    groups = {k: list(np.flatnonzero(assignment == k)) for k in range(1, 7)}
    for a, b in plan.merge_steps:
        cents = {k: values[m].mean(axis=0) for k, m in groups.items()}
        best = None
        best_d = None
        for i in sorted(groups):
            for j in sorted(groups):
                if i >= j:
                    continue
                d = float(np.sqrt(((cents[i] - cents[j]) ** 2).sum()))
                if best_d is None or d < best_d:
                    best, best_d = (i, j), d
        assert (a, b) == best
        groups[a] = groups[a] + groups[b]
        del groups[b]


def test_distance_ties_break_lexicographically():
    # unit square of centroids: four side pairs tie at distance 2
    pts = []
    for corner in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
        pts.extend([corner, corner])
    z = nd(pts)
    clustering = clustering_from([1, 1, 2, 2, 3, 3, 4, 4])
    plan = merge_clusters(z, clustering, 2)
    assert plan.merge_steps[0] == (1, 2)
    assert plan.merge_steps[1] == (3, 4)


def test_fragment_reabsorption_is_accepted():
    rng = np.random.default_rng(41)
    blob = rng.normal(size=(40, 2))
    far = rng.normal(size=(40, 2)) + 50.0
    values = np.vstack([blob, far])
    # split the first blob artificially in two: merging it back lowers cost
    assignment = np.array([1] * 20 + [2] * 20 + [3] * 40)
    plan = merge_clusters(nd(values), clustering_from(assignment), 2)
    assert plan.merge_steps == [(1, 2)]
    assert plan.accepted
    assert plan.cost_after <= plan.cost_before
    assert plan.final_count == 2


def test_gluing_real_clusters_is_discarded():
    rng = np.random.default_rng(43)
    values = np.vstack([
        rng.normal(size=(30, 2)),
        rng.normal(size=(30, 2)) + 30.0,
        rng.normal(size=(30, 2)) - 30.0,
    ])
    assignment = np.repeat([1, 2, 3], 30)
    clustering = clustering_from(assignment)
    plan = merge_clusters(nd(values), clustering, 1)
    assert not plan.accepted
    assert plan.final_count == 3
    assert np.array_equal(plan.final_assignment, assignment)


def test_cost_after_matches_independent_recomputation():
    rng = np.random.default_rng(47)
    values = rng.uniform(-5, 5, size=(24, 3))
    assignment = np.repeat(np.arange(1, 9), 3)
    plan = merge_clusters(nd(values), clustering_from(assignment), 4)
    if plan.accepted:
        final = plan.final_assignment
    else:
        # reconstruct the merged partition from the recorded steps
        final = assignment.copy()
        for a, b in plan.merge_steps:
            final[final == b] = a
        _, final = np.unique(final, return_inverse=True)
        final = final + 1
    w = 0.0
    for k in np.unique(final):
        members = values[final == k]
        w += ((members - members.mean(axis=0)) ** 2).sum() / len(members)
    assert plan.cost_after == pytest.approx(w, abs=1e-12)


def test_outliers_stay_out_of_the_merge():
    values = np.array([[0.0], [0.2], [5.0], [5.2], [99.0]])
    assignment = np.array([1, 1, 2, 2, 0])
    plan = merge_clusters(nd(values), clustering_from(assignment), 1)
    assert plan.merge_steps == [(1, 2)]
    assert plan.final_assignment[4] == 0


def test_merged_assignment_ids_are_contiguous():
    rng = np.random.default_rng(53)
    values = rng.normal(size=(20, 2)) * 20
    assignment = np.repeat(np.arange(1, 6), 4)
    plan = merge_clusters(nd(values), clustering_from(assignment), 2)
    ids = np.unique(plan.final_assignment)
    assert ids.tolist() == list(range(1, plan.final_count + 1))


def test_target_outside_range_is_rejected():
    z = nd([[0.0], [1.0], [10.0], [11.0]])
    clustering = clustering_from([1, 1, 2, 2])
    with pytest.raises(ValueError):
        merge_clusters(z, clustering, 3)
    with pytest.raises(ValueError):
        merge_clusters(z, clustering, 0)


def test_empty_clustering_cannot_merge():
    z = nd([[0.0], [1.0]])
    empty = Clustering(
        assignment=np.zeros(2, dtype=np.int64),
        sizes=np.empty(0, dtype=np.int64),
    )
    with pytest.raises(DegenerateDataError):
        merge_clusters(z, empty, 1)


# ---------------------------------------------------------------------------
# count reporting

def plan_with_count(count):
    return MergePlan(initial_count=count, estimated_count=count)


def test_count_at_square_root_boundary_is_reported():
    assert report_cluster_count(plan_with_count(4), 16) == 4


def test_count_just_past_square_root_is_na():
    assert report_cluster_count(plan_with_count(4), 15) is None


def test_large_partition_is_na():
    assert report_cluster_count(plan_with_count(42), 1728) is None
    assert report_cluster_count(plan_with_count(41), 1728) == 41


def test_discarded_plan_reports_initial_count():
    plan = MergePlan(initial_count=9, estimated_count=4, accepted=False)
    assert plan.final_count == 9
    assert report_cluster_count(plan, 100) == 9
