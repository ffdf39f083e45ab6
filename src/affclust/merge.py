"""Cluster-count estimation and cost-checked greedy merging.

Detection tends to oversplit: one geometric cluster often comes out as a
handful of fragments plus one dominant core. The size distribution exposes
this, so the target count is read off the sorted sizes, the closest centroid
pairs are merged down to that target, and the whole merged result is kept
only if it does not increase the size-normalized within-cluster cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detect import Clustering, relabel
from .errors import DegenerateDataError
from .preprocess import NormalizedData, pairwise_distances


@dataclass
class MergePlan:
    """Outcome of the merge phase.

    merge_steps records, in order, the (smaller id, larger id) pairs that
    were fused; ids refer to the pre-merge clustering. When accepted is
    False the merged partition lost the cost comparison and final_assignment
    is exactly the pre-merge assignment.
    """

    initial_count: int
    estimated_count: int
    merge_steps: list[tuple[int, int]] = field(default_factory=list)
    cost_before: float = 0.0
    cost_after: float = 0.0
    accepted: bool = True
    final_assignment: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def final_count(self) -> int:
        return self.estimated_count if self.accepted else self.initial_count


def _group_stats(values: np.ndarray, assignment: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact member means and sizes for cluster ids 1..p (id 0 excluded)."""
    p = int(assignment.max(initial=0))
    if p == 0:
        raise DegenerateDataError("no clusters to evaluate: every point is an outlier")
    sizes = np.bincount(assignment, minlength=p + 1)[1:]
    if (sizes == 0).any():
        raise ValueError("assignment ids must be contiguous 1..p")
    mask = assignment > 0
    ids = assignment[mask] - 1
    members = values[mask]
    # bincount adds each column's weights in index order, as np.add.at would
    centroids = np.empty((p, values.shape[1]))
    for col in range(values.shape[1]):
        centroids[:, col] = np.bincount(ids, weights=members[:, col], minlength=p)
    centroids /= sizes[:, None]
    return centroids, sizes


def normalized_within_cost(values: np.ndarray, assignment: np.ndarray) -> float:
    """Within-cluster squared deviation with each cluster weighted by 1/size.

    The 1/s weighting makes small tight fragments cheap and bloated merged
    clusters expensive, which is what lets the merge verdict discriminate
    between undoing oversplits and gluing true clusters together.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    return _within_cost(values, assignment, *_group_stats(values, assignment))


def _within_cost(
    values: np.ndarray, assignment: np.ndarray, centroids: np.ndarray, sizes: np.ndarray
) -> float:
    """normalized_within_cost for an int64 assignment, given its exact group stats."""
    mask = assignment > 0
    ids = assignment[mask] - 1
    diff = values[mask] - centroids[ids]
    return float(((diff * diff).sum(axis=1) / sizes[ids]).sum())


def estimate_cluster_count(sizes) -> int:
    """Read the natural cluster count off a descending size distribution.

    Returns the smallest k (2 <= k <= p) at which the size-weighted gap of
    the k-1 larger clusters above size s_k exceeds the size-weighted gap of
    the p-k smaller clusters below it; if no k qualifies (all sizes equal)
    the distribution carries no merge signal and p itself is returned.
    Integer arithmetic throughout, so ties and scaling behave exactly.
    """
    s = [int(v) for v in sizes]
    if not s:
        raise ValueError("need at least one cluster size")
    if any(v <= 0 for v in s):
        raise ValueError("cluster sizes must be positive")
    if any(s[i] < s[i + 1] for i in range(len(s) - 1)):
        raise ValueError("sizes must be sorted in descending order")
    p = len(s)
    # Running sums of s and s^2 over the k-1 larger clusters, and totals,
    # turn both gap sums into O(1) updates:
    #   above = sum(s_i^2) - s_k * sum(s_i) over the larger clusters,
    #   below = s_k * sum(s_j) - sum(s_j^2) over the smaller ones.
    total1 = sum(s)
    total2 = sum(v * v for v in s)
    head1 = head2 = 0
    for k in range(2, p + 1):
        head1 += s[k - 2]
        head2 += s[k - 2] * s[k - 2]
        sk = s[k - 1]
        above = head2 - sk * head1
        below = sk * (total1 - head1 - sk) - (total2 - head2 - sk * sk)
        if above > below:
            return k
    return p


def merge_clusters(
    normalized: NormalizedData,
    clustering: Clustering,
    k_target: int,
) -> MergePlan:
    """Greedily merge the closest centroid pairs down to k_target clusters.

    Each step fuses the currently closest pair (ties broken toward the
    lexicographically smallest id pair); the merged centroid is the
    size-weighted mean. The merged partition is accepted only if its
    normalized within-cost does not exceed the pre-merge cost, otherwise
    the original clustering stands.
    """
    values = normalized.values
    p = clustering.cluster_count
    if p == 0:
        raise DegenerateDataError("cannot merge an empty clustering")
    if not 1 <= k_target <= p:
        raise ValueError(f"merge target {k_target} outside valid range 1..{p}")

    base = clustering.assignment.astype(np.int64, copy=True)
    cent, sz = _group_stats(values, base)
    cost_before = _within_cost(values, base, cent, sz)  # before the loop moves cent and sz
    active = np.ones(p, dtype=bool)
    dist = pairwise_distances(cent, cent)
    np.fill_diagonal(dist, np.inf)

    work = base.copy()
    steps: list[tuple[int, int]] = []
    for _ in range(p - k_target):
        # row-major argmin lands on the smallest (a, b) with a < b among ties
        a, b = divmod(int(np.argmin(dist)), p)
        steps.append((a + 1, b + 1))
        cent[a] = (sz[a] * cent[a] + sz[b] * cent[b]) / (sz[a] + sz[b])
        sz[a] += sz[b]
        active[b] = False
        dist[b, :] = np.inf
        dist[:, b] = np.inf
        work[work == b + 1] = a + 1
        alive = np.flatnonzero(active)
        row = np.sqrt(((cent[alive] - cent[a]) ** 2).sum(axis=1))
        dist[a, alive] = row
        dist[alive, a] = row
        dist[a, a] = np.inf

    if steps:
        merged = relabel(work, np.flatnonzero(active) + 1)
        cost_after = normalized_within_cost(values, merged)
    else:  # the partition is base itself, so its cost is cost_before's bits
        merged, cost_after = base, cost_before
    accepted = cost_after <= cost_before
    return MergePlan(
        initial_count=p,
        estimated_count=k_target,
        merge_steps=steps,
        cost_before=cost_before,
        cost_after=cost_after,
        accepted=accepted,
        final_assignment=merged if accepted else base,
    )


def report_cluster_count(plan: MergePlan, n_points: int) -> int | None:
    """Final cluster count, or None when it exceeds sqrt(n) and is unreliable.

    A partition with more than sqrt(n) clusters means the detector found
    structure too fine to trust; such runs report no count at all. The
    comparison is exact: count * count > n, so count == sqrt(n) still passes.
    """
    count = plan.final_count
    if count * count > n_points:
        return None
    return count
