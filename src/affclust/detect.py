"""Sequential cluster detection with incremental centroids and point shifting.

The scan walks points in input order. A point that is still unassigned opens
a new cluster and immediately sweeps the whole dataset once: unassigned
points join when their affinity to the (moving) centroid clears the cutoff,
and already-assigned points defect when the new centroid is strictly closer
than their current one. Decisions at position j always use the centroids as
they stand when j is reached, so every add or shift changes what later
points see. Singleton clusters are peeled off afterwards as outliers.

The sweep is evaluated in windows that double while they hold no hit and
shrink after one, so finding the next hit costs about the distance to it
rather than the length of the remaining data. A window is one comparison
of squared distances against a per-point bar: an assigned point's cached
distance to its own centroid, refreshed only for clusters whose centroid
moved, or an unassigned point's join bar, the affinity model's bar g*.
Neither changes a decision: a squared distance is always the row-wise einsum
of z - c, whose value for a row does not depend on which other rows share
the call, and gap2 < g* is the affinity test itself.

Most noise points open a cluster whose pass cannot move anything, and such a
pass is skipped. Every bar is current when a pass starts, and the centroid of
a cluster holding only point i is z_i exactly, so if no point j has gap2_j
below bar[j] there, the first window hit never comes and the pass changes
nothing. That is certain once the model's floor[i], a lower bound on every
gap2_j of that pass, is at least max(bar). Point i's own bar is 0.0, so the
cluster stays a singleton for good and is peeled off as an outlier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .preprocess import AffinityModel, NormalizedData

# Width of the first window a sweep tests, and the narrowest it shrinks to.
_FIRST_WINDOW = 32


@dataclass
class Clustering:
    """A hard assignment of points to clusters.

    assignment holds 1-based cluster ids, with 0 marking unassigned or
    outlier points. sizes[k-1] is the size of cluster k.
    outliers lists the (0-based) point indices removed as singletons; it is
    empty until extract_outliers has run.
    """

    assignment: np.ndarray
    sizes: np.ndarray
    outliers: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def cluster_count(self) -> int:
        return self.sizes.size


def relabel(assignment: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Renumber the ids in keep to 1..p, in keep's order; every other id becomes 0.

    Returns a fresh array.
    """
    top = max(int(assignment.max(initial=0)), int(np.max(keep, initial=0)))
    remap = np.zeros(top + 1, dtype=np.int64)
    remap[keep] = np.arange(1, len(keep) + 1)
    return remap[assignment]


class ClusterState:
    """Mutable working state for the detection scan.

    Centroids are maintained incrementally: adding point j to a cluster of
    size s moves the centroid to (s * c + z_j) / (s + 1), removal is the
    inverse. Cluster ids start at 1; row 0 of the centroid table is a
    sentinel so assignment values can index it directly.

    bar[i] is the squared distance to the open cluster's centroid below
    which point i joins or shifts to it: the join bar g* while i is
    unassigned, 0.0 if it opened the open cluster, else its squared distance
    to its own centroid. add_point and remove_point leave it alone; the scan
    sets it and calls refresh_bar for every centroid it moved.

    members[k] lists cluster k's points in no particular order, so a refresh
    touches only the cluster's rows.
    """

    def __init__(self, points: np.ndarray):
        n, d = points.shape
        self.points = points
        self.assignment = np.zeros(n, dtype=np.int64)
        self.centroids = np.zeros((n + 1, d))
        self.sizes = np.zeros(n + 1, dtype=np.int64)
        self.members: list[list[int]] = [[]]
        self.bar = np.zeros(n)
        self.opened = 0

    def open_cluster(self, i: int) -> int:
        self.opened += 1
        k = self.opened
        self.assignment[i] = k
        self.sizes[k] = 1
        self.centroids[k] = self.points[i]
        self.members.append([i])
        return k

    def add_point(self, k: int, j: int) -> None:
        s = int(self.sizes[k])
        c = self.centroids[k]  # the docstring's update in place: same steps, same rounding
        c *= s
        c += self.points[j]
        c /= s + 1
        self.sizes[k] = s + 1
        self.assignment[j] = k
        self.members[k].append(j)

    def remove_point(self, j: int) -> int:
        k = int(self.assignment[j])
        s = int(self.sizes[k])
        if s <= 1:
            # last member leaves: the cluster ceases to exist
            self.centroids[k] = 0.0
            self.sizes[k] = 0
        else:
            c = self.centroids[k]
            c *= s
            c -= self.points[j]
            c /= s - 1
            self.sizes[k] = s - 1
        self.assignment[j] = 0
        self.members[k].remove(j)
        return k

    def refresh_bar(self, k: int) -> None:
        # a row's einsum does not depend on the other rows: any order gives the same bits
        rows = np.array(self.members[k], dtype=np.intp)
        diff = self.points[rows] - self.centroids[k]
        self.bar[rows] = np.einsum("ij,ij->i", diff, diff)

    def finalize(self) -> Clustering:
        """Drop clusters emptied by shifting and compact ids to 1..p."""
        keep = np.flatnonzero(self.sizes[1 : self.opened + 1] > 0) + 1
        return Clustering(assignment=relabel(self.assignment, keep), sizes=self.sizes[keep])


def _absorb_pass(state: ClusterState, k: int) -> None:
    """One full sweep on behalf of freshly opened cluster k.

    Semantically a plain j = 1..n loop. Between two modifications nothing
    changes, so positions are tested in vectorized windows: a window with no
    hit is skipped and the next one is twice as wide, a hit is applied and
    the scan resumes right after it with a narrower window. Each window is
    one comparison, gap2 < bar. The point that opened k has bar 0.0: its
    own distance is gap2 itself, so the strict shift test could not pass.
    Points that join k fall behind the scan and keep stale bars until the
    sweep ends and refreshes k's; a shift refreshes the donor's at once.
    """
    z = state.points
    n = z.shape[0]
    assignment = state.assignment
    bar = state.bar
    j = 0
    width = _FIRST_WINDOW
    while j < n:
        stop = min(j + width, n)
        diff = z[j:stop] - state.centroids[k]
        hits = np.einsum("ij,ij->i", diff, diff) < bar[j:stop]
        pos = hits.argmax()
        if not hits[pos]:
            j = stop
            width *= 2
            continue
        jj = j + int(pos)
        donor = int(assignment[jj])
        if donor != 0:
            state.remove_point(jj)
            state.refresh_bar(donor)
        state.add_point(k, jj)
        j = jj + 1
        width = max(_FIRST_WINDOW, width // 2)
    state.refresh_bar(k)


def _sweep(z: np.ndarray, model: AffinityModel) -> ClusterState:
    """Open a cluster at every point still unassigned, in order, and sweep.

    A pass is skipped when point i's floor is at least every bar: no point
    can join or shift to the singleton, so the pass would change nothing.
    The cluster is still opened, so the counts of opened clusters agree.
    """
    state = ClusterState(z)
    state.bar.fill(model.bar)
    for i in range(z.shape[0]):
        if state.assignment[i] == 0:
            k = state.open_cluster(i)
            state.bar[i] = 0.0
            if model.floor[i] < state.bar.max():
                _absorb_pass(state, k)
    return state


def find_clusters(normalized: NormalizedData, model: AffinityModel | None) -> Clustering:
    """Run the full detection scan and return the compacted clustering.

    A model of None means every point coincides (normalize maps them all to
    zero), so the result degenerates to a single cluster. The scan itself is
    strictly single-threaded and deterministic.
    """
    z = normalized.values
    n = z.shape[0]
    if n < 2:
        raise ValueError("clustering needs at least 2 points")
    if model is None:
        if z.any():
            raise ValueError("affinity model is required unless every point is identical")
        return Clustering(
            assignment=np.ones(n, dtype=np.int64), sizes=np.array([n], dtype=np.int64)
        )

    return _sweep(z, model).finalize()


def extract_outliers(clustering: Clustering) -> Clustering:
    """Remove singleton clusters, reporting their points as outliers.

    Surviving clusters are renumbered 1..p in detection order. When every
    cluster is a singleton the result has zero clusters and every point
    flagged; callers treat that as degenerate.
    """
    sizes = clustering.sizes
    keep = np.flatnonzero(sizes > 1) + 1
    assignment = relabel(clustering.assignment, keep)
    # the points relabel zeroed that were not already unassigned
    outliers = np.flatnonzero((assignment == 0) & (clustering.assignment != 0))
    return Clustering(assignment=assignment, sizes=sizes[keep - 1], outliers=outliers)
