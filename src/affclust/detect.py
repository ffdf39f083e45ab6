"""Sequential cluster detection with incremental centroids and point shifting.

The scan walks points in input order. A point that is still unassigned opens
a new cluster and immediately sweeps the whole dataset once: unassigned
points join when their affinity to the (moving) centroid clears the cutoff,
and already-assigned points defect when the new centroid is strictly closer
than their current one. Decisions at position j always use the centroids as
they stand when j is reached, so every add or shift changes what later
points see. Singleton clusters are peeled off afterwards as outliers.

The sweep is evaluated in windows of squared distances, gap2, to the open
centroid, each compared with a per-point bar: an assigned point's cached
distance to its own centroid, refreshed only for clusters whose centroid
moved, or an unassigned point's join bar, the affinity model's bar g*
(its upper end, below). Neither changes a decision: a squared distance is
always the row-wise einsum of z - c, whose value for a row does not depend
on which other rows share the call, and gap2 < g* is the affinity test
itself. A window with no hit is skipped and the next one is twice as wide.
After a window's first hit, its later rows keep the decision their gap2
gives while a certified bound on how far the joins since have moved the
centroid cannot overturn it; only the rows near their bar are recomputed,
one at a time. So a pass costs about one O(n * d) scan, one add_point per
join, and a window per shift or per spent drift budget.

The model's join bar is an interval when it was built on the product
geometry: g* at both ends of the dispersion interval, which holds the exact
run's g*. Hits are found under the upper end, but an unassigned point joins
only when its gap2 certainly lies below the lower end; a gap2 between the
two raises Uncertain, and the caller reruns from the exact geometry. Below
the lower end, or from the upper end up, every g* in the interval takes the
same decision, so the joins are the exact run's.

Most noise points open a cluster whose pass cannot move anything, and such a
pass is skipped. Every bar is current when a pass starts, and the centroid of
a cluster holding only point i is z_i exactly, so if no point j has gap2_j
below bar[j] there, the first window hit never comes and the pass changes
nothing. That is certain once the model's floor[i], a lower bound on every
gap2_j of that pass, is at least max(bar). Point i's own bar is 0.0, so the
cluster stays a singleton for good and is peeled off as an outlier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .preprocess import _U, AffinityModel, NormalizedData, Uncertain

# Width of the first window a sweep tests.
_FIRST_WINDOW = 32
# The drift budget of a window, as a share of the join radius sqrt(g*).
_BUDGET = 0.5
# Absolute slack of the drift bound, for squares and coordinates that underflow.
_TINY = 2.0**-500


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
    which point i shifts to it, or may join it: the upper join bar while i
    is unassigned, 0.0 if it opened the open cluster, else its squared
    distance to its own centroid. add_point and remove_point leave it
    alone; the scan sets it and calls refresh_bar for every centroid it
    moved.

    members[k] lists cluster k's points in no particular order, so a refresh
    touches only the cluster's rows, and its length is the cluster's size.
    """

    def __init__(self, points: np.ndarray):
        n, d = points.shape
        self.points = points
        self.assignment = np.zeros(n, dtype=np.int64)
        self.centroids = np.zeros((n + 1, d))
        self.members: list[list[int]] = [[]]
        self.bar = np.zeros(n)
        self.opened = 0

    @property
    def sizes(self) -> np.ndarray:
        """sizes[k] is the size of cluster k, for the ids 0..opened."""
        return np.array([len(rows) for rows in self.members], dtype=np.int64)

    def open_cluster(self, i: int) -> int:
        self.opened += 1
        k = self.opened
        self.assignment[i] = k
        self.centroids[k] = self.points[i]
        self.members.append([i])
        return k

    def add_point(self, k: int, j: int) -> None:
        rows = self.members[k]
        s = len(rows)
        c = self.centroids[k]  # the docstring's update in place: same steps, same rounding
        c *= s
        c += self.points[j]
        c /= s + 1
        self.assignment[j] = k
        rows.append(j)

    def remove_point(self, j: int) -> int:
        k = int(self.assignment[j])
        rows = self.members[k]
        s = len(rows)
        if s <= 1:
            # last member leaves: the cluster ceases to exist
            self.centroids[k] = 0.0
        else:
            c = self.centroids[k]
            c *= s
            c -= self.points[j]
            c /= s - 1
        self.assignment[j] = 0
        rows.remove(j)
        return k

    def refresh_bar(self, k: int) -> None:
        # a row's einsum does not depend on the other rows: any order gives the same bits
        rows = np.array(self.members[k], dtype=np.intp)
        diff = self.points[rows] - self.centroids[k]
        self.bar[rows] = np.einsum("ij,ij->i", diff, diff)

    def finalize(self) -> Clustering:
        """Drop clusters emptied by shifting and compact ids to 1..p."""
        sizes = self.sizes
        keep = np.flatnonzero(sizes[1:] > 0) + 1
        return Clustering(assignment=relabel(self.assignment, keep), sizes=sizes[keep])


def _absorb_pass(state: ClusterState, k: int, budget: float, join: float) -> None:
    """One full sweep on behalf of freshly opened cluster k.

    Semantically a plain j = 1..n loop. Between two joins only k's centroid
    changes, so positions are tested in windows: gap2 holds the window's
    squared distances to c0, k's centroid when the window starts. A window
    with no hit, gap2 < bar, is skipped and the next one is twice as wide.
    The first hit is exact and is applied; the rows after it are decided as
    below until the window ends, and a window that ran to its end is
    followed by one twice as wide. The point that opened k has bar 0.0: its
    own distance is gap2 itself, so the strict shift test could not pass.
    Points that join k fall behind the scan and keep stale bars until the
    sweep ends and refreshes k's. A shift refreshes the donor's at once, so
    it ends the window, and the scan resumes right after it.

    An unassigned row's bar is the upper join bar; join is the lower one.
    Such a row joins when its gap2 against the centroid it meets is below
    join, and raises Uncertain when that gap2 is a hit but not below join.
    An assigned row's lower bar is its bar. Below, "moves" is certain
    against the lower bar and "does not move" against the upper one.

    Let g = gap2_j and b = bar[j] for a later row j, and c_t k's centroid
    after t joins in this window, with |c_t - c0| <= D. The einsum rounds
    d differences and sums d squares, so with gamma = gamma_(d+2) (as in
    preprocess._skip_floor) and a = d 2^-1074 for squares that underflow,
    g is within gamma delta0^2 + a of delta0^2, the exact squared distance
    from z_j to c0, and production's gap2 against c_t within gamma
    deltat^2 + a of deltat^2, where |deltat - delta0| <= D. For gamma <= 1/2
    that gives, exactly,

        j does not move  once  sqrt(g) (1 - gamma) - sqrt(b) (1 + gamma) >= D + 3 sqrt(a),
        j moves          once  sqrt(b) (1 - gamma) - sqrt(g) (1 + gamma) >  D + 3 sqrt(a).

    The scan evaluates both left sides with eps = (d + 8) u (u = 2^-53) in
    place of gamma: gamma_(d+2) <= (d + 3) u below d = 10^7, and 3 u more
    cover the rounded square roots and products, so their roundings can
    only shrink a computed margin. A row for which neither holds is
    recomputed exactly, with the einsum of its one row against c_t.

    D starts at 0 and grows at each join of a point j to a cluster of s
    points. add_point rounds three times, so the new centroid lies within
    3.0001 u (|c_t| + |z_j|) of the exact mean, which is |z_j - c_t| / (s +
    1) <= (delta0 + D) / (s + 1) from c_t. With A = sqrt(g) (1 + eps) >=
    delta0 - 1.5 sqrt(a), |c_t| <= |c0| + D and |z_j| <= |c0| + delta0,

        D' = (D + (A + D) / (s + 1) + 4 u (2 |c0| + D + A) + 2^-500) (1 + 16 u).

    2^-500 exceeds 5 sqrt(a) below d = 2^64: the underflow terms above and
    those of centroid coordinates that underflow. The factor covers the
    nine roundings of evaluating D', all of positive terms, and the one of
    the subtraction D is compared with, so the computed D' bounds the true
    drift with room for both.

    In Python the scan walks only the window's candidates: rows whose
    computed sqrt(g) (1 - eps) - sqrt(b) (1 + eps) is at most budget, a
    fixed share of sqrt(g*). Every other row keeps its decision, not to
    move, while D < budget, and a join that brings D to budget ends the
    window.
    """
    z = state.points
    n, d = z.shape
    assignment = state.assignment
    bar = state.bar
    centroid = state.centroids[k]  # a view: add_point moves it in place
    members = state.members[k]
    low, high = 1.0 - (d + 8) * _U, 1.0 + (d + 8) * _U  # 1 -+ eps
    grow = 1.0 + 16.0 * _U
    join_root = math.sqrt(join)
    j = 0
    width = _FIRST_WINDOW
    while j < n:
        stop = min(j + width, n)
        diff = z[j:stop] - centroid
        gap2 = np.einsum("ij,ij->i", diff, diff)
        hits = gap2 < bar[j:stop]
        pos = int(hits.argmax())
        if not hits[pos]:
            j = stop
            width *= 2
            continue
        j += pos
        root = np.sqrt(gap2[pos:])
        bar_root = np.sqrt(bar[j:stop])
        rows = np.flatnonzero(root * low - bar_root * high <= budget)
        span = 2.0 * math.sqrt(centroid @ centroid)  # 2 |c0|
        s = len(members)
        drift = 0.0
        resume = stop
        for r, a, b in zip(rows.tolist(), root[rows].tolist(), bar_root[rows].tolist()):
            jj = j + r
            donor = assignment[jj]
            if not drift:  # 0.0 only at rows[0], the window's first hit
                if not (donor or gap2[pos] < join):
                    raise Uncertain("a gap2 lies between the join bars")
            elif a * low - b * high > drift:
                continue
            elif (b if donor else join_root) * low - a * high <= drift:
                diff = z[jj : jj + 1] - centroid
                gap = np.einsum("ij,ij->i", diff, diff)[0]
                if not gap < bar[jj]:
                    continue
                if not (donor or gap < join):
                    raise Uncertain("a gap2 lies between the join bars")
            if donor:
                state.remove_point(jj)
                state.refresh_bar(donor)
                state.add_point(k, jj)
                resume = jj + 1
                break
            state.add_point(k, jj)
            a *= high
            drift = (drift + (a + drift) / (s + 1) + 4.0 * _U * (span + drift + a) + _TINY) * grow
            s += 1
            if drift >= budget:
                resume = jj + 1
                break
        if resume == stop:
            width *= 2
        j = resume
    state.refresh_bar(k)


def _sweep(z: np.ndarray, model: AffinityModel) -> ClusterState:
    """Open a cluster at every point still unassigned, in order, and sweep.

    A pass is skipped when point i's floor is at least every bar: no point
    can join or shift to the singleton, so the pass would change nothing.
    The cluster is still opened, so the counts of opened clusters agree.
    """
    join, upper = model.bar
    state = ClusterState(z)
    state.bar.fill(upper)
    budget = _BUDGET * math.sqrt(upper)
    for i in range(z.shape[0]):
        if state.assignment[i] == 0:
            k = state.open_cluster(i)
            state.bar[i] = 0.0
            if model.floor[i] < state.bar.max():
                _absorb_pass(state, k, budget, join)
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
