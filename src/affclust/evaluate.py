"""External cluster validation against ground-truth labels.

All indices are pair-based: two points agree when both partitions co-cluster
them or both separate them. Id 0 marks outlier/noise points in either
vector; under the default policy such points count as singleton clusters so
both partitions stay total over the same point set, and under the exclude
policy the predicted-outlier points are dropped before counting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OUTLIER_POLICIES = ("singletons", "exclude")


@dataclass(frozen=True)
class PairCountTable:
    """2x2 agreement table over point pairs."""

    tp: int  # co-clustered in both
    fp: int  # co-clustered in predicted only
    fn: int  # co-clustered in truth only
    tn: int  # separated in both

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass
class EvalReport:
    """Quality indices plus the cluster-count verdict for one dataset."""

    ari: float
    jaccard: float
    f1: float
    predicted_k: int | None  # None when the run reported no reliable count
    truth_k: int
    exact_match: bool


def _prepare(predicted, truth, outlier_policy: str) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(predicted, dtype=np.int64)
    t = np.asarray(truth, dtype=np.int64)
    if p.ndim != 1 or p.shape != t.shape:
        raise ValueError("predicted and truth must be 1-d vectors of equal length")
    if outlier_policy not in OUTLIER_POLICIES:
        raise ValueError(f"unknown outlier policy {outlier_policy!r}")
    if outlier_policy == "exclude":
        keep = p != 0
        p = p[keep]
        t = t[keep]
    return _isolate_zeros(p), _isolate_zeros(t)


def _isolate_zeros(v: np.ndarray) -> np.ndarray:
    # each id-0 point becomes its own block, via unique negative ids
    out = v.copy()
    zero = np.flatnonzero(out == 0)
    out[zero] = -1 - np.arange(zero.size)
    return out


def _contingency(p: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pi = np.unique(p, return_inverse=True)[1]
    ti = np.unique(t, return_inverse=True)[1]
    n_t = int(ti.max(initial=-1)) + 1  # no points (all excluded): an empty table
    cells = np.bincount(pi * n_t + ti)
    return cells, np.bincount(pi), np.bincount(ti)


def _pairs(counts: np.ndarray) -> int:
    c = counts.astype(object)  # python ints: exact for any count
    return int((c * (c - 1) // 2).sum())


def pair_counts(predicted, truth, outlier_policy: str = "singletons") -> PairCountTable:
    """Classify every point pair by agreement between the two partitions."""
    p, t = _prepare(predicted, truth, outlier_policy)
    n = p.size
    cells, rows, cols = _contingency(p, t)
    tp = _pairs(cells)
    same_p = _pairs(rows)
    same_t = _pairs(cols)
    total = n * (n - 1) // 2
    fp = same_p - tp
    fn = same_t - tp
    return PairCountTable(tp=tp, fp=fp, fn=fn, tn=total - tp - fp - fn)


def adjusted_rand_index(table: PairCountTable) -> float:
    """Chance-corrected pair agreement, read off the pair-count table.

    The denominator is sum_rows * (total - sum_cols) + sum_cols * (total -
    sum_rows), which is zero only when both partitions are all singletons,
    both are one block, or there are fewer than two points: the partitions
    are identical and score 1. Sums are exact integers until the final
    division.
    """
    index = table.tp
    sum_rows = table.tp + table.fp  # pairs co-clustered in predicted
    sum_cols = table.tp + table.fn  # pairs co-clustered in truth
    total = table.total
    # ARI = (index - E) / (M - E), scaled by 2 * total to stay integral
    numer = 2 * total * index - 2 * sum_rows * sum_cols
    denom = total * (sum_rows + sum_cols) - 2 * sum_rows * sum_cols
    if denom == 0:
        return 1.0
    return numer / denom


def jaccard_index(table: PairCountTable) -> float:
    """tp / (tp + fp + fn); a zero denominator means both partitions are
    all singletons, hence identical, hence 1."""
    denom = table.tp + table.fp + table.fn
    if denom == 0:
        return 1.0
    return table.tp / denom


def pairwise_f1(table: PairCountTable) -> float:
    """Harmonic mean of pair precision and recall.

    fp == fn == 0 means the partitions agree on every pair (score 1, even
    when there are no co-clustered pairs at all); otherwise tp == 0 leaves
    no agreement to reward and scores 0.
    """
    if table.fp == 0 and table.fn == 0:
        return 1.0
    if table.tp == 0:
        return 0.0
    precision = table.tp / (table.tp + table.fp)
    recall = table.tp / (table.tp + table.fn)
    return 2.0 * precision * recall / (precision + recall)


def evaluate_clustering(
    predicted,
    truth,
    *,
    reported_count: int | None,
    truth_k: int | None = None,
    outlier_policy: str = "singletons",
) -> EvalReport:
    """Bundle all pair indices and the count verdict into one report.

    truth_k defaults to the number of distinct nonzero truth labels. A
    reported_count of None (no reliable count) never matches.
    """
    t = np.asarray(truth, dtype=np.int64)
    if truth_k is None:
        truth_k = int(np.unique(t[t != 0]).size)
    table = pair_counts(predicted, truth, outlier_policy)
    return EvalReport(
        ari=adjusted_rand_index(table),
        jaccard=jaccard_index(table),
        f1=pairwise_f1(table),
        predicted_k=reported_count,
        truth_k=truth_k,
        exact_match=reported_count is not None and reported_count == truth_k,
    )


def corpus_accuracy(reports: list[EvalReport]) -> float:
    """Percentage of reports whose predicted count matched exactly.

    Reports with no count (predicted_k None) count as misses. An empty
    list has no defined accuracy and is rejected.
    """
    if not reports:
        raise ValueError("corpus accuracy needs at least one report")
    matches = sum(1 for r in reports if r.exact_match)
    return 100.0 * matches / len(reports)
