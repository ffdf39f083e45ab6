"""External validation: pair counts, ARI, Jaccard, pairwise F1, accuracy."""

from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affclust.evaluate import (
    EvalReport,
    PairCountTable,
    adjusted_rand_index,
    corpus_accuracy,
    evaluate_clustering,
    jaccard_index,
    pair_counts,
    pairwise_f1,
)


def isolate(vec):
    """Mirror the outlier convention: each id-0 point becomes its own block."""
    out = list(vec)
    fresh = -1
    for i, v in enumerate(out):
        if v == 0:
            out[i] = fresh
            fresh -= 1
    return out


def table_oracle(pred, truth):
    pred = isolate(pred)
    truth = isolate(truth)
    tp = fp = fn = tn = 0
    for i, j in combinations(range(len(pred)), 2):
        same_p = pred[i] == pred[j]
        same_t = truth[i] == truth[j]
        if same_p and same_t:
            tp += 1
        elif same_p:
            fp += 1
        elif same_t:
            fn += 1
        else:
            tn += 1
    return PairCountTable(tp=tp, fp=fp, fn=fn, tn=tn)


def ari_oracle(pred, truth):
    pred = isolate(pred)
    truth = isolate(truth)
    n = len(pred)
    cells: dict[tuple[int, int], int] = {}
    rows: dict[int, int] = {}
    cols: dict[int, int] = {}
    for a, b in zip(pred, truth):
        cells[(a, b)] = cells.get((a, b), 0) + 1
        rows[a] = rows.get(a, 0) + 1
        cols[b] = cols.get(b, 0) + 1
    index = sum(comb(v, 2) for v in cells.values())
    sum_r = sum(comb(v, 2) for v in rows.values())
    sum_c = sum(comb(v, 2) for v in cols.values())
    total = comb(n, 2)
    expected = sum_r * sum_c / total
    maximum = (sum_r + sum_c) / 2
    if maximum == expected:
        blocks_p = {v: {i for i, x in enumerate(pred) if x == v} for v in set(pred)}
        blocks_t = {v: {i for i, x in enumerate(truth) if x == v} for v in set(truth)}
        same = set(map(frozenset, blocks_p.values())) == set(map(frozenset, blocks_t.values()))
        return 1.0 if same else 0.0
    return (index - expected) / (maximum - expected)


# ---------------------------------------------------------------------------
# pair counting

def test_identical_partitions_have_no_disagreeing_pairs():
    t = pair_counts([1, 1, 2, 2], [5, 5, 9, 9])
    assert t.fp == 0 and t.fn == 0
    assert t.tp == 2 and t.tn == 4


def test_hand_enumerated_four_point_table():
    t = pair_counts([1, 1, 2, 2], [1, 1, 1, 2])
    assert (t.tp, t.fp, t.fn, t.tn) == (1, 1, 2, 2)


def test_all_singleton_prediction_coclusters_nothing():
    t = pair_counts([1, 2, 3, 4], [1, 1, 2, 2])
    assert t.tp == 0 and t.fp == 0
    assert t.fn == 2


def test_table_total_is_all_pairs():
    rng = np.random.default_rng(3)
    pred = rng.integers(0, 4, size=12)
    truth = rng.integers(0, 3, size=12)
    t = pair_counts(pred, truth)
    assert t.total == 12 * 11 // 2


def test_predicted_outliers_count_as_singletons_by_default():
    # the two id-0 points would form a pair if zeros were a block
    t = pair_counts([0, 0, 1, 1], [1, 1, 2, 2])
    assert t.tp == 1  # only the pair inside cluster 1
    assert t.fp == 0


def test_truth_zeros_are_isolated_too():
    # grouping two noise points is not rewarded
    t = pair_counts([1, 1, 2, 2], [0, 0, 1, 1])
    assert t.tp == 1
    assert t.fp == 1


def test_exclude_policy_drops_predicted_outliers():
    t = pair_counts([0, 1, 1, 0], [1, 1, 1, 2], outlier_policy="exclude")
    assert t.total == 1  # only the two points predicted into cluster 1 remain
    assert t.tp == 1


def test_mismatched_lengths_are_rejected():
    with pytest.raises(ValueError):
        pair_counts([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pair_counts([1, 2], [1, 2], outlier_policy="drop")


# ---------------------------------------------------------------------------
# index formulas

def test_identical_partitions_score_one_everywhere():
    pred = [2, 2, 7, 7, 7, 1]
    truth = [5, 5, 1, 1, 1, 9]
    t = pair_counts(pred, truth)
    assert adjusted_rand_index(t) == 1.0
    assert jaccard_index(t) == 1.0
    assert pairwise_f1(t) == 1.0


def test_single_block_prediction_scores_zero_ari():
    assert adjusted_rand_index(pair_counts([1, 1, 1, 1], [1, 1, 2, 2])) == 0.0


def test_hand_enumerated_jaccard_and_f1():
    t = pair_counts([1, 1, 2, 2], [1, 1, 1, 2])
    assert jaccard_index(t) == pytest.approx(0.25)
    assert pairwise_f1(t) == pytest.approx(0.4)


def test_both_all_singletons_is_perfect_agreement():
    t = pair_counts([1, 2, 3], [4, 5, 6])
    assert jaccard_index(t) == 1.0
    assert pairwise_f1(t) == 1.0
    assert adjusted_rand_index(pair_counts([1, 2, 3], [4, 5, 6])) == 1.0


def test_singletons_versus_one_block_is_total_disagreement():
    pred = [1, 2, 3, 4]
    truth = [1, 1, 1, 1]
    t = pair_counts(pred, truth)
    assert jaccard_index(t) == 0.0
    assert pairwise_f1(t) == 0.0
    assert adjusted_rand_index(t) == 0.0


def test_indices_match_pair_enumeration_on_random_partitions():
    rng = np.random.default_rng(29)
    for _ in range(500):
        pred = rng.integers(0, 4, size=8).tolist()
        truth = rng.integers(0, 4, size=8).tolist()
        t = pair_counts(pred, truth)
        expect = table_oracle(pred, truth)
        assert (t.tp, t.fp, t.fn, t.tn) == (expect.tp, expect.fp, expect.fn, expect.tn)
        assert abs(adjusted_rand_index(t) - ari_oracle(pred, truth)) < 1e-12
        assert abs(jaccard_index(t) - jaccard_index(expect)) < 1e-12
        assert abs(pairwise_f1(t) - pairwise_f1(expect)) < 1e-12


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(1, 5), min_size=2, max_size=12),
    st.integers(0, 10_000),
)
def test_indices_ignore_label_names(raw, seed):
    rng = np.random.default_rng(seed)
    truth = rng.integers(1, 4, size=len(raw))
    relabel = {v: 100 - v for v in set(raw)}
    pred2 = [relabel[v] for v in raw]
    assert adjusted_rand_index(pair_counts(raw, truth)) == pytest.approx(
        adjusted_rand_index(pair_counts(pred2, truth)), abs=1e-12
    )
    t1, t2 = pair_counts(raw, truth), pair_counts(pred2, truth)
    assert (t1.tp, t1.fp, t1.fn, t1.tn) == (t2.tp, t2.fp, t2.fn, t2.tn)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_ari_and_jaccard_are_symmetric(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, size=10)
    b = rng.integers(0, 4, size=10)
    ta, tb = pair_counts(a, b), pair_counts(b, a)
    assert adjusted_rand_index(ta) == pytest.approx(adjusted_rand_index(tb), abs=1e-12)
    assert jaccard_index(ta) == pytest.approx(jaccard_index(tb), abs=1e-12)
    assert pairwise_f1(ta) == pytest.approx(pairwise_f1(tb), abs=1e-12)


def test_two_point_degenerate_vectors():
    assert adjusted_rand_index(pair_counts([1, 1], [1, 1])) == 1.0
    assert adjusted_rand_index(pair_counts([1, 1], [1, 2])) == 0.0
    assert adjusted_rand_index(pair_counts([1, 2], [1, 2])) == 1.0


# ---------------------------------------------------------------------------
# report bundling and corpus accuracy

def test_report_carries_all_indices():
    report = evaluate_clustering(
        [1, 1, 2, 2], [1, 1, 2, 2], reported_count=2
    )
    assert report.ari == 1.0 and report.jaccard == 1.0 and report.f1 == 1.0
    assert report.predicted_k == 2
    assert report.truth_k == 2
    assert report.exact_match


def test_truth_k_defaults_to_distinct_nonzero_labels():
    report = evaluate_clustering(
        [1, 1, 2, 2, 3], [4, 4, 9, 9, 0], reported_count=2
    )
    assert report.truth_k == 2
    assert report.exact_match


def test_exclude_policy_with_every_point_an_outlier_leaves_an_empty_table():
    table = pair_counts([0, 0, 0, 0], [1, 1, 2, 2], "exclude")
    assert (table.tp, table.fp, table.fn, table.tn) == (0, 0, 0, 0)
    report = evaluate_clustering(
        [0, 0, 0, 0], [1, 1, 2, 2], reported_count=0, outlier_policy="exclude"
    )
    assert (report.ari, report.jaccard, report.f1) == (1.0, 1.0, 1.0)
    assert report.truth_k == 2
    assert not report.exact_match


def test_na_report_never_matches():
    report = evaluate_clustering([1, 1, 2, 2], [1, 1, 2, 2], reported_count=None)
    assert report.predicted_k is None
    assert not report.exact_match


def test_explicit_truth_k_overrides_labels():
    report = evaluate_clustering([1, 1, 2, 2], [1, 1, 2, 2], reported_count=2, truth_k=3)
    assert not report.exact_match


def test_corpus_accuracy_is_a_match_percentage():
    hit = EvalReport(ari=1, jaccard=1, f1=1, predicted_k=2, truth_k=2, exact_match=True)
    miss = EvalReport(ari=0, jaccard=0, f1=0, predicted_k=3, truth_k=2, exact_match=False)
    reports = [hit] * 21 + [miss] * 6
    assert corpus_accuracy(reports) == pytest.approx(2100 / 27)
    assert corpus_accuracy([hit]) == 100.0
    assert corpus_accuracy([miss] * 5) == 0.0


def test_corpus_accuracy_requires_reports():
    with pytest.raises(ValueError):
        corpus_accuracy([])
