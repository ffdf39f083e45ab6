"""Acceptance criteria, one test per criterion.

Criteria 1-4 need the public benchmark corpus on disk (see
data/reference_corpus.ini); when a file is absent they skip and criterion 5,
the self-contained synthetic suite, stands in for them. Criteria 6 and 7
always run.
"""

import itertools
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from affclust.data import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_manifest,
    save_dataset,
)
from affclust.detect import ClusterState
from affclust.evaluate import (
    adjusted_rand_index,
    evaluate_clustering,
    jaccard_index,
    pair_counts,
    pairwise_f1,
)
from affclust.merge import estimate_cluster_count
from affclust.pipeline import run_pipeline
from affclust.preprocess import (
    affinity_histogram,
    build_affinity_model,
    distance_matrix,
    normalize,
)

MANIFEST_PATH = Path(__file__).resolve().parents[1] / "data" / "reference_corpus.ini"
SKIP = "corpus file not available; criterion replaced by the synthetic suite (criterion 5)"

# reference proposed counts on the corpus subset the reference results matched
REFERENCE_PROPOSED = {
    "Dim032": 16, "Dim064": 16, "Dim128": 16, "Dim256": 16, "Dim512": 16,
    "Dim1024": 16,
    "Dim2": 9, "Dim4": 9, "Dim8": 9,
    "breast": 2, "thyroid": 2,
    "d8c8N": 8, "d8c4N": 4, "d8c2N": 2, "d4c2N": 2,
    "S2": 15, "S3": 15, "R15": 15,
    "uniform": 1, "diagonal": 2,
}


def corpus_entries():
    if not MANIFEST_PATH.is_file():
        pytest.skip(SKIP)
    return {e.name: e for e in load_manifest(MANIFEST_PATH).entries}


def corpus_entry(name):
    entry = corpus_entries().get(name)
    if entry is None or not entry.available:
        pytest.skip(SKIP)
    return entry


# ---------------------------------------------------------------------------
# criterion 1: threshold reproduction

def test_criterion_1_threshold_on_d8c8N():
    entry = corpus_entry("d8c8N")
    started = time.perf_counter()
    norm = normalize(entry.load())
    model = build_affinity_model(norm, distance_matrix(norm), bins=10)
    assert time.perf_counter() - started < 5.0
    assert abs(model.threshold - 0.85) < 1e-12


# ---------------------------------------------------------------------------
# criterion 2: merge narrative reproduction

def test_criterion_2_merge_narrative_on_S2_and_R15():
    s2 = corpus_entry("S2")
    r15 = corpus_entry("R15")

    started = time.perf_counter()
    result = run_pipeline(s2.load())
    assert time.perf_counter() - started < 60.0
    assert result.initial_count == 49
    assert result.accepted is True
    assert result.final_count == 15
    assert result.cost_before == pytest.approx(7.77, rel=0.05)
    assert result.cost_after == pytest.approx(2.95, rel=0.05)

    started = time.perf_counter()
    result = run_pipeline(r15.load())
    assert time.perf_counter() - started < 60.0
    assert result.initial_count == 15
    assert result.k_estimate == 6
    assert result.accepted is False
    assert result.final_count == 15
    assert result.cost_before == pytest.approx(1.84, rel=0.05)
    assert result.cost_after == pytest.approx(2.58, rel=0.05)


# ---------------------------------------------------------------------------
# criterion 3: cluster-count table

def test_criterion_3_cluster_count_table():
    entries = corpus_entries()
    subset = [
        name for name in REFERENCE_PROPOSED
        if name in entries and entries[name].available
    ]
    if not subset:
        pytest.skip(SKIP)
    hits = 0
    for name in subset:
        result = run_pipeline(entries[name].load())
        hits += result.reported_count == REFERENCE_PROPOSED[name]
    assert hits >= 0.8 * len(subset)

    # the corpus-wide accuracy band only binds when every dataset is present
    available = [e for e in entries.values() if e.available]
    if len(entries) == 27 and len(available) == 27:
        matches = sum(
            run_pipeline(e.load()).reported_count == e.truth_k for e in available
        )
        accuracy = 100.0 * matches / 27
        assert abs(accuracy - 77.7) <= 8.0


# ---------------------------------------------------------------------------
# criterion 4: quality reproduction

def test_criterion_4_quality_reproduction():
    scored = 0
    for name in ("d8c8N", "d8c4N", "d8c2N"):
        entry = corpus_entries().get(name)
        if entry is None or not entry.available:
            continue
        dataset = entry.load()
        if dataset.labels is None:
            continue
        result = run_pipeline(dataset)
        report = evaluate_clustering(
            result.assignment, dataset.labels, reported_count=result.reported_count
        )
        assert report.ari >= 0.95, name
        assert report.jaccard >= 0.95, name
        assert report.f1 >= 0.95, name
        scored += 1

    for name, floor, exact in (("Dim032", 0.95, False), ("Dim512", None, True)):
        entry = corpus_entries().get(name)
        if entry is None or not entry.available:
            continue
        dataset = entry.load()
        if dataset.labels is None:
            continue
        result = run_pipeline(dataset)
        ari = adjusted_rand_index(pair_counts(result.assignment, dataset.labels))
        if exact:
            assert abs(ari - 1.0) <= 1e-6, name
        else:
            assert ari >= floor, name
        scored += 1

    if scored == 0:
        pytest.skip(SKIP)


# ---------------------------------------------------------------------------
# criterion 5: synthetic fallback suite

def test_criterion_5_synthetic_suite_recovers_k_and_noise():
    exact = 0
    aris = []
    injected = 0
    covered = 0
    for seed in range(50):
        k = 2 + seed % 7
        dataset = generate_synthetic(
            SyntheticSpec(
                cluster_count=k,
                points_per_cluster=70,
                dimension=8,
                center_separation=24.0,
                spread=1.0,
                noise_fraction=0.1,
                noise_margin=0.75,
                center_scheme="axes",
                seed=seed,
            )
        )
        result = run_pipeline(dataset)
        report = evaluate_clustering(
            result.assignment, dataset.labels, reported_count=result.reported_count
        )
        exact += report.exact_match
        aris.append(report.ari)
        noise = np.flatnonzero(dataset.labels == 0)
        injected += noise.size
        covered += int((result.assignment[noise] == 0).sum())

    assert exact >= 45, f"exact k on {exact}/50 seeds"
    assert float(np.mean(aris)) >= 0.95, f"mean ARI {np.mean(aris):.4f}"
    assert covered >= 0.8 * injected, f"noise coverage {covered}/{injected}"


# ---------------------------------------------------------------------------
# criterion 6: property suites (always required)

def test_criterion_6a_incremental_centroids_track_batch_means():
    rng = np.random.default_rng(2024)
    points = rng.normal(scale=5.0, size=(300, 4))
    state = ClusterState(points)
    k = state.open_cluster(0)
    members = [0]
    free = list(range(1, 300))
    for _ in range(10_000):
        add = len(members) == 1 or (free and rng.random() < 0.5)
        if add and free:
            j = free.pop(int(rng.integers(len(free))))
            state.add_point(k, j)
            members.append(j)
        else:
            j = members.pop(int(rng.integers(len(members))))
            state.remove_point(j)
            free.append(j)
        batch = points[members].mean(axis=0)
        assert np.abs(state.centroids[k] - batch).max() <= 1e-9


def estimate_oracle(sizes):
    # literal scan of the gap inequality; the i = k term contributes zero
    s = [int(v) for v in sizes]
    p = len(s)
    for k in range(2, p + 1):
        above = sum(s[i] * (s[i] - s[k - 1]) for i in range(k))
        below = sum(s[j] * (s[k - 1] - s[j]) for j in range(k, p))
        if above > below:
            return k
    return p


def test_criterion_6b_count_estimate_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        p = int(rng.integers(1, 21))
        high = 8 if rng.random() < 0.5 else 500
        sizes = np.sort(rng.integers(1, high, size=p))[::-1]
        assert estimate_cluster_count(sizes) == estimate_oracle(sizes)


def enumerate_pairs(pred, truth):
    tp = fp = fn = tn = 0
    for i, j in itertools.combinations(range(len(pred)), 2):
        same_p = pred[i] == pred[j]
        same_t = truth[i] == truth[j]
        tp += same_p and same_t
        fp += same_p and not same_t
        fn += (not same_p) and same_t
        tn += (not same_p) and not same_t
    return tp, fp, fn, tn


def ari_from_pairs(tp, fp, fn, tn):
    denom = (tp + fn) * (fn + tn) + (tp + fp) * (fp + tn)
    if denom == 0:
        # only when both partitions pair every point identically
        return 1.0
    return 2.0 * (tp * tn - fn * fp) / denom


def test_criterion_6c_pair_indices_match_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(500):
        pred = rng.integers(1, 5, size=8)
        truth = rng.integers(1, 5, size=8)
        tp, fp, fn, tn = enumerate_pairs(pred.tolist(), truth.tolist())

        table = pair_counts(pred, truth)
        assert (table.tp, table.fp, table.fn, table.tn) == (tp, fp, fn, tn)

        assert abs(adjusted_rand_index(table) - ari_from_pairs(tp, fp, fn, tn)) <= 1e-12
        jacc = 1.0 if tp + fp + fn == 0 else tp / (tp + fp + fn)
        assert abs(jaccard_index(table) - jacc) <= 1e-12
        if fp == 0 and fn == 0:
            f1 = 1.0
        elif tp == 0:
            f1 = 0.0
        else:
            f1 = 2.0 * tp / (2.0 * tp + fp + fn)
        assert abs(pairwise_f1(table) - f1) <= 1e-12


def test_criterion_6d_bench_reruns_are_byte_identical(tmp_path):
    for i in range(2):
        dataset = generate_synthetic(
            SyntheticSpec(
                cluster_count=3, points_per_cluster=12, dimension=2,
                center_separation=15.0, noise_fraction=0.1, seed=i + 1,
            )
        )
        save_dataset(dataset, tmp_path / f"set{i}.csv")
    manifest = tmp_path / "corpus.ini"
    manifest.write_text(
        "[set0]\npath = set0.csv\ntruth_k = 3\nlabel_col = 3\n\n"
        "[set1]\npath = set1.csv\ntruth_k = 3\nlabel_col = 3\n",
        encoding="utf-8",
    )
    cmd = [sys.executable, "-m", "affclust", "bench", "--manifest", str(manifest)]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout
    json.loads(first.stdout)  # and it is well-formed


def test_criterion_6e_preprocess_invariants_on_random_data():
    """Production streams the distances; the dense matrices here are the reference."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 101))
        d = int(rng.integers(1, 6))
        pts = rng.normal(scale=float(rng.uniform(0.1, 50.0)), size=(n, d))
        if d >= 2 and rng.random() < 0.3:
            pts[:, 0] = 5.0  # constant column must normalize to zeros
        norm = normalize(Dataset(points=pts))

        live = norm.column_stds > 0
        if live.any():
            assert np.abs(norm.values[:, live].mean(axis=0)).max() < 1e-9
        assert not norm.values[:, ~live].any()

        dispersion = distance_matrix(norm)
        dense = cdist(norm.values, norm.values)
        assert dense.min() >= 0.0
        assert np.abs(np.diagonal(dense)).max() == 0.0
        assert np.abs(dense - dense.T).max() <= 1e-9
        assert dispersion > 0.0
        assert abs(dispersion - dense.std()) <= 1e-12 * dense.std()

        model = build_affinity_model(norm, dispersion, bins=10)
        affinity = np.exp(dense * dense / (-2.0 * dispersion))
        assert affinity.min() > 0.0
        assert affinity.max() <= 1.0
        assert (np.diagonal(affinity) == 1.0).all()
        assert np.array_equal(model.histogram, affinity_histogram(affinity, 10))
        assert model.histogram.sum() == n * n
        assert model.histogram.size == 10
        assert 1 <= model.threshold_bin <= 9
        assert abs(model.threshold - (model.threshold_bin - 0.5) / 10) < 1e-15
        assert 0.0 < model.threshold < 1.0


# ---------------------------------------------------------------------------
# criterion 7: performance envelope

def test_criterion_7_five_thousand_points_within_time_and_memory():
    dataset = generate_synthetic(
        SyntheticSpec(
            cluster_count=15,
            points_per_cluster=(334,) * 5 + (333,) * 10,
            dimension=2,
            center_separation=12.0,
            seed=4,
        )
    )
    assert dataset.n_points == 5000

    before_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    started = time.perf_counter()
    result = run_pipeline(dataset)
    elapsed = time.perf_counter() - started
    after_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    assert result.final_count >= 1
    assert elapsed < 30.0, f"pipeline took {elapsed:.1f} s"
    matrix_bytes = 2 * dataset.n_points**2 * 8
    added_bytes = (after_kib - before_kib) * 1024
    assert added_bytes <= 3 * matrix_bytes, (
        f"peak grew by {added_bytes / 1e6:.0f} MB, budget {3 * matrix_bytes / 1e6:.0f} MB"
    )
