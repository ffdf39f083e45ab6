"""End-to-end checks of the command-line front end via subprocess."""

import dataclasses
import json
import math
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from affclust import cli, preprocess
from affclust.data import Dataset, SyntheticSpec, generate_synthetic, save_dataset
from affclust.evaluate import pair_counts
from affclust.pipeline import run_pipeline
from affclust.preprocess import build_affinity_model, distance_matrix, normalize


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "affclust", *argv],
        capture_output=True,
        text=True,
    )


BENCH_MANIFEST = """\
[blobs]
path = labeled.csv
truth_k = 3
label_col = 3

[ghost]
path = ghost.csv
truth_k = 4
"""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    dataset = generate_synthetic(
        SyntheticSpec(
            cluster_count=3, points_per_cluster=15, dimension=2,
            center_separation=20.0, spread=1.0, seed=7, name="blobs",
        )
    )
    labeled = root / "labeled.csv"
    save_dataset(dataset, labeled)
    points = root / "points.csv"
    save_dataset(Dataset(points=dataset.points, name="blobs"), points)
    manifest = root / "corpus.ini"
    manifest.write_text("[blobs]\npath = labeled.csv\ntruth_k = 3\nlabel_col = 3\n")
    bench = root / "bench.ini"
    bench.write_text(BENCH_MANIFEST)
    return SimpleNamespace(
        dataset=dataset,
        labeled=str(labeled),
        points=str(points),
        manifest=str(manifest),
        bench_manifest=str(bench),
    )


# ---------------------------------------------------------------------------
# cluster

def test_cluster_reports_the_run(files):
    proc = run_cli("cluster", "-i", files.points)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["command"] == "cluster"
    assert payload["schema_version"] == 1
    assert payload["n"] == 45
    assert payload["d"] == 2
    assert payload["degenerate"] is False
    assert payload["final_cluster_count"] == 3
    assert len(payload["assignment"]) == 45
    assert sum(payload["cluster_sizes"]) + payload["outlier_count"] == 45
    assert all(1 <= i <= 45 for i in payload["outliers"])


def test_cluster_reruns_are_byte_identical(files):
    a = run_cli("cluster", "-i", files.points)
    b = run_cli("cluster", "-i", files.points)
    assert a.stdout == b.stdout
    c = run_cli("cluster", "-i", files.points, "--format", "csv")
    d = run_cli("cluster", "-i", files.points, "--format", "csv")
    assert c.stdout == d.stdout


def test_output_file_matches_stdout(files, tmp_path):
    streamed = run_cli("cluster", "-i", files.points)
    out = tmp_path / "run.json"
    proc = run_cli("cluster", "-i", files.points, "-o", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert out.read_text(encoding="utf-8") == streamed.stdout


def test_cluster_csv_lists_every_point(files):
    proc = run_cli("cluster", "-i", files.points, "--format", "csv")
    lines = proc.stdout.splitlines()
    assert "point,cluster" in lines
    rows = lines[lines.index("point,cluster") + 1 :]
    assert len(rows) == 45
    assert rows[0].split(",")[0] == "1"
    assert any(ln.startswith("# final_cluster_count=") for ln in lines)


def test_timings_are_embedded_only_on_request(files):
    stages = ["normalize", "distances", "affinity", "detect", "merge"]
    plain = json.loads(run_cli("cluster", "-i", files.points).stdout)
    timed = json.loads(run_cli("cluster", "-i", files.points, "--timings").stdout)
    assert "timings_ms" not in plain
    assert list(timed["timings_ms"]) == stages
    # CSV: one timing note per stage, after the report's notes and before the rows
    csv = run_cli("cluster", "-i", files.points, "--timings", "--format", "csv").stdout
    lines = csv.splitlines()
    keys = [ln.partition("=")[0] for ln in lines[: lines.index("point,cluster")]]
    assert keys[keys.index("# final_cluster_count") + 1 :] == [
        f"# timing_{stage}_ms" for stage in stages
    ]
    bench = json.loads(run_cli("bench", "--manifest", files.bench_manifest, "--timings").stdout)
    ok = [row for row in bench["datasets"] if row["status"] == "ok"]
    assert ok and all(list(row["run"]["timings_ms"]) == stages for row in ok)


@pytest.mark.parametrize("command", ["evaluate", "histogram", "sweep-bins"])
def test_timings_is_rejected_where_it_has_no_effect(files, command):
    source = (
        ["--manifest", files.manifest]
        if command == "sweep-bins"
        else ["-i", files.labeled, "--label-col", "3"]
    )
    proc = run_cli(command, *source, "--timings")
    assert proc.returncode == 2
    assert "--timings" in proc.stderr


def test_identical_points_exit_degenerate_but_still_report(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("1,2\n1,2\n1,2\n1,2\n", encoding="utf-8")
    out = tmp_path / "flat.json"
    proc = run_cli("cluster", "-i", str(path), "-o", str(out))
    assert proc.returncode == 3
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["degenerate"] is True
    assert payload["threshold"] is None
    assert payload["final_cluster_count"] == 1
    assert payload["assignment"] == [1, 1, 1, 1]


def test_missing_input_exits_with_input_error(tmp_path):
    proc = run_cli("cluster", "-i", str(tmp_path / "nope.csv"))
    assert proc.returncode == 2
    assert "error" in proc.stderr


@pytest.mark.parametrize("command", ["cluster", "evaluate", "histogram"])
def test_empty_delimiter_exits_with_input_error(files, command):
    proc = run_cli(command, "-i", files.labeled, "--label-col", "3", "--delimiter", "")
    assert proc.returncode == 2
    assert "empty delimiter" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_utf8_input_exits_with_input_error(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes("1,2,caf\u00e9\n3,4,th\u00e9\n5,6,caf\u00e9\n".encode("latin-1"))
    proc = run_cli("evaluate", "-i", str(path), "--label-col", "3")
    assert proc.returncode == 2
    assert "latin.csv" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_oversized_label_exits_with_input_error(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("1,2,1\n3,4,99999999999999999999\n5,6,1\n", encoding="utf-8")
    proc = run_cli("evaluate", "-i", str(path), "--label-col", "3")
    assert proc.returncode == 2
    assert "99999999999999999999" in proc.stderr
    assert "Traceback" not in proc.stderr


def unreadable_entries(files, tmp_path):
    """Manifest sections for the blobs set, a set read with an empty
    delimiter and a latin-1 file, in that order."""
    latin = tmp_path / "latin.csv"
    latin.write_bytes("1,2,caf\u00e9\n3,4,th\u00e9\n".encode("latin-1"))
    return (
        f"[blobs]\npath = {files.labeled}\ntruth_k = 3\nlabel_col = 3\n\n"
        f"[blank]\npath = {files.labeled}\ntruth_k = 3\nlabel_col = 3\ndelimiter =\n\n"
        f"[latin]\npath = {latin}\ntruth_k = 2\nlabel_col = 3\n"
    )


# ---------------------------------------------------------------------------
# evaluate

def test_exclude_policy_scores_a_run_where_every_point_is_an_outlier(tmp_path):
    """Excluding every point leaves no pair to count: evaluate still reports
    and exits 3, and bench scores the dataset with the empty table's rules."""
    points = np.random.default_rng(0).standard_normal((50, 2000))
    labels = np.repeat([1, 2], 25)
    save_dataset(Dataset(points=points, labels=labels, name="noise"), tmp_path / "noise.csv")
    manifest = tmp_path / "noise.ini"
    manifest.write_text("[noise]\npath = noise.csv\ntruth_k = 2\nlabel_col = 2001\n")

    proc = run_cli(
        "evaluate", "-i", str(tmp_path / "noise.csv"), "--label-col", "2001",
        "--outlier-policy", "exclude",
    )
    assert proc.returncode == 3
    payload = json.loads(proc.stdout)
    assert payload["pair_counts"] == {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    assert (payload["ari"], payload["jaccard"], payload["f1"]) == (1.0, 1.0, 1.0)
    assert payload["exact_match"] is False

    proc = run_cli("bench", "--manifest", str(manifest), "--outlier-policy", "exclude")
    assert proc.returncode == 0
    (row,) = json.loads(proc.stdout)["datasets"]
    assert row["status"] == "ok"
    assert row["run"]["outlier_count"] == 50
    assert row["evaluation"]["pair_counts"] == {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    assert row["evaluation"]["exact_match"] is False


def test_evaluate_requires_labels(files):
    proc = run_cli("evaluate", "-i", files.points)
    assert proc.returncode == 2
    assert "label" in proc.stderr


def test_evaluate_matches_the_library(files):
    proc = run_cli("evaluate", "-i", files.labeled, "--label-col", "3")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    result = run_pipeline(files.dataset)
    table = pair_counts(result.assignment, files.dataset.labels, "singletons")
    assert payload["pair_counts"] == {
        "tp": table.tp, "fp": table.fp, "fn": table.fn, "tn": table.tn,
    }
    assert payload["truth_k"] == 3
    assert payload["command"] == "evaluate"


def test_truth_k_override_changes_the_match_verdict(files):
    payload = json.loads(
        run_cli(
            "evaluate", "-i", files.labeled, "--label-col", "3", "--truth-k", "5"
        ).stdout
    )
    assert payload["truth_k"] == 5
    assert payload["exact_match"] is False


@pytest.mark.parametrize("truth_k", ["0", "-4", "three"])
def test_truth_k_below_one_is_rejected(files, truth_k):
    proc = run_cli("evaluate", "-i", files.labeled, "--label-col", "3", "--truth-k", truth_k)
    assert proc.returncode == 2
    assert "bad truth k" in proc.stderr


def test_evaluate_csv_row(files):
    proc = run_cli("evaluate", "-i", files.labeled, "--label-col", "3", "--format", "csv")
    lines = proc.stdout.splitlines()
    assert lines[0] == (
        "dataset,n,outlier_policy,predicted_k,truth_k,exact_match,ari,jaccard,f1,tp,fp,fn,tn"
    )
    cells = lines[1].split(",")
    assert cells[0] == "labeled"
    assert cells[1] == "45"
    assert cells[2] == "singletons"


def test_json_floats_are_stable_at_six_decimals(files):
    payload = json.loads(run_cli("evaluate", "-i", files.labeled, "--label-col", "3").stdout)
    for key in ("ari", "jaccard", "f1", "threshold"):
        assert payload[key] == round(payload[key], 6)


# ---------------------------------------------------------------------------
# histogram

def test_histogram_counts_sum_to_n_squared(files):
    proc = run_cli("histogram", "-i", files.points, "--bins", "12")
    payload = json.loads(proc.stdout)
    assert payload["bins"] == 12
    assert sum(payload["counts"]) == payload["n"] ** 2
    norm = normalize(files.dataset)
    geometry = distance_matrix(norm)
    model = build_affinity_model(norm, dataclasses.replace(geometry, sketch=None), bins=12)
    lower, upper = model.histogram
    assert np.array_equal(lower, upper)
    exact = build_affinity_model(norm, distance_matrix(norm, exact=True), bins=12)
    assert np.array_equal(lower, exact.histogram[0])
    bounds = build_affinity_model(norm, geometry, bins=12).histogram
    assert (bounds[0] <= lower).all() and (lower <= bounds[1]).all()
    assert payload["counts"] == [int(c) for c in lower]
    assert payload["threshold"] == round(model.threshold, 6)
    assert payload["threshold_bin"] == model.threshold_bin
    assert len(payload["edges"]) == 12


def test_histogram_builds_one_model_and_leaves_the_geometry_alone(files, monkeypatch, capsys):
    """On the product geometry the command builds one model, from a copy of
    the geometry with its sketch set aside, and reports the exact counts;
    the geometry distance_matrix returned keeps its sketch."""
    geometries, built = [], []

    def recorded(norm, exact=False):
        geometries.append(distance_matrix(norm, exact=exact))
        return geometries[-1]

    def counted(norm, geometry, bins):
        built.append(geometry)
        return build_affinity_model(norm, geometry, bins=bins)

    monkeypatch.setattr(cli, "distance_matrix", recorded)
    monkeypatch.setattr(cli, "build_affinity_model", counted)
    assert cli.main(["histogram", "-i", files.points]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(geometries) == len(built) == 1
    assert geometries[0].sketch is not None and built[0].sketch is None
    norm = normalize(files.dataset)
    expect = build_affinity_model(norm, distance_matrix(norm, exact=True))
    assert payload["counts"] == [int(c) for c in expect.histogram[0]]
    assert payload["threshold_bin"] == expect.threshold_bin


def test_histogram_prints_exact_counts_when_a_pair_lies_within_a_band(files, monkeypatch, capsys):
    """With the dispersion's slack widened to a relative 1e-2, the screen
    meets pairs inside their edges' bands: its bounds still name the bin,
    but they differ, so the command builds the exact geometry too and
    prints its counts."""
    monkeypatch.setattr(
        preprocess, "_dispersion_slack", lambda variance, *rest: 1e-2 * math.sqrt(max(variance, 0.0))
    )
    geometries, models = [], []

    def recorded(norm, exact=False):
        geometries.append(distance_matrix(norm, exact=exact))
        return geometries[-1]

    def counted(norm, geometry, bins):
        models.append(build_affinity_model(norm, geometry, bins=bins))
        return models[-1]

    monkeypatch.setattr(cli, "distance_matrix", recorded)
    monkeypatch.setattr(cli, "build_affinity_model", counted)
    assert cli.main(["histogram", "-i", files.points]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [g.slack > 0.0 for g in geometries] == [True, False]
    lower, upper = models[0].histogram
    assert (lower != upper).any()
    norm = normalize(files.dataset)
    expect = build_affinity_model(norm, distance_matrix(norm, exact=True))
    assert payload["counts"] == [int(c) for c in expect.histogram[0]]
    assert payload["threshold_bin"] == expect.threshold_bin == models[0].threshold_bin


def test_histogram_csv_has_one_row_per_bin(files):
    proc = run_cli("histogram", "-i", files.points, "--format", "csv")
    lines = proc.stdout.splitlines()
    assert "bin,lower,upper,count" in lines
    rows = lines[lines.index("bin,lower,upper,count") + 1 :]
    assert len(rows) == 10
    assert rows[0].startswith("1,0.000000,0.100000,")


# ---------------------------------------------------------------------------
# sweep-bins

def test_sweep_bins_emits_one_row_per_bin_and_dataset(files):
    proc = run_cli(
        "sweep-bins", "--manifest", files.manifest,
        "--bin-range", "2:4", "--format", "json",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["bin_range"] == [2, 4]
    assert len(payload["rows"]) == 3
    assert [r["bins"] for r in payload["accuracy_by_bins"]] == [2, 3, 4]
    for r in payload["accuracy_by_bins"]:
        assert 0.0 <= r["corpus_accuracy"] <= 100.0


def test_sweep_bins_defaults_to_csv(files):
    proc = run_cli("sweep-bins", "--manifest", files.manifest, "--bin-range", "2:3")
    assert proc.returncode == 0
    assert "bins,dataset,predicted_k,truth_k,exact_match,corpus_accuracy" in proc.stdout


def test_sweep_bins_skips_an_unreadable_entry_and_scores_the_rest(files, tmp_path):
    bad = tmp_path / "short.csv"
    bad.write_text("1,2,3\n4,5\n6,7,8\n")
    manifest = tmp_path / "mixed.ini"
    manifest.write_text(
        f"[blobs]\npath = {files.labeled}\ntruth_k = 3\nlabel_col = 3\n\n"
        f"[short]\npath = {bad}\ntruth_k = 2\n\n"
        f"[ghost]\npath = ghost.csv\ntruth_k = 4\n"
    )
    proc = run_cli("sweep-bins", "--manifest", str(manifest), "--bin-range", "2:3", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["skipped"] == ["short", "ghost"]
    assert {r["dataset"] for r in payload["rows"]} == {"blobs"}
    assert [r["evaluated"] for r in payload["accuracy_by_bins"]] == [1, 1]
    assert "short: row 2" in proc.stderr


def test_sweep_bins_skips_empty_delimiter_and_non_utf8_entries(files, tmp_path):
    manifest = tmp_path / "unreadable.ini"
    manifest.write_text(unreadable_entries(files, tmp_path))
    proc = run_cli("sweep-bins", "--manifest", str(manifest), "--bin-range", "2:3", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["skipped"] == ["blank", "latin"]
    assert {r["dataset"] for r in payload["rows"]} == {"blobs"}


def test_sweep_bins_fails_when_no_entry_loads(tmp_path):
    bad = tmp_path / "short.csv"
    bad.write_text("1,2,3\n4,5\n")
    manifest = tmp_path / "bad.ini"
    manifest.write_text(f"[short]\npath = {bad}\ntruth_k = 2\n")
    proc = run_cli("sweep-bins", "--manifest", str(manifest), "--bin-range", "2:3")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_bad_bin_range_is_rejected(files):
    proc = run_cli("sweep-bins", "--manifest", files.manifest, "--bin-range", "9:2")
    assert proc.returncode == 2


def test_bin_count_below_two_is_rejected(files):
    proc = run_cli("cluster", "--input", files.labeled, "--label-col", "3", "--bins", "1")
    assert proc.returncode == 2
    assert "bad bin count" in proc.stderr


# ---------------------------------------------------------------------------
# bench

def test_bench_skips_missing_files_and_scores_the_rest(files):
    proc = run_cli("bench", "--manifest", files.bench_manifest)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["skipped"] == ["ghost"]
    assert payload["evaluated"] == 1
    statuses = {row["name"]: row["status"] for row in payload["datasets"]}
    assert statuses == {"blobs": "ok", "ghost": "skipped"}
    assert 0.0 <= payload["corpus_accuracy"] <= 100.0
    blobs = next(r for r in payload["datasets"] if r["name"] == "blobs")
    assert blobs["evaluation"]["truth_k"] == 3


def test_bench_reports_empty_delimiter_and_non_utf8_entries_as_errors(files, tmp_path):
    manifest = tmp_path / "unreadable.ini"
    manifest.write_text(unreadable_entries(files, tmp_path))
    proc = run_cli("bench", "--manifest", str(manifest))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    statuses = {row["name"]: row["status"] for row in payload["datasets"]}
    assert statuses == {"blobs": "ok", "blank": "error", "latin": "error"}
    errors = {row["name"]: row["error"] for row in payload["datasets"] if row["status"] == "error"}
    assert "empty delimiter" in errors["blank"]
    assert "latin.csv" in errors["latin"]
    assert payload["evaluated"] == 1


def test_bench_csv_has_a_row_per_entry(files):
    proc = run_cli("bench", "--manifest", files.bench_manifest, "--format", "csv")
    lines = proc.stdout.splitlines()
    header = (
        "dataset,status,n,threshold,initial_clusters,outliers,k_estimate,accepted,"
        "final_k,truth_k,exact_match,ari,jaccard,f1"
    )
    assert header in lines
    idx = lines.index(header)
    assert lines[idx + 1].startswith("blobs,ok,")
    assert lines[idx + 2].startswith("ghost,skipped,")


def test_bench_reruns_are_byte_identical(files):
    a = run_cli("bench", "--manifest", files.bench_manifest)
    b = run_cli("bench", "--manifest", files.bench_manifest)
    assert a.stdout == b.stdout
