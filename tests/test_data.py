"""Ingestion, serialization, manifests and the synthetic generator."""

import numpy as np
import pytest

from affclust.data import (
    CorpusManifest,
    Dataset,
    SyntheticSpec,
    _axis_centers,
    _separated_centers,
    generate_synthetic,
    load_dataset,
    load_manifest,
    save_dataset,
)
from affclust.errors import IngestError


# ---------------------------------------------------------------------------
# Dataset validation

def test_points_must_be_two_dimensional():
    with pytest.raises(IngestError):
        Dataset(points=np.zeros(4))


def test_at_least_two_points_required():
    with pytest.raises(IngestError):
        Dataset(points=np.zeros((1, 3)))


def test_non_finite_cell_is_named():
    pts = np.ones((3, 2))
    pts[1, 1] = np.nan
    with pytest.raises(IngestError, match="row 2, column 2"):
        Dataset(points=pts)


def test_label_length_must_match():
    with pytest.raises(IngestError):
        Dataset(points=np.ones((3, 2)), labels=np.array([1, 2]))


@pytest.mark.parametrize(
    ("labels", "shown"),
    [
        ([1.5, 2.7], "1.5"),
        ([1.0, np.nan], "nan"),
        ([np.inf, 1.0], "inf"),
        (["a", "b"], "'a'"),
        ([2**70, 1], str(2**70)),
        (np.array([2**63, 1], dtype=np.uint64), str(2**63)),
        ([None, 1], "None"),
    ],
)
def test_labels_given_directly_must_be_int64_values(labels, shown):
    """Labels passed to Dataset itself, not through load_dataset, are
    refused unless each is an int64 value, naming the dataset and the label."""
    with pytest.raises(IngestError, match=f"^toy: label {shown} is not a 64-bit integer"):
        Dataset(points=np.zeros((2, 1)), labels=labels, name="toy")


# ---------------------------------------------------------------------------
# parsing

def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_comma_file_parses(tmp_path):
    d = load_dataset(write(tmp_path, "1,2\n3,4\n5,6\n"))
    assert d.points.tolist() == [[1, 2], [3, 4], [5, 6]]
    assert d.labels is None


def test_delimiter_auto_detection_prefers_comma(tmp_path):
    d = load_dataset(write(tmp_path, "1,2\n3,4\n"))
    assert d.n_features == 2
    d = load_dataset(write(tmp_path, "1;2\n3;4\n"))
    assert d.n_features == 2
    d = load_dataset(write(tmp_path, "1 2\n3 4\n"))
    assert d.n_features == 2
    d = load_dataset(write(tmp_path, "1\t2\n3\t4\n"))
    assert d.n_features == 2


def test_named_delimiters_resolve(tmp_path):
    path = write(tmp_path, "1;2\n3;4\n")
    d = load_dataset(path, delimiter="semicolon")
    assert d.points.tolist() == [[1, 2], [3, 4]]


def test_blank_lines_and_comments_are_skipped(tmp_path):
    d = load_dataset(write(tmp_path, "# header comment\n1,2\n\n  \n3,4\n"))
    assert d.n_points == 2


def test_header_row_is_dropped_when_flagged(tmp_path):
    d = load_dataset(write(tmp_path, "x,y\n1,2\n3,4\n"), has_header=True)
    assert d.n_points == 2
    assert d.points[0].tolist() == [1, 2]


def test_textual_labels_encode_by_first_appearance(tmp_path):
    d = load_dataset(write(tmp_path, "1,2,A\n3,4,A\n5,6,B\n"), label_column=3)
    assert d.points.shape == (3, 2)
    assert d.labels.tolist() == [1, 1, 2]


def test_numeric_labels_pass_through(tmp_path):
    d = load_dataset(write(tmp_path, "1,2,0\n3,4,7\n"), label_column=3)
    assert d.labels.tolist() == [0, 7]


def test_integral_float_labels_are_accepted(tmp_path):
    d = load_dataset(write(tmp_path, "1,2,3.0\n3,4,5.0\n"), label_column=3)
    assert d.labels.tolist() == [3, 5]
    direct = Dataset(points=np.zeros((2, 1)), labels=[3.0, -(2.0**63)]).labels
    assert direct.dtype == np.int64 and direct.tolist() == [3, -(2**63)]


def test_label_column_in_the_middle(tmp_path):
    d = load_dataset(write(tmp_path, "1,x,2\n3,y,4\n"), label_column=2)
    assert d.points.tolist() == [[1, 2], [3, 4]]
    assert d.labels.tolist() == [1, 2]


def test_ragged_row_error_names_the_line(tmp_path):
    with pytest.raises(IngestError, match="row 3"):
        load_dataset(write(tmp_path, "1,2\n3,4\n5\n"))


def test_non_numeric_cell_error_names_row_and_column(tmp_path):
    with pytest.raises(IngestError, match="row 2, column 1"):
        load_dataset(write(tmp_path, "1,2\nzap,4\n"))


def test_label_column_out_of_range(tmp_path):
    with pytest.raises(IngestError, match="label column"):
        load_dataset(write(tmp_path, "1,2\n3,4\n"), label_column=5)


def test_label_column_cannot_consume_the_only_column(tmp_path):
    with pytest.raises(IngestError, match="no feature columns"):
        load_dataset(write(tmp_path, "1\n2\n"), label_column=1)


def test_missing_file_is_an_ingest_error(tmp_path):
    with pytest.raises(IngestError):
        load_dataset(tmp_path / "absent.csv")


def test_empty_file_is_an_ingest_error(tmp_path):
    with pytest.raises(IngestError, match="no data rows"):
        load_dataset(write(tmp_path, "# nothing\n\n"))


def test_empty_delimiter_is_an_ingest_error(tmp_path):
    with pytest.raises(IngestError, match="empty delimiter"):
        load_dataset(write(tmp_path, "1,2\n3,4\n"), delimiter="")


def test_non_utf8_file_is_an_ingest_error_naming_it(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes("1,2,caf\u00e9\n3,4,th\u00e9\n".encode("latin-1"))
    with pytest.raises(IngestError, match="latin.csv"):
        load_dataset(path, label_column=3)


@pytest.mark.parametrize("label", ["99999999999999999999", "-9223372036854775809", "1e30"])
def test_label_beyond_int64_is_an_ingest_error_naming_it(tmp_path, label):
    with pytest.raises(IngestError, match=f"big: label '{label}'"):
        load_dataset(write(tmp_path, f"1,2,1\n3,4,{label}\n"), label_column=3, name="big")


def test_int64_extremes_are_kept_as_labels(tmp_path):
    path = write(tmp_path, "1,2,9223372036854775807\n3,4,-9223372036854775808\n")
    d = load_dataset(path, label_column=3)
    assert d.labels.tolist() == [2**63 - 1, -(2**63)]


def test_round_trip_preserves_values_and_order(tmp_path):
    rng = np.random.default_rng(17)
    original = Dataset(
        points=rng.normal(size=(20, 3)),
        labels=rng.integers(0, 4, size=20),
        name="roundtrip",
    )
    path = tmp_path / "rt.csv"
    save_dataset(original, path)
    loaded = load_dataset(path, label_column=4)
    assert np.array_equal(loaded.points, original.points)
    assert np.array_equal(loaded.labels, original.labels)


def test_round_trip_without_labels(tmp_path):
    original = Dataset(points=np.array([[0.1, 0.2], [0.3, 0.4]]))
    path = tmp_path / "rt2.csv"
    save_dataset(original, path)
    loaded = load_dataset(path)
    assert np.array_equal(loaded.points, original.points)
    assert loaded.labels is None


# ---------------------------------------------------------------------------
# manifests

MANIFEST = """
[alpha]
path = alpha.csv
truth_k = 3
label_col = 3

[beta]
path = {beta_path}
truth_k = 2
delimiter = semicolon
has_header = true

[gone]
path = missing.csv
truth_k = 4
"""


def test_manifest_parses_and_flags_missing_files(tmp_path):
    write(tmp_path, "1,2,A\n3,4,B\n", name="alpha.csv")
    beta = write(tmp_path, "x;y\n1;2\n3;4\n", name="beta.csv")
    path = write(tmp_path, MANIFEST.format(beta_path=beta), name="corpus.ini")
    manifest = load_manifest(path)
    assert [e.name for e in manifest.entries] == ["alpha", "beta", "gone"]
    assert manifest.skipped == ["gone"]
    assert [e.available for e in manifest.entries] == [True, True, False]

    alpha = manifest.entries[0].load()
    assert alpha.labels.tolist() == [1, 2]
    beta_ds = manifest.entries[1].load()
    assert beta_ds.n_points == 2
    assert beta_ds.labels is None


def test_manifest_requires_path_and_truth_k(tmp_path):
    path = write(tmp_path, "[x]\npath = a.csv\n", name="bad.ini")
    with pytest.raises(IngestError, match="truth_k"):
        load_manifest(path)


def test_manifest_rejects_nonpositive_truth_k(tmp_path):
    path = write(tmp_path, "[x]\npath = a.csv\ntruth_k = 0\n", name="bad2.ini")
    with pytest.raises(IngestError):
        load_manifest(path)


def test_non_utf8_manifest_is_an_ingest_error_naming_it(tmp_path):
    path = tmp_path / "latin.ini"
    path.write_bytes("[caf\u00e9]\npath = a.csv\ntruth_k = 2\n".encode("latin-1"))
    with pytest.raises(IngestError, match="latin.ini"):
        load_manifest(path)


def test_malformed_manifest_is_an_ingest_error(tmp_path):
    path = write(tmp_path, "path = orphan\n", name="bad3.ini")
    with pytest.raises(IngestError):
        load_manifest(path)


def test_empty_manifest_loads_as_empty():
    manifest = CorpusManifest()
    assert manifest.entries == []
    assert manifest.skipped == []


# ---------------------------------------------------------------------------
# synthetic generation

def spec(**kw):
    base = dict(
        cluster_count=3, points_per_cluster=10, dimension=2,
        center_separation=10.0, seed=1,
    )
    base.update(kw)
    return SyntheticSpec(**base)


def test_generation_is_deterministic():
    a = generate_synthetic(spec(noise_fraction=0.1))
    b = generate_synthetic(spec(noise_fraction=0.1))
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)


def test_seed_changes_the_data():
    a = generate_synthetic(spec())
    b = generate_synthetic(spec(seed=2))
    assert not np.array_equal(a.points, b.points)


def test_noise_count_is_rounded_fraction_of_base():
    d = generate_synthetic(spec(points_per_cluster=(40, 30, 30), noise_fraction=0.1))
    assert d.n_points == 110
    assert int((d.labels == 0).sum()) == 10


def test_cluster_sizes_match_requested_counts():
    d = generate_synthetic(spec(points_per_cluster=(5, 8, 11)))
    counts = [int((d.labels == k).sum()) for k in (1, 2, 3)]
    assert counts == [5, 8, 11]


def min_center_gap(centers):
    gaps = np.sqrt(((centers[:, None] - centers[None]) ** 2).sum(-1))
    np.fill_diagonal(gaps, np.inf)
    return gaps.min()


def test_random_centers_respect_the_separation_floor():
    rng = np.random.default_rng(3)
    assert min_center_gap(_separated_centers(rng, 6, 2, 10.0)) >= 10.0


def test_separation_is_measured_in_spread_units():
    # floor = 20 separations * largest spread 2 = 40 length units; empirical
    # blob means sit within a small fraction of a spread of the true centers
    s = spec(points_per_cluster=300, spread=2.0, center_separation=20.0, seed=3)
    d = generate_synthetic(s)
    centers = np.vstack([d.points[d.labels == k].mean(axis=0) for k in (1, 2, 3)])
    assert min_center_gap(centers) >= 40.0 - 1.0


def test_noise_points_stay_inside_the_padded_box():
    d = generate_synthetic(spec(noise_fraction=0.2, noise_margin=0.5, seed=9))
    base = d.points[d.labels > 0]
    noise = d.points[d.labels == 0]
    lo, hi = base.min(axis=0), base.max(axis=0)
    span = np.maximum(hi - lo, 1.0)
    assert (noise >= lo - 0.5 * span - 1e-9).all()
    assert (noise <= hi + 0.5 * span + 1e-9).all()


def test_axes_scheme_loads_every_dimension():
    rng = np.random.default_rng(0)
    centers = _axis_centers(rng, 3, 8, 10.0)
    assert centers.shape == (3, 8)
    per_dim_spread = centers.max(axis=0) - centers.min(axis=0)
    assert (per_dim_spread > 1.0).all()
    assert min_center_gap(centers) >= 10.0 - 1e-9


def test_axes_scheme_requires_enough_dimensions():
    with pytest.raises(ValueError):
        generate_synthetic(spec(center_scheme="axes", cluster_count=3, dimension=2))


def test_axes_scheme_generates_deterministically():
    s = spec(center_scheme="axes", dimension=4, noise_fraction=0.1)
    assert np.array_equal(generate_synthetic(s).points, generate_synthetic(s).points)


def test_per_cluster_spreads_scale_the_blobs():
    s = spec(
        points_per_cluster=500, dimension=2, spread=(0.5, 1.0, 2.0),
        center_separation=100.0, seed=11,
    )
    d = generate_synthetic(s)
    widths = [d.points[d.labels == k].std(axis=0).mean() for k in (1, 2, 3)]
    assert widths[0] < widths[1] < widths[2]


def test_generator_validates_its_inputs():
    with pytest.raises(ValueError):
        generate_synthetic(spec(cluster_count=0))
    with pytest.raises(ValueError):
        generate_synthetic(spec(points_per_cluster=(1, 2)))  # wrong arity
    with pytest.raises(ValueError):
        generate_synthetic(spec(dimension=0))
    with pytest.raises(ValueError):
        generate_synthetic(spec(noise_fraction=0.9))
    with pytest.raises(ValueError):
        generate_synthetic(spec(noise_margin=-0.5))
    with pytest.raises(ValueError):
        generate_synthetic(spec(center_separation=0.0))
    with pytest.raises(ValueError):
        generate_synthetic(spec(center_scheme="spiral"))


def test_default_name_encodes_the_recipe():
    d = generate_synthetic(spec(seed=4))
    assert d.name == "blobs-k3-d2-seed4"
    assert generate_synthetic(spec(name="custom")).name == "custom"
