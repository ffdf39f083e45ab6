"""Golden reports: every regenerated report must match its golden file byte for byte.

The goldens cover `cluster`, `histogram` and `evaluate` (both outlier
policies) in JSON and CSV for the five bundled synthetic sets and one
generated set of 1,050 points, large enough that the affinity model streams
several distance blocks; `bench` and `sweep-bins` over the bundled synthetic
corpus; and `cluster` on two degenerate inputs, identical points and a set
where every point is an outlier, `histogram` on the identical points and
`evaluate` (both outlier policies) on the all-outlier set, which exit 3 but
still report. Any change
to the reports shows up here; a deliberate one is made by rewriting the
files with `write_goldens()` from the repository root and recording why in
CHANGES.md:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \
import test_golden; test_golden.write_goldens()"
"""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from affclust.cli import main
from affclust.data import Dataset, SyntheticSpec, generate_synthetic, save_dataset
from affclust.evaluate import OUTLIER_POLICIES

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
SYNTHETIC = ROOT / "data" / "synthetic"
# Relative, so the reports that echo it do not depend on where the repository lives.
MANIFEST = "data/synthetic/synthetic_corpus.ini"

# 15 blobs at separation 12, where the method does not always find k exactly.
BLOBS15 = SyntheticSpec(
    cluster_count=15, points_per_cluster=70, dimension=2, center_separation=12.0, seed=4
)

CASES = [f"blobs-k{k}" for k in range(2, 7)] + ["blobs15-d2"]
DEGENERATE = ["identical", "all-outliers"]
FORMATS = ["json", "csv"]

COMMAND_ARGS = {
    "cluster": ["cluster"],
    "histogram": ["histogram"],
    **{f"evaluate-{p}": ["evaluate", "--outlier-policy", p] for p in OUTLIER_POLICIES},
    "bench": ["bench"],
    "sweep-bins": ["sweep-bins", "--bin-range", "2:6"],
}

# (case, command, format). A JSON report's id carries no format suffix.
REPORTS = (
    [
        (case, command, fmt)
        for case in CASES
        for command in ["cluster", "histogram", *(f"evaluate-{p}" for p in OUTLIER_POLICIES)]
        for fmt in FORMATS
    ]
    + [("synthetic_corpus", command, fmt) for command in ["bench", "sweep-bins"] for fmt in FORMATS]
    + [(case, "cluster", fmt) for case in DEGENERATE for fmt in FORMATS]
    + [("identical", "histogram", fmt) for fmt in FORMATS]
    + [
        ("all-outliers", f"evaluate-{p}", fmt)
        for p in OUTLIER_POLICIES
        for fmt in FORMATS
    ]
)


def _input(case: str, command: str, workdir: Path) -> list[str]:
    """The input arguments for a case, writing generated inputs into workdir."""
    if case == "synthetic_corpus":
        return ["--manifest", MANIFEST]
    if case == "identical":
        path = workdir / f"{case}.csv"
        path.write_text("1,2\n" * 4, encoding="utf-8")
        return ["-i", str(path)]
    if case == "all-outliers":
        # 50 standard-normal points in 2,000 dimensions: every point is an outlier.
        # evaluate reads two truth classes of 25 from an extra last column.
        path = workdir / f"{case}.csv"
        points = np.random.default_rng(0).standard_normal((50, 2000))
        if command == "cluster":
            save_dataset(Dataset(points=points, name=case), path)
            return ["-i", str(path)]
        labels = np.repeat([1, 2], 25)
        save_dataset(Dataset(points=points, labels=labels, name=case), path)
        return ["-i", str(path), "--label-col", "2001"]
    if case == "blobs15-d2":
        path = workdir / f"{case}.csv"
        save_dataset(generate_synthetic(BLOBS15), path)
        return ["-i", str(path), "--label-col", str(BLOBS15.dimension + 1)]
    return ["-i", str(SYNTHETIC / f"{case}.csv"), "--label-col", "9"]


def render(case: str, command: str, fmt: str, workdir: Path) -> tuple[int, bytes]:
    """Exit code and report bytes of one command; run from the repository root."""
    out = workdir / f"{case}.{command}.{fmt}"
    argv = COMMAND_ARGS[command] + _input(case, command, workdir)
    argv += ["--format", fmt, "-o", str(out)]
    return main(argv), out.read_bytes()


def write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        for case, command, fmt in REPORTS:
            _, report = render(case, command, fmt, Path(tmp))
            (GOLDEN / f"{case}.{command}.{fmt}").write_bytes(report)


@pytest.mark.parametrize(
    ("case", "command", "fmt"),
    [
        pytest.param(*r, id=f"{r[0]}-{r[1]}" + ("" if r[2] == "json" else f"-{r[2]}"))
        for r in REPORTS
    ],
)
def test_report_matches_golden_bytes(case, command, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    expect = (GOLDEN / f"{case}.{command}.{fmt}").read_bytes()
    code, report = render(case, command, fmt, tmp_path)
    assert code == (3 if case in DEGENERATE else 0)
    assert report == expect
