"""Golden reports: regenerated `cluster` and `histogram` JSON must match byte for byte.

The goldens cover the five bundled synthetic sets and one generated set of
1,050 points, large enough that the affinity model streams several distance
blocks. Any change to the reports shows up here; a deliberate one is made by
rewriting the files with `write_goldens()` and recording why in CHANGES.md:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \
import test_golden; test_golden.write_goldens()"
"""

import tempfile
from pathlib import Path

import pytest

from affclust.cli import main
from affclust.data import SyntheticSpec, generate_synthetic, save_dataset

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
SYNTHETIC = ROOT / "data" / "synthetic"

# 15 blobs at separation 12, where the method does not always find k exactly.
BLOBS15 = SyntheticSpec(
    cluster_count=15, points_per_cluster=70, dimension=2, center_separation=12.0, seed=4
)

CASES = [f"blobs-k{k}" for k in range(2, 7)] + ["blobs15-d2"]
COMMANDS = ["cluster", "histogram"]


def _input(case: str, workdir: Path) -> tuple[Path, int]:
    """The case's CSV and its 1-based label column."""
    if case == "blobs15-d2":
        path = workdir / f"{case}.csv"
        save_dataset(generate_synthetic(BLOBS15), path)
        return path, BLOBS15.dimension + 1
    return SYNTHETIC / f"{case}.csv", 9


def render(case: str, command: str, workdir: Path) -> bytes:
    path, label_col = _input(case, workdir)
    out = workdir / f"{case}.{command}.json"
    main([command, "-i", str(path), "--label-col", str(label_col), "-o", str(out)])
    return out.read_bytes()


def write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for command in COMMANDS:
                report = render(case, command, Path(tmp))
                (GOLDEN / f"{case}.{command}.json").write_bytes(report)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden_bytes(case, command, tmp_path):
    expect = (GOLDEN / f"{case}.{command}.json").read_bytes()
    assert render(case, command, tmp_path) == expect
