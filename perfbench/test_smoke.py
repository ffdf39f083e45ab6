"""Smoke tests for the benchmark at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import affclust.pipeline  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = run.measure(name, seed=3, seconds=0, trace=bool(trace), small=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _units("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)


def test_trace_has_spans_for_every_layer_and_one_run_id():
    run.measure("corpus-cli", seed=4, seconds=0, trace=True, small=True)
    trace = json.loads((run.OUT / "corpus-cli-seed4-trace1.trace.json").read_text())
    sections = trace["sections"]
    assert len({s["run_id"] for s in sections}) == 1
    names = {span["name"] for s in sections for span in s["spans"]}
    assert set(tracing.EXPECTED_SPANS) <= names
    layers = {n.split(".")[0] for n in names}
    assert layers == {"data", "preprocess", "detect", "merge", "evaluate", "pipeline", "cli"}
    for s in sections:
        for span in s["spans"]:
            assert span["end"] >= span["start"]


def test_missing_layer_fails_loudly():
    empty = tracing.Tracer("x", "samples")
    with pytest.raises(RuntimeError, match="no spans"):
        tracing.check_expected([empty])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counts_repeat_exactly(name):
    counted = ("detect.opened", "detect.adds", "detect.shifts", "preprocess.calls", "merge.steps")
    first = run.measure(name, seed=5, seconds=0, trace=True, small=True)["metrics"]
    second = run.measure(name, seed=5, seconds=0.5, trace=True, small=True)["metrics"]
    for metric in counted:
        assert first[metric] == second[metric]
    expected_calls = 12.2 if name == "corpus-cli" else 1.0  # (3 + 2 * 29) / (3 + 2)
    assert first["preprocess.calls"]["value"] == pytest.approx(expected_calls)


def test_perturbed_assignment_counts_as_failed(tmp_path, monkeypatch):
    checker = workloads.Checker(seed=6, references=None)
    workload = workloads.LibraryWorkload("noisy-64d", 6, tmp_path, checker, small=True)
    workload.warmup(inprocess=True)
    assert (checker.attempted, checker.failed) == (1, 0)

    real = affclust.pipeline.run_pipeline

    def perturbed(dataset, bins=10):
        result = real(dataset, bins)
        result.assignment = result.assignment.copy()
        result.assignment[0] += 1
        return result

    monkeypatch.setattr(affclust.pipeline, "run_pipeline", perturbed)
    assert workload.sample(inprocess=True) is None
    assert (checker.attempted, checker.failed) == (2, 1)


def test_committed_references_are_checked():
    digests = workloads.load_references()
    op = "noisy-64d.run"
    seed = next(iter(digests[op]))
    checker = workloads.Checker(int(seed), digests)
    assert not checker.check(op, "0" * 64)
    assert checker.check(op, digests[op][seed])
    assert checker.sources[op] == "committed"


def test_held_out_seed_is_recorded_for_every_operation():
    refs = json.loads(workloads.REFERENCES.read_text(encoding="utf-8"))
    held_out = str(refs["held_out_seed"])
    assert {"noisy-64d.run", "corpus.bench", "corpus.sweep"} == set(refs["digests"])
    for by_seed in refs["digests"].values():
        assert held_out in by_seed


def test_layer_map_covers_every_per_layer_metric():
    assert set(LAYERS["layer_map"]) == set(_units("per_layer"))
    e2e = set(_units("end_to_end"))
    workload_names = set(run.WORKLOADS)
    for entry in LAYERS["layer_map"].values():
        for target in entry["moves"]:
            assert target["metric"] in e2e and target["workload"] in workload_names
    for workload, pairs in LAYERS["no_change"].items():
        assert workload in workload_names
        for pair in pairs:
            assert pair["layer"] in LAYERS["layer_map"] and pair["metric"] in e2e


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "noisy-64d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
