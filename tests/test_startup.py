"""Start-up: no run loads scipy, not even one that falls back to the exact geometry.

scipy is only the tests' distance oracle. Each check runs in a fresh
interpreter, since this test process has long imported scipy itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, check=True
    )


def test_importing_the_cli_loads_no_scipy():
    proc = python(
        "-c",
        "import sys, affclust.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])",
    )
    assert proc.stdout.strip() == "[]"


def test_clustering_a_small_input_loads_no_scipy():
    """-X importtime lists every module the run imports, on stderr."""
    proc = python("-X", "importtime", "-m", "affclust", "cluster", "-i", "data/synthetic/blobs-k3.csv")
    assert json.loads(proc.stdout)["n"] == 231
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if "|" in line]
    assert "affclust.pipeline" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]


RUN_BOTH_GEOMETRIES = """
import json, math, sys
import numpy as np
from affclust import preprocess
from affclust.data import SyntheticSpec, generate_synthetic
from affclust.pipeline import run_pipeline

def loaded():
    return any(m.split(".")[0] == "scipy" for m in sys.modules)

spec = SyntheticSpec(cluster_count=3, points_per_cluster=483, dimension=2, seed=5)
dataset = generate_synthetic(spec)
product = run_pipeline(dataset)
# a slack that reaches 0: the product geometry decides nothing
preprocess._dispersion_slack = lambda *args: math.inf
exact = run_pipeline(dataset)
same = all(
    np.array_equal(getattr(product, f), getattr(exact, f))
    for f in vars(product) if f != "timings_ms"
)
run = product if sys.argv[1] == "product" else exact
print(json.dumps([loaded(), run.timings_ms, same]))
"""


def test_a_run_above_the_cap_loads_no_scipy_with_the_same_result():
    """A run of 1,449 points, several blocks on the worker threads: the
    product geometry decides every count and join, with the result of a
    run forced onto the exact geometry."""
    scipy, timings, same = json.loads(python("-c", RUN_BOTH_GEOMETRIES, "product").stdout)
    assert not scipy
    assert list(timings) == ["normalize", "distances", "affinity", "detect", "merge"]
    assert same


def test_a_forced_fallback_loads_no_scipy_with_the_same_result():
    """With the slack forced wide, the run reruns from the exact geometry,
    whose distances _kernel computes, and gives the product run's result.
    The product geometry raised before its distances stage ended; the
    rerun's stages are timed under their own keys, within "exact"."""
    scipy, timings, same = json.loads(python("-c", RUN_BOTH_GEOMETRIES, "wide").stdout)
    assert not scipy
    rerun = ["exact_distances", "exact_affinity", "exact_detect"]
    assert list(timings) == ["normalize", "exact", *rerun, "merge"]
    assert sum(timings[stage] for stage in rerun) <= timings["exact"]
    assert same
