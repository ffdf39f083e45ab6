"""Start-up: scipy stays unloaded until an input above the one-pass cap.

Each check runs in a fresh interpreter, since this test process has long
imported scipy itself.
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


RUN_ABOVE_THE_CAP = """
import json, sys
import numpy as np
from affclust import preprocess
from affclust.data import SyntheticSpec, generate_synthetic
from affclust.pipeline import run_pipeline

def loaded():
    return any(m.split(".")[0] == "scipy" for m in sys.modules)

spec = SyntheticSpec(cluster_count=3, points_per_cluster=483, dimension=2, seed=5)
dataset = generate_synthetic(spec)
n = dataset.n_points
cap = preprocess._ONE_PASS_PAIRS
preprocess._ONE_PASS_PAIRS = n * (n - 1) // 2  # this input, in one pass
one_pass = run_pipeline(dataset)
after_one_pass = loaded()
preprocess._ONE_PASS_PAIRS = cap
streamed = run_pipeline(dataset)
same = all(
    np.array_equal(getattr(one_pass, f), getattr(streamed, f))
    for f in vars(one_pass) if f != "timings_ms"
)
print(json.dumps([n * (n - 1) // 2 > cap, after_one_pass, loaded(), same]))
"""


def test_a_run_above_the_cap_loads_scipy_with_the_same_result():
    above, after_one_pass, after_streamed, same = json.loads(python("-c", RUN_ABOVE_THE_CAP).stdout)
    assert above
    assert not after_one_pass
    assert after_streamed
    assert same
