"""End-to-end and per-layer benchmark for affclust.

    python3 perfbench/run.py --workload noisy-64d --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere; the program is imported from ``src/`` next to this
directory. Metrics are printed one per line as ``name value unit`` and the
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics
and ``--trace 1`` the per-layer ones, from a separate traced run. Scratch
files and the trace go to ``.perfbench_out/`` at the checkout root.

Load is closed-loop from this one process: one operation at a time, each
started when the previous one has finished, so at most one CLI child runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("noisy-64d", "corpus-cli")
SETUP_REPEATS = 5
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Fresh n x n arrays are faulted in on every call; with huge pages the
# kernel's share of a call varies from run to run, so record the setting.
THP_MODE = Path("/sys/kernel/mm/transparent_hugepage/enabled")


def environment() -> dict:
    """What the figures depend on besides the code: cores, versions, BLAS."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    try:
        thp = THP_MODE.read_text(encoding="utf-8").strip()
    except OSError:
        thp = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "numpy_madvise_hugepage_env": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "transparent_hugepage": thp,
    }


def tail(samples: list[float]) -> float:
    """p90 by linear interpolation between order statistics. A run has too
    few samples for a percentile with ten beyond it; the maximum alone would
    follow single outliers."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def _run_samples(workload, seconds: float, traced_tracer=None):
    """Time samples until ``seconds`` have passed (at least one of each kind).

    Untraced runs time one operation per sample. Traced runs alternate an
    untraced and a traced operation, so both see the same machine state.
    """
    plain, traced = [], []
    end = time.perf_counter() + seconds
    while True:
        wall = workload.sample(inprocess=traced_tracer is not None)
        if wall is not None:
            plain.append(wall)
        if traced_tracer is not None:
            with traced_tracer.installed():
                wall = workload.sample(inprocess=True, counts=traced_tracer.counts)
            if wall is not None:
                traced.append(wall)
        if time.perf_counter() >= end:
            break
    if not plain or (traced_tracer is not None and not traced):
        raise RuntimeError("no sample succeeded")
    return plain, traced


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """One run of one workload; returns the result object printed last."""
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    checker = workloads.Checker(seed, None if small else workloads.load_references())
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{name}-") as tmp:
        workdir = Path(tmp)
        setup = [] if trace else [
            workloads.time_import(workdir / f"import{i}.out") for i in range(SETUP_REPEATS)
        ]
        workload = workloads.make(name, seed, workdir, checker, small)
        workload.warmup(inprocess=trace)
        if trace:
            run_id = uuid.uuid4().hex
            samples = tracing.Tracer(run_id, "samples")
            extra = tracing.Tracer(run_id, "extra")
            plain, traced = _run_samples(workload, seconds, samples)
            with extra.installed():
                workload.extra(extra.counts)
            tracing.check_expected([samples, extra])
            metrics = tracing.layer_metrics(
                samples, extra, len(traced), workload.datasets_per_sample
            )
            overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
            metrics["trace.overhead_pct"] = (overhead, "%")
        else:
            plain, _ = _run_samples(workload, seconds)
            p50 = statistics.median(plain)
            metrics = {
                "latency_p50_s": (p50, "s"),
                "latency_tail_s": (tail(plain), "s"),
                "points_per_s": (workload.points_per_sample * len(plain) / sum(plain), "1/s"),
                "peak_rss_mb": (workload.peak_rss_mb, "MB"),
                "setup_s": (statistics.median(setup), "s"),
                "ari": (workload.ari, "ratio"),
            }
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    notes = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "samples": len(plain),
        "sample_s": plain,
        "tail": f"latency_tail_s is the p90 of {len(plain)} samples",
        "command_wall_s": {
            op: statistics.median(walls) for op, walls in workload.command_walls.items() if walls
        },
        "failed_ratio": checker.failed / checker.attempted,
        "references": checker.sources,
        "environment": environment(),
        "result": result,
    }
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        tracing.write_trace(stem.with_suffix(".trace.json"), [samples, extra], notes)
    else:
        stem.with_suffix(".json").write_text(json.dumps(notes, indent=2) + "\n", encoding="utf-8")
    print(f"perfbench: {json.dumps({k: v for k, v in notes.items() if k != 'result'})}",
          file=sys.stderr)
    return result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in a fresh process so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "affclust" / "__init__.py").is_file():
        print(f"perfbench: no affclust sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
