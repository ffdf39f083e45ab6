"""Seeded inputs and the operations each workload times.

Inputs come only from the seed, through ``affclust.data.generate_synthetic``;
the program receives a ``Dataset`` (library workloads) or CSV files plus an
INI manifest (CLI workloads). Every operation's output is reduced to a
sha256 digest and checked against the committed reference for that seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import affclust.cli
import affclust.evaluate
import affclust.pipeline
from affclust.data import SyntheticSpec, generate_synthetic, save_dataset

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
CHILD_TIMEOUT_S = 150.0

SWEEP_BINS = "2:30"
CORPUS_DATASETS = 24
# sweep-bins reruns each set 29 times. It covers the nine smallest sets (n
# 96-400, about 4 s): spread over many sets, the seed-to-seed swing in one
# set's detection work averages out, where one large set would dominate.
SWEEP_DATASETS = 9
_DIMS = (2, 4, 8, 16)
_NOISE = (0.0, 0.05, 0.10)


def library_spec(workload: str, seed: int, small: bool = False) -> SyntheticSpec:
    """The in-process workload; ``small`` shrinks it for smoke tests."""
    if workload == "noisy-64d":
        per = 20 if small else 400
        return SyntheticSpec(
            cluster_count=10, points_per_cluster=per, dimension=16 if small else 64,
            center_scheme="axes", center_separation=24.0, noise_fraction=0.10,
            noise_margin=0.75, seed=seed, name="noisy-64d",
        )
    raise ValueError(f"no library workload {workload!r}")


def corpus_specs(seed: int, count: int, small: bool = False) -> list[SyntheticSpec]:
    """A fixed grid of shapes (n 100-950, d 2-16, k 2-8, noise 0-10%); the
    seed moves the points, never the shapes, so work per run stays level."""
    specs = []
    for i in range(count):
        k = 2 + (5 * i) % 7
        noise = _NOISE[i % 3]
        n_target = 40 if small else 100 + (7 * i) % 18 * 50
        specs.append(
            SyntheticSpec(
                cluster_count=k,
                points_per_cluster=max(2, round(n_target / (k * (1.0 + noise)))),
                dimension=_DIMS[i % 4],
                noise_fraction=noise,
                seed=seed * 1000 + i,
                name=f"set{i:02d}",
            )
        )
    return specs


def write_corpus(specs: list[SyntheticSpec], directory: Path, sweep_count: int) -> list[int]:
    """Write CSVs, ``corpus.ini`` (all sets) and ``sweep.ini`` (the
    ``sweep_count`` smallest, in grid order); return each set's point count."""
    sections = []
    sizes = []
    for spec in specs:
        dataset = generate_synthetic(spec)
        save_dataset(dataset, directory / f"{spec.name}.csv")
        sections.append(
            f"[{spec.name}]\npath = {spec.name}.csv\ntruth_k = {spec.cluster_count}\n"
            f"label_col = {spec.dimension + 1}\n"
        )
        sizes.append(dataset.n_points)
    (directory / "corpus.ini").write_text("\n".join(sections), encoding="utf-8")
    smallest = sorted(range(len(sizes)), key=lambda i: (sizes[i], i))[:sweep_count]
    sweep = [sections[i] for i in sorted(smallest)]
    (directory / "sweep.ini").write_text("\n".join(sweep), encoding="utf-8")
    return sizes


# ---------------------------------------------------------------------------
# digests and the reference check


def _round6(x):
    return None if x is None else round(float(x), 6)


def result_digest(result) -> str:
    """sha256 over the RunResult fields the report is built from."""
    fields = {
        "n": int(result.n_points),
        "d": int(result.n_features),
        "bins": int(result.bins),
        "degenerate": bool(result.degenerate),
        "threshold": _round6(result.threshold),
        "threshold_bin": result.threshold_bin,
        "initial_count": int(result.initial_count),
        "outliers": [int(i) for i in result.outlier_points],
        "k_estimate": int(result.k_estimate),
        "merge_count": int(result.merge_count),
        "accepted": bool(result.accepted),
        "cost_before": _round6(result.cost_before),
        "cost_after": _round6(result.cost_after),
        "final_count": int(result.final_count),
        "reported_count": result.reported_count,
        "cluster_sizes": [int(s) for s in result.cluster_sizes],
        "assignment": [int(a) for a in result.assignment],
    }
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def bytes_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_references() -> dict[str, dict[str, str]]:
    """Committed digests by operation, then by seed."""
    return json.loads(REFERENCES.read_text(encoding="utf-8"))["digests"]


class Checker:
    """Counts operations and the ones that failed.

    An operation fails when it raises, exits non-zero, or its digest differs
    from the reference. The reference is the committed digest for this seed;
    for a seed with none committed it is the first digest the run saw, so the
    run still catches outputs that drift between repeated calls.
    """

    def __init__(self, seed: int, references: dict | None):
        self.seed = seed
        self.references = references or {}
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, str] = {}
        self.sources: dict[str, str] = {}

    def expected(self, op: str, digest: str) -> str:
        committed = self.references.get(op, {}).get(str(self.seed))
        if committed is not None:
            self.sources[op] = "committed"
            return committed
        self.sources.setdefault(op, "first call")
        return self.first.setdefault(op, digest)

    def check(self, op: str, digest: str) -> bool:
        self.attempted += 1
        if digest == self.expected(op, digest):
            return True
        self.failed += 1
        print(f"perfbench: {op} seed {self.seed}: digest {digest[:12]} differs from reference",
              file=sys.stderr)
        return False

    def fail(self, op: str, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: {op} seed {self.seed}: {reason}", file=sys.stderr)


# ---------------------------------------------------------------------------
# running the program


def child_env() -> dict:
    """The inherited environment (BLAS thread settings included) plus src/."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], cwd: Path, out: Path) -> tuple[float, int, bytes, float]:
    """Run one child to completion; return wall s, exit code, stdout, max RSS MB.

    stdout and stderr go to files, and the child is reaped with wait4 so its
    own ru_maxrss is read rather than the maximum over all children.
    """
    with open(out, "wb") as fo, open(out.with_suffix(".err"), "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=fo, stderr=fe)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, out.read_bytes(), usage.ru_maxrss / 1024.0


def time_import(out: Path) -> float:
    """Set-up: a fresh interpreter importing affclust.cli."""
    wall, code, _, _ = run_child([sys.executable, "-c", "import affclust.cli"], ROOT, out)
    if code != 0:
        raise RuntimeError(f"importing affclust.cli failed with exit code {code}")
    return wall


def run_cli_inprocess(argv: list[str], cwd: Path, counts=None) -> tuple[float, int, bytes]:
    """``affclust.cli.main`` in this process, from ``cwd`` so the report bytes
    match those of a child started there."""
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            code = affclust.cli.main(argv)
            wall = time.perf_counter() - start
    finally:
        os.chdir(previous)
    data = out.getvalue().encode("utf-8")
    if counts is not None:
        counts["cli.report_bytes"] += len(data)
    return wall, code, data


def bench_quality(report: bytes) -> float:
    """Mean ARI over the datasets of an ``affclust bench`` JSON report."""
    datasets = json.loads(report)["datasets"]
    aris = [d["evaluation"]["ari"] for d in datasets if d["status"] == "ok"]
    if len(aris) != len(datasets):
        raise RuntimeError("bench report has datasets without an evaluation")
    return sum(aris) / len(aris)


# ---------------------------------------------------------------------------
# workloads


class LibraryWorkload:
    """One in-process ``run_pipeline`` call per sample, on one dataset."""

    datasets_per_sample = 1

    def __init__(self, name: str, seed: int, workdir: Path, checker: Checker, small: bool):
        self.name = name
        self.op = f"{name}.run"
        self.workdir = workdir
        self.checker = checker
        self.spec = library_spec(name, seed, small)
        self.dataset = generate_synthetic(self.spec)
        self.points_per_sample = self.dataset.n_points
        self.command_walls: dict[str, list[float]] = {}
        self.ari = None
        self.peak_rss_mb = None
        self.assignment = None

    def warmup(self, inprocess: bool) -> None:
        self.sample(inprocess)

    def sample(self, inprocess: bool, counts=None) -> float | None:
        try:
            start = time.perf_counter()
            result = affclust.pipeline.run_pipeline(self.dataset)
            wall = time.perf_counter() - start
            report = affclust.evaluate.evaluate_clustering(
                result.assignment, self.dataset.labels,
                reported_count=result.reported_count, truth_k=self.spec.cluster_count,
            )
        except Exception as exc:  # a failed operation is counted, not fatal
            self.checker.fail(self.op, f"raised {exc!r}")
            return None
        if not self.checker.check(self.op, result_digest(result)):
            return None
        if self.ari is None:
            self.ari = report.ari
            # this process is fresh and has made one call so far
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self.assignment = [int(a) for a in result.assignment]
        return wall

    def extra(self, counts) -> None:
        """The same dataset through ``affclust bench``, so the ingest, report
        and CLI layers have spans on this workload too."""
        save_dataset(self.dataset, self.workdir / "one.csv")
        (self.workdir / "one.ini").write_text(
            f"[{self.name}]\npath = one.csv\ntruth_k = {self.spec.cluster_count}\n"
            f"label_col = {self.spec.dimension + 1}\n",
            encoding="utf-8",
        )
        op = f"{self.name}.cli"
        argv = ["bench", "--manifest", "one.ini"]
        _, code, report = run_cli_inprocess(argv, self.workdir, counts)
        if code != 0:
            self.checker.fail(op, f"exit code {code}")
        elif json.loads(report)["datasets"][0]["run"]["assignment"] != self.assignment:
            self.checker.fail(op, "CLI assignment differs from the library call")
        else:
            self.checker.attempted += 1


class CorpusWorkload:
    """Fresh ``python -m affclust`` children over a seeded CSV corpus.

    One sample is ``bench`` over all sets, then ``sweep-bins --bin-range
    2:30`` over the smallest few; the sample's wall time is the two together,
    and each command's own median goes into the run notes.
    """

    def __init__(self, name: str, seed: int, workdir: Path, checker: Checker, small: bool):
        self.name = name
        self.workdir = workdir
        self.checker = checker
        count = 3 if small else CORPUS_DATASETS
        sweep_count = 2 if small else SWEEP_DATASETS
        sizes = write_corpus(corpus_specs(seed, count, small), workdir, sweep_count)
        low, _, high = SWEEP_BINS.partition(":")
        self.commands = (
            ("corpus.bench", ["bench", "--manifest", "corpus.ini"]),
            ("corpus.sweep", ["sweep-bins", "--manifest", "sweep.ini", "--bin-range", SWEEP_BINS]),
        )
        # each command loads each of its sets once
        self.datasets_per_sample = count + sweep_count
        self.points_per_sample = sum(sizes) + sum(sorted(sizes)[:sweep_count]) * (int(high) - int(low) + 1)
        self.command_walls: dict[str, list[float]] = {op: [] for op, _ in self.commands}
        self.ari = None
        self.peak_rss_mb = 0.0
        self._children = 0

    def _run(self, op: str, argv: list[str], inprocess: bool, counts) -> tuple[float, bytes] | None:
        try:
            if inprocess:
                wall, code, report = run_cli_inprocess(argv, self.workdir, counts)
            else:
                self._children += 1
                out = self.workdir / f"child{self._children}.out"
                wall, code, report, rss = run_child(
                    [sys.executable, "-m", "affclust", *argv], self.workdir, out
                )
                self.peak_rss_mb = max(self.peak_rss_mb, rss)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.checker.fail(op, f"raised {exc!r}")
            return None
        if code != 0:
            self.checker.fail(op, f"exit code {code}")
            return None
        if not self.checker.check(op, bytes_digest(report)):
            return None
        self.command_walls[op].append(wall)
        return wall, report

    def warmup(self, inprocess: bool) -> None:
        self.sample(inprocess)
        for walls in self.command_walls.values():
            walls.clear()

    def sample(self, inprocess: bool, counts=None) -> float | None:
        total = 0.0
        for op, argv in self.commands:
            done = self._run(op, argv, inprocess, counts)
            if done is None:
                return None
            total += done[0]
            if self.ari is None and op == "corpus.bench":
                self.ari = bench_quality(done[1])
        return total

    def extra(self, counts) -> None:
        """Nothing: ``bench`` and ``sweep-bins`` already reach every layer."""


def make(name: str, seed: int, workdir: Path, checker: Checker, small: bool = False):
    """The workload called ``name``, its inputs generated from ``seed``."""
    kind = CorpusWorkload if name == "corpus-cli" else LibraryWorkload
    return kind(name, seed, workdir, checker, small)
