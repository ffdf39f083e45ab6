"""In-memory spans and counters recorded around affclust's layer boundaries.

The program itself is not edited: wrappers are installed on the module
attributes each caller looks its callee up by (``affclust.pipeline.distance_matrix``
is what ``run_pipeline`` calls, not ``affclust.preprocess.distance_matrix``),
and removed again when the traced section ends. Spans stay in memory and
are written as JSON once the run is over.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name). One span name may be reached through
# several lookups, e.g. run_pipeline called by the benchmark and by the CLI.
SPAN_TARGETS = (
    ("affclust.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("affclust.cli", "run_pipeline", "pipeline.run_pipeline"),
    ("affclust.pipeline", "normalize", "preprocess.normalize"),
    ("affclust.pipeline", "distance_matrix", "preprocess.distance_matrix"),
    ("affclust.pipeline", "build_affinity_model", "preprocess.build_affinity_model"),
    ("affclust.pipeline", "find_clusters", "detect.find_clusters"),
    ("affclust.pipeline", "extract_outliers", "detect.extract_outliers"),
    ("affclust.pipeline", "estimate_cluster_count", "merge.estimate_cluster_count"),
    ("affclust.pipeline", "merge_clusters", "merge.merge_clusters"),
    ("affclust.cli", "load_manifest", "data.load_manifest"),
    ("affclust.data", "load_dataset", "data.load_dataset"),  # via ManifestEntry.load
    ("affclust.evaluate", "evaluate_clustering", "evaluate.evaluate_clustering"),
    ("affclust.cli", "evaluate_clustering", "evaluate.evaluate_clustering"),
    ("affclust.cli", "pair_counts", "evaluate.pair_counts"),
    ("affclust.cli", "corpus_accuracy", "evaluate.corpus_accuracy"),
    ("affclust.cli", "main", "cli.main"),
)

# ClusterState methods are called thousands of times per sweep: they are
# counted, not spanned. (class attribute, counter name)
COUNTED_METHODS = (
    ("open_cluster", "detect.opened"),
    ("add_point", "detect.adds"),
    ("remove_point", "detect.shifts"),
)

# Every span name here must record at least one call in a traced run.
EXPECTED_SPANS = tuple(sorted({name for _, _, name in SPAN_TARGETS}))


def _file_size(path) -> int:
    return Path(path).stat().st_size


def _after(name: str, args: tuple, result, counts: Counter) -> None:
    """Counters read off a layer's arguments or return value."""
    if name == "preprocess.distance_matrix":
        n = args[0].values.shape[0]
        counts["preprocess.matrix_bytes"] += 2 * 8 * n * n  # computed: two n x n float64
    elif name == "detect.find_clusters":
        counts["detect.initial_clusters"] += result.cluster_count
    elif name == "detect.extract_outliers":
        counts["detect.outliers"] += int(result.outliers.size)
    elif name == "merge.merge_clusters":
        counts["merge.steps"] += len(result.merge_steps)
        counts["merge.accepted"] += int(bool(result.accepted))
    elif name in ("data.load_dataset", "data.load_manifest"):
        counts["data.bytes_read"] += _file_size(args[0])
    elif name == "evaluate.evaluate_clustering":
        counts["evaluate.exact"] += int(bool(result.exact_match))


class Tracer:
    """Spans (name, start, end, parent) and counters for one traced section."""

    def __init__(self, run_id: str, section: str):
        self.run_id = run_id
        self.section = section
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            _after(name, args, result, self.counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, counter: str, method):
        def counted(state, *args, **kwargs):
            self.counts[counter] += 1
            return method(state, *args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name in SPAN_TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            cluster_state = importlib.import_module("affclust.detect").ClusterState
            for attr, counter in COUNTED_METHODS:
                original = cluster_state.__dict__[attr]
                saved.append((cluster_state, attr, original))
                setattr(cluster_state, attr, self._count(counter, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_time(self, name: str) -> float:
        """Summed duration of the named spans minus their direct children's."""
        total = 0.0
        for s in self.spans:
            if s[0] == name:
                total += s[2] - s[1]
        for s in self.spans:
            if s[3] is not None and self.spans[s[3]][0] == name:
                total -= s[2] - s[1]
        return total

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "section": self.section,
            "spans": [
                {"name": n, "start": start, "end": end, "parent": parent}
                for n, start, end, parent in self.spans
            ],
            "counts": dict(self.counts),
        }


def write_trace(path: Path, tracers: list[Tracer], extra: dict) -> None:
    payload = {**extra, "sections": [t.to_json() for t in tracers]}
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def check_expected(tracers: list[Tracer]) -> None:
    """Fail loudly when a layer the traced run should reach recorded nothing."""
    missing = [n for n in EXPECTED_SPANS if not any(t.calls(n) for t in tracers)]
    if missing:
        raise RuntimeError(f"traced run recorded no spans for: {', '.join(missing)}")


def _per(numerator: float, denominator: float) -> float:
    if denominator <= 0:
        raise RuntimeError("per-layer metric has no calls to divide by")
    return numerator / denominator


def layer_metrics(
    samples: Tracer, extra: Tracer, n_samples: int, datasets_per_sample: int
) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the traced samples.

    A layer the samples never reach (the CLI and ingest layers on library
    workloads) is read from the one extra traced operation instead. Times
    are self time per call; counts are per sample.
    """

    def source(name: str) -> Tracer:
        return samples if samples.calls(name) else extra

    def per_call(name: str, *also: str) -> float:
        tr = source(name)
        busy = tr.self_time(name) + sum(tr.self_time(a) for a in also)
        return _per(busy, tr.calls(name))

    def per_sample(counter: str) -> float:
        return samples.counts[counter] / n_samples

    dm = "preprocess.distance_matrix"
    cli = source("cli.main")
    ev = source("evaluate.evaluate_clustering")
    out = {
        "preprocess.normalize_s": (per_call("preprocess.normalize"), "s"),
        "preprocess.distance_matrix_s": (per_call(dm), "s"),
        "preprocess.affinity_model_s": (per_call("preprocess.build_affinity_model"), "s"),
        "preprocess.calls": (_per(samples.calls(dm), n_samples * datasets_per_sample), "count"),
        "preprocess.matrix_bytes": (
            _per(samples.counts["preprocess.matrix_bytes"], samples.calls(dm)), "bytes_computed"
        ),
        "detect.find_clusters_s": (per_call("detect.find_clusters"), "s"),
        "detect.extract_outliers_s": (per_call("detect.extract_outliers"), "s"),
        "merge.estimate_s": (per_call("merge.estimate_cluster_count"), "s"),
        "merge.merge_clusters_s": (per_call("merge.merge_clusters"), "s"),
        "data.load_manifest_s": (per_call("data.load_manifest"), "s"),
        "data.load_dataset_s": (per_call("data.load_dataset"), "s"),
        "data.bytes_read": (_per(cli.counts["data.bytes_read"], cli.calls("cli.main")), "bytes"),
        "evaluate.evaluate_s": (
            per_call(
                "evaluate.evaluate_clustering", "evaluate.pair_counts", "evaluate.corpus_accuracy"
            ),
            "s",
        ),
        "evaluate.exact_k_rate": (
            _per(ev.counts["evaluate.exact"], ev.calls("evaluate.evaluate_clustering")), "ratio"
        ),
        "cli.self_s": (per_call("cli.main"), "s"),
        "cli.report_bytes": (_per(cli.counts["cli.report_bytes"], cli.calls("cli.main")), "bytes"),
        "pipeline.self_s": (per_call("pipeline.run_pipeline"), "s"),
    }
    for counter in (
        "detect.opened", "detect.adds", "detect.shifts", "detect.initial_clusters",
        "detect.outliers", "merge.steps", "merge.accepted",
    ):
        out[counter] = (per_sample(counter), "count")
    return out
