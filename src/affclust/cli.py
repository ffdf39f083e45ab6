"""Command-line front end.

Subcommands: cluster, evaluate, histogram, sweep-bins, bench. All outputs
are deterministic: repeated runs on identical inputs produce byte-identical
bytes. Stage timings therefore go to stderr unless --timings explicitly
embeds them. Exit codes: 0 success, 2 input or configuration error,
3 degenerate data.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .data import CorpusManifest, Dataset, load_dataset, load_manifest
from .errors import DegenerateDataError, IngestError
from .evaluate import (
    OUTLIER_POLICIES,
    EvalReport,
    corpus_accuracy,
    evaluate_clustering,
    pair_counts,
)
from .pipeline import SCHEMA_VERSION, RunResult, run_pipeline
from .preprocess import Uncertain, build_affinity_model, distance_matrix, normalize

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3


def _bin_range(text: str) -> tuple[int, int]:
    try:
        lo, _, hi = text.partition(":")
        low = int(lo)
        high = int(hi) if hi else low
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad bin range {text!r}, expected LO:HI") from None
    if low < 2 or high < low:
        raise argparse.ArgumentTypeError(f"bad bin range {text!r}: need 2 <= LO <= HI")
    return low, high


def _count(text: str, least: int = 2, what: str = "bin count") -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad {what} {text!r}") from None
    if count < least:
        raise argparse.ArgumentTypeError(f"bad {what} {text!r}: need at least {least}")
    return count


def _add_ingest_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", "-i", required=True, help="delimited text file of points")
    sub.add_argument(
        "--delimiter",
        default=None,
        help="cell separator (literal, or comma/semicolon/tab/whitespace); default: auto-detect",
    )
    sub.add_argument(
        "--label-col", type=int, default=None, help="1-based ground-truth label column"
    )
    sub.add_argument("--has-header", action="store_true", help="skip the first data row")


def _add_output_args(
    sub: argparse.ArgumentParser, default_format: str = "json", timings: bool = False
) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default=default_format)
    sub.add_argument("--output", "-o", default=None, help="output file; default stdout")
    if timings:
        sub.add_argument(
            "--timings",
            action="store_true",
            help="embed per-stage timings in the report (breaks byte-identical reruns)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affclust",
        description="Parameter-free clustering from an affinity-histogram threshold.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_cluster = subs.add_parser("cluster", help="cluster one dataset and dump the run result")
    _add_ingest_args(p_cluster)
    p_cluster.add_argument("--bins", type=_count, default=10, help="affinity histogram bins")
    _add_output_args(p_cluster, timings=True)
    p_cluster.set_defaults(func=cmd_cluster)

    p_eval = subs.add_parser("evaluate", help="cluster and score against ground-truth labels")
    _add_ingest_args(p_eval)
    p_eval.add_argument("--bins", type=_count, default=10)
    p_eval.add_argument("--outlier-policy", choices=OUTLIER_POLICIES, default="singletons")
    p_eval.add_argument(
        "--truth-k", type=lambda text: _count(text, 1, "truth k"), default=None,
        help="expected cluster count; default: distinct nonzero labels",
    )
    _add_output_args(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_hist = subs.add_parser("histogram", help="emit the affinity histogram and threshold")
    _add_ingest_args(p_hist)
    p_hist.add_argument("--bins", type=_count, default=10)
    _add_output_args(p_hist)
    p_hist.set_defaults(func=cmd_histogram)

    p_sweep = subs.add_parser("sweep-bins", help="accuracy curve over a range of bin counts")
    p_sweep.add_argument("--manifest", required=True, help="INI corpus manifest")
    p_sweep.add_argument(
        "--bin-range", type=_bin_range, default=(2, 30), help="inclusive LO:HI, default 2:30"
    )
    _add_output_args(p_sweep, default_format="csv")
    p_sweep.set_defaults(func=cmd_sweep_bins)

    p_bench = subs.add_parser("bench", help="run a whole corpus manifest and score it")
    p_bench.add_argument("--manifest", required=True, help="INI corpus manifest")
    p_bench.add_argument("--bins", type=_count, default=10)
    p_bench.add_argument("--outlier-policy", choices=OUTLIER_POLICIES, default="singletons")
    _add_output_args(p_bench, timings=True)
    p_bench.set_defaults(func=cmd_bench)
    return parser


# ---------------------------------------------------------------------------
# serialization

def _fmt(x) -> str:
    if x is None:
        return "na"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.6f}"
    return str(x)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return round(float(obj), 6)
    return obj


def _emit(args, payload: dict, notes: dict, header: list[str], rows) -> None:
    """Write one report: the payload as JSON, or as CSV the notes as
    `# key=value` lines, then the header, then one line per row."""
    if args.format == "json":
        text = json.dumps(_jsonable(payload), indent=2) + "\n"
    else:
        lines = [f"# {key}={_fmt(val)}" for key, val in notes.items()]
        lines.append(",".join(header))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")


def _report_timings(result: RunResult) -> None:
    parts = ", ".join(f"{stage} {ms:.1f} ms" for stage, ms in result.timings_ms.items())
    print(f"[{result.name}] {parts}", file=sys.stderr)


def _run_payload(result: RunResult, include_timings: bool) -> dict:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "dataset": result.name,
        "n": result.n_points,
        "d": result.n_features,
        "bins": result.bins,
        "degenerate": result.degenerate,
        "threshold": result.threshold,
        "threshold_bin": result.threshold_bin,
        "initial_cluster_count": result.initial_count,
        "outlier_count": result.outlier_count,
        "outliers": result.outlier_points + 1,
        "k_estimate": result.k_estimate,
        "merges_attempted": result.merge_count,
        "accepted": result.accepted,
        "cost_before": result.cost_before,
        "cost_after": result.cost_after,
        "final_cluster_count": (
            result.reported_count if result.reported_count is not None else "na"
        ),
        "cluster_sizes": result.cluster_sizes,
        "assignment": result.assignment,
    }
    if include_timings:
        payload["timings_ms"] = result.timings_ms
    return payload


def _score(result: RunResult, labels, truth_k: int | None, outlier_policy: str):
    """Score a run against ground-truth labels: the EvalReport and its payload."""
    report = evaluate_clustering(
        result.assignment,
        labels,
        reported_count=result.reported_count,
        truth_k=truth_k,
        outlier_policy=outlier_policy,
    )
    table = pair_counts(result.assignment, labels, outlier_policy)
    return report, {
        "pair_counts": {
            "tp": table.tp, "fp": table.fp, "fn": table.fn, "tn": table.tn,
        },
        "ari": report.ari,
        "jaccard": report.jaccard,
        "f1": report.f1,
        "predicted_k": report.predicted_k if report.predicted_k is not None else "na",
        "truth_k": report.truth_k,
        "exact_match": report.exact_match,
    }


# ---------------------------------------------------------------------------
# subcommands

def _load_input(args) -> Dataset:
    return load_dataset(
        args.input,
        delimiter=args.delimiter,
        label_column=args.label_col,
        has_header=args.has_header,
    )


def _run_and_emit(args, dataset: Dataset, report) -> int:
    """Run the pipeline on one dataset and emit `report(args, dataset, result)`.

    report returns _emit's payload, notes, header and rows. Degenerate data
    is still reported, then exits 3.
    """
    result = run_pipeline(dataset, bins=args.bins)
    _report_timings(result)
    _emit(args, *report(args, dataset, result))
    if result.degenerate:
        print(f"degenerate data: {result.name} has no clusterable structure", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def _cluster_report(args, dataset: Dataset, result: RunResult):
    run = _run_payload(result, args.timings)
    notes = {key: val for key, val in run.items() if not isinstance(val, (dict, np.ndarray))}
    if args.timings:
        notes.update((f"timing_{stage}_ms", ms) for stage, ms in result.timings_ms.items())
    rows = enumerate(result.assignment, start=1)
    return {"command": "cluster", **run}, notes, ["point", "cluster"], rows


def cmd_cluster(args) -> int:
    return _run_and_emit(args, _load_input(args), _cluster_report)


def _evaluate_report(args, dataset: Dataset, result: RunResult):
    _, scores = _score(result, dataset.labels, args.truth_k, args.outlier_policy)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "evaluate",
        "dataset": result.name,
        "n": result.n_points,
        "bins": result.bins,
        "outlier_policy": args.outlier_policy,
        "threshold": result.threshold,
        "final_cluster_count": (
            result.reported_count if result.reported_count is not None else "na"
        ),
        **scores,
    }
    columns = [
        "dataset", "n", "outlier_policy", "predicted_k", "truth_k", "exact_match",
        "ari", "jaccard", "f1",
    ]
    counts = payload["pair_counts"]
    row = [payload[key] for key in columns] + list(counts.values())
    return payload, {}, columns + list(counts), [row]


def cmd_evaluate(args) -> int:
    dataset = _load_input(args)
    if dataset.labels is None:
        raise IngestError(
            f"{dataset.name}: evaluation needs ground-truth labels; pass --label-col"
        )
    return _run_and_emit(args, dataset, _evaluate_report)


def cmd_histogram(args) -> int:
    dataset = _load_input(args)
    normalized = normalize(dataset)

    def model_of(exact: bool):
        """The affinity model with exact counts, or None for identical
        points, which have no affinity histogram: null counts and threshold
        are reported, and the exit code is 3. A geometry without a sketch
        gives exact counts, so a product geometry is counted by the screen
        with its sketch set aside."""
        geometry = distance_matrix(normalized, exact=exact)
        if geometry.dispersion <= 0.0:
            return None
        if geometry.sketch is not None:
            geometry = dataclasses.replace(geometry, sketch=None)
        return build_affinity_model(normalized, geometry, bins=args.bins)

    try:
        model = model_of(False)
    except Uncertain:  # the product geometry left a count undecided
        model = model_of(True)
    degenerate = model is None
    counts = threshold_bin = threshold = None
    if not degenerate:
        counts, threshold_bin, threshold = model.histogram[0], model.threshold_bin, model.threshold
    edges = [(i / args.bins, (i + 1) / args.bins) for i in range(args.bins)]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "histogram",
        "dataset": dataset.name,
        "n": dataset.n_points,
        "bins": args.bins,
        "counts": counts,
        "edges": edges,
        "threshold_bin": threshold_bin,
        "threshold": threshold,
    }
    notes = {
        key: payload[key]
        for key in ("schema_version", "dataset", "n", "bins", "threshold_bin", "threshold")
    }
    rows = [
        (i, lo, hi, None if counts is None else counts[i - 1])
        for i, (lo, hi) in enumerate(edges, start=1)
    ]
    _emit(args, payload, notes, ["bin", "lower", "upper", "count"], rows)
    if degenerate:
        print(f"degenerate data: {dataset.name}: all points are identical", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def _load_corpus(path: str) -> CorpusManifest:
    manifest = load_manifest(path)
    if not manifest.entries:
        raise IngestError(f"manifest {path} lists no datasets")
    return manifest


def cmd_sweep_bins(args) -> int:
    manifest = _load_corpus(args.manifest)
    low, high = args.bin_range
    datasets = []
    skipped = []
    for entry in manifest.entries:
        if not entry.available:
            skipped.append(entry.name)
            continue
        try:
            datasets.append((entry, entry.load()))
        except IngestError as exc:
            print(f"skipped: {exc}", file=sys.stderr)
            skipped.append(entry.name)
    if not datasets:
        raise IngestError(f"manifest {args.manifest}: no dataset could be loaded")
    rows = []
    accuracy_rows = []
    for bins in range(low, high + 1):
        matches = 0
        for entry, dataset in datasets:
            result = run_pipeline(dataset, bins=bins)
            predicted = result.reported_count
            exact = predicted is not None and predicted == entry.truth_k
            matches += exact
            rows.append(
                {
                    "bins": bins,
                    "dataset": entry.name,
                    "predicted_k": predicted if predicted is not None else "na",
                    "truth_k": entry.truth_k,
                    "exact_match": exact,
                }
            )
        accuracy_rows.append(
            {
                "bins": bins,
                "evaluated": len(datasets),
                "corpus_accuracy": 100.0 * matches / len(datasets),
            }
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "sweep-bins",
        "manifest": args.manifest,
        "bin_range": [low, high],
        "skipped": skipped,
        "rows": rows,
        "accuracy_by_bins": accuracy_rows,
    }
    notes = {
        "schema_version": SCHEMA_VERSION,
        "bin_range": f"{low}:{high}",
        "skipped": ";".join(skipped),
    }
    accuracy = {r["bins"]: r["corpus_accuracy"] for r in accuracy_rows}
    header = [*rows[0], "corpus_accuracy"]
    csv_rows = [[*r.values(), accuracy[r["bins"]]] for r in rows]
    _emit(args, payload, notes, header, csv_rows)
    return EXIT_OK


def cmd_bench(args) -> int:
    started = time.perf_counter()
    manifest = _load_corpus(args.manifest)
    dataset_reports = []
    eval_reports = []
    for entry in manifest.entries:
        if not entry.available:
            dataset_reports.append({"name": entry.name, "status": "skipped"})
            continue
        try:
            dataset = entry.load()
            result = run_pipeline(dataset, bins=args.bins)
        except (IngestError, DegenerateDataError) as exc:
            dataset_reports.append({"name": entry.name, "status": "error", "error": str(exc)})
            continue
        _report_timings(result)
        row = {
            "name": entry.name,
            "status": "ok",
            "run": _run_payload(result, args.timings),
        }
        if dataset.labels is not None:
            report, row["evaluation"] = _score(
                result, dataset.labels, entry.truth_k, args.outlier_policy
            )
        else:
            report = EvalReport(
                ari=float("nan"), jaccard=float("nan"), f1=float("nan"),
                predicted_k=result.reported_count, truth_k=entry.truth_k,
                exact_match=result.reported_count is not None
                and result.reported_count == entry.truth_k,
            )
            row["evaluation"] = {
                "predicted_k": report.predicted_k if report.predicted_k is not None else "na",
                "truth_k": entry.truth_k,
                "exact_match": report.exact_match,
            }
        eval_reports.append(report)
        dataset_reports.append(row)

    if not eval_reports:
        raise IngestError(f"manifest {args.manifest}: no dataset could be benchmarked")
    accuracy = corpus_accuracy(eval_reports)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "bench",
        "manifest": args.manifest,
        "bins": args.bins,
        "outlier_policy": args.outlier_policy,
        "datasets": dataset_reports,
        "skipped": manifest.skipped,
        "evaluated": len(eval_reports),
        "matched": sum(1 for r in eval_reports if r.exact_match),
        "corpus_accuracy": accuracy,
    }
    notes = {
        "schema_version": SCHEMA_VERSION,
        "manifest": args.manifest,
        "bins": args.bins,
        "outlier_policy": args.outlier_policy,
        "corpus_accuracy": accuracy,
        "skipped": ";".join(manifest.skipped),
    }
    run_columns = [
        "n", "threshold", "initial_cluster_count", "outlier_count", "k_estimate",
        "accepted", "final_cluster_count",
    ]
    eval_columns = ["truth_k", "exact_match", "ari", "jaccard", "f1"]
    header = [
        "dataset", "status", "n", "threshold", "initial_clusters", "outliers", "k_estimate",
        "accepted", "final_k", *eval_columns,
    ]
    rows = []
    for row in dataset_reports:
        cells = [row["name"], row["status"]]
        if row["status"] == "ok":
            cells += [row["run"][key] for key in run_columns]
            cells += [row["evaluation"].get(key, "") for key in eval_columns]
        rows.append(cells + [""] * (len(header) - len(cells)))
    _emit(args, payload, notes, header, rows)
    elapsed = time.perf_counter() - started
    print(f"bench: {len(eval_reports)} datasets in {elapsed:.2f} s", file=sys.stderr)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegenerateDataError as exc:
        print(f"degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


def entrypoint() -> None:
    sys.exit(main())
