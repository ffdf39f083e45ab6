"""End-to-end run: normalize, threshold, detect, de-noise, merge, report."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .detect import Clustering, extract_outliers, find_clusters
from .merge import MergePlan, estimate_cluster_count, merge_clusters, report_cluster_count
from .preprocess import (
    AffinityModel,
    NormalizedData,
    Uncertain,
    build_affinity_model,
    distance_matrix,
    normalize,
)

SCHEMA_VERSION = 1


@dataclass
class RunResult:
    """Everything one clustering run produced.

    assignment holds final 1-based cluster ids with 0 for outliers;
    outlier_points are 0-based indices into the input order. reported_count
    is None when the final count exceeded sqrt(n) and was withheld.
    timings_ms is informational only and excluded from deterministic output.
    Every run starts from the product geometry, whatever its size, and
    timings_ms holds a "screen" entry, the part of "affinity" the screen
    took, only when the sketch left the threshold bin open, and, only when
    the product geometry left a decision uncertain, an "exact" entry, the
    rerun from the exact geometry, and the rerun's own stages under
    "exact_distances", "exact_affinity" and "exact_detect".
    """

    name: str
    n_points: int
    n_features: int
    bins: int
    degenerate: bool
    threshold: float | None
    threshold_bin: int | None
    initial_count: int
    outlier_points: np.ndarray
    k_estimate: int
    merge_count: int
    accepted: bool
    cost_before: float | None
    cost_after: float | None
    final_count: int
    reported_count: int | None
    assignment: np.ndarray
    cluster_sizes: np.ndarray
    timings_ms: dict[str, float] = field(default_factory=dict)

    @property
    def outlier_count(self) -> int:
        return int(self.outlier_points.size)


def _detect(
    norm: NormalizedData, bins: int, exact: bool, timings: dict[str, float]
) -> tuple[AffinityModel | None, Clustering]:
    """The affinity model and the clustering detection leaves once the
    outliers are out, from the product geometry or, when exact is set, the
    exact one; timings gets each stage's wall time. The geometry holds no
    array longer than n beyond the sketch, which the model does not keep.

    Zero dispersion means every point coincides: there is no affinity model,
    and detection returns one all-points cluster whose merge is trivial.
    """
    t0 = time.perf_counter()
    geometry = distance_matrix(norm, exact=exact)
    timings["distances"] = time.perf_counter() - t0

    model = None
    if geometry.dispersion > 0.0:
        t0 = time.perf_counter()
        model = build_affinity_model(norm, geometry, bins=bins, timings=timings)
        timings["affinity"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cleaned = extract_outliers(find_clusters(norm, model))
    timings["detect"] = time.perf_counter() - t0
    return model, cleaned


def run_pipeline(dataset: Dataset, bins: int = 10) -> RunResult:
    """Cluster one dataset with no tuning beyond the histogram bin count.

    Degenerate inputs do not raise here: identical points come back as a
    single all-points cluster with no threshold, and an all-singleton
    detection comes back with zero clusters and no merge costs, both flagged
    degenerate so callers can set exit status. A count or join the product
    geometry leaves uncertain reruns the model and detection from the exact
    geometry, which gives the same result the product geometry gives
    wherever it decides.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    norm = normalize(dataset)
    timings["normalize"] = time.perf_counter() - t0

    try:
        model, cleaned = _detect(norm, bins, False, timings)
    except Uncertain:
        t0, rerun = time.perf_counter(), {}
        model, cleaned = _detect(norm, bins, True, rerun)
        timings["exact"] = time.perf_counter() - t0
        timings.update((f"exact_{stage}", seconds) for stage, seconds in rerun.items())

    merged = cleaned.cluster_count > 0  # zero when every detected cluster was a singleton
    if merged:
        t0 = time.perf_counter()
        sizes_desc = np.sort(cleaned.sizes)[::-1]
        k_estimate = estimate_cluster_count(sizes_desc)
        plan = merge_clusters(norm, cleaned, k_estimate)
        timings["merge"] = time.perf_counter() - t0
    else:
        plan = MergePlan(initial_count=0, estimated_count=0, final_assignment=cleaned.assignment)

    return RunResult(
        name=dataset.name,
        n_points=dataset.n_points,
        n_features=dataset.n_features,
        bins=bins,
        degenerate=model is None or not merged,
        threshold=None if model is None else model.threshold,
        threshold_bin=None if model is None else model.threshold_bin,
        initial_count=plan.initial_count,
        outlier_points=cleaned.outliers,
        k_estimate=plan.estimated_count,
        merge_count=len(plan.merge_steps),
        accepted=plan.accepted,
        cost_before=plan.cost_before if merged else None,
        cost_after=plan.cost_after if merged else None,
        final_count=plan.final_count,
        reported_count=report_cluster_count(plan, dataset.n_points),
        assignment=plan.final_assignment,
        cluster_sizes=np.bincount(plan.final_assignment, minlength=plan.final_count + 1)[1:],
        timings_ms={stage: seconds * 1000.0 for stage, seconds in timings.items()},
    )
