"""Parameter-free affinity-threshold clustering.

The pipeline normalizes columns, derives a Gaussian affinity threshold from
the affinity histogram's steepest jump, grows clusters around incrementally
updated centroids, sheds singleton outliers, estimates the natural cluster
count from the size distribution, and merges greedily under a cost check.
No user-supplied parameters beyond the histogram bin count (default 10).
"""

from .data import (
    CorpusManifest,
    Dataset,
    ManifestEntry,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_manifest,
    save_dataset,
)
from .detect import Clustering, ClusterState, extract_outliers, find_clusters
from .errors import DegenerateDataError, IngestError
from .evaluate import (
    OUTLIER_POLICIES,
    EvalReport,
    PairCountTable,
    adjusted_rand_index,
    corpus_accuracy,
    evaluate_clustering,
    jaccard_index,
    pair_counts,
    pairwise_f1,
)
from .merge import (
    MergePlan,
    estimate_cluster_count,
    merge_clusters,
    normalized_within_cost,
    report_cluster_count,
    within_cluster_ss,
)
from .pipeline import SCHEMA_VERSION, RunResult, run_pipeline
from .preprocess import (
    AffinityModel,
    DistanceMatrix,
    NormalizedData,
    affinity_histogram,
    build_affinity_model,
    distance_matrix,
    normalize,
    select_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "AffinityModel",
    "Clustering",
    "ClusterState",
    "CorpusManifest",
    "Dataset",
    "DegenerateDataError",
    "DistanceMatrix",
    "EvalReport",
    "IngestError",
    "ManifestEntry",
    "MergePlan",
    "NormalizedData",
    "OUTLIER_POLICIES",
    "PairCountTable",
    "RunResult",
    "SCHEMA_VERSION",
    "SyntheticSpec",
    "adjusted_rand_index",
    "affinity_histogram",
    "build_affinity_model",
    "corpus_accuracy",
    "distance_matrix",
    "estimate_cluster_count",
    "evaluate_clustering",
    "extract_outliers",
    "find_clusters",
    "generate_synthetic",
    "jaccard_index",
    "load_dataset",
    "load_manifest",
    "merge_clusters",
    "normalize",
    "normalized_within_cost",
    "pair_counts",
    "pairwise_f1",
    "report_cluster_count",
    "run_pipeline",
    "save_dataset",
    "select_threshold",
    "within_cluster_ss",
    "__version__",
]
