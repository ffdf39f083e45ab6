"""Dataset ingestion, corpus manifests and synthetic blob generation."""

from __future__ import annotations

import configparser
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import IngestError

_DELIMITER_NAMES = {
    "comma": ",",
    "semicolon": ";",
    "tab": "\t",
    "whitespace": None,
    "space": None,
}


@dataclass
class Dataset:
    """A point matrix with an optional ground-truth label vector.

    points is (n, d) float64. labels, when present, is length n with integer
    cluster ids; id 0 marks noise/outlier points by convention, so dictionary
    encoding of textual labels never assigns 0. A label given here must be
    an int64 value, or a float that is one (3.0), as load_dataset takes it.
    """

    points: np.ndarray
    labels: np.ndarray | None = None
    name: str = "dataset"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise IngestError(f"{self.name}: points must be a 2-d matrix, got shape {pts.shape}")
        n, d = pts.shape
        if n < 2:
            raise IngestError(f"{self.name}: need at least 2 points, got {n}")
        if d < 1:
            raise IngestError(f"{self.name}: need at least 1 feature column")
        if not np.isfinite(pts).all():
            bad = np.argwhere(~np.isfinite(pts))[0]
            raise IngestError(
                f"{self.name}: non-finite value at row {bad[0] + 1}, column {bad[1] + 1}"
            )
        self.points = pts
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.shape != (n,):
                raise IngestError(
                    f"{self.name}: label vector length {lab.shape} does not match {n} points"
                )
            if lab.dtype.kind not in "bi" and (bad := [v for v in lab.tolist() if not _is_int64(v)]):
                raise IngestError(f"{self.name}: label {bad[0]!r} is not a 64-bit integer")
            self.labels = lab.astype(np.int64, copy=False)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_features(self) -> int:
        return self.points.shape[1]


def _is_int64(value: object) -> bool:
    """Whether value is an integer, or an integral float, within int64's range."""
    return isinstance(value, numbers.Real) and -(2**63) <= value < 2**63 and value == int(value)


def _sniff_delimiter(line: str) -> str | None:
    # precedence: comma, then semicolon, then whitespace
    if "," in line:
        return ","
    if ";" in line:
        return ";"
    return None


def _resolve_delimiter(delimiter: str | None) -> str | None:
    if delimiter is None:
        return None
    return _DELIMITER_NAMES.get(delimiter.lower(), delimiter)


def load_dataset(
    path: str | Path,
    *,
    delimiter: str | None = None,
    label_column: int | None = None,
    has_header: bool = False,
    name: str | None = None,
) -> Dataset:
    """Parse a delimited text file into a Dataset.

    delimiter: literal separator or one of comma/semicolon/tab/whitespace;
    None auto-detects from the first data line. label_column is 1-based.
    Blank lines and lines starting with '#' are skipped. Non-numeric labels
    are dictionary-encoded to 1, 2, ... in order of first appearance.
    """
    path = Path(path)
    name = name or path.stem
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"{name}: cannot read {path}: {exc}") from exc

    lines = [
        (i + 1, ln) for i, ln in enumerate(text.splitlines())
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if has_header and lines:
        lines = lines[1:]
    if not lines:
        raise IngestError(f"{name}: no data rows in {path}")

    sep = _resolve_delimiter(delimiter)
    if sep == "":
        raise IngestError(f"{name}: empty delimiter")
    if delimiter is None:
        sep = _sniff_delimiter(lines[0][1])

    rows = []
    width = None
    for lineno, ln in lines:
        toks = [t.strip() for t in ln.split(sep)] if sep is not None else ln.split()
        if width is None:
            width = len(toks)
        elif len(toks) != width:
            raise IngestError(
                f"{name}: row {lineno}: expected {width} columns, found {len(toks)}"
            )
        rows.append((lineno, toks))

    if label_column is not None and not 1 <= label_column <= width:
        raise IngestError(
            f"{name}: label column {label_column} out of range for {width} columns"
        )

    label_toks: list[str] | None = None
    if label_column is not None:
        label_toks = [toks[label_column - 1] for _, toks in rows]
        if width < 2:
            raise IngestError(f"{name}: no feature columns left after removing labels")

    points = np.empty((len(rows), width - (1 if label_column else 0)), dtype=np.float64)
    for r, (lineno, toks) in enumerate(rows):
        c_out = 0
        for c, tok in enumerate(toks):
            if label_column is not None and c == label_column - 1:
                continue
            try:
                points[r, c_out] = float(tok)
            except ValueError:
                raise IngestError(
                    f"{name}: row {lineno}, column {c + 1}: non-numeric value {tok!r}"
                ) from None
            c_out += 1

    labels = _encode_labels(label_toks, name) if label_toks is not None else None
    return Dataset(points=points, labels=labels, name=name)


def _encode_labels(tokens: list[str], name: str) -> np.ndarray:
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        try:  # fall back to floats that happen to be integral, e.g. "3.0"
            values = [int(v) if v.is_integer() else None for v in map(float, tokens)]
        except ValueError:
            values = [None]
        if None in values:
            codes: dict[str, int] = {}
            return np.array([codes.setdefault(t, len(codes) + 1) for t in tokens], dtype=np.int64)
    if big := [t for t, v in zip(tokens, values) if not -(2**63) <= v < 2**63]:
        raise IngestError(f"{name}: label {big[0]!r} does not fit a 64-bit integer")
    return np.array(values, dtype=np.int64)


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a comma-delimited file that round-trips through load_dataset.

    Features come first; the label column, when present, is written last.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for i in range(dataset.n_points):
            cells = [repr(float(v)) for v in dataset.points[i]]
            if dataset.labels is not None:
                cells.append(str(int(dataset.labels[i])))
            fh.write(",".join(cells) + "\n")


@dataclass
class ManifestEntry:
    name: str
    path: Path
    truth_k: int
    label_column: int | None = None
    delimiter: str | None = None
    has_header: bool = False
    available: bool = True

    def load(self) -> Dataset:
        return load_dataset(
            self.path,
            delimiter=self.delimiter,
            label_column=self.label_column,
            has_header=self.has_header,
            name=self.name,
        )


@dataclass
class CorpusManifest:
    """An ordered list of benchmark datasets with their expected cluster counts."""

    entries: list[ManifestEntry] = field(default_factory=list)
    path: Path | None = None

    @property
    def skipped(self) -> list[str]:
        return [e.name for e in self.entries if not e.available]


def load_manifest(path: str | Path) -> CorpusManifest:
    """Read an INI-style corpus manifest.

    One section per dataset: path (relative paths resolve against the
    manifest's directory), truth_k (required, >= 1), and optional label_col,
    delimiter, has_header. Entries whose file is missing are kept but flagged
    unavailable so benchmarks can skip them instead of failing.
    """
    path = Path(path)
    parser = configparser.ConfigParser()
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read manifest {path}: {exc}") from exc
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise IngestError(f"malformed manifest {path}: {exc}") from exc

    entries = []
    for section in parser.sections():
        sec = parser[section]
        if "path" not in sec or "truth_k" not in sec:
            raise IngestError(f"manifest {path}: [{section}] needs 'path' and 'truth_k'")
        try:
            truth_k = sec.getint("truth_k")
            label_column = sec.getint("label_col", fallback=None)
            has_header = sec.getboolean("has_header", fallback=False)
        except ValueError as exc:
            raise IngestError(f"manifest {path}: [{section}]: {exc}") from exc
        if truth_k < 1:
            raise IngestError(f"manifest {path}: [{section}]: truth_k must be >= 1")
        data_path = Path(sec["path"])
        if not data_path.is_absolute():
            data_path = path.parent / data_path
        entries.append(
            ManifestEntry(
                name=section,
                path=data_path,
                truth_k=truth_k,
                label_column=label_column,
                delimiter=sec.get("delimiter", fallback=None),
                has_header=has_header,
                available=data_path.is_file(),
            )
        )
    return CorpusManifest(entries=entries, path=path)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a seeded blob dataset with optional uniform background noise.

    center_separation is the minimum pairwise distance between blob centers,
    expressed in units of the largest spread. noise_fraction adds
    round(fraction * base_points) uniform points labeled 0, drawn from the
    blob bounding box padded by noise_margin times the per-dimension span.

    center_scheme picks the placement geometry: "random" rejection-samples
    centers in a box, "axes" assigns each cluster its own set of coordinate
    axes so that every dimension separates some pair of centers.
    """

    cluster_count: int
    points_per_cluster: tuple[int, ...] | int
    dimension: int
    center_separation: float = 10.0
    spread: tuple[float, ...] | float = 1.0
    noise_fraction: float = 0.0
    noise_margin: float = 0.25
    center_scheme: str = "random"
    seed: int = 0
    name: str = ""

    def counts(self) -> tuple[int, ...]:
        if isinstance(self.points_per_cluster, int):
            return (self.points_per_cluster,) * self.cluster_count
        return tuple(self.points_per_cluster)

    def spreads(self) -> tuple[float, ...]:
        if isinstance(self.spread, (int, float)):
            return (float(self.spread),) * self.cluster_count
        return tuple(float(s) for s in self.spread)


def _separated_centers(rng: np.random.Generator, count: int, dim: int, min_gap: float) -> np.ndarray:
    """Rejection-sample centers with pairwise distance >= min_gap.

    The box grows whenever placement stalls, so the procedure terminates for
    any count while staying a pure function of the generator state.
    """
    side = 2.0 * min_gap * max(1.0, count ** (1.0 / dim))
    while True:
        centers = np.empty((count, dim))
        placed = 0
        attempts = 0
        while placed < count and attempts < 500 * count:
            cand = rng.uniform(0.0, side, size=dim)
            attempts += 1
            if placed == 0 or (
                np.sqrt(((centers[:placed] - cand) ** 2).sum(axis=1)).min() >= min_gap
            ):
                centers[placed] = cand
                placed += 1
        if placed == count:
            return centers
        side *= 1.5


def _axis_centers(rng: np.random.Generator, count: int, dim: int, min_gap: float) -> np.ndarray:
    """Place centers so cluster c sits high on coordinates c, c+count, ...

    Every coordinate then separates some pair of centers, which keeps the
    per-column scale of a standardized copy tied to between-cluster structure
    rather than to in-cluster scatter. Jitter breaks the exact symmetry; a
    final rescale restores the pairwise floor the jitter may have eroded.
    """
    if dim < count:
        raise ValueError("axes placement needs dimension >= cluster_count")
    raw = np.zeros((count, dim))
    for j in range(dim):
        raw[j % count, j] = 1.0
    jitter = rng.uniform(-0.1, 0.1, size=raw.shape) * (min_gap / np.sqrt(dim))
    if count == 1:
        return raw * min_gap + jitter

    def min_pairwise(mat: np.ndarray) -> float:
        gap2 = ((mat[:, None, :] - mat[None, :, :]) ** 2).sum(axis=-1)
        np.fill_diagonal(gap2, np.inf)
        return float(np.sqrt(gap2.min()))

    centers = raw * (min_gap / min_pairwise(raw)) + jitter
    actual = min_pairwise(centers)
    if actual < min_gap:
        centers *= min_gap / actual
    return centers


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Materialize a SyntheticSpec into a shuffled, labeled Dataset.

    Deterministic for a given spec: rerunning with the same seed reproduces
    the exact same arrays.
    """
    if spec.cluster_count < 1:
        raise ValueError("cluster_count must be >= 1")
    counts = spec.counts()
    spreads = spec.spreads()
    if len(counts) != spec.cluster_count or len(spreads) != spec.cluster_count:
        raise ValueError("points_per_cluster and spread must match cluster_count")
    if any(c < 1 for c in counts):
        raise ValueError("every cluster needs at least one point")
    if spec.dimension < 1:
        raise ValueError("dimension must be >= 1")
    if not 0.0 <= spec.noise_fraction <= 0.5:
        raise ValueError("noise_fraction must lie in [0, 0.5]")
    if spec.noise_margin < 0:
        raise ValueError("noise_margin must be non-negative")
    if spec.center_separation <= 0:
        raise ValueError("center_separation must be positive")
    if spec.center_scheme not in ("random", "axes"):
        raise ValueError(f"unknown center_scheme {spec.center_scheme!r}")

    rng = np.random.default_rng(spec.seed)
    min_gap = spec.center_separation * max(spreads)
    if spec.center_scheme == "axes":
        centers = _axis_centers(rng, spec.cluster_count, spec.dimension, min_gap)
    else:
        centers = _separated_centers(rng, spec.cluster_count, spec.dimension, min_gap)

    blocks = []
    labels = []
    for c, (count, spread) in enumerate(zip(counts, spreads)):
        blocks.append(centers[c] + spread * rng.standard_normal((count, spec.dimension)))
        labels.append(np.full(count, c + 1, dtype=np.int64))
    base = np.vstack(blocks)

    noise_count = round(spec.noise_fraction * base.shape[0])
    if noise_count:
        lo = base.min(axis=0)
        hi = base.max(axis=0)
        span = np.maximum(hi - lo, max(spreads))
        pad = spec.noise_margin * span
        noise = rng.uniform(lo - pad, hi + pad, (noise_count, spec.dimension))
        base = np.vstack([base, noise])
        labels.append(np.zeros(noise_count, dtype=np.int64))

    label_vec = np.concatenate(labels)
    order = rng.permutation(base.shape[0])
    name = spec.name or f"blobs-k{spec.cluster_count}-d{spec.dimension}-seed{spec.seed}"
    return Dataset(points=base[order], labels=label_vec[order], name=name)
