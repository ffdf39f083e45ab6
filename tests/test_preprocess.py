"""Preprocess stage: z-scores, distance dispersion, affinity histogram, threshold.

Production never holds an n x n matrix. Up to preprocess._ONE_PASS_PAIRS
pairs it computes each distance once with its own kernel and keeps the
packed triangle. Above that it streams blocks spread over worker threads:
on the product path it estimates the dispersion from matrix products with
a certified slack, bounds each bin's count from a sketch of the estimates,
and where those bounds cannot name the threshold bin counts the histogram
with a screen that raises Uncertain where the slack leaves a count open.
A model's histogram is a (lower, upper) pair, one array twice where the
counts are exact (`exact_counts`); on the product path the oracle must lie
between them (`assert_bounds_hold`). On the exact path, the fallback, it
computes the distances by its kernel, block by block, and counts only the
screen's uncertain blocks exactly. `each_path` runs a test body on all
three paths.
The dense matrices these tests compare against are built here, by
`dense_distances` and `dense_affinities`, and so is the serial
one-block-at-a-time stream (`serial_blocks`, `serial_dispersion`,
`serial_histogram`) whose bits the exact paths must reproduce, and whose
dispersion the product path's interval must hold. `affinity_histogram`,
the binning production once used, is the histogram oracle, and
`affinity_bins` and `affinity_bar` bin a pair and find g* through exp one
probe set at a time, as production once did: the oracles of the cuts.
"""

import dataclasses
import gc
import math
import sys
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from affclust.data import Dataset, SyntheticSpec, generate_synthetic, load_dataset
from affclust.errors import DegenerateDataError
from affclust import pipeline, preprocess
from affclust.pipeline import run_pipeline
from affclust.preprocess import (
    NormalizedData,
    Uncertain,
    affinity_cuts,
    build_affinity_model,
    distance_matrix,
    normalize,
    select_threshold,
)


def ds(rows, name="t"):
    return Dataset(points=np.asarray(rows, dtype=np.float64), name=name)


def nd(rows):
    """NormalizedData wrapper for tests that want to control z-space directly."""
    z = np.asarray(rows, dtype=np.float64)
    return NormalizedData(values=z, column_means=z.mean(0), column_stds=z.std(0))


def random_dataset(seed, max_n=40, max_d=5):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    return ds(rng.normal(scale=rng.uniform(0.5, 20.0), size=(n, d)))


def dense_distances(z):
    """Reference: the full n x n distance matrix."""
    return cdist(z, z)


def dense_nearest2(z):
    """Reference: the least off-diagonal entry of each dense row, squared."""
    dist = dense_distances(z)
    np.fill_diagonal(dist, np.inf)
    nearest = dist.min(axis=1)
    return nearest * nearest


def affinity_histogram(affinity, bins=10):
    """Reference: affinity values of any shape counted into equal-width bins
    over (0, 1].

    A value v lands in bin ceil(v * bins), so self-affinities of exactly 1
    land in the top bin. Counts always sum to the number of values.
    """
    if bins < 2:
        raise ValueError("need at least 2 bins")
    idx = np.ceil(affinity * float(bins)).astype(np.int64)
    np.clip(idx, 1, bins, out=idx)
    return np.bincount(idx.ravel(), minlength=bins + 1)[1:]


def least_gap2(z):
    """Reference: for each point i, the least squared distance to another
    point as detection computes it, the row-wise einsum of z_j - z_i (a
    row's einsum does not depend on the rows that share the call)."""
    n, d = z.shape
    chunk = max(1, (1 << 20) // (n * d))
    least = np.empty(n)
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        diff = (z[None, :, :] - z[i0:i1, None, :]).reshape(-1, d)
        gaps = np.einsum("ij,ij->i", diff, diff).reshape(i1 - i0, n)
        gaps[np.arange(i1 - i0), np.arange(i0, i1)] = np.inf
        least[i0:i1] = gaps.min(axis=1)
    return least


def dense_affinities(dist, sigma):
    """Reference: the full affinity matrix, with production's per-entry expression."""
    a = dist * dist
    a /= -2.0 * sigma
    return np.exp(a)


def affinity_bins(block, dispersion, bins):
    """Reference: each distance d in a 1-D block binned by its affinity, in place.

    The affinity v of d * d goes to bin clip(ceil(v * bins), 1, bins), so
    an affinity of exactly 1 lands in the top bin; the indices are returned
    in block's own memory, viewed as int64.
    """
    np.multiply(block, block, out=block)
    preprocess._affinities(block, dispersion)
    np.multiply(block, float(bins), out=block)
    np.ceil(block, out=block)
    np.clip(block, 1.0, float(bins), out=block)
    # numpy casts a 1-D array onto itself element by element, with no copy
    idx = block.view(np.int64)
    np.copyto(idx, block, casting="unsafe")
    return idx


def affinity_bar(dispersion, threshold):
    """Reference g*: the least gap2 >= 0 whose affinity does not clear
    threshold, bisected for this one threshold."""
    guess = np.array([2.0 * dispersion * -math.log(threshold)])
    return float(preprocess.bisect_floats(
        lambda gap2: preprocess._affinities(gap2, dispersion) <= threshold, guess
    )[0])


def model_of(norm, bins=10):
    """The affinity model over the geometry production computes for norm."""
    return build_affinity_model(norm, distance_matrix(norm), bins)


def exact_counts(model):
    """The model's histogram where it must be exact: its two bounds are equal."""
    lower, upper = model.histogram
    assert np.array_equal(lower, upper)
    return lower


def assert_bounds_hold(model, expect):
    """The model's count bounds hold the oracle histogram in every bin, and
    its bin is the one the oracle's counts select."""
    lower, upper = model.histogram
    assert (lower <= expect).all() and (expect <= upper).all()
    assert (model.threshold, model.threshold_bin) == select_threshold(expect)


ONE_PASS_PAIRS = preprocess._ONE_PASS_PAIRS


def each_path(monkeypatch):
    """Yield "one-pass" with the distances computed in one pass by the kernel
    (the default cap), then, with the cap at 0, "exact" for them streamed by
    the kernel and "product" for the product estimates."""
    for path, cap in (("one-pass", ONE_PASS_PAIRS), ("exact", 0), ("product", 0)):
        monkeypatch.setattr(preprocess, "_ONE_PASS_PAIRS", cap)
        yield path


def holds(geometry, sigma):
    """Whether sigma lies in the geometry's dispersion interval."""
    low, high = preprocess._interval(geometry.dispersion, geometry.slack)
    return low <= sigma <= high


def rectangles(n):
    """Each row block's first row i0, keyed by its rectangle's size r (n -
    i0), a count that falls as i0 grows."""
    rows = max(1, preprocess._BLOCK_ENTRIES // n)
    return {min(rows, n - i0) * (n - i0): i0 for i0 in range(0, n - 1, rows)}


def strict_upper(flat, n):
    """The strict upper triangle, row-major, of a block's rectangle over
    points i0..n-1, handed over flat, and its first row i0."""
    i0 = rectangles(n)[flat.size]
    r, m = flat.size // (n - i0), n - i0
    return flat.reshape(r, m)[np.arange(r)[:, None] < np.arange(m)], i0


def folded_blocks(z, exact=False):
    """z's geometry and the row blocks its distance pass reduces, in block order.

    A spy copies each block the pass reduces: the packed distances the
    exact visit takes from _exact_block on the exact paths, and the strict
    upper triangle of the square roots _root_sum leaves in the product
    path's rectangle. Under 2 or 3 workers the blocks arrive out of order,
    so each is keyed by its first row i0, which its size gives: a packed
    block of r rows from row i0 holds r (n - i0) - r (r + 1) / 2 pairs, and
    a rectangle r (n - i0) entries, counts that fall as i0 grows.
    """
    n = z.shape[0]
    rows = max(1, preprocess._BLOCK_ENTRIES // n)
    first_row = {}
    for i0 in range(0, n - 1, rows):
        r = min(rows, n - i0)
        first_row[r * (n - i0) - r * (r + 1) // 2] = i0
    distances, roots, blocks = preprocess._exact_block, preprocess._root_sum, {}

    def exact_spy(*args):
        block = distances(*args)
        blocks[first_row[block.size]] = block.copy()
        return block

    def roots_spy(block, clip):
        total = roots(block, clip)
        upper, i0 = strict_upper(block, n)
        blocks[i0] = upper
        return total

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(preprocess, "_exact_block", exact_spy)
        patch.setattr(preprocess, "_root_sum", roots_spy)
        geometry = distance_matrix(nd(z), exact=exact)
    assert sorted(blocks) == sorted(first_row.values())
    return geometry, [blocks[i0] for i0 in sorted(blocks)]


def streamed_upper(z):
    """Every distance the exact streamed path's blocks hold, concatenated in block order."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(preprocess, "_ONE_PASS_PAIRS", 0)
        return np.concatenate(folded_blocks(z, exact=True)[1])


def serial_blocks(z):
    """Reference: the upper triangle in production's row blocks, masked out of
    one fresh cdist rectangle per block, one block at a time."""
    n = z.shape[0]
    rows = max(1, preprocess._BLOCK_ENTRIES // n)
    for i0 in range(0, n - 1, rows):
        i1 = min(i0 + rows, n)
        upper = np.arange(i1 - i0)[:, None] < np.arange(n - i0)
        yield cdist(z[i0:i1], z[i0:])[upper]


def serial_dispersion(z, blocks):
    """Reference: the dispersion of z from the serial stream's blocks, by the
    closed form sqrt(max(S2 - m^2, 0)). S2 = 2 sum_i |z_i - c|^2 / n, c the
    column mean, and m = 2 sum_b (sum of block b) / n^2, the block sums
    added in order; 0.0 where that sum is 0."""
    n, total = z.shape[0], 0.0
    for block in blocks:
        total += float(block.sum())
    y = z - z.mean(axis=0)
    second = 2.0 * float(np.square(y).sum()) / n
    mean = 2.0 * total / (float(n) * n)
    return math.sqrt(max(second - mean * mean, 0.0)) if total else 0.0


def serial_histogram(n, blocks, dispersion, bins):
    """Reference: the serial stream's affinities binned block by block."""
    histogram = affinity_histogram(np.ones(n), bins)
    for block in map(np.copy, blocks):
        np.multiply(block, block, out=block)
        np.divide(block, -2.0 * dispersion, out=block)
        np.exp(block, out=block)
        histogram += 2 * affinity_histogram(block, bins)
    return histogram


def five_thousand_points():
    """Acceptance criterion 7's set: 15 blobs, n=5,000, d=2, normalized."""
    return normalize(
        generate_synthetic(
            SyntheticSpec(
                cluster_count=15,
                points_per_cluster=(334,) * 5 + (333,) * 10,
                dimension=2,
                center_separation=12.0,
                seed=4,
            )
        )
    )


def traced_peak(fn):
    """Peak bytes tracemalloc sees, on every thread, while fn runs."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


# ---------------------------------------------------------------------------
# normalize

def test_symmetric_two_point_column_is_its_own_z_score():
    out = normalize(ds([[-1.0], [1.0]]))
    assert np.allclose(out.values, [[-1.0], [1.0]])
    assert out.column_means[0] == 0.0
    assert out.column_stds[0] == 1.0


def test_constant_column_normalizes_to_zeros():
    out = normalize(ds([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
    assert np.array_equal(out.values[:, 0], [0.0, 0.0, 0.0])
    assert out.column_stds[0] == 0.0
    assert np.abs(out.values[:, 1]).max() > 0


@pytest.mark.parametrize("rows", [3, 7])
def test_constant_column_with_inexact_mean_normalizes_to_zeros(rows):
    # the mean of n copies of 0.1 rounds away from 0.1, so std is ~1e-17, not 0
    out = normalize(ds([[0.1, float(i)] for i in range(rows)]))
    assert out.column_stds[0] == 0.0
    assert np.array_equal(out.values[:, 0], np.zeros(rows))


def test_normalization_divides_by_population_std():
    # [0,0,2,2]: mean 1, population SD 1 (sample SD would be ~1.1547)
    out = normalize(ds([[0.0], [0.0], [2.0], [2.0]]))
    assert np.array_equal(out.values[:, 0], [-1.0, -1.0, 1.0, 1.0])


def test_normalized_columns_recompute_to_zero_mean_unit_spread():
    rng = np.random.default_rng(7)
    out = normalize(ds(rng.normal(3.0, 11.0, size=(6, 3))))
    for c in range(3):
        col = out.values[:, c]
        mean = sum(col) / len(col)
        var = sum((v - mean) ** 2 for v in col) / len(col)
        assert abs(mean) < 1e-9
        assert abs(math.sqrt(var) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# distance dispersion

def test_three_four_five_triangle_distance():
    norm = nd([[0.0, 0.0], [3.0, 4.0]])
    assert streamed_upper(norm.values).tolist() == pytest.approx([5.0], abs=1e-12)
    geometry = distance_matrix(norm)
    assert geometry.packed.tolist() == pytest.approx([5.0], abs=1e-12)
    assert geometry.dispersion == pytest.approx(2.5, abs=1e-12)  # std of [0, 5, 5, 0]


def test_distance_matrix_matches_double_loop_oracle():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(5, 2))
    expect = [math.sqrt(((z[i] - z[j]) ** 2).sum()) for i in range(5) for j in range(i + 1, 5)]
    for got in (streamed_upper(z), distance_matrix(nd(z)).packed):
        assert np.abs(got - expect).max() < 1e-12


def test_distance_diagonal_zero_and_symmetric():
    """Streaming only the upper triangle is exact: the dense matrix mirrors it."""
    z = np.random.default_rng(5).normal(size=(9, 3))
    dist = dense_distances(z)
    assert np.array_equal(np.diag(dist), np.zeros(9))
    assert np.array_equal(dist, dist.T)
    assert np.array_equal(streamed_upper(z), dist[np.triu_indices(9, 1)])
    assert np.array_equal(distance_matrix(nd(z)).packed, dist[np.triu_indices(9, 1)])


def test_dispersion_is_population_std_over_all_entries():
    """Dispersion covers the full n*n matrix, zero diagonal included."""
    z = np.random.default_rng(11).normal(size=(7, 2))
    dist = dense_distances(z)
    flat = [dist[i, j] for i in range(7) for j in range(7)]
    mean = sum(flat) / len(flat)
    var = sum((v - mean) ** 2 for v in flat) / len(flat)
    assert distance_matrix(nd(z)).dispersion == pytest.approx(math.sqrt(var), abs=1e-12)


def exact_moments(values):
    """Reference: the mean and the mean square of float64 values, as exact
    fractions. Each value is an integer k times 2^e, e the least exponent
    among them, so their sum is sum(k) 2^e and their sum of squares
    sum(k^2) 2^2e, in Python integers."""
    mantissas, exponents = np.frexp(values.ravel())
    exponents -= 53  # each value is its 53-bit integer mantissa times 2^exponent
    least = int(exponents.min())
    k = np.left_shift(np.ldexp(mantissas, 53).astype(np.int64).astype(object), exponents - least)
    scale = Fraction(2) ** least
    return Fraction(int(k.sum()), k.size) * scale, Fraction(int((k * k).sum()), k.size) * scale**2


@pytest.mark.parametrize("case", ["eye-1000", "thin-shell", "uniform-500d"])
def test_exact_dispersion_is_within_the_closed_forms_bound_of_the_exact_sd(monkeypatch, case):
    """The exact geometry's dispersion against the population SD s of the
    dense cdist matrix D, in exact fractions, one-pass and streamed.

    The dispersion is fl(sqrt(max(v, 0))), v = fl(S2 - fl(m^2)), with S2
    from _second_moment and m twice the blocks' sums over N = n^2. Let
    mu = E[D] and q = E[D^2] over the N entries, so s^2 = q - mu^2, and
    u = 2^-53.

    - m sums the P = n (n - 1) / 2 non-negative pairs in blocks and divides
      once, so it is within g1 mu of mu, g1 = gamma_(P+n).
    - S2 = 2 A^ / n, A^ the computed sum of the n d squares of y = z - c,
      c the computed column means: within gamma_(nd+3) of 2 A / n. In
      reals 2 A / n = E[S] + 2 |T|^2 / n^2, S the exact squared
      distances and T = sum_i (z_i - c). T_k is n times the rounding of
      c_k, which is at most gamma_n mean_i |z_ik|, so T adds at most
      t = 2 gamma_n^2 sum_k (mean_i |z_ik|)^2. cdist rounds d
      differences, their squares, d - 1 sums and a root, so D^2 is within
      gamma_(d+5) S of S. So |S2 - q| <= e2 = gamma_(nd+d+9) (q + t) + t,
      no square here underflowing.
    - v rounds twice: |v - (S2 - m^2)| <= u m^2 + 2 u |v|.

    So |v - s^2| <= e2 + g1 (2 + g1) mu^2 + u m^2 + 2 u |v|, and squaring
    the rounded root adds 3 u sigma^2 more to |sigma^2 - s^2|: the closed
    form's cancellation bound. It is relative to q and mu^2, and |sigma -
    s| = |sigma^2 - s^2| / (sigma + s), so as a share of s it grows with
    q / s^2: 178 on the thin shell, about n on np.eye(n). Each set keeps
    it below 1e-6 of s^2, and the dispersion lies within it.
    """
    rng = np.random.default_rng(500)
    z = {
        "eye-1000": lambda: np.eye(1000),
        "thin-shell": lambda: estimate_misses()["thin-shell"],
        "uniform-500d": lambda: rng.uniform(size=(400, 500)),
    }[case]()
    n, d = z.shape
    mu, q = exact_moments(dense_distances(z))
    s2 = q - mu * mu
    u = Fraction(1, 2**53)

    def gamma(k):
        return k * u / (1 - k * u)

    t = 2 * gamma(n) ** 2 * sum(Fraction(float(v)) ** 2 for v in np.abs(z).mean(axis=0))
    e2 = gamma(n * d + d + 9) * (q + t) + t
    g1 = gamma(n * (n - 1) // 2 + n)
    for cap in (ONE_PASS_PAIRS, 0):
        monkeypatch.setattr(preprocess, "_ONE_PASS_PAIRS", cap)
        sigma = Fraction(distance_matrix(nd(z), exact=True).dispersion)
        assert sigma > 0  # so |v| is at most sigma^2 (1 + 3 u)
        m = mu * (1 + g1)  # at least m
        bound = e2 + g1 * (2 + g1) * mu * mu + u * m * m + (2 * (1 + 3 * u) + 3) * u * sigma * sigma
        assert bound < s2 / 10**6
        assert abs(sigma * sigma - s2) <= bound, float(abs(sigma * sigma - s2) / s2)


def test_distance_matrix_rejects_single_point():
    with pytest.raises(ValueError):
        distance_matrix(nd([[1.0, 2.0]]))


# ---------------------------------------------------------------------------
# affinities

def test_zero_distance_gives_unit_affinity():
    # the far pair's affinity is exp(-50), bin 1; the two self-affinities are exactly 1
    model = model_of(nd([[0.0], [50.0]]), bins=10)
    assert exact_counts(model).tolist() == [2, 0, 0, 0, 0, 0, 0, 0, 0, 2]


def test_distance_squared_twice_dispersion_maps_to_e_inverse():
    sigma = 0.37
    d = math.sqrt(2.0 * sigma)
    bins = 10_000
    norm = nd([[0.0], [d]])
    geometry = dataclasses.replace(distance_matrix(norm), dispersion=sigma)
    model = build_affinity_model(norm, geometry, bins=bins)
    expect = np.zeros(bins, dtype=np.int64)
    expect[math.ceil(math.exp(-1.0) * bins) - 1] = 2  # 0.36788 lands in bin 3679
    expect[-1] = 2
    assert np.array_equal(exact_counts(model), expect)


def test_affinity_matches_scalar_recomputation():
    norm = normalize(random_dataset(23))
    geometry = distance_matrix(norm)
    dispersion = geometry.dispersion
    dist = dense_distances(norm.values)
    n = norm.values.shape[0]
    bins = 10
    expect = [0] * bins
    for i in range(n):
        for j in range(n):
            v = math.exp(-dist[i, j] ** 2 / (2.0 * dispersion))
            expect[min(bins, max(1, math.ceil(v * bins))) - 1] += 1
    assert exact_counts(build_affinity_model(norm, geometry, bins)).tolist() == expect


def test_identical_points_are_rejected_as_degenerate():
    with pytest.raises(DegenerateDataError):
        model_of(normalize(ds([[4.0, 4.0]] * 5)))


def test_identical_rows_off_the_origin_fall_back_to_the_exact_dispersion(monkeypatch):
    """Identical rows that are not zero: their product estimates are rounding
    noise, so the interval reaches 0 and the product path raises Uncertain;
    the exact path finds the dispersion 0. All-zero rows estimate exactly."""
    monkeypatch.setattr(preprocess, "_ONE_PASS_PAIRS", 0)
    z = np.tile([0.1, 3.7, -2.9], (600, 1))
    with pytest.raises(Uncertain):
        distance_matrix(nd(z))
    assert distance_matrix(nd(z), exact=True).dispersion == 0.0
    zero = distance_matrix(nd(np.zeros((600, 3))))
    assert zero.dispersion == zero.slack == 0.0


def test_affinity_decreases_with_distance():
    norm = normalize(random_dataset(31))
    geometry = distance_matrix(norm)
    dist = dense_distances(norm.values)
    a = dense_affinities(dist, geometry.dispersion)
    iu = np.triu_indices_from(a, k=1)
    order = np.argsort(dist[iu])
    assert (np.diff(a[iu][order]) <= 1e-15).all()
    assert np.array_equal(exact_counts(build_affinity_model(norm, geometry)), affinity_histogram(a))


@pytest.mark.parametrize("n", [2, 3, 513, 600, 1100])
def test_streamed_model_matches_dense_reference(monkeypatch, n):
    """Several blocks and a partial last one, on every path: the dense
    histogram at the exact dispersion, which the product path's interval
    holds and its count bounds hold; the dense distances and dispersion on
    the exact paths."""
    rng = np.random.default_rng(n)
    for z in (rng.normal(size=(n, 3)), np.eye(n)):  # eye: every pair equidistant
        dist = dense_distances(z)
        sigma = serial_dispersion(z, serial_blocks(z))
        for path in each_path(monkeypatch):
            geometry, blocks = folded_blocks(z, exact=path == "exact")
            if path == "product":
                assert holds(geometry, sigma)
            else:
                assert np.array_equal(np.concatenate(blocks), dist[np.triu_indices(n, 1)])
                assert geometry.dispersion == sigma
            assert sigma == pytest.approx(float(np.std(dist)), rel=1e-12, abs=0.0)
            model = build_affinity_model(nd(z), geometry, bins=10)
            expect = affinity_histogram(dense_affinities(dist, sigma), 10)
            if path == "product":
                assert_bounds_hold(model, expect)
            else:
                assert np.array_equal(exact_counts(model), expect)


@pytest.mark.parametrize("block_entries", [preprocess._BLOCK_ENTRIES, 1 << 12])
@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 513, 600, 1100])
def test_threaded_passes_match_the_serial_stream_bit_for_bit(monkeypatch, n, cores, block_entries):
    """Every path, at any worker count, gives the serial stream's histograms,
    or on the product path count bounds that hold them and the bin they
    select. The exact paths give its blocks and dispersion bits, and the
    skip floor of the dense nearest-neighbour distances; the product path's
    interval holds that dispersion.

    At the real block size only n=1100 has more than one worker's worth of
    pairs; 4,096-entry blocks give every n > 90 three workers and a partial
    last block. Three workers outnumber this machine's cores when it has two,
    and a short switch interval interleaves them often: a lost or misplaced
    block result would break the comparison. The one-pass path runs on the
    calling thread; it must cut the triangle into the same blocks. The
    product path must give each block's square roots, and the dispersion,
    slack, floor, sketch and delta bits, that it gives on one worker.
    """
    monkeypatch.setattr(preprocess, "_available_cores", lambda: cores)
    monkeypatch.setattr(preprocess, "_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(n)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for z in (rng.normal(size=(n, 3)), np.eye(n)):
            expect = list(serial_blocks(z))
            sigma = serial_dispersion(z, expect)
            floor = preprocess._skip_floor(dense_nearest2(z), z.shape[1])
            histograms = {bins: serial_histogram(n, expect, sigma, bins) for bins in (2, 10, 30)}
            for path in each_path(monkeypatch):
                geometry, got = folded_blocks(z, exact=path == "exact")
                assert len(got) == len(expect)
                if path == "product":
                    assert holds(geometry, sigma)
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(preprocess, "_available_cores", lambda: 1)
                        serial, roots = folded_blocks(z)
                    for g, e in zip(got, roots):
                        assert np.array_equal(g.view(np.int64), e.view(np.int64))
                    assert geometry.dispersion.hex() == serial.dispersion.hex()
                    assert geometry.slack.hex() == serial.slack.hex()
                    assert np.array_equal(geometry.floor, serial.floor)
                    assert np.array_equal(geometry.sketch, serial.sketch)
                    assert geometry.sketch.sum() == n * (n - 1) // 2
                    assert geometry.delta.hex() == serial.delta.hex()
                else:
                    assert all(np.array_equal(g, e) for g, e in zip(got, expect))
                    assert geometry.dispersion.hex() == sigma.hex()
                    assert np.array_equal(geometry.floor, floor)
                for bins, histogram in histograms.items():
                    model = build_affinity_model(nd(z), geometry, bins)
                    if path == "product":
                        assert_bounds_hold(model, histogram)
                    else:
                        assert np.array_equal(exact_counts(model), histogram)
                    assert model.floor is geometry.floor
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n", [3, 40, 513, 1100])
def test_nearest2_is_the_dense_minimum_squared(monkeypatch, n):
    """The skip floor comes from the dense nearest2, bit for bit, on the
    exact paths, with duplicates (nearest2 0) and one isolated point. On the
    product path it stays below every gap2 detection computes, and within a
    few ulps of the squared distance's scale of it."""
    rng = np.random.default_rng(n)
    z = rng.normal(size=(n, 5))
    z[n // 2] = z[0]
    z[-1] += 100.0
    least = least_gap2(z)
    for path in each_path(monkeypatch):
        floor = distance_matrix(nd(z), exact=path == "exact").floor
        if path == "product":
            assert (floor <= least).all()
            assert (floor >= least - 1e-12 * (1.0 + np.einsum("ij,ij->i", z, z).max())).all()
        else:
            assert np.array_equal(floor, preprocess._skip_floor(dense_nearest2(z), 5))
        assert floor[0] < 0.0


def estimate_misses():
    """Sets where the product estimate of some squared distances is far off
    in relative terms: a tight cluster a thousand units out, whose |a|^2 is
    about 10^12 times its squared distances; near-duplicate pairs 10^-9
    apart, whose squared distances are below the estimate's rounding; and a
    thin shell, 600 points on a sphere of radius 10^-2 in 64 dimensions, 800
    units out. The shell's distances are concentrated, E[D^2] / sigma^2 =
    178, so the estimate's error in the mean distance moves the dispersion
    about E[D] / sigma = 13 times as much."""
    rng = np.random.default_rng(17)
    cluster = np.array([1e3, -1e3, 5e2]) + 1e-3 * rng.normal(size=(240, 3))
    pairs = rng.normal(size=(300, 4))
    pairs[150:] = pairs[:150] + 1e-9 * rng.normal(size=(150, 4))
    far = np.vstack([rng.normal(size=(240, 3)), cluster])
    sphere = rng.normal(size=(600, 64))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    shell = 1e2 * rng.choice([-1.0, 1.0], size=64) + 1e-2 * sphere
    return {"far-tight-cluster": far, "near-duplicates": pairs, "thin-shell": shell}


@pytest.mark.parametrize("case", ["far-tight-cluster", "near-duplicates", "thin-shell"])
def test_the_interval_holds_the_dispersion_where_the_estimate_misses_it(monkeypatch, case):
    """The product estimate's bits differ from the serial stream's
    dispersion here, so only its slack makes the interval hold it; the
    floor still stays below every gap2. On the thin shell the slack's
    cancellation term carries it: without it the interval would miss."""
    z = estimate_misses()[case]
    monkeypatch.setattr(preprocess, "_ONE_PASS_PAIRS", 0)
    monkeypatch.setattr(preprocess, "_BLOCK_ENTRIES", 1 << 12)
    sigma = serial_dispersion(z, serial_blocks(z))
    if case == "thin-shell":
        assert np.mean(np.square(dense_distances(z))) >= 100.0 * sigma**2
    geometry = distance_matrix(nd(z))
    assert geometry.dispersion != sigma
    assert holds(geometry, sigma)
    assert (geometry.floor <= least_gap2(z)).all()


@pytest.mark.parametrize("case", ["noisy-64d", "thin-shell"])
def test_the_slack_covers_every_mean_its_derivation_allows(monkeypatch, case):
    """_dispersion_slack's piece 2 puts the exact path's mean m within
    r + 2 (gamma + u) m~ of the product path's m~: the estimates' error,
    r = sqrt(spread / N), and each sum's rounding, gamma = gamma_(K+B).
    A mean at either end of that range, just inside it, through the closed
    form with the shared S2, gives a dispersion the interval holds. The
    rounding term is most of the range on noisy-64d's own size, and the
    estimates' error on the thin shell, where the cancellation is steep."""
    if case == "thin-shell":
        z = estimate_misses()[case]
        monkeypatch.setattr(preprocess, "_ONE_PASS_PAIRS", 0)
        monkeypatch.setattr(preprocess, "_BLOCK_ENTRIES", 1 << 12)
    else:
        z = normalize(noisy_64d(1)).values
    slack, seen = preprocess._dispersion_slack, []
    monkeypatch.setattr(preprocess, "_dispersion_slack", lambda *args: seen.append(args) or slack(*args))
    geometry = distance_matrix(nd(z))
    (variance, mean, spread, count, terms), = seen
    reach = math.sqrt(spread / count) + 2.0 * (preprocess._gamma(terms) + preprocess._U) * mean
    second = preprocess._second_moment(z)
    assert variance == second - mean * mean
    for end in (mean - reach, mean + reach):
        m = float(np.nextafter(end, mean))
        assert holds(geometry, math.sqrt(max(second - m * m, 0.0)))


def root_sums(z, clip=None):
    """z's product geometry, and the clip flag and least estimate of the
    strict upper triangle of each block _root_sum reduces; `clip`, when
    given, overrides the flag."""
    roots, seen = preprocess._root_sum, []

    def spy(block, flag):
        seen.append((flag, float(strict_upper(block, z.shape[0])[0].min())))
        return roots(block, flag if clip is None else clip)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(preprocess, "_ONE_PASS_PAIRS", 0)
        patch.setattr(preprocess, "_BLOCK_ENTRIES", 1 << 12)
        patch.setattr(preprocess, "_root_sum", spy)
        geometry = distance_matrix(nd(z))
    return geometry, seen


def test_the_clip_pass_runs_only_where_an_estimate_is_negative():
    """Near-duplicates give negative estimates, and each block holding one
    is clipped; where no estimate is negative no block is, and the
    geometry's bits are those of a pass that clips every block."""
    _, near = root_sums(estimate_misses()["near-duplicates"])
    assert any(least < 0.0 for _, least in near)
    assert all(flag for flag, least in near if least < 0.0)
    z = np.random.default_rng(5).normal(size=(600, 3))
    geometry, seen = root_sums(z)
    assert seen and not any(flag for flag, _ in seen)
    assert min(least for _, least in seen) >= 0.0
    clipped, _ = root_sums(z, clip=True)
    assert geometry.dispersion.hex() == clipped.dispersion.hex()
    assert geometry.slack.hex() == clipped.slack.hex()
    assert np.array_equal(geometry.sketch, clipped.sketch)


def product_points(case, d):
    """120 points in d dimensions for the product estimate's bound: half of
    them a tight cluster a thousand units out (M far above S), half
    near-duplicates of the other half (estimates below 0), or points and
    near-duplicates scaled by 2^-500 (squares near 2^-1000, and squared
    differences that underflow)."""
    rng = np.random.default_rng(d)
    z = rng.normal(size=(120, d))
    if case == "far-tight-cluster":
        z[60:] = 1e3 * rng.choice([-1.0, 1.0], size=d) + 1e-3 * z[60:]
    else:
        z[60:] = z[:60] * (1.0 + 1e-12 * rng.normal(size=(60, d)))
    return np.ldexp(z, -500) if case == "tiny-scale" else z


@pytest.mark.parametrize("d", [1, 2, 64, 257])
@pytest.mark.parametrize("case", ["far-tight-cluster", "near-duplicates", "tiny-scale"])
def test_product_estimates_stay_within_the_derived_bound(monkeypatch, case, d):
    """Every estimate X of two blocks' rows, against the exact squared
    distance S of the float inputs (in fractions): |X - S| <= g (3 + g) M +
    (d + 1) 2^-1073, the bound _screened_counts derives, and that bound is
    below the block's delta. A product volume of 2^10 multiply-adds cuts
    each block into tiles of 1 to 18 rows and 3 to 18 columns, so the
    blocks' pairs straddle many tile boundaries."""
    monkeypatch.setattr(preprocess, "_PRODUCT_VOLUME", 1 << 10)
    z = product_points(case, d)
    n = z.shape[0]
    exact = [[Fraction(v) for v in row] for row in z.tolist()]
    norms = [sum(v * v for v in row) for row in exact]
    u = Fraction(1, 2**53)
    g = (d + 2) * u / (1 - (d + 2) * u)
    estimate = preprocess._products(z)
    tile_rows = max(1, math.isqrt((1 << 10) // (d + 2)))
    negative = False
    for i0 in (0, 37):
        rect = np.empty((min(2 * tile_rows + 1, n - i0), n - i0))
        delta = Fraction(estimate(rect, i0))
        negative |= bool((rect < 0.0).any())
        for a in range(rect.shape[0]):
            for b in range(rect.shape[1]):
                i, j = i0 + a, i0 + b
                s = sum((x - y) ** 2 for x, y in zip(exact[i], exact[j]))
                bound = g * (3 + g) * (norms[i] + norms[j]) + (d + 1) * Fraction(1, 2**1073)
                assert abs(Fraction(rect[a, b]) - s) <= bound <= delta, (i, j)
    assert negative or case != "near-duplicates"


def test_affinity_model_memory_stays_far_below_one_dense_matrix():
    """Acceptance criterion 7's set (n=5,000, d=2): under 10% of one n x n float64."""
    norm = five_thousand_points()
    peak = traced_peak(lambda: model_of(norm))
    budget = 0.1 * norm.n_points**2 * 8
    assert peak < budget, f"peak {peak / 1e6:.1f} MB, budget {budget / 1e6:.1f} MB"


def test_workers_allocate_no_block_sized_array(monkeypatch):
    """With W workers both passes peak below W + 1/2 blocks: the W buffers the
    caller hands out, plus less than half a block of everything else."""
    workers = 2
    monkeypatch.setattr(preprocess, "_available_cores", lambda: workers)
    norm = five_thousand_points()
    peak = traced_peak(lambda: model_of(norm))
    budget = (workers + 0.5) * preprocess._BLOCK_ENTRIES * 8
    assert peak < budget, f"peak {peak / 1e6:.2f} MB, budget {budget / 1e6:.2f} MB"


def test_exact_geometry_memory_is_the_buffers_and_the_tile_scratch(monkeypatch):
    """Above the cap the exact geometry packs each block in place: with W
    workers it peaks below the W block buffers, each worker's tile of kernel
    scratch and O(n d) more, so no other block-sized array is allocated."""
    workers = 2
    monkeypatch.setattr(preprocess, "_available_cores", lambda: workers)
    norm = five_thousand_points()
    n, d = norm.values.shape
    rows, _ = preprocess._block_plan(n)
    tile = max(1, preprocess._STREAMED_TILE_ENTRIES // n) * n
    peak = traced_peak(lambda: distance_matrix(norm, exact=True))
    budget = (workers * (rows * n + tile) + 16 * n * d) * 8
    assert peak < budget, f"peak {peak / 1e6:.2f} MB, budget {budget / 1e6:.2f} MB"


def cap_points():
    """The largest input the one-pass path takes: n(n-1)/2 at most the cap."""
    n = math.isqrt(2 * preprocess._ONE_PASS_PAIRS)
    while n * (n - 1) // 2 > preprocess._ONE_PASS_PAIRS:
        n -= 1
    z = np.random.default_rng(8).normal(size=(n, 2))
    z[n // 2 :] += 6.0
    return nd(z)


def test_one_pass_memory_is_the_packed_triangle_plus_one_block():
    """At the cap, distance_matrix plus build_affinity_model peak below the
    packed triangle, one block of scratch and O(n) more; the model does not
    keep the triangle."""
    norm = cap_points()
    n = norm.n_points
    assert n * (n - 1) // 2 <= preprocess._ONE_PASS_PAIRS < n * (n + 1) // 2
    models = []
    peak = traced_peak(lambda: models.append(model_of(norm)))
    budget = (n * (n - 1) // 2 + preprocess._BLOCK_ENTRIES + 64 * n) * 8
    assert peak < budget, f"peak {peak / 1e6:.2f} MB, budget {budget / 1e6:.2f} MB"
    for field in dataclasses.fields(models[0]):
        value = getattr(models[0], field.name)
        assert np.size(value) <= n, field.name


def test_one_pass_path_stays_on_the_calling_thread(monkeypatch):
    """Below the cap, with four cores on offer, neither pass starts a thread:
    _block_plan gives the one-pass path one worker, the calling thread, and
    the memory budget at the cap counts on it. Above the cap the same input
    would start a pool."""

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(preprocess, "_available_cores", lambda: 4)
    monkeypatch.setattr(preprocess, "ThreadPoolExecutor", no_pool)
    norm = cap_points()
    geometry = distance_matrix(norm)
    assert geometry.packed is not None
    assert exact_counts(build_affinity_model(norm, geometry)).sum() == norm.n_points**2
    monkeypatch.setattr(preprocess, "_ONE_PASS_PAIRS", 0)
    with pytest.raises(AssertionError, match="thread pool"):
        distance_matrix(norm)


def test_run_result_does_not_keep_the_packed_triangle(monkeypatch):
    """The triangle is freed once the threshold is known: by the time the
    run returns, nothing refers to it."""
    norm = cap_points()
    geometries = []

    def recorded(normalized, exact=False):
        geometry = distance_matrix(normalized, exact=exact)
        geometries.append(weakref.ref(geometry.packed))
        return geometry

    monkeypatch.setattr(pipeline, "distance_matrix", recorded)
    result = run_pipeline(Dataset(points=norm.values, name="cap"))
    gc.collect()
    assert geometries[0]() is None
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        assert np.size(value) <= norm.n_points, field.name


# ---------------------------------------------------------------------------
# bin edges and the screen

def bits(x):
    return int(np.array(x).view(np.int64))


def float_of(pattern):
    return float(np.array(pattern).view(np.float64))


def pair_bins(distances, dispersion, bins, copies):
    """Each distance's bin by the per-pair binning, computed on `copies`
    copies of them in one array, as a block holds them; copies x k."""
    block = np.tile(np.asarray(distances, dtype=np.float64), copies)
    return affinity_bins(block, dispersion, bins).reshape(copies, -1)


@pytest.mark.parametrize("dispersion", [1e-3, 0.37, 1.0, 29.0, 1e3])
@pytest.mark.parametrize("bins", range(2, 31))
def test_affinity_edges_are_the_least_distances_of_each_bin(bins, dispersion):
    """bin(E_m) <= m and bin(the float below E_m) > m, alone and inside a
    long array, so on every lane of numpy's vector loops."""
    edges, _ = affinity_cuts(dispersion, bins)
    top = np.arange(1, bins)
    assert edges.shape == (bins - 1,)
    assert (edges > 0.0).all() and np.isfinite(edges).all()
    assert (np.diff(edges) <= 0.0).all()
    for copies in (1, 257):
        assert (pair_bins(edges, dispersion, bins, copies) <= top).all()
        assert (pair_bins(np.nextafter(edges, 0.0), dispersion, bins, copies) > top).all()


@pytest.mark.parametrize("dispersion", [1e-3, 0.37, 29.0, 1e3])
@pytest.mark.parametrize("bins", [2, 3, 10, 30, 1000])
def test_affinity_cuts_bars_are_the_bars_of_each_threshold(bins, dispersion):
    """The bars affinity_cuts finds with the edges, in the same probe set,
    are g* of every threshold a histogram of this many bins can pick, as
    each is bisected alone."""
    _, bars = affinity_cuts(dispersion, bins)
    assert bars.shape == (bins,)
    for k in range(bins):
        assert bars[k] == affinity_bar(dispersion, (k + 0.5) / bins)


@pytest.mark.parametrize("bins", [2, 10, 30])
def test_bisect_floats_answers_do_not_depend_on_the_guess(bins):
    """Guesses that bracket nothing (0, a subnormal, the largest float, inf,
    nan, a negative) cost steps and change no edge."""
    dispersion, top = 0.37, np.arange(1, bins)
    expect, _ = affinity_cuts(dispersion, bins)
    for bad in (0.0, 5e-324, 1.7e308, np.inf, np.nan, -1.0):
        got = preprocess.bisect_floats(
            lambda d: affinity_bins(d, dispersion, bins) <= top,
            np.full(bins - 1, bad),
        )
        assert np.array_equal(got, expect)


def screened_histogram(
    monkeypatch, z, dispersion, bins, block_entries=1 << 12, slack=0.0, one_pass=False
):
    """The streamed model's histogram of z at this dispersion, and how many
    blocks the screen left to the exact counting (a spy on _exact_block,
    which once the geometry is built only those blocks reach). With a
    slack, the dispersion is an interval, as on the product path, and the
    histogram is None where the screen raises Uncertain. With one_pass, the
    model counts the packed triangle, and no block is computed again."""
    if not one_pass:
        monkeypatch.setattr(preprocess, "_ONE_PASS_PAIRS", 0)
        monkeypatch.setattr(preprocess, "_BLOCK_ENTRIES", block_entries)
    geometry = dataclasses.replace(
        distance_matrix(nd(z), exact=True), dispersion=dispersion, slack=slack
    )
    assert (geometry.packed is not None) == one_pass
    exact, fallbacks = preprocess._exact_block, []
    with monkeypatch.context() as patch:
        patch.setattr(preprocess, "_exact_block", lambda *a: fallbacks.append(a[2]) or exact(*a))
        try:
            histogram = exact_counts(build_affinity_model(nd(z), geometry, bins))
        except Uncertain:
            histogram = None
    return histogram, len(fallbacks)


def dense_histogram(z, dispersion, bins):
    return affinity_histogram(dense_affinities(dense_distances(z), dispersion), bins)


def near_edge_dispersions(distance, bins, m, reach=3):
    """Dispersions at which edge m lies within reach ulps of distance, keyed
    by the edge's offset from it in ulps.

    A distance reaches bin m once exp(-d^2 / 2 sigma) * bins <= m, so the
    edge is about sqrt(2 sigma ln(bins / m)); sigma is set from the distance
    and stepped one bit pattern at a time, each step moving the edge by about
    half an ulp.
    """
    centre = bits(distance * distance / (2.0 * math.log(bins / m)))
    found = {}
    for pattern in range(centre - 8 * reach, centre + 8 * reach + 1):
        dispersion = float_of(pattern)
        offset = bits(affinity_cuts(dispersion, bins)[0][m - 1]) - bits(distance)
        if abs(offset) <= reach:
            found.setdefault(offset, dispersion)
    assert min(found) < 0 < max(found)
    return found


@pytest.mark.parametrize(
    ("d", "one_pass"),
    [
        pytest.param(d, one_pass, id=f"{d}-one-pass" if one_pass else str(d))
        for one_pass in (False, True)
        for d in (1, 3, 16)
    ],
)
def test_screen_bins_pairs_within_ulps_of_an_edge_exactly(monkeypatch, d, one_pass):
    """A pair whose cdist distance sits a few ulps from edge m, on either side
    and on it: the screen cannot tell which side, so that block is counted
    exactly, and the histogram is the dense one's. An interval of the
    smallest slack around the same dispersion raises Uncertain wherever a
    block was counted exactly, and gives the dense histogram elsewhere. On
    the one-pass path, whose geometry is exact, the packed triangle is
    counted against the same edges and gives the dense histogram."""
    rng = np.random.default_rng(d)
    z = rng.normal(size=(300, d))
    dist = dense_distances(z)
    fallbacks = 0
    for bins, m, (i, j) in ((10, 4, (0, 1)), (10, 9, (5, 200)), (2, 1, (7, 299)), (30, 17, (150, 151))):
        for dispersion in near_edge_dispersions(dist[i, j], bins, m).values():
            got, used = screened_histogram(monkeypatch, z, dispersion, bins, one_pass=one_pass)
            expect = dense_histogram(z, dispersion, bins)
            assert np.array_equal(got, expect)
            fallbacks += used
            if not one_pass:
                narrow, _ = screened_histogram(monkeypatch, z, dispersion, bins, slack=5e-324)
                assert narrow is None if used else np.array_equal(narrow, expect)
    assert (fallbacks > 0) != one_pass


@pytest.mark.parametrize("width", [1e-9, 1e-6, 1e-4, 1e-2])
@pytest.mark.parametrize("d", [2, 16])
def test_screen_counts_a_pair_only_where_both_ends_agree(monkeypatch, d, width):
    """A dispersion interval of relative width 2 width: the screen gives the
    dense histogram at both ends where they agree, which is then the
    histogram at every dispersion between them, and raises Uncertain
    wherever the ends disagree on some pair's bin."""
    z = np.random.default_rng(d).normal(size=(400, d))
    dispersion = distance_matrix(nd(z)).dispersion
    outcomes = set()
    for bins in (2, 10, 30):
        slack = width * dispersion
        low, high = preprocess._interval(dispersion, slack)
        ends = [dense_histogram(z, sigma, bins) for sigma in (low, dispersion, high)]
        got, _ = screened_histogram(monkeypatch, z, dispersion, bins, slack=slack)
        if not np.array_equal(ends[0], ends[2]):
            assert got is None
        if got is not None:
            assert all(np.array_equal(got, end) for end in ends)
        outcomes.add(got is None)
    if width <= 1e-9:
        assert outcomes == {False}
    if width >= 1e-2:
        assert True in outcomes


def test_screen_bins_a_far_tight_cluster_exactly(monkeypatch):
    """A tight cluster a thousand units from the origin: |a|^2 is about 10^12
    times the squared distances within it, so the estimate cancels badly
    there. The dispersion puts the edges among those distances; the
    cluster's blocks are binned exactly and the others are screened."""
    rng = np.random.default_rng(17)
    cluster = np.array([1e3, -1e3, 5e2]) + 1e-3 * rng.normal(size=(240, 3))
    z = np.vstack([rng.normal(size=(240, 3)), cluster])
    inner = dense_distances(cluster)[np.triu_indices(240, 1)]
    blocks = len(range(0, z.shape[0] - 1, (1 << 12) // z.shape[0]))
    for bins in (2, 10, 30):
        dispersion = float(np.median(inner) ** 2 / (2.0 * math.log(2.0)))
        got, used = screened_histogram(monkeypatch, z, dispersion, bins)
        assert np.array_equal(got, dense_histogram(z, dispersion, bins))
        assert 0 < used < blocks


def test_screen_bins_two_identical_clusters_exactly(monkeypatch):
    """The same cluster twice, forty units out: every distance within it
    occurs four times, and the copies' own pairs are at distance 0. An edge
    within ulps of one repeated distance puts all four copies of it in doubt
    at once."""
    rng = np.random.default_rng(29)
    cluster = rng.normal(size=(150, 4)) + 40.0
    z = np.vstack([cluster, cluster, rng.normal(size=(20, 4))])
    target = dense_distances(cluster)[3, 90]
    fallbacks = 0
    for dispersion in near_edge_dispersions(target, 10, 6).values():
        got, used = screened_histogram(monkeypatch, z, dispersion, 10)
        assert np.array_equal(got, dense_histogram(z, dispersion, 10))
        fallbacks += used
    assert fallbacks > 0


@pytest.mark.parametrize(
    ("case", "seed", "stage", "models"),
    [
        ("one-pass", 7, None, [(False, 1)]),
        ("product", 0, None, [(True, 2)]),
        ("sketch-open", 7, "screen", [(True, 2)]),
        ("fallback", 7, "exact", [(False, 1)]),
    ],
    ids=["one-pass", "product", "sketch-open", "fallback"],
)
def test_exp_sees_only_the_bisection_once_per_dispersion_end(monkeypatch, case, seed, stage, models):
    """Through run_pipeline, on the one-pass path, the product path with the
    bin named by the sketch or left open to the screen, and the fallback
    forced by an infinite slack: exp is applied to at most 2 bins - 1
    values at a time, affinity_cuts' probes, never to a block of pairs, and
    each model bisects once per end of its dispersion interval (a model is
    listed as whether its geometry has a slack, and its bisections)."""
    from test_detect import interesting_points

    bins = 10
    if case != "one-pass":
        monkeypatch.setattr(preprocess, "_ONE_PASS_PAIRS", 0)
    if case == "fallback":
        monkeypatch.setattr(preprocess, "_dispersion_slack", lambda *args: math.inf)
    affinities, bisect, build = (
        preprocess._affinities, preprocess.bisect_floats, pipeline.build_affinity_model
    )
    sizes, calls, built = [], [], []
    monkeypatch.setattr(
        preprocess, "_affinities", lambda gap2, sigma: sizes.append(gap2.size) or affinities(gap2, sigma)
    )
    monkeypatch.setattr(preprocess, "bisect_floats", lambda *args: calls.append(1) or bisect(*args))

    def counted(norm, geometry, *args, **kwargs):
        before = len(calls)
        try:
            return build(norm, geometry, *args, **kwargs)
        finally:
            built.append((geometry.slack > 0.0, len(calls) - before))

    monkeypatch.setattr(pipeline, "build_affinity_model", counted)
    result = run_pipeline(ds(interesting_points(seed)), bins=bins)
    assert 0 < max(sizes) <= 2 * bins - 1
    assert built == models
    assert {"screen", "exact"} & set(result.timings_ms) == ({stage} if stage else set())


@pytest.mark.parametrize("k", [-500, 500])
def test_screen_gives_the_unscaled_histogram_at_extreme_scales(monkeypatch, k):
    """Scaling z by 2^k and the dispersion by 2^2k leaves every affinity's
    bits alone. At 2^500 the squared norms pass 2^1000 and every block is
    binned exactly, with no overflow; at 2^-500 the screen works on squared
    distances near 2^-1000."""
    z = np.random.default_rng(3).normal(size=(200, 3))
    dispersion = distance_matrix(nd(z)).dispersion
    expect = dense_histogram(z, dispersion, 10)
    got, used = screened_histogram(monkeypatch, np.ldexp(z, k), math.ldexp(dispersion, 2 * k), 10)
    assert np.array_equal(got, expect)
    blocks = len(range(0, 199, (1 << 12) // 200))
    assert used == (blocks if k > 0 else 0)


# ---------------------------------------------------------------------------
# the sketch: count bounds from the product estimates

def noisy_64d(seed):
    """perfbench's noisy-64d set: 10 axis blobs of 400 points in 64
    dimensions, plus 10% uniform noise."""
    return generate_synthetic(SyntheticSpec(
        cluster_count=10, points_per_cluster=400, dimension=64, center_scheme="axes",
        center_separation=24.0, noise_fraction=0.10, noise_margin=0.75, seed=seed,
    ))


def bands_of(d, interval, bins):
    """_bands over the interval (low, high), from the edges at its two ends."""
    low, high = interval
    return preprocess._bands(d, affinity_cuts(high, bins)[0], affinity_cuts(low, bins)[0])


def sketch_histograms(geometry, d, bins):
    """The sketch's lower and upper bounds on each bin of the histogram over
    the geometry's interval: each pair counted twice, n in the top bin."""
    interval = preprocess._interval(geometry.dispersion, geometry.slack)
    bounds = preprocess._sketch_bounds(geometry.sketch, geometry.delta, bands_of(d, interval, bins))
    for counts in bounds:
        counts *= 2
        counts[-1] += geometry.floor.size
    return bounds


def sketch_outcomes(z, bin_counts):
    """z on the product path at each bin count. The affinity_histogram
    oracle at the exact dispersion lies within the sketch's bounds in every
    bin. Where the bounds name a bin it is select_threshold of the oracle,
    the model keeps the bounds and no screen runs; elsewhere the screen runs
    and the model has the oracle's counts. Returns how many bin counts the
    sketch left open."""
    n, d = z.shape
    geometry = distance_matrix(nd(z))
    sigma = distance_matrix(nd(z), exact=True).dispersion
    opened = 0
    for bins in bin_counts:
        expect = serial_histogram(n, serial_blocks(z), sigma, bins)
        lower, upper = sketch_histograms(geometry, d, bins)
        assert (lower <= expect).all() and (expect <= upper).all()
        named = select_threshold(lower, upper)
        timings = {}
        model = build_affinity_model(nd(z), geometry, bins, timings=timings)
        assert (model.threshold, model.threshold_bin) == select_threshold(expect)
        assert ("screen" in timings) == (named is None)
        if named is None:
            assert np.array_equal(exact_counts(model), expect)
            opened += 1
        else:
            assert np.array_equal(model.histogram, (lower, upper))
    return opened


@pytest.mark.parametrize("i", range(24))
def test_sketch_bounds_hold_the_oracle_on_the_corpus_grid(monkeypatch, i):
    """perfbench's corpus grid, streamed, at the bin counts corpus-cli runs."""
    from test_detect import corpus_shape, swept_shapes

    monkeypatch.setattr(preprocess, "_ONE_PASS_PAIRS", 0)
    z = normalize(generate_synthetic(corpus_shape(i))).values
    sketch_outcomes(z, range(2, 31) if i in swept_shapes() else [10])


@pytest.mark.parametrize("case", [f"blobs-k{k}" for k in range(2, 7)] + ["blobs15-d2"])
def test_sketch_names_the_bin_on_the_streamed_golden_sets(monkeypatch, case):
    """The golden sets, streamed, at the bin counts the golden reports use
    (10, and 2..6 for sweep-bins): the sketch names every bin, so no
    streamed golden report but `histogram`, which prints the counts, runs
    the screen."""
    from test_golden import BLOBS15, SYNTHETIC

    monkeypatch.setattr(preprocess, "_ONE_PASS_PAIRS", 0)
    if case == "blobs15-d2":
        dataset, bin_counts = generate_synthetic(BLOBS15), [10]
    else:
        dataset = load_dataset(SYNTHETIC / f"{case}.csv", label_column=9)
        bin_counts = [2, 3, 4, 5, 6, 10]
    assert sketch_outcomes(normalize(dataset).values, bin_counts) == 0


def test_sketch_bounds_hold_the_oracle_on_the_reference_seeds(monkeypatch):
    """Detection's 30 reference seeds, streamed, at 2, 10 and 30 bins."""
    from test_detect import interesting_points

    monkeypatch.setattr(preprocess, "_ONE_PASS_PAIRS", 0)
    for seed in range(30):
        sketch_outcomes(normalize(ds(interesting_points(seed))).values, (2, 10, 30))


@pytest.mark.parametrize("seed", [0, 1, 1009])
def test_the_sketch_decides_noisy_64d_as_the_screen_does(monkeypatch, seed):
    """noisy-64d's own size (n = 4,400, d = 64): the sketch names the bin
    with no screen, and the run equals one forced through the screen (its
    geometries stripped of their sketch)."""
    dataset = noisy_64d(seed)
    assert sketch_outcomes(normalize(dataset).values, [10]) == 0
    result = run_pipeline(dataset)
    assert "screen" not in result.timings_ms and "exact" not in result.timings_ms
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "distance_matrix", lambda norm, exact=False: dataclasses.replace(
            distance_matrix(norm, exact=exact), sketch=None
        ))
        screened = run_pipeline(dataset)
    for field in dataclasses.fields(result):
        if field.name != "timings_ms":
            got, expect = getattr(result, field.name), getattr(screened, field.name)
            assert np.array_equal(got, expect), field.name


def test_a_bin_the_sketch_leaves_open_runs_the_screen_for_the_exact_model():
    """15 blobs, d = 2, n = 5,250: at 10 bins the two steepest jumps lie
    within 5% of each other (ROADMAP item 2), closer than the sketch's
    bounds can tell apart, so the screen counts the pairs and the model is
    the exact geometry's; at 20 and 30 bins the sketch names the bin."""
    norm = normalize(generate_synthetic(SyntheticSpec(
        cluster_count=15, points_per_cluster=350, dimension=2, center_separation=12.0, seed=1,
    )))
    product, exact = distance_matrix(norm), distance_matrix(norm, exact=True)
    opened = []
    for bins in (10, 20, 30):
        timings = {}
        got = build_affinity_model(norm, product, bins, timings=timings)
        expect = build_affinity_model(norm, exact, bins)
        if "screen" in timings:
            assert np.array_equal(exact_counts(got), exact_counts(expect))
            opened.append(bins)
        else:
            assert_bounds_hold(got, exact_counts(expect))
        assert (got.threshold, got.threshold_bin) == (expect.threshold, expect.threshold_bin)
        assert got.bar[0] <= expect.bar[0] == expect.bar[1] <= got.bar[1]
    assert opened == [10]


def far_cluster(offset):
    """A tight cluster `offset` units out beside 240 points around the
    origin: within the cluster |a|^2 is some 10^5 offset^2 times the
    squared distances, and an estimate errs by a matching share."""
    rng = np.random.default_rng(17)
    cluster = np.array([1.0, -1.0, 0.5]) * offset + 1e-3 * rng.normal(size=(240, 3))
    return np.vstack([rng.normal(size=(240, 3)), cluster])


@pytest.mark.parametrize("offset", [1e3, 1e4])
def test_sketch_bounds_hold_where_the_estimates_miss_the_distances(monkeypatch, offset):
    """With the dispersion set to put the edges among the far cluster's own
    distances, the estimates of those pairs err by more than the edges'
    rounding bands: only the block delta keeps the oracle within the
    sketch's bounds. A bin is named only where the oracle's is that bin."""
    monkeypatch.setattr(preprocess, "_ONE_PASS_PAIRS", 0)
    monkeypatch.setattr(preprocess, "_BLOCK_ENTRIES", 1 << 12)
    z = far_cluster(offset)
    inner = dense_distances(z[240:])[np.triu_indices(240, 1)]
    geometry = distance_matrix(nd(z))
    for spread in (0.5, 1.0, 2.0):
        dispersion = float(spread * np.median(inner) ** 2 / (2.0 * math.log(2.0)))
        fixed = dataclasses.replace(geometry, dispersion=dispersion, slack=0.0)
        for bins in (2, 10, 30):
            expect = dense_histogram(z, dispersion, bins)
            lower, upper = sketch_histograms(fixed, 3, bins)
            assert (lower <= expect).all() and (expect <= upper).all()
            named = select_threshold(lower, upper)
            assert named is None or named == select_threshold(expect)


@pytest.mark.parametrize("d", [1, 4])
def test_estimates_outside_the_window_are_never_decided(monkeypatch, d):
    """A pair of identical points, whose estimate is rounding noise at most
    2^-84, and pairs 2^34 apart or more, whose estimates pass 2^64, go to
    the outside bucket, which bounds no bin from below and every bin from
    above, at any dispersion; pairs 2^-20 apart land in inner buckets. The
    sketch counts each pair once, and none of the rectangles' corners."""
    monkeypatch.setattr(preprocess, "_ONE_PASS_PAIRS", 0)
    z = np.zeros((50, d))
    z[1:25, 0] = np.ldexp(1.0, -20) * np.arange(1, 25)
    z[25:, 0] = np.ldexp(1.0, 34) * np.arange(1, 26)
    z[10] = z[11]
    sketch = distance_matrix(nd(z)).sketch
    assert sketch.sum() == 50 * 49 // 2
    outside = sketch[-1]
    assert 0 < outside < sketch.sum()
    lone = np.zeros_like(sketch)
    lone[-1] = outside
    for dispersion in (1e-30, 1.0, 1e30):
        lower, upper = preprocess._sketch_bounds(lone, 0.0, bands_of(d, (dispersion, dispersion), 10))
        assert not lower.any()
        assert (upper == outside).all()


def root_keys(roots):
    """Reference: each root's bucket, from its exponent E and its first 7
    mantissa bits, (E + 32) 128 + those bits inside [2^-32, 2^32), and the
    outside bucket elsewhere."""
    inside = (roots >= 2.0**-32) & (roots < 2.0**32)
    fraction, exponent = np.frexp(np.where(inside, roots, 1.0))  # fraction in [0.5, 1)
    keys = (exponent - 1 + 32) * 128 + np.floor((2.0 * fraction - 1.0) * 128).astype(np.int64)
    return np.where(inside, keys, preprocess._SKETCH_INNER)


def test_the_sketch_counts_a_negative_estimate_as_its_clip():
    """The product pass sketches the roots fl(sqrt(X+)) in place. A
    negative estimate, clipped to 0.0, and -0.0, which no clip changes and
    whose root is -0.0, land in the outside bucket, as do subnormal roots,
    roots below 2^-32 and roots of 2^32 or more; 2^-32 is bucket 0's least
    root and the float below 2^32 the last inner bucket's largest. Every
    root is counted once, in the bucket of its exponent and first 7
    mantissa bits."""
    inner = preprocess._SKETCH_INNER
    tiny, huge = np.finfo(np.float64).smallest_subnormal, np.finfo(np.float64).max
    clipped = np.array([-0.0, 0.0, -tiny, -huge, -1e-300, -(2.0**-64)])
    preprocess._root_sum(clipped, True)
    unclipped = np.array([-0.0])
    preprocess._root_sum(unclipped, False)
    assert math.copysign(1.0, unclipped[0]) == -1.0
    below = float(np.nextafter(2.0**-32, 0.0))
    outside = np.concatenate([clipped, unclipped, [tiny, 2.0**-1030, 1e-300, below, 2.0**32, huge, np.inf]])
    assert preprocess._sketch(outside.copy())[-1] == outside.size
    ends = np.array([2.0**-32, np.nextafter(2.0**32, 0.0)])
    assert np.flatnonzero(preprocess._sketch(ends)).tolist() == [0, inner - 1]
    roots = np.exp(np.random.default_rng(9).uniform(-25.0, 25.0, size=5000))  # both sides of the window
    counts = preprocess._sketch(roots.copy())
    assert np.array_equal(counts, np.bincount(root_keys(roots), minlength=inner + 1))
    assert counts.sum() == roots.size


def test_each_estimate_lies_within_the_ends_of_its_roots_bucket():
    """For X at, and up to three floats either side of, the square of every
    inner bucket end y, the bucket of D~ = fl(sqrt(X)) has x0 <= X < x1
    (_sketch_ends). In exact fractions y^2 is exact, and x0 is at most y0^2
    (1 - u)^2, below every X whose root rounds to y0 or above. x0 needs
    that margin: below some y0^2 a float's root still rounds to y0."""
    inner = preprocess._SKETCH_INNER
    y = ((np.arange(inner + 1) + preprocess._SKETCH_FIRST) << preprocess._SKETCH_SHIFT).view(np.float64)
    x0, x1 = preprocess._sketch_ends()
    u = Fraction(1, 2**53)
    squares = y * y
    assert all(Fraction(s) == Fraction(v) ** 2 for s, v in zip(squares.tolist(), y.tolist()))
    assert all(Fraction(a) <= Fraction(v) ** 2 * (1 - u) ** 2 for a, v in zip(x0.tolist(), y.tolist()))
    assert np.array_equal(x1, squares[1:])
    x = (squares.view(np.int64)[:, None] + np.arange(-3, 4)).view(np.float64).ravel()
    roots = np.sqrt(x)
    keys = root_keys(roots)
    assert np.array_equal(preprocess._sketch(roots.copy()), np.bincount(keys, minlength=inner + 1))
    held = keys < inner
    assert (x0[keys[held]] <= x[held]).all() and (x[held] < x1[keys[held]]).all()
    assert ((x < squares[keys.clip(max=inner - 1)]) & held).any()


def test_a_bucket_a_band_touches_is_not_decided():
    """One pair in each inner bucket, at 4 bins and one dispersion: every
    bucket wholly past each band is decided, and each bucket holding a
    band's end spans the bins on both sides of it. A bucket's estimates lie
    in [x0, x1): x1 the square of its upper root end, x0 two floats below
    the square of its lower one."""
    sketch = np.ones(preprocess._SKETCH_INNER + 1, dtype=np.int64)
    sketch[-1] = 0
    bins, interval, delta = 4, (0.37, 0.38), 1e-3
    bands = bands_of(2, interval, bins)
    hi, lo = bands[0] + delta, bands[1] - delta
    keys = np.arange(preprocess._SKETCH_INNER + 1) + preprocess._SKETCH_FIRST
    y = (keys << preprocess._SKETCH_SHIFT).view(np.float64)
    x0, x1 = np.nextafter(np.nextafter(y[:-1] ** 2, 0.0), 0.0), y[1:] ** 2
    first = 1 + (lo[None, :] >= x1[:, None]).sum(axis=1)
    last = bins - (hi[None, :] <= x0[:, None]).sum(axis=1)
    lower, upper = preprocess._sketch_bounds(sketch, delta, bands)
    for m in range(1, bins + 1):
        assert lower[m - 1] == ((first == m) & (last == m)).sum()
        assert upper[m - 1] == ((first <= m) & (m <= last)).sum()
    for m in range(1, bins):  # the buckets holding hi_m + delta and lo_m - delta
        for end in (hi[m - 1], lo[m - 1]):
            held = np.flatnonzero((x0 < end) & (end < x1))
            assert held.size
            assert all(first[k] <= m < last[k] for k in held)


# ---------------------------------------------------------------------------
# histogram

def test_single_self_affinity_lands_in_top_bin():
    hist = affinity_histogram(np.array([[1.0]]), bins=10)
    assert hist.tolist() == [0, 0, 0, 0, 0, 0, 0, 0, 0, 1]


def test_value_at_085_buckets_into_ninth_bin():
    # ceiling rule: ceil(0.85 * 10) = 9
    hist = affinity_histogram(np.array([[0.85]]), bins=10)
    assert hist[8] == 1
    assert hist.sum() == 1


def test_histogram_matches_brute_force_bucketing():
    norm = normalize(random_dataset(41, max_n=4))
    geometry = distance_matrix(norm)
    a = dense_affinities(dense_distances(norm.values), geometry.dispersion)
    bins = 10
    expect = [0] * bins
    for v in a.ravel():
        b = min(bins, max(1, math.ceil(v * bins)))
        expect[b - 1] += 1
    assert affinity_histogram(a, bins).tolist() == expect
    assert exact_counts(build_affinity_model(norm, geometry, bins)).tolist() == expect


def test_histogram_counts_sum_to_n_squared():
    norm = normalize(random_dataset(43, max_n=30))
    geometry = distance_matrix(norm)
    n = norm.n_points
    for bins in (2, 7, 10, 30):
        assert exact_counts(build_affinity_model(norm, geometry, bins)).sum() == n * n


def test_histogram_rejects_single_bin():
    with pytest.raises(ValueError):
        affinity_histogram(np.array([[1.0]]), bins=1)


# ---------------------------------------------------------------------------
# threshold selection

def test_single_maximal_jump_picks_ninth_bin():
    hist = np.array([0, 0, 0, 0, 0, 0, 0, 0, 10, 90])
    threshold, k = select_threshold(hist)
    assert k == 9
    assert threshold == pytest.approx(0.85)


def test_threshold_tie_breaks_toward_smallest_bin():
    # jumps of +5 at positions 1 and 3; the first must win
    threshold, k = select_threshold(np.array([0, 5, 0, 5]))
    assert k == 1
    assert threshold == pytest.approx(0.125)


def test_threshold_matches_independent_difference_scan():
    rng = np.random.default_rng(59)
    pts = np.vstack([
        rng.normal(loc=(0, 0), scale=1.0, size=(20, 2)),
        rng.normal(loc=(10, 10), scale=1.0, size=(20, 2)),
    ])
    model = model_of(normalize(ds(pts)), bins=10)
    histogram = exact_counts(model)
    best_k, best_jump = None, None
    for i in range(1, 10):
        jump = int(histogram[i]) - int(histogram[i - 1])
        if best_jump is None or jump > best_jump:
            best_k, best_jump = i, jump
    assert model.threshold_bin == best_k
    assert model.threshold == pytest.approx((best_k - 0.5) / 10)


def test_bounds_name_a_bin_only_where_no_rival_can_reach_it():
    """Later rivals may tie the winner, earlier ones may not: a tie goes to
    the smallest bin."""
    # jump 1 is at least 4 and jump 3 at most 4: whatever h is, bin 1 wins
    assert select_threshold([0, 5, 0, 4], [1, 5, 0, 4]) == (0.125, 1)
    # jump 3 is 5 and jump 1 may be 5 too, which would take the tie
    assert select_threshold([0, 4, 0, 5], [0, 5, 0, 5]) is None
    # jump 1 at most 4 stays below jump 3's 5
    assert select_threshold([0, 3, 0, 5], [0, 4, 0, 5]) == (0.625, 3)
    # jump 1 is 4, jump 3 between 4 and 5
    assert select_threshold([0, 4, 0, 4], [0, 4, 1, 5]) is None


def test_bounds_name_only_the_bin_every_histogram_within_them_selects():
    """Random counts, many tied, and random bounds around them: on equal
    bounds the bin is the first argmax of the jumps, and a bin named from
    wider bounds is the one the counts select."""
    rng = np.random.default_rng(71)
    named = 0
    for _ in range(3000):
        bins = int(rng.integers(2, 8))
        h = rng.integers(0, 6, size=bins)
        k = int(np.argmax(np.diff(h))) + 1
        assert select_threshold(h) == select_threshold(h, h) == ((k - 0.5) / bins, k)
        lower = h - rng.integers(0, 2, size=bins) * rng.integers(0, 3, size=bins)
        upper = h + rng.integers(0, 2, size=bins) * rng.integers(0, 3, size=bins)
        got = select_threshold(lower, upper)
        if got is not None:
            assert got == select_threshold(h)
            named += lower.tolist() != upper.tolist()
    assert named > 100


def test_all_negative_jumps_still_pick_a_bin():
    threshold, k = select_threshold(np.array([90, 50, 10]))
    assert k == 1  # least negative jump, first position
    assert 0.0 < threshold < 1.0


def test_model_composition_is_consistent():
    norm = normalize(random_dataset(61))
    geometry = distance_matrix(norm)
    model = build_affinity_model(norm, geometry, bins=10)
    bar = affinity_bar(geometry.dispersion, model.threshold)
    assert model.bar == (bar, bar)
    histogram = exact_counts(model)
    assert histogram.size == 10
    assert histogram.sum() == norm.n_points**2
    assert model.threshold == (model.threshold_bin - 0.5) / histogram.size
    assert 1 <= model.threshold_bin <= 9


# ---------------------------------------------------------------------------
# invariants on random data

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_normalize_invariants_hold_on_random_data(seed):
    norm = normalize(random_dataset(seed))
    means = norm.values.mean(axis=0)
    stds = norm.values.std(axis=0)
    assert np.abs(means).max() < 1e-9
    for c, s in enumerate(stds):
        if norm.column_stds[c] == 0.0:
            assert not norm.values[:, c].any()
        else:
            assert abs(s - 1.0) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from([2.0**-600, 0.25, 0.5, 2.0, 4.0, 8.0, 2.0**600]),
)
def test_power_of_two_column_scaling_is_exactly_invisible(seed, factor):
    """Column scaling by a binade multiple changes no bit downstream."""
    base = random_dataset(seed)
    scaled = Dataset(points=base.points * factor, name=base.name)
    n1, n2 = normalize(base), normalize(scaled)
    assert np.array_equal(n2.column_means, n1.column_means * factor)
    assert np.array_equal(n2.column_stds, n1.column_stds * factor)
    assert np.array_equal(n1.values, n2.values)
    g1, g2 = distance_matrix(n1), distance_matrix(n2)
    assert g1.dispersion == g2.dispersion
    assert np.array_equal(
        dense_affinities(dense_distances(n1.values), g1.dispersion),
        dense_affinities(dense_distances(n2.values), g2.dispersion),
    )
    m1, m2 = build_affinity_model(n1, g1), build_affinity_model(n2, g2)
    assert np.array_equal(m1.histogram, m2.histogram)
    assert m1.threshold == m2.threshold


@pytest.mark.parametrize("factor", [1e-200, 1e200])
def test_two_blobs_survive_extreme_input_scales(factor):
    rng = np.random.default_rng(4)
    blobs = np.vstack([rng.normal(size=(30, 2)), rng.normal(size=(30, 2)) + 10.0])
    base = run_pipeline(ds(blobs))
    scaled = run_pipeline(ds(blobs * factor))
    assert not scaled.degenerate
    assert scaled.final_count == base.final_count == 2
    assert np.array_equal(scaled.assignment, base.assignment)


def test_arbitrary_positive_scaling_leaves_z_scores_close():
    base = random_dataset(97)
    scaled = Dataset(points=base.points * 3.7, name=base.name)
    z1 = normalize(base).values
    z2 = normalize(scaled).values
    assert np.abs(z1 - z2).max() < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_row_permutation_cannot_move_the_threshold(seed):
    """The histogram is a multiset statistic, blind to point order."""
    base = random_dataset(seed)
    rng = np.random.default_rng(seed + 1)
    perm = rng.permutation(base.n_points)
    shuffled = Dataset(points=base.points[perm], name=base.name)
    m1 = model_of(normalize(base))
    m2 = model_of(normalize(shuffled))
    assert np.array_equal(m1.histogram, m2.histogram)
    assert m1.threshold == m2.threshold


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_affinity_model_invariants_hold_on_random_data(seed):
    norm = normalize(random_dataset(seed))
    geometry = distance_matrix(norm)
    n = norm.values.shape[0]
    model = build_affinity_model(norm, geometry, bins=10)
    a = dense_affinities(dense_distances(norm.values), geometry.dispersion)
    assert ((a > 0) & (a <= 1)).all()
    assert np.array_equal(np.diag(a), np.ones(n))
    assert np.array_equal(a, a.T)
    assert np.array_equal(exact_counts(model), affinity_histogram(a, 10))
    assert exact_counts(model).sum() == n * n
    assert 0.0 < model.threshold < 1.0
