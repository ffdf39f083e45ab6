"""Detection scan: sequential absorption, incremental centroids, outliers."""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affclust import detect, preprocess
from affclust.data import Dataset, SyntheticSpec, generate_synthetic
from affclust.detect import (
    _FIRST_WINDOW,
    Clustering,
    ClusterState,
    _absorb_pass,
    _sweep,
    extract_outliers,
    find_clusters,
    relabel,
)
from affclust.preprocess import (
    NormalizedData,
    Uncertain,
    affinity_cuts,
    build_affinity_model,
    distance_matrix,
    normalize,
    pairwise_distances,
)


def prepared(points):
    norm = normalize(Dataset(points=np.asarray(points, dtype=np.float64), name="t"))
    geometry = distance_matrix(norm)
    model = build_affinity_model(norm, geometry) if geometry.dispersion > 0 else None
    return norm, model


def swept(points):
    """The normalized points and the scan's working state after the sweep."""
    norm, model = prepared(points)
    return norm, _sweep(norm.values, model)


def snapshot(state):
    return [a.copy() for a in (state.assignment, state.centroids, state.sizes, state.bar)]


def oracle_absorb_pass(state, k, join=None):
    """The detection pass with one window of exact gap2 per join or shift.

    Semantically a plain j = 1..n loop. Between two modifications nothing
    changes, so positions are tested in vectorized windows: a window with no
    hit is skipped and the next one is twice as wide, a hit is applied and
    the scan resumes right after it with a narrower window. Each window is
    one comparison, gap2 < bar, against the centroid as it stands. A hit on
    an unassigned point whose gap2 is not below join, the lower join bar,
    raises Uncertain. The production pass must make its add_point and
    remove_point calls, in its order, and raise where it raises.
    """
    z = state.points
    n = z.shape[0]
    assignment = state.assignment
    bar = state.bar
    j = 0
    width = _FIRST_WINDOW
    while j < n:
        stop = min(j + width, n)
        diff = z[j:stop] - state.centroids[k]
        gaps = np.einsum("ij,ij->i", diff, diff)
        hits = gaps < bar[j:stop]
        pos = hits.argmax()
        if not hits[pos]:
            j = stop
            width *= 2
            continue
        jj = j + int(pos)
        donor = int(assignment[jj])
        if donor != 0:
            state.remove_point(jj)
            state.refresh_bar(donor)
        elif join is not None and not gaps[pos] < join:
            raise Uncertain("a gap2 lies between the join bars")
        state.add_point(k, jj)
        j = jj + 1
        width = max(_FIRST_WINDOW, width // 2)
    state.refresh_bar(k)


def oracle_sweep(z, model):
    """_sweep with the oracle pass, and with every pass production skips run
    anyway, asserting the pass changed nothing.

    Returns the final state, which must be production's, and the number of
    passes production skips.
    """
    join, upper = model.bar
    state = ClusterState(z)
    state.bar.fill(upper)
    skipped = 0
    for i in range(z.shape[0]):
        if state.assignment[i] == 0:
            k = state.open_cluster(i)
            state.bar[i] = 0.0
            skip = model.floor[i] >= state.bar.max()
            before = snapshot(state)
            oracle_absorb_pass(state, k, join)
            if skip:
                skipped += 1
                after = snapshot(state)
                assert all(np.array_equal(b, a) for b, a in zip(before, after)), f"pass {k} at {i}"
    return state, skipped


def assert_skip_is_invisible(z, model):
    """The oracle's state equals production's, bit for bit; returns the skip count."""
    expect, skipped = oracle_sweep(z, model)
    got = _sweep(z, model)
    assert all(np.array_equal(g, e) for g, e in zip(snapshot(got), snapshot(expect)))
    return skipped


# Budget shares of sqrt(g*) the sweep is checked at besides production's
# (None): a smaller budget ends more windows on a join, a larger one lets
# the centroid drift further before a window ends.
SHARES = (None, 0.125, 0.25, 2.0)


def moves(run, share=None):
    """The add_point and remove_point calls run() makes, as (op, k, j), and
    a snapshot of the state it returns, with the drift budget at share."""
    calls = []
    add, remove = ClusterState.add_point, ClusterState.remove_point

    def logged_add(self, k, j):
        calls.append(("add", int(k), int(j)))
        add(self, k, j)

    def logged_remove(self, j):
        calls.append(("remove", int(self.assignment[j]), int(j)))
        return remove(self, j)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(ClusterState, "add_point", logged_add)
        m.setattr(ClusterState, "remove_point", logged_remove)
        if share is not None:
            m.setattr(detect, "_BUDGET", share)
        state = run()
    return calls, snapshot(state)


def assert_same_moves(got, expect):
    assert got[0] == expect[0]
    assert all(np.array_equal(g, e) for g, e in zip(got[1], expect[1]))


def assert_moves_are_the_oracles(z, model, shares=SHARES):
    """Production's sweep makes the oracle's calls, in its order, and ends in
    its state, bit for bit, at every budget share. Returns the calls."""
    expect = moves(lambda: oracle_sweep(z, model)[0])
    for share in shares:
        assert_same_moves(moves(lambda: _sweep(z, model), share), expect)
    return expect[0]


def gap2(z, j, c):
    """Squared distance from point j to centroid c as a one-row array.

    It is production's row-wise einsum, which may fuse multiply-adds, so a
    plain sum of squares can differ from it in the last bit; the oracle must
    compare the same values.
    """
    diff = z[j : j + 1] - c
    return np.einsum("ij,ij->i", diff, diff)


def naive_find_clusters(z, sigma, threshold):
    """Literal per-point transcription of the detection scan.

    Plain Python loops, dict-backed state, no windows or caches: the
    reference the production scan must agree with exactly.
    """
    n = z.shape[0]
    assign = [0] * n
    centroids: dict[int, np.ndarray] = {}
    sizes: dict[int, int] = {}
    opened = 0
    for i in range(n):
        if assign[i]:
            continue
        opened += 1
        k = opened
        assign[i] = k
        centroids[k] = z[i].copy()
        sizes[k] = 1
        for j in range(n):
            if assign[j] == 0:
                if np.exp(gap2(z, j, centroids[k]) / (-2.0 * sigma))[0] > threshold:
                    s = sizes[k]
                    centroids[k] = (s * centroids[k] + z[j]) / (s + 1)
                    sizes[k] = s + 1
                    assign[j] = k
            elif assign[j] != k:
                old = assign[j]
                if gap2(z, j, centroids[k])[0] < gap2(z, j, centroids[old])[0]:
                    s = sizes[old]
                    if s <= 1:
                        del centroids[old]
                        del sizes[old]
                    else:
                        centroids[old] = (s * centroids[old] - z[j]) / (s - 1)
                        sizes[old] = s - 1
                    s = sizes[k]
                    centroids[k] = (s * centroids[k] + z[j]) / (s + 1)
                    sizes[k] = s + 1
                    assign[j] = k
    live = sorted(sizes)
    remap = {k: r + 1 for r, k in enumerate(live)}
    return [remap[a] for a in assign]


def interesting_points(seed):
    """Mixtures that exercise joins, shifts and emptied clusters."""
    rng = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 0:
        k = int(rng.integers(2, 5))
        centers = rng.uniform(-30, 30, size=(k, 2))
        return np.vstack([c + rng.normal(size=(int(rng.integers(5, 20)), 2)) for c in centers])
    if kind == 1:
        return rng.uniform(-5, 5, size=(int(rng.integers(10, 60)), int(rng.integers(1, 4))))
    blob = rng.normal(size=(25, 3))
    far = rng.uniform(20, 40, size=(int(rng.integers(1, 5)), 3))
    return np.vstack([blob, far])


# ---------------------------------------------------------------------------
# scan versus the naive reference

@pytest.mark.parametrize("seed", range(30))
def test_scan_matches_naive_reference(seed):
    pts = interesting_points(seed)
    norm, model = prepared(pts)
    got = find_clusters(norm, model)
    expect = naive_find_clusters(norm.values, distance_matrix(norm).dispersion, model.threshold)
    assert got.assignment.tolist() == expect
    assert_moves_are_the_oracles(norm.values, model)


def test_skipped_passes_change_nothing_on_the_reference_seeds():
    """The seeds of test_scan_matches_naive_reference skip passes, so that
    test checks the scan with the skip on."""
    skipped = 0
    for seed in range(30):
        norm, model = prepared(interesting_points(seed))
        skipped += assert_skip_is_invisible(norm.values, model)
    assert skipped > 0


@pytest.mark.parametrize("dimension", [16, 64])
@pytest.mark.parametrize("seed", [1, 2, 7])
def test_skipped_passes_change_nothing_on_small_noisy_sets(seed, dimension):
    """noisy-64d's shape at 20 points per cluster: its noise points are
    the singletons the skip is for, and its clusters' passes join many
    points per window."""
    spec = SyntheticSpec(
        cluster_count=10, points_per_cluster=20, dimension=dimension,
        center_scheme="axes", center_separation=24.0, noise_fraction=0.10,
        noise_margin=0.75, seed=seed,
    )
    dataset = generate_synthetic(spec)
    norm, model = prepared(dataset.points)
    assert assert_skip_is_invisible(norm.values, model) >= 0.9 * (dataset.labels == 0).sum()
    assert_moves_are_the_oracles(norm.values, model)


def ulps(a, b):
    """How many float64 bit patterns b lies above a (both non-negative)."""
    return int(np.array(b).view(np.int64)) - int(np.array(a).view(np.int64))


def near_tie_models(z, model, target, reach=4):
    """Dispersions whose affinity bar g* lies within reach ulps of target,
    each with a copy of model that carries that bar.

    g* is about 2sigma * -ln(threshold), so the dispersion is set from target
    and stepped one bit pattern at a time around that value; the naive
    reference reads the dispersion, the scan the copy's bar.
    """
    two_sigma = target / -np.log(model.threshold)
    centre = int(np.array(two_sigma).view(np.int64))
    found = {}
    for pattern in range(centre - 8 * reach, centre + 8 * reach + 1):
        sigma = float(np.array(pattern).view(np.float64)) / 2.0
        bar = model_bar(sigma, model.histogram[0].size, model.threshold_bin)
        if abs(offset := ulps(target, bar)) <= reach:
            found.setdefault(offset, (sigma, replace(model, bar=(bar, bar))))
    return found


def nd_of(z):
    """z used as z-scores as it is."""
    return NormalizedData(z, np.zeros(z.shape[1]), np.ones(z.shape[1]))


def near_tie_points(seed, d, below):
    """Noise point 0, its neighbour 1 and a far blob, in d dimensions, with
    the model and point 0's nearest2.

    The neighbour is drawn until the scan's einsum of their squared distance
    reads below (or above) nearest2, the square of cdist's distance, so a
    bar between the two separates what the skip test sees from what the
    pass would compute.
    """
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        p = rng.normal(size=d)
        q = p + rng.normal(scale=0.1, size=d)
        far = rng.normal(size=(6, d)) * 0.1 + 10.0
        z = np.vstack([p, q, far])
        geometry = distance_matrix(nd_of(z))
        nearest2 = pairwise_distances(z[:1], z[1:]).min() ** 2
        gap = gap2(z, 1, z[0])[0]
        if (gap < nearest2) if below else (gap > nearest2):
            return z, build_affinity_model(nd_of(z), geometry), nearest2
    raise AssertionError("no such neighbour in 1,000 draws")


@pytest.mark.parametrize("below", [True, False])
@pytest.mark.parametrize("d", [3, 64])
def test_skip_at_near_ties_with_the_bar(d, below):
    """The bar g* within a few ulps of the noise point's nearest2 and of its
    skip floor, on either side: the skip is taken only where the pass moves
    nothing, and the scan still matches the naive reference."""
    taken = {True: 0, False: 0}
    for seed in range(4):
        z, model, nearest2 = near_tie_points(seed, d, below)
        floor = model.floor[0]
        for target in (nearest2, floor):
            cases = near_tie_models(z, model, target)
            assert min(cases) < 0 < max(cases)
            for sigma, case in cases.values():
                assert_skip_is_invisible(z, case)
                taken[floor >= case.bar[1]] += 1
                got = find_clusters(nd_of(z), case)
                expect = naive_find_clusters(z, sigma, case.threshold)
                assert got.assignment.tolist() == expect
    assert taken[True] and taken[False]


@st.composite
def grid_points(draw):
    """Small z-score sets on an integer grid, sized around the window edges.

    Coordinates are 10 * coarse + fine, so the points fall into a few
    blobs. They are used as z-scores as they are: squared distances between
    grid points and two-point midpoints are exact, so a point equidistant
    from its own and the open centroid really ties (gap2 == own2) in the
    shift test, as do duplicated points.
    """
    w = _FIRST_WINDOW
    n = draw(st.sampled_from([2, 3, w - 1, w, w + 1, 2 * w, 2 * w + 1, 3 * w + 2]))
    d = draw(st.sampled_from([1, 2, 3, 5]))
    coord = st.builds(lambda c, f: 10 * c + f, st.integers(0, 2), st.integers(-2, 2))
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n))
    copies = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n // 2))
    for src, dst in copies:
        rows[dst] = list(rows[src])
    return np.array(rows, dtype=np.float64)


@settings(max_examples=60, deadline=None)
@given(grid_points())
def test_windowed_scan_matches_naive_reference_on_grids(pts):
    norm = NormalizedData(pts, np.zeros(pts.shape[1]), np.ones(pts.shape[1]))
    geometry = distance_matrix(norm)
    assume(geometry.dispersion > 0)
    model = build_affinity_model(norm, geometry)
    got = find_clusters(norm, model)
    expect = naive_find_clusters(norm.values, geometry.dispersion, model.threshold)
    assert got.assignment.tolist() == expect
    assert_moves_are_the_oracles(norm.values, model)


def test_own_distance_cache_is_fresh_after_full_scan():
    spec = SyntheticSpec(
        cluster_count=4, points_per_cluster=50, dimension=6,
        center_separation=6.0, noise_fraction=0.1, noise_margin=0.75,
        center_scheme="axes", seed=3,
    )
    norm, state = swept(generate_synthetic(spec).points)
    assert (state.assignment > 0).all()
    diff = norm.values - state.centroids[state.assignment]
    assert np.array_equal(state.bar, np.einsum("ij,ij->i", diff, diff))


# ---------------------------------------------------------------------------
# drift-bounded windows versus the oracle pass

def corpus_shape(i, seed=1009):
    """Set i of perfbench's corpus-cli grid: n 100-950, d 2-16, k 2-8,
    noise 0-10%."""
    k = 2 + (5 * i) % 7
    noise = (0.0, 0.05, 0.10)[i % 3]
    n_target = 100 + (7 * i) % 18 * 50
    return SyntheticSpec(
        cluster_count=k, points_per_cluster=max(2, round(n_target / (k * (1.0 + noise)))),
        dimension=(2, 4, 8, 16)[i % 4], noise_fraction=noise, seed=seed * 1000 + i,
    )


@functools.cache
def swept_shapes():
    """The nine smallest sets of the grid, which corpus-cli sweeps over bins 2..30."""
    sizes = [generate_synthetic(corpus_shape(i)).n_points for i in range(24)]
    return sorted(sorted(range(24), key=lambda i: (sizes[i], i))[:9])


@pytest.mark.parametrize("i", range(24))
def test_moves_match_the_oracle_on_the_corpus_shapes(i):
    """Every set at 10 bins and every budget share, and the swept sets at
    production's budget at every bin count corpus-cli sweeps."""
    norm = normalize(generate_synthetic(corpus_shape(i)))
    geometry = distance_matrix(norm)
    for bins in range(2, 31) if i in swept_shapes() else [10]:
        model = build_affinity_model(norm, geometry, bins=bins)
        assert_moves_are_the_oracles(norm.values, model, SHARES if bins == 10 else (None,))


@pytest.mark.parametrize("i", range(24))
def test_product_models_move_as_the_exact_ones_on_the_corpus_shapes(i, monkeypatch):
    """Each set streamed (the one-pass cap at 0): the product geometry's
    count bounds hold the exact geometry's histogram, its model has the
    exact model's threshold, its bar interval holds the exact g*, and its
    sweep makes the oracle's moves on the exact model, at 10 bins and every
    budget share and, for the swept sets, at every bin count corpus-cli
    sweeps."""
    monkeypatch.setattr(preprocess, "_ONE_PASS_PAIRS", 0)
    norm = normalize(generate_synthetic(corpus_shape(i)))
    product, exact = distance_matrix(norm), distance_matrix(norm, exact=True)
    assert product.slack > 0.0 == exact.slack
    for bins in range(2, 31) if i in swept_shapes() else [10]:
        got = build_affinity_model(norm, product, bins=bins)
        expect = build_affinity_model(norm, exact, bins=bins)
        lower, upper = got.histogram
        histogram = expect.histogram[0]
        assert (lower <= histogram).all() and (histogram <= upper).all()
        assert got.threshold == expect.threshold
        assert got.bar[0] <= expect.bar[0] == expect.bar[1] <= got.bar[1]
        calls = moves(lambda: oracle_sweep(norm.values, expect)[0])
        for share in SHARES if bins == 10 else (None,):
            assert_same_moves(moves(lambda: _sweep(norm.values, got), share), calls)


def pass_moves(z, bar, share=None, join=None):
    """One pass opened at point 0, every other point unassigned with join
    bars join (bar if None) and bar: the oracle's moves if share is None,
    else production's at that budget share."""
    join = bar if join is None else join

    def run():
        state = ClusterState(z)
        state.bar.fill(bar)
        k = state.open_cluster(0)
        state.bar[0] = 0.0
        if share is None:
            oracle_absorb_pass(state, k, join)
        else:
            _absorb_pass(state, k, share * np.sqrt(bar), join)
        return state

    return moves(run)


def outcome(run):
    """run()'s moves, or None where it raises Uncertain."""
    try:
        return run()
    except Uncertain:
        return None


def assert_same_outcome(got, expect):
    assert (got is None) == (expect is None)
    if expect is not None:
        assert_same_moves(got, expect)


@pytest.mark.parametrize("d", [2, 5, 64])
def test_a_row_within_ulps_of_its_bar_after_several_joins(d):
    """Five points join, then row 6 sits within a few ulps of the bar from
    the centroid it meets. Its gap2 against the window's first centroid
    differs from that by about the drift, so no bound can decide it: it is
    recomputed, and the oracle's decision flips across the offsets."""
    rng = np.random.default_rng(d)
    core = rng.normal(scale=0.2 / np.sqrt(d), size=(6, d))
    state = ClusterState(core)
    k = state.open_cluster(0)
    for j in range(1, 6):
        state.add_point(k, j)
    centroid = state.centroids[k]
    step = rng.normal(size=d)
    tail = rng.normal(scale=0.2 / np.sqrt(d), size=(3, d))
    z = np.vstack([core, centroid + step / np.linalg.norm(step), tail])
    tie = gap2(z, 6, centroid)[0]
    joined = set()
    for offset in range(-4, 5):
        bar = float(np.array(int(np.array(tie).view(np.int64)) + offset).view(np.float64))
        expect = pass_moves(z, bar)
        for share in (0.25, 0.5, 2.0):
            assert_same_moves(pass_moves(z, bar, share), expect)
        joined.add(("add", 1, 6) in expect[0])
    assert joined == {True, False}


def test_a_tight_cluster_far_from_the_origin():
    """Points a few ulps apart around |c0| = 2^10..2^30, with the bar a few
    ulps wide: the centroid's own roundings move it by as much as the joins
    do, so the decisions rest on the bound's rounding terms."""
    flips = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        offset = 2.0 ** int(rng.integers(10, 31))
        ulp = offset * 2.0**-52
        z = offset + rng.integers(-8, 9, size=(int(rng.integers(8, 40)), d)) * ulp
        bar = (rng.uniform(1.5, 6.0) * ulp) ** 2
        expect = pass_moves(z, bar)
        for share in (0.25, 0.5):
            assert_same_moves(pass_moves(z, bar, share), expect)
        flips += 0 < len(expect[0]) < z.shape[0] - 1
    assert flips > 100


@pytest.mark.parametrize("points, budget", [
    # one join from the singleton drifts 0.45 > 0.25: the window must end there
    ([0.0, 0.9, 1.0, 2.48], 0.25),
    # two joins drift 0.62 > 0.5 in all: the window must end on the second
    ([0.0, 0.9, 0.95, 1.0, 1.98], 0.5),
])
def test_a_shift_just_past_the_budget(points, budget):
    """The join bar is 1, so the budget is its share. The last two points
    form another cluster. Against the first centroid
    the first of them is further from k than from its own centroid by just
    over the budget, so it is no candidate; the joins before it move k's
    centroid further than that, and it shifts."""
    z = np.array(points)[:, None]

    def run(absorb):
        state = ClusterState(z)
        state.bar.fill(1.0)
        other = state.open_cluster(len(points) - 2)
        state.add_point(other, len(points) - 1)
        state.refresh_bar(other)
        k = state.open_cluster(0)
        state.bar[0] = 0.0
        absorb(state, k)
        return state

    expect = moves(lambda: run(oracle_absorb_pass))
    assert ("remove", 1, len(points) - 2) in expect[0]
    absorb = lambda state, k: _absorb_pass(state, k, budget, 1.0)  # noqa: E731
    assert_same_moves(moves(lambda: run(absorb)), expect)


# ---------------------------------------------------------------------------
# an interval of join bars

@pytest.mark.parametrize("d", [2, 5, 64])
def test_a_row_near_the_join_bars_after_several_joins(d):
    """test_a_row_within_ulps_of_its_bar_after_several_joins with the join
    bar an interval a few ulps wide around row 6's tie: the pass raises
    exactly where the oracle's gap2 lies between the two bars, and moves as
    the oracle does elsewhere."""
    rng = np.random.default_rng(d)
    core = rng.normal(scale=0.2 / np.sqrt(d), size=(6, d))
    state = ClusterState(core)
    k = state.open_cluster(0)
    for j in range(1, 6):
        state.add_point(k, j)
    centroid = state.centroids[k]
    step = rng.normal(size=d)
    tail = rng.normal(scale=0.2 / np.sqrt(d), size=(3, d))
    z = np.vstack([core, centroid + step / np.linalg.norm(step), tail])
    tie = int(np.array(gap2(z, 6, centroid)[0]).view(np.int64))
    raised = set()
    for lo in range(-4, 5):
        for width in (0, 1, 3):
            join, bar = np.array([tie + lo, tie + lo + width]).view(np.float64).tolist()
            expect = outcome(lambda: pass_moves(z, bar, join=join))
            for share in (0.25, 0.5, 2.0):
                assert_same_outcome(outcome(lambda: pass_moves(z, bar, share, join)), expect)
            raised.add(expect is None)
    assert raised == {True, False}


def test_a_wide_join_bar_raises_exactly_where_a_join_falls_inside_it():
    """The reference seeds and noisy sets with the model's bar widened to
    g* (1 -+ w): production raises Uncertain exactly where the oracle meets
    an unassigned point between the bars, at every budget share, and where
    neither raises, it moves as the exact sweeps at both ends do."""
    sets = [interesting_points(seed) for seed in range(30)]
    sets += [
        generate_synthetic(SyntheticSpec(
            cluster_count=10, points_per_cluster=20, dimension=16, center_scheme="axes",
            center_separation=24.0, noise_fraction=0.10, noise_margin=0.75, seed=seed,
        )).points
        for seed in (1, 2)
    ]
    raised = {True: 0, False: 0}
    for pts in sets:
        norm, model = prepared(pts)
        z, g = norm.values, model.bar[1]
        for width in (1e-12, 1e-3, 3e-2, 0.3):
            case = replace(model, bar=(g * (1.0 - width), g * (1.0 + width)))
            expect = outcome(lambda: moves(lambda: oracle_sweep(z, case)[0]))
            for share in SHARES:
                assert_same_outcome(outcome(lambda: moves(lambda: _sweep(z, case), share)), expect)
            if expect is not None:
                for end in case.bar:
                    exact = replace(case, bar=(end, end))
                    assert_same_moves(moves(lambda: oracle_sweep(z, exact)[0]), expect)
            raised[expect is None] += 1
    assert raised[True] and raised[False]


# ---------------------------------------------------------------------------
# the affinity bar

def affinity_test(gaps, two_sigma, threshold, length):
    """The scan's affinity test, applied to consecutive slices of `length` gaps."""
    return np.concatenate([
        np.exp(gaps[i : i + length] / (-two_sigma)) > threshold
        for i in range(0, gaps.size, length)
    ])


def serial_affinity_bar(two_sigma, threshold):
    """Reference g*: one scalar probe per step, bisected over Python ints
    across all of [0.0, inf], with no guess."""
    probe = np.zeros(1)
    bits = probe.view(np.int64)
    passes, fails = 0, int(np.array(np.inf).view(np.int64))
    while fails - passes > 1:
        bits[0] = (passes + fails) // 2
        if np.exp(probe / (-two_sigma))[0] > threshold:
            passes = int(bits[0])
        else:
            fails = int(bits[0])
    bits[0] = fails
    return float(probe[0])


def model_bar(sigma, bins, k):
    """g* a model of this many bins keeps for threshold bin k: the cut
    affinity_cuts finds for the threshold (k - 0.5) / bins."""
    return float(affinity_cuts(sigma, bins)[1][k - 1])


def bar_neighbours(bar, reach):
    """The non-negative floats within `reach` bit patterns of bar, in order."""
    centre = int(np.array(bar).view(np.int64))
    top = int(np.array(np.inf).view(np.int64))
    return np.arange(max(0, centre - reach), min(top, centre + reach) + 1).view(np.float64)


@st.composite
def threshold_bins(draw):
    """A bin count and a threshold bin k the histogram can pick."""
    bins = draw(st.integers(2, 1000))
    return bins, draw(st.integers(1, bins))


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-3, 1e3), threshold_bins(), st.integers(0, 2**32 - 1))
def test_affinity_bar_is_the_affinity_test(two_sigma, picked, seed):
    """gap2 < bar equals the exp test, at the threshold (k - 0.5) / bins, on
    every slice length the scan's windows and numpy's vector loops can
    produce, around the bar and away from it."""
    bins, k = picked
    threshold = (k - 0.5) / bins
    bar = model_bar(two_sigma / 2.0, bins, k)
    assert bar == serial_affinity_bar(two_sigma, threshold)
    near = bar_neighbours(bar, 1 << 16)
    for length in (31, 33, 1 << 17):
        assert np.array_equal(affinity_test(near, two_sigma, threshold, length), near < bar)
    rng = np.random.default_rng(seed)
    gaps = np.concatenate([
        bar_neighbours(bar, 256),
        rng.uniform(0.0, 4.0 * bar, 2048),
        bar * rng.exponential(size=2048),
        [0.0, 5e-324, 1e300],
    ])
    for length in (1, 31, 33, 1 << 17):
        assert np.array_equal(affinity_test(gaps, two_sigma, threshold, length), gaps < bar)


@pytest.mark.parametrize(
    "picked",
    [
        pytest.param((bins, k), id=str((k - 0.5) / bins))
        for bins, k in ((2, 1), (1000, 1), (1000, 1000), (2**20, 2**20))
    ],
)
@pytest.mark.parametrize("two_sigma", [1e-3, 1.0, 2.0 * np.sqrt(2.0), 1e3])
def test_affinity_bar_at_the_threshold_extremes(two_sigma, picked):
    """Threshold bin 1 of 2 and of 1,000 bins, the top bin of 1,000, and
    the top bin of 2^20, the threshold 1 - 2^-21, where only affinities
    within 2^-21 of 1 pass (each id is the threshold)."""
    bins, k = picked
    threshold = (k - 0.5) / bins
    bar = model_bar(two_sigma / 2.0, bins, k)
    assert bar == serial_affinity_bar(two_sigma, threshold)
    assert 0.0 < bar < np.inf
    gaps = bar_neighbours(bar, 1 << 12)
    for length in (1, 33):
        assert np.array_equal(affinity_test(gaps, two_sigma, threshold, length), gaps < bar)


def test_model_bar_is_the_serial_bar_on_the_reference_seeds():
    for seed in range(30):
        norm, model = prepared(interesting_points(seed))
        two_sigma = 2.0 * distance_matrix(norm).dispersion
        bar = serial_affinity_bar(two_sigma, model.threshold)
        assert model.bar == (bar, bar)


def test_scan_reads_only_the_bar_and_floor_of_the_model():
    """With the threshold made NaN, every assignment stands."""
    sets = [interesting_points(seed) for seed in range(30)]
    sets.append(generate_synthetic(SyntheticSpec(
        cluster_count=10, points_per_cluster=20, dimension=16, center_scheme="axes",
        center_separation=24.0, noise_fraction=0.10, noise_margin=0.75, seed=1,
    )).points)
    for pts in sets:
        norm, model = prepared(pts)
        blind = replace(model, threshold=np.nan)
        expect = find_clusters(norm, model).assignment
        assert np.array_equal(find_clusters(norm, blind).assignment, expect)


def test_scan_matches_naive_reference_at_threshold_bin_one():
    # Copies of the unit simplex's corners, jittered: most affinities fall
    # in bin 2 and a few in bin 1, so the threshold is bin 1's midpoint.
    pts = np.repeat(np.eye(4), 3, axis=0) + np.random.default_rng(1).normal(scale=0.1, size=(12, 4))
    norm = NormalizedData(pts, np.zeros(4), np.ones(4))
    geometry = distance_matrix(norm)
    model = build_affinity_model(norm, geometry)
    assert model.threshold_bin == 1
    got = find_clusters(norm, model)
    expect = naive_find_clusters(norm.values, geometry.dispersion, model.threshold)
    assert got.assignment.tolist() == expect


def test_scan_never_moves_a_point_within_the_open_cluster(monkeypatch):
    """Every shift takes its point from another cluster. The point that
    opened the cluster has bar 0.0, so even at distance 0 from the centroid
    it is not taken out and put back."""
    from_open = []
    remove = ClusterState.remove_point

    def recording_remove(self, j):
        from_open.append(int(self.assignment[j]) == self.opened)
        return remove(self, j)

    monkeypatch.setattr(ClusterState, "remove_point", recording_remove)
    for seed in range(30):
        find_clusters(*prepared(interesting_points(seed)))
    assert from_open and not any(from_open)


def test_two_far_duplicate_pairs_form_two_clusters():
    out = extract_outliers(find_clusters(*prepared([[0, 0], [0, 0], [100, 100], [100, 100]])))
    assert out.cluster_count == 2
    assert out.sizes.tolist() == [2, 2]
    assert out.outliers.size == 0


def test_three_blobs_and_two_isolated_points():
    rng = np.random.default_rng(2)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    pts = np.vstack([c + rng.normal(size=(30, 2)) for c in centers] + [[[40.0, 40.0], [-40.0, -40.0]]])
    out = extract_outliers(find_clusters(*prepared(pts)))
    assert out.cluster_count == 3
    assert sorted(out.sizes.tolist()) == [30, 30, 30]
    assert out.outliers.tolist() == [90, 91]


def test_scan_is_deterministic():
    pts = interesting_points(12)
    a = find_clusters(*prepared(pts))
    b = find_clusters(*prepared(pts))
    assert np.array_equal(a.assignment, b.assignment)
    (_, sa), (_, sb) = swept(pts), swept(pts)
    assert np.array_equal(sa.assignment, sb.assignment)
    assert np.array_equal(sa.centroids, sb.centroids)


def test_no_point_left_unassigned_and_ids_contiguous():
    for seed in (1, 4, 9, 16):
        out = find_clusters(*prepared(interesting_points(seed)))
        assert (out.assignment >= 1).all()
        p = out.cluster_count
        assert sorted(np.unique(out.assignment).tolist()) == list(range(1, p + 1))
        assert np.array_equal(
            np.bincount(out.assignment, minlength=p + 1)[1:], out.sizes
        )


def test_final_centroids_equal_batch_means():
    norm, state = swept(interesting_points(21))
    live = np.flatnonzero(state.sizes > 0)
    assert live.size == state.finalize().cluster_count
    for k in live:
        members = norm.values[state.assignment == k]
        assert np.abs(state.centroids[k] - members.mean(axis=0)).max() < 1e-9


# ---------------------------------------------------------------------------
# degenerate paths

def test_identical_points_collapse_to_one_cluster():
    norm, model = prepared([[3.0, 3.0]] * 6)
    assert model is None
    out = find_clusters(norm, None)
    assert out.cluster_count == 1
    assert out.sizes.tolist() == [6]
    assert (out.assignment == 1).all()


def test_missing_affinity_model_is_rejected_for_real_data():
    norm, _ = prepared([[0.0, 0.0], [5.0, 5.0]])
    with pytest.raises(ValueError):
        find_clusters(norm, None)


def test_single_point_is_rejected():
    norm = NormalizedData(np.zeros((1, 2)), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        find_clusters(norm, None)


# ---------------------------------------------------------------------------
# incremental centroid state

def test_midpoint_after_single_add():
    state = ClusterState(np.array([[0.0, 0.0], [2.0, 0.0]]))
    k = state.open_cluster(0)
    state.add_point(k, 1)
    assert state.centroids[k].tolist() == [1.0, 0.0]
    assert state.sizes[k] == 2


def test_add_moves_centroid_by_weighted_share():
    # size-3 cluster at (1,1,1) absorbing (5,5,5) lands on (2,2,2)
    pts = np.array([[1.0, 1.0, 1.0]] * 3 + [[5.0, 5.0, 5.0]])
    state = ClusterState(pts)
    k = state.open_cluster(0)
    state.add_point(k, 1)
    state.add_point(k, 2)
    state.add_point(k, 3)
    assert np.allclose(state.centroids[k], [2.0, 2.0, 2.0])


def test_sequential_adds_track_batch_mean():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(20, 4))
    state = ClusterState(pts)
    k = state.open_cluster(0)
    for j in range(1, 20):
        state.add_point(k, j)
        assert np.abs(state.centroids[k] - pts[: j + 1].mean(axis=0)).max() < 1e-9


def test_remove_is_inverse_of_add():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    state = ClusterState(pts)
    k = state.open_cluster(0)
    state.add_point(k, 1)
    state.remove_point(1)
    assert state.centroids[k].tolist() == [0.0, 0.0]
    assert state.sizes[k] == 1


def test_add_then_remove_restores_centroid():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(10, 3))
    state = ClusterState(pts)
    k = state.open_cluster(0)
    for j in range(1, 7):
        state.add_point(k, j)
    before = state.centroids[k].copy()
    state.add_point(k, 9)
    state.remove_point(9)
    assert np.abs(state.centroids[k] - before).max() < 1e-9


def test_random_interleavings_match_batch_mean():
    rng = np.random.default_rng(15)
    pts = rng.normal(size=(15, 2))
    state = ClusterState(pts)
    k = state.open_cluster(0)
    members = {0}
    for _ in range(400):
        j = int(rng.integers(1, 15))
        if j in members:
            if len(members) > 1:
                state.remove_point(j)
                members.discard(j)
        else:
            state.add_point(k, j)
            members.add(j)
        expect = pts[sorted(members)].mean(axis=0)
        assert np.abs(state.centroids[k] - expect).max() < 1e-9


def test_removing_last_member_deletes_the_cluster():
    state = ClusterState(np.array([[1.0], [2.0]]))
    k = state.open_cluster(0)
    state.remove_point(0)
    assert state.sizes[k] == 0
    assert state.assignment[0] == 0
    final = state.finalize()
    assert final.cluster_count == 0


# ---------------------------------------------------------------------------
# id compaction

def test_relabel_matches_dict_renumbering():
    rng = np.random.default_rng(43)
    for _ in range(500):
        top = int(rng.integers(1, 12))
        assignment = rng.integers(0, top + 1, size=int(rng.integers(0, 40)))
        keep = rng.permutation(np.arange(1, top + 1))[: int(rng.integers(0, top + 1))]
        if rng.random() < 0.5:
            keep = np.sort(keep)
        new_id = {int(old): new for new, old in enumerate(keep, start=1)}
        got = relabel(assignment, keep)
        assert got.tolist() == [new_id.get(int(a), 0) for a in assignment]
        assert not np.shares_memory(got, assignment)


# ---------------------------------------------------------------------------
# outlier extraction

def synthetic_clustering(assignment):
    assignment = np.asarray(assignment, dtype=np.int64)
    p = assignment.max()
    sizes = np.bincount(assignment, minlength=p + 1)[1:]
    return Clustering(assignment=assignment, sizes=sizes)


def test_singletons_become_outliers_and_ids_compact():
    out = extract_outliers(synthetic_clustering([1, 1, 1, 1, 1, 2, 3, 3, 3, 3, 3, 3, 3]))
    assert out.cluster_count == 2
    assert out.sizes.tolist() == [5, 7]
    assert out.outliers.tolist() == [5]
    assert out.assignment.tolist() == [1, 1, 1, 1, 1, 0, 2, 2, 2, 2, 2, 2, 2]


def test_no_singletons_is_a_clean_copy():
    base = synthetic_clustering([1, 1, 2, 2])
    out = extract_outliers(base)
    assert np.array_equal(out.assignment, base.assignment)
    assert out.outliers.size == 0
    out.assignment[0] = 99  # mutating the copy must not touch the source
    assert base.assignment[0] == 1


def test_points_already_unassigned_are_not_outliers_again():
    out = extract_outliers(synthetic_clustering([1, 1, 2, 3, 3]))
    assert out.outliers.tolist() == [2]
    again = extract_outliers(out)
    assert np.array_equal(again.assignment, out.assignment)
    assert again.sizes.tolist() == [2, 2]
    assert again.outliers.size == 0


def test_all_singletons_leave_zero_clusters():
    out = extract_outliers(synthetic_clustering([1, 2, 3, 4]))
    assert out.cluster_count == 0
    assert out.outliers.tolist() == [0, 1, 2, 3]
    assert (out.assignment == 0).all()


def test_detected_noise_points_are_flagged_on_generated_data():
    spec = SyntheticSpec(
        cluster_count=3, points_per_cluster=40, dimension=8,
        center_separation=24.0, noise_fraction=0.1, noise_margin=0.75,
        center_scheme="axes", seed=5,
    )
    dataset = generate_synthetic(spec)
    out = extract_outliers(find_clusters(*prepared(dataset.points)))
    noise = set(np.flatnonzero(dataset.labels == 0).tolist())
    flagged = set(out.outliers.tolist())
    assert noise, "spec should inject noise"
    covered = len(noise & flagged) / len(noise)
    assert covered >= 0.8
