from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bmm import (
    ParameterError,
    clustering,
    fit_balanced_kmeans,
    fit_kmeans,
)
from bmm.clustering import (
    _balanced_assign, _cluster_means, _kmeans_pp_init, _pairwise_row_sum, _squared_distance_kernel,
    recompute_sse,
)

from conftest import cluster_sizes, make_features
from oracles import (
    oracle_balanced_assign, oracle_balanced_partition, oracle_cluster_means, oracle_kmeans_pp,
    oracle_squared_distances,
)


def brute_force_min_sse(x: np.ndarray, k: int) -> float:
    """Minimum SSE over every surjective labeling (no balance constraint)."""
    best = None
    for labels in itertools.product(range(k), repeat=len(x)):
        if len(set(labels)) != k:
            continue
        arr = np.asarray(labels)
        sse = 0.0
        for c in range(k):
            rows = x[arr == c]
            centered = rows - rows.mean(axis=0)
            sse += float((centered * centered).sum())
        if best is None or sse < best:
            best = sse
    return best


def test_k_equals_n_gives_singletons():
    fm = make_features([[0.0], [1.0], [5.0], [9.0]])
    fc = fit_kmeans(fm, 4, seed=0)
    assert sorted(fc.assignment) == [0, 1, 2, 3]
    assert fc.sse == 0.0


def test_k1_centroid_is_global_mean(rng):
    fm = make_features(rng.normal(size=(20, 3)))
    fc = fit_kmeans(fm, 1, seed=0)
    assert np.allclose(fc.centroids[0], fm.values.astype(np.float64).mean(axis=0))
    assert np.allclose(fc.sse, recompute_sse(fm.values.astype(np.float64), fc.assignment, fc.centroids))


def test_two_well_separated_pairs_1d():
    fm = make_features([0.0, 1.0, 10.0, 11.0])
    x = fm.values.astype(np.float64)
    for fit in (fit_kmeans, fit_balanced_kmeans):
        fc = fit(fm, 2, seed=0)
        assert fc.assignment[0] == fc.assignment[1]
        assert fc.assignment[2] == fc.assignment[3]
        assert fc.assignment[0] != fc.assignment[2]
        assert fc.sse == pytest.approx(1.0, abs=1e-12)
    # brute force over all 2^4 labelings agrees that 1.0 is the optimum
    assert brute_force_min_sse(x, 2) == pytest.approx(1.0, abs=1e-12)


def test_balanced_sizes_with_remainder():
    fm = make_features([[0.0], [0.1], [0.2], [10.0], [10.1]])
    fc = fit_balanced_kmeans(fm, 2, seed=0)
    assert sorted(cluster_sizes(fc).tolist()) == [2, 3]


def test_balanced_recovers_planted_pairs(rng):
    centers = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
    x = np.concatenate([c + 0.1 * rng.normal(size=(2, 2)) for c in centers])
    fm = make_features(x)
    fc = fit_balanced_kmeans(fm, 3, seed=0)
    for pair in ((0, 1), (2, 3), (4, 5)):
        assert fc.assignment[pair[0]] == fc.assignment[pair[1]]
    assert fc.sse == pytest.approx(oracle_balanced_partition(fm, 3), rel=1e-12)


def test_balance_property_random_inputs(rng):
    for trial in range(100):
        n = int(rng.integers(2, 150))
        k = int(rng.integers(1, min(n, 10) + 1))
        fm = make_features(rng.normal(size=(n, int(rng.integers(1, 5)))))
        sizes = cluster_sizes(fit_balanced_kmeans(fm, k, seed=trial))
        assert sizes.max() - sizes.min() <= 1
        assert sizes.min() >= 1


def test_monotone_sse_histories(rng):
    for trial in range(30):
        n = int(rng.integers(4, 120))
        k = int(rng.integers(2, min(n, 8) + 1))
        fm = make_features(rng.normal(size=(n, 3)))
        for fit in (fit_kmeans, fit_balanced_kmeans):
            history = fit(fm, k, seed=trial).sse_history
            assert all(
                later <= earlier + 1e-9 * (1 + earlier)
                for earlier, later in zip(history, history[1:])
            )


def test_small_instance_balanced_optimality(rng):
    for trial in range(60):
        n = int(rng.integers(2, 9))
        fm = make_features(rng.normal(size=(n, int(rng.integers(1, 4)))))
        fc = fit_balanced_kmeans(fm, 2, seed=trial)
        assert fc.sse == pytest.approx(oracle_balanced_partition(fm, 2), rel=1e-9, abs=1e-9)


def test_determinism_fixed_seed(rng):
    fm = make_features(rng.normal(size=(80, 4)))
    for fit in (fit_kmeans, fit_balanced_kmeans):
        a = fit(fm, 5, seed=7)
        b = fit(fm, 5, seed=7)
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.sse == b.sse


def test_sse_recomputable_from_fields(rng):
    fm = make_features(rng.normal(size=(50, 3)))
    for fit in (fit_kmeans, fit_balanced_kmeans):
        fc = fit(fm, 4, seed=1)
        again = recompute_sse(fm.values.astype(np.float64), fc.assignment, fc.centroids)
        assert fc.sse == again


def test_every_cluster_nonempty(rng):
    # duplicate-heavy input forces the empty-cluster repair path
    x = np.repeat(rng.normal(size=(3, 2)), 5, axis=0)
    fm = make_features(x)
    fc = fit_kmeans(fm, 6, seed=0)
    assert set(fc.assignment.tolist()) == set(range(6))


def test_parameter_errors():
    fm = make_features([[0.0], [1.0]])
    with pytest.raises(ParameterError):
        fit_kmeans(fm, 0, seed=0)
    with pytest.raises(ParameterError):
        fit_kmeans(fm, 3, seed=0)
    with pytest.raises(ParameterError):
        fit_balanced_kmeans(fm, 5, seed=0)


@st.composite
def distance_matrices(draw):
    """n x k distances, k being 1, n or any of 1..n: uniform, integer-valued
    (forced ties), or squared distances between duplicated rows and centroids
    taken from them."""
    n = draw(st.integers(1, 40))
    k = draw(st.sampled_from([1, n, None, None])) or draw(st.sampled_from(range(1, n + 1)))
    kind = draw(st.sampled_from(["uniform", "integer", "duplicated"]))
    if kind == "uniform":
        return draw(arrays(np.float64, (n, k), elements=st.floats(0.0, 1.0)))
    if kind == "integer":
        return draw(arrays(np.int64, (n, k), elements=st.integers(0, 3))).astype(np.float64)
    distinct = draw(arrays(np.int64, (draw(st.integers(1, n)), 2), elements=st.integers(-2, 2)))
    x = distinct[draw(arrays(np.int64, n, elements=st.integers(0, len(distinct) - 1)))]
    picks = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    return _squared_distance_kernel(x.astype(np.float64), k)(x[picks].astype(np.float64))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(distance_matrices())
def test_balanced_assign_equals_greedy_oracle(d2):
    assert np.array_equal(_balanced_assign(d2), oracle_balanced_assign(d2))


@st.composite
def rows_and_centroid_sets(draw):
    """n x d rows and two sets of k centroids, k being 1, n or any of 1..n;
    values are floats or small integers (exact zeros to clip)."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 12))
    k = draw(st.sampled_from([1, n, None])) or draw(st.integers(1, n))
    if draw(st.booleans()):
        elements = st.floats(-1e3, 1e3, allow_nan=False)
        x = draw(arrays(np.float64, (n, d), elements=elements))
        sets = [draw(arrays(np.float64, (k, d), elements=elements)) for _ in range(2)]
    else:
        x = draw(arrays(np.int64, (n, d), elements=st.integers(-2, 2))).astype(np.float64)
        sets = [x[draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))]
                for _ in range(2)]
    return x, sets


@settings(max_examples=300, derandomize=True, deadline=None)
@given(rows_and_centroid_sets())
def test_squared_distances_equal_oracle_bit_for_bit(case):
    x, sets = case
    squared_distances = _squared_distance_kernel(x, sets[0].shape[0])
    for centroids in sets:  # the second call reuses the first call's buffers
        d2 = squared_distances(centroids)
        assert d2.tobytes() == oracle_squared_distances(x, centroids).tobytes()


def crowded(prefs, order):
    """Point i's nearest cluster is prefs[i], the proposals come in the given
    point order, and every other cluster ranks by index behind it. Cases
    with order None give the distances as prefs."""
    n, k = len(prefs), max(prefs) + 1
    d2 = 1.0 + np.arange(k)[None, :] + np.zeros((n, 1))
    d2[order, np.asarray(prefs)[order]] = np.arange(n) / (2.0 * n)
    return d2


TIED_REPROPOSAL = np.array([
    [0.1, 2.0, 3.0],
    [0.2, 2.0, 3.0],
    [0.3, 0.5, 0.9],
    [2.0, 0.5, 0.9],
    [2.0, 0.05, 3.0],
    [2.0, 3.0, 0.01],
])


@pytest.mark.parametrize("prefs, order", [
    # ceil(n/k) = 3 with 2 slots: clusters 0 and 1 take them in the first
    # round, which then stops at the third row proposing to cluster 2
    ([0, 1, 2, 0, 1, 2, 0, 1, 2, 3], range(10)),
    ([0, 1, 2, 0, 1, 2, 0, 1, 2, 3], [9, 8, 2, 5, 1, 4, 7, 0, 3, 6]),
    # the slots run out before cluster 2 reaches floor(n/k), which it may
    # still do in the same round, but not pass
    ([0, 0, 0, 1, 1, 1, 2, 2, 2, 3], range(10)),
    # one cluster would pass ceil(n/k) while slots remain
    ([0, 0, 0, 0, 0, 1, 2], range(7)),
    # n mod k = 0: no slot at all, the third proposal to cluster 0 is refused
    ([0, 0, 0, 1], [3, 0, 1, 2]),
    # every slot is taken in one round and nothing is refused
    ([0, 0, 0, 1, 1, 1, 2, 2], range(8)),
    # the distances themselves: the first round stops at point 2's third
    # proposal to cluster 0, and point 2 proposes again to cluster 1, at the
    # distance of point 3's kept proposal there, for the one row left; the
    # lower point takes it, whether it re-proposed or was kept
    pytest.param(TIED_REPROPOSAL, None, id="reproposal-of-lower-point-ties-kept"),
    pytest.param(TIED_REPROPOSAL[[0, 1, 3, 2, 4, 5]], None,
                 id="reproposal-of-higher-point-ties-kept"),
])
def test_balanced_assign_rounds_that_fill_several_clusters(prefs, order):
    d2 = np.asarray(prefs) if order is None else crowded(prefs, list(order))
    assert np.array_equal(_balanced_assign(d2), oracle_balanced_assign(d2))
    # the same rows with every proposal tied: the greedy breaks ties by point
    tied = np.where(d2 < 1.0, 0.0, d2)
    assert np.array_equal(_balanced_assign(tied), oracle_balanced_assign(tied))


def test_pairwise_row_sum_equals_numpy_row_sums_bit_for_bit():
    # squares spread over twelve decades, so a change of order moves the last bits
    rng = np.random.default_rng(0)
    for d in range(1, 301):
        for n in (1, 33):
            squares = (rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-6, 6, size=d)) ** 2
            assert _pairwise_row_sum(squares.T.copy()).tobytes() == squares.sum(axis=1).tobytes()


@st.composite
def seeding_cases(draw):
    """float32 rows with d below 8, from 8 to 128 or above 128, of scaled
    normals, small integers or copies of a few distinct rows (so that no
    mass can be left), k being 1, n or any of 1..n, and a generator seed."""
    n = draw(st.integers(1, 30))
    d = draw(st.one_of(st.integers(1, 7), st.integers(8, 128), st.sampled_from([130, 257])))
    k = draw(st.sampled_from([1, n, None])) or draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "integer", "duplicated"]))
    if kind == "normal":
        x = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=(n, d))
    elif kind == "integer":
        x = rng.integers(-2, 3, size=(n, d))
    else:
        distinct = rng.normal(size=(draw(st.integers(1, 3)), d))
        x = distinct[rng.integers(0, len(distinct), size=n)]
    return x.astype(np.float32), k, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(seeding_cases())
def test_kmeans_pp_init_equals_oracle_bit_for_bit(case):
    values, k, seed = case
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    seeds = _kmeans_pp_init(values, k, rng)
    assert seeds.tobytes() == oracle_kmeans_pp(values.astype(np.float64), k, oracle_rng).tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@st.composite
def labelled_rows(draw):
    """Rows of widely scaled floats and labels that leave no cluster empty,
    k being 1, n or any of 1..n."""
    n = draw(st.integers(1, 30))
    k = draw(st.sampled_from([1, n, None])) or draw(st.integers(1, n))
    x = draw(arrays(np.float64, (n, draw(st.integers(1, 4))),
                    elements=st.floats(-1e6, 1e6, allow_subnormal=False)))
    extra = draw(arrays(np.int64, n - k, elements=st.integers(0, k - 1)))
    labels = draw(st.permutations(np.concatenate([np.arange(k), extra]).tolist()))
    return x, np.asarray(labels, dtype=np.int64), k


@settings(max_examples=300, derandomize=True, deadline=None)
@given(labelled_rows())
def test_cluster_means_equal_add_at_oracle(case):
    x, labels, k = case
    assert _cluster_means(x, labels, k).tobytes() == oracle_cluster_means(x, labels, k).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_balanced_fit_equals_greedy_oracle_fit(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(40, 8))
    fm = make_features(centers[rng.integers(0, 40, size=2000)] + rng.normal(size=(2000, 8)))
    fast = fit_balanced_kmeans(fm, 32, seed)
    monkeypatch.setattr(clustering, "_balanced_assign", oracle_balanced_assign)
    greedy = fit_balanced_kmeans(fm, 32, seed)
    assert np.array_equal(fast.assignment, greedy.assignment)
    assert fast.sse_history == greedy.sse_history


# The traced peak of each fit while its seeding still broadcast row-major
# differences, in bytes (Python 3.11, numpy 2.4). Seeding before the fit's
# float64 rows and distance buffers exist keeps it there; 2% is the margin.
@pytest.mark.parametrize("fit, n, d, k, modes, reference_peak", [
    (fit_balanced_kmeans, 10_240, 16, 128, 256, 25_103_399),
    (fit_kmeans, 3_000, 32, 12, 12, 2_934_625),
], ids=["balanced-10240x16-k128", "flat-3000x32-k12"])
def test_fit_traced_peak_stays_flat(fit, n, d, k, modes, reference_peak):
    rng = np.random.default_rng(0)
    centers = rng.normal(scale=4.0, size=(modes, d))
    fm = make_features(centers[rng.integers(0, modes, size=n)] + rng.normal(size=(n, d)))
    tracemalloc.start()
    try:
        fit(fm, k, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.02 * reference_peak
