from __future__ import annotations

import itertools

import numpy as np
import pytest

from bmm import (
    ParameterError,
    fit_balanced_kmeans,
    fit_kmeans,
)
from bmm.clustering import recompute_sse

from conftest import cluster_sizes, make_features
from oracles import oracle_balanced_partition


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
