from __future__ import annotations

import numpy as np
import pytest

from bmm import Budget, ParameterError, prune
from bmm.pruning import largest_remainder


def consecutive_strata(sizes: list[int]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Rows 0..sum(sizes)-1 and their split into consecutive strata of the given sizes."""
    rows = np.arange(sum(sizes), dtype=np.int64)
    return rows, np.split(rows, np.cumsum(sizes)[:-1])


def draw(rows, strata, budget, strategy, seed):
    """prune with the CLI's strata: every row as one stratum, or the given strata."""
    return prune([rows] if strategy == "uniform" else strata, budget, seed=seed)


def test_fraction_one_is_identity():
    rows, _ = consecutive_strata([10, 5])
    out = prune([rows], Budget("fraction", 1.0), seed=0)
    assert np.array_equal(out.sample_rows, rows)


def test_uniform_exact_cardinality():
    rows, _ = consecutive_strata([60, 40])
    out = prune([rows], Budget("fraction", 0.05), seed=0)
    assert out.sample_rows.size == 5
    assert np.isin(out.sample_rows, rows).all()


def test_stratified_largest_remainder_60_40():
    rows, strata = consecutive_strata([60, 40])
    out = prune(strata, Budget("fraction", 0.5), seed=0)
    assert out.sample_rows.size == 50
    kept_a = np.intersect1d(out.sample_rows, strata[0]).size
    kept_b = np.intersect1d(out.sample_rows, strata[1]).size
    assert (kept_a, kept_b) == (30, 20)


def test_absolute_budget():
    rows, _ = consecutive_strata([20])
    out = prune([rows], Budget("absolute", 7), seed=1)
    assert out.sample_rows.size == 7
    with pytest.raises(ParameterError, match="exceeds"):
        prune([rows], Budget("absolute", 21), seed=1)


def test_budget_validation():
    with pytest.raises(ParameterError):
        Budget("fraction", 0.0)
    with pytest.raises(ParameterError):
        Budget("fraction", 1.5)
    with pytest.raises(ParameterError):
        Budget("absolute", 0)
    with pytest.raises(ParameterError):
        Budget("percent", 5)


def test_subset_and_cardinality_property(rng):
    for trial in range(60):
        sizes = [int(rng.integers(1, 40)) for _ in range(int(rng.integers(1, 5)))]
        rows, strata = consecutive_strata(sizes)
        total = rows.size
        if trial % 2:
            budget = Budget("fraction", float(rng.uniform(0.05, 1.0)))
        else:
            budget = Budget("absolute", int(rng.integers(1, total + 1)))
        strategy = "stratified" if trial % 3 else "uniform"
        out = draw(rows, strata, budget, strategy, seed=trial)
        assert out.sample_rows.size == budget.resolve(total)
        assert np.isin(out.sample_rows, rows).all()
        assert np.array_equal(out.sample_rows, np.unique(out.sample_rows))


def test_stratified_proportionality_within_one(rng):
    for trial in range(30):
        sizes = [int(rng.integers(1, 60)) for _ in range(int(rng.integers(2, 6)))]
        rows, strata = consecutive_strata(sizes)
        total = rows.size
        m = int(rng.integers(1, total + 1))
        out = prune(strata, Budget("absolute", m), seed=trial)
        for node_id, size in enumerate(sizes):
            kept = np.intersect1d(out.sample_rows, strata[node_id]).size
            assert abs(kept - m * size / total) < 1.0


def test_determinism_per_seed():
    rows, strata = consecutive_strata([30, 20, 10])
    for strategy in ("uniform", "stratified"):
        a = draw(rows, strata, Budget("fraction", 0.3), strategy, seed=9)
        b = draw(rows, strata, Budget("fraction", 0.3), strategy, seed=9)
        assert np.array_equal(a.sample_rows, b.sample_rows)
    different = prune([rows], Budget("fraction", 0.3), seed=10)
    assert not np.array_equal(
        prune([rows], Budget("fraction", 0.3), seed=9).sample_rows,
        different.sample_rows,
    )


def test_largest_remainder_properties(rng):
    for _ in range(50):
        weights = rng.integers(1, 50, size=int(rng.integers(1, 8)))
        total = int(rng.integers(0, weights.sum() + 1))
        alloc = largest_remainder(weights, total)
        assert alloc.sum() == total
        quotas = total * weights / weights.sum()
        assert (np.abs(alloc - quotas) < 1.0).all()
    # remainder ties resolve to the lowest index
    assert largest_remainder(np.array([1, 1]), 1).tolist() == [1, 0]
