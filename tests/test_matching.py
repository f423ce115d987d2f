from __future__ import annotations

import numpy as np
import pytest

from bmm import (
    Assignment,
    InfeasibleMatchError,
    ValidationError,
    build_hierarchy,
    direct_match,
    fit_balanced_kmeans,
    select_training_set,
    solve_assignment,
)
from bmm.features import Strings
from bmm.matching import (
    match_report_payload,
    node_strata,
    render_match_report,
    selection_from_matches,
)

from conftest import make_features, unmatched
from oracles import oracle_assignment, oracle_direct_match_no_duplicates


def problem_of(cost) -> np.ndarray:
    return np.asarray(cost, dtype=np.float64)


def test_single_row_argmin():
    a = solve_assignment(problem_of([[3.0, 1.0, 2.0]]))
    assert a.sigma == [1] and a.total_cost == 1.0


def test_two_by_three_known_optimum():
    a = solve_assignment(problem_of([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]))
    assert a.sigma == [1, 0] and a.total_cost == 4.0


def test_identity_dominant_diagonal():
    cost = np.ones((3, 3)) * 5.0
    np.fill_diagonal(cost, 0.0)
    a = solve_assignment(problem_of(cost))
    assert a.sigma == [0, 1, 2] and a.total_cost == 0.0


def test_lexicographic_tie_breaks():
    assert solve_assignment(problem_of(np.zeros((2, 4)))).sigma == [0, 1]
    assert solve_assignment(problem_of(np.ones((3, 3)))).sigma == [0, 1, 2]
    # two optimal sigmas: [1, 0] and [0, 1] both cost 2 -> pick [0, 1]
    a = solve_assignment(problem_of([[1.0, 1.0], [1.0, 1.0]]))
    assert a.sigma == [0, 1]


def test_equal_float_columns_break_ties_lexicographically():
    """Copies of a float column tie every assignment that swaps targets among
    them exactly; the lexicographically smallest one wins."""
    rng = np.random.default_rng(2024)
    for _ in range(400):
        n_rows = int(rng.integers(2, 6))
        n_cols = int(rng.integers(n_rows, 7))
        cost = rng.random((n_rows, n_cols)) * 10
        for _ in range(int(rng.integers(1, 3))):
            source, copy = rng.choice(n_cols, 2, replace=False)
            cost[:, copy] = cost[:, source]
        mine = solve_assignment(problem_of(cost))
        ref = oracle_assignment(cost)
        assert mine.sigma == ref.sigma
        assert mine.total_cost == ref.total_cost


def test_equal_float_rows_take_their_columns_in_order():
    """Copies of a float row are interchangeable targets: the lower target
    gets the lower column. Their float totals differ only by summation order."""
    rng = np.random.default_rng(7)
    for _ in range(400):
        n_rows = int(rng.integers(2, 6))
        n_cols = int(rng.integers(n_rows, 7))
        cost = rng.random((n_rows, n_cols)) * 10
        source, copy = sorted(rng.choice(n_rows, 2, replace=False))
        cost[copy] = cost[source]
        mine = solve_assignment(problem_of(cost))
        assert mine.sigma[source] < mine.sigma[copy]
        assert mine.total_cost == pytest.approx(oracle_assignment(cost).total_cost, rel=1e-12)


def assert_exact_optimum(cost) -> None:
    mine = solve_assignment(problem_of(cost))
    ref = oracle_assignment(cost)
    assert mine.sigma == ref.sigma
    assert np.float64(mine.total_cost).tobytes() == np.float64(ref.total_cost).tobytes()


@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_near_ties_follow_the_exact_total(scale):
    """c[i, j] = a_i + b_j: every order of the same columns ties in real
    arithmetic, so only the rounding of each float64 entry tells them apart."""
    rng = np.random.default_rng(int(scale))
    for _ in range(150):
        n_rows = int(rng.integers(2, 6))
        n_cols = int(rng.integers(n_rows, 7))
        a, b = rng.random(n_rows) * scale, rng.random(n_cols) * scale
        assert_exact_optimum(a[:, None] + b[None, :])


def test_equal_rows_and_columns_follow_the_exact_total():
    rng = np.random.default_rng(11)
    for trial in range(200):
        n_rows = int(rng.integers(2, 6))
        n_cols = int(rng.integers(n_rows, 7))
        if trial % 2:
            cost = rng.integers(0, 4, size=(n_rows, n_cols)).astype(float)
        else:
            cost = rng.random((n_rows, n_cols)) * 10
        source, copy = rng.choice(n_rows, 2, replace=False)
        cost[copy] = cost[source]
        source, copy = rng.choice(n_cols, 2, replace=False)
        cost[:, copy] = cost[:, source]
        assert_exact_optimum(cost)


EXTREMES = [0.0, 5e-324, 1e-323, 1e-300, 0.1, 1.0, 3.0, 1e300, 1.6e308, 1.7e308]


@pytest.mark.parametrize(
    "cost, sigma",
    [
        ([[0.0]], [0]),
        (np.zeros((3, 4)), [0, 1, 2]),
        ([[5e-324, 0.0], [0.0, 5e-324]], [1, 0]),
        ([[1.7e308, 1.7e308, 0.0], [1.7e308, 1.6e308, 1.7e308]], [2, 1]),
        # the float sums tie at 1e300; the exact totals differ by 1e-300
        ([[1e-300, 1e300], [0.0, 1e300]], [1, 0]),
    ],
    ids=["zero", "all-zero", "subnormal", "largest", "1e-300-next-to-1e300"],
)
def test_extreme_entries_convert_exactly(cost, sigma):
    assert solve_assignment(problem_of(cost)).sigma == sigma
    assert_exact_optimum(problem_of(cost))


def test_extreme_entries_follow_the_exact_total():
    rng = np.random.default_rng(5)
    for _ in range(150):
        n_rows = int(rng.integers(1, 5))
        n_cols = int(rng.integers(n_rows, 6))
        assert_exact_optimum(rng.choice(EXTREMES, size=(n_rows, n_cols)))


def test_matches_oracle_on_random_instances(rng):
    """Integer costs, additive near ties (c[i, j] = a_i + b_j) and uniform costs."""
    for trial in range(120):
        n_rows = int(rng.integers(1, 7))
        n_cols = int(rng.integers(n_rows, 10))
        if trial % 3 == 0:
            cost = rng.integers(0, 5, size=(n_rows, n_cols)).astype(float)
        elif trial % 3 == 1:
            cost = rng.random(n_rows)[:, None] + rng.random(n_cols)[None, :]
        else:
            cost = rng.random((n_rows, n_cols))
        mine = solve_assignment(problem_of(cost))
        ref = oracle_assignment(cost)
        assert mine.sigma == ref.sigma
        assert mine.total_cost == ref.total_cost


def test_sigma_always_injective(rng):
    for trial in range(40):
        cost = rng.random((int(rng.integers(1, 8)), 9))
        sigma = solve_assignment(problem_of(cost)).sigma
        assert len(set(sigma)) == len(sigma)


def test_scale_invariance(rng):
    cost = rng.random((4, 7))
    base = solve_assignment(problem_of(cost)).sigma
    for factor in (0.25, 3.0, 1e6):
        assert solve_assignment(problem_of(cost * factor)).sigma == base


def test_error_paths():
    with pytest.raises(InfeasibleMatchError):
        solve_assignment(problem_of(np.zeros((3, 2))))
    bad = problem_of(np.zeros((2, 3)))
    bad[0, 1] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        solve_assignment(bad)
    neg = problem_of(np.zeros((2, 3)))
    neg[1, 2] = -0.5
    with pytest.raises(ValidationError, match="negative"):
        solve_assignment(neg)


def test_direct_match_duplicates():
    p = problem_of([[0.0, 5.0], [0.0, 9.0]])
    dup = direct_match(p)
    assert dup == [0, 0]
    nodup = oracle_direct_match_no_duplicates(p)
    assert nodup == [0, None]
    assert unmatched(nodup) == [1]


def test_direct_match_takes_more_targets_than_nodes():
    """Targets may share a node, so L > H needs no one-to-one room."""
    assert direct_match(problem_of([[1.0, 2.0], [3.0, 1.0], [0.5, 0.7]])) == [0, 1, 0]


def test_direct_match_lower_bounds_optimal(rng):
    for trial in range(30):
        cost = rng.random((5, 20))
        p = problem_of(cost)
        greedy = sum(float(cost[i, m]) for i, m in enumerate(direct_match(p)))
        assert greedy <= solve_assignment(p).total_cost + 1e-12


def build_tree(rng, n=24, j=4):
    fm = make_features(rng.normal(size=(n, 2)))
    return fm, build_hierarchy(fit_balanced_kmeans(fm, j, seed=0), fm)


def test_selection_rejects_columns_outside_the_cost_matrix(rng):
    fm, tree = build_tree(rng)
    p = problem_of(np.zeros((2, tree.node_count)))
    for bad in (-1, tree.node_count):
        with pytest.raises(ValidationError, match=f"matched column {bad} outside"):
            selection_from_matches(tree, [0, bad], p)
        with pytest.raises(ValidationError, match=f"matched column {bad} outside"):
            select_training_set(tree, Assignment([0, bad], 0.0), p)


def test_selection_disjoint_union(rng):
    fm, tree = build_tree(rng)
    leaf_a, leaf_b = tree.node(0), tree.node(1)
    p = problem_of(np.zeros((2, tree.node_count)))
    a = solve_assignment(problem_of(np.array([[0.0, 1.0], [1.0, 0.0]])))
    sel = selection_from_matches(tree, [0, 1], p)
    assert sel.sample_rows.size == leaf_a.size + leaf_b.size
    assert sel.selected_nodes == [0, 1]


def test_selection_parent_child_dedup(rng):
    fm, tree = build_tree(rng)
    parent = tree.node(tree.leaf_count)
    child = tree.node(parent.children[0])
    p = problem_of(np.zeros((2, tree.node_count)))
    sel = selection_from_matches(tree, [parent.node_id, child.node_id], p)
    assert sel.sample_rows.size == parent.size
    assert np.array_equal(sel.sample_rows, tree.members(parent.node_id))
    # ownership: the parent was selected first, so the child stratum is empty
    strata = dict(zip(sel.selected_nodes, node_strata(tree, sel.selected_nodes, sel.sample_rows)))
    assert strata[child.node_id].size == 0


def test_selection_matches_naive_union_oracle(rng):
    for trial in range(25):
        fm, tree = build_tree(rng, n=30, j=5)
        n_targets = int(rng.integers(1, 6))
        cols = rng.choice(tree.node_count, size=n_targets, replace=False)
        p = problem_of(rng.random((n_targets, tree.node_count)))
        sel = selection_from_matches(tree, [int(c) for c in cols], p)
        naive: set[int] = set()
        for c in cols:
            naive |= set(tree.members(int(c)).tolist())
        assert set(sel.sample_rows.tolist()) == naive
        assert sel.sample_rows.size == len(naive)
        # strata partition the selection
        strata = node_strata(tree, sel.selected_nodes, np.arange(tree.leaf_labels.size))
        merged = np.sort(np.concatenate(strata))
        assert np.array_equal(merged, sel.sample_rows)


def test_selection_composition_counts(rng):
    fm, tree = build_tree(rng)
    labels = ["alpha" if i < 12 else "beta" for i in range(24)]
    p = problem_of(np.zeros((1, tree.node_count)))
    sel = selection_from_matches(tree, [tree.root_id], p)
    composition = match_report_payload(sel, tree, 0.0, Strings.from_str(labels))["composition"]
    assert composition == {"alpha": 12, "beta": 12}
    assert sum(composition.values()) == sel.sample_rows.size


def test_selection_dedup_idempotent(rng):
    fm, tree = build_tree(rng)
    p = problem_of(np.zeros((2, tree.node_count)))
    first = selection_from_matches(tree, [2, 2], p)
    second = selection_from_matches(tree, [2, 2], p)
    assert np.array_equal(first.sample_rows, second.sample_rows)
    assert first.selected_nodes == [2]


def test_select_training_set_and_report(rng):
    fm, tree = build_tree(rng)
    cost = np.abs(rng.random((2, tree.node_count))) + 0.1
    p = problem_of(cost)
    a = solve_assignment(p)
    sel = select_training_set(tree, a, p)
    payload = match_report_payload(sel, tree, a.total_cost, fm.labels)
    text = render_match_report(payload, warn_fid=0.0)
    assert "total_cost" in text and "WARN" in text
    assert payload["total_cost"] == a.total_cost
    assert len(payload["per_target"]) == 2
