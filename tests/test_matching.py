from __future__ import annotations

import numpy as np
import pytest

from bmm import (
    AssignmentProblem,
    InfeasibleMatchError,
    ValidationError,
    build_hierarchy,
    direct_match,
    fit_balanced_kmeans,
    select_training_set,
    solve_assignment,
)
from bmm.matching import match_report_payload, render_match_report, selection_from_matches

from conftest import make_features, unmatched
from oracles import oracle_assignment


def problem_of(cost) -> AssignmentProblem:
    cost = np.asarray(cost, dtype=np.float64)
    return AssignmentProblem(
        cost=cost,
        target_ids=[f"mode-{i}" for i in range(cost.shape[0])],
        node_ids=list(range(cost.shape[1])),
    )


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


def test_matches_oracle_on_random_instances(rng):
    for trial in range(80):
        n_rows = int(rng.integers(1, 7))
        n_cols = int(rng.integers(n_rows, 10))
        if trial % 3 == 0:
            cost = rng.integers(0, 5, size=(n_rows, n_cols)).astype(float)
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
    bad.cost[0, 1] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        solve_assignment(bad)
    neg = problem_of(np.zeros((2, 3)))
    neg.cost[1, 2] = -0.5
    with pytest.raises(ValidationError, match="negative"):
        solve_assignment(neg)


def test_direct_match_duplicates():
    p = problem_of([[0.0, 5.0], [0.0, 9.0]])
    dup = direct_match(p, allow_duplicates=True)
    assert dup.matches == [0, 0]
    nodup = direct_match(p, allow_duplicates=False)
    assert nodup.matches == [0, None]
    assert unmatched(nodup) == [1]


def test_direct_match_lower_bounds_optimal(rng):
    for trial in range(30):
        cost = rng.random((5, 20))
        p = problem_of(cost)
        assert direct_match(p).total_cost <= solve_assignment(p).total_cost + 1e-12


def build_tree(rng, n=24, j=4):
    fm = make_features(rng.normal(size=(n, 2)))
    return fm, build_hierarchy(fit_balanced_kmeans(fm, j, seed=0), fm)


def test_selection_disjoint_union(rng):
    fm, tree = build_tree(rng)
    leaf_a, leaf_b = tree.nodes[0], tree.nodes[1]
    p = problem_of(np.zeros((2, tree.node_count)))
    a = solve_assignment(problem_of(np.array([[0.0, 1.0], [1.0, 0.0]])))
    sel = selection_from_matches(tree, [0, 1], p, fm.dataset_labels)
    assert sel.sample_rows.size == leaf_a.size + leaf_b.size
    assert sel.selected_nodes == [0, 1]


def test_selection_parent_child_dedup(rng):
    fm, tree = build_tree(rng)
    parent = next(n for n in tree.nodes if not n.is_leaf)
    child = tree.nodes[parent.children[0]]
    p = problem_of(np.zeros((2, tree.node_count)))
    sel = selection_from_matches(tree, [parent.node_id, child.node_id], p, fm.dataset_labels)
    assert sel.sample_rows.size == parent.size
    assert np.array_equal(sel.sample_rows, tree.members(parent.node_id))
    # ownership: the parent was selected first, so the child stratum is empty
    assert sel.strata[child.node_id].size == 0


def test_selection_matches_naive_union_oracle(rng):
    for trial in range(25):
        fm, tree = build_tree(rng, n=30, j=5)
        n_targets = int(rng.integers(1, 6))
        cols = rng.choice(tree.node_count, size=n_targets, replace=False)
        p = problem_of(rng.random((n_targets, tree.node_count)))
        sel = selection_from_matches(tree, [int(c) for c in cols], p, fm.dataset_labels)
        naive: set[int] = set()
        for c in cols:
            naive |= set(tree.members(int(c)).tolist())
        assert set(sel.sample_rows.tolist()) == naive
        assert sel.sample_rows.size == len(naive)
        # strata partition the selection
        merged = np.sort(np.concatenate(list(sel.strata.values())))
        assert np.array_equal(merged, sel.sample_rows)


def test_selection_composition_counts(rng):
    fm, tree = build_tree(rng)
    labels = ["alpha" if i < 12 else "beta" for i in range(24)]
    p = problem_of(np.zeros((1, tree.node_count)))
    sel = selection_from_matches(tree, [tree.root_id], p, labels)
    assert sel.composition == {"alpha": 12, "beta": 12}
    assert sum(sel.composition.values()) == sel.sample_rows.size


def test_selection_dedup_idempotent(rng):
    fm, tree = build_tree(rng)
    p = problem_of(np.zeros((2, tree.node_count)))
    first = selection_from_matches(tree, [2, 2], p, fm.dataset_labels)
    second = selection_from_matches(tree, [2, 2], p, fm.dataset_labels)
    assert np.array_equal(first.sample_rows, second.sample_rows)
    assert first.selected_nodes == [2]


def test_select_training_set_and_report(rng):
    fm, tree = build_tree(rng)
    cost = np.abs(rng.random((2, tree.node_count))) + 0.1
    p = problem_of(cost)
    a = solve_assignment(p)
    sel = select_training_set(tree, a, p, fm.dataset_labels)
    payload = match_report_payload(sel, p, tree, a.total_cost)
    text = render_match_report(payload, warn_fid=0.0)
    assert "total_cost" in text and "WARN" in text
    assert payload["total_cost"] == a.total_cost
    assert len(payload["per_target"]) == 2
