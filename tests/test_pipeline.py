from __future__ import annotations

import numpy as np
import pytest

import bmm.pipeline
from bmm import (
    FeatureMatrix,
    ParameterError,
    PipelineConfig,
    build_server_tree,
    cost_matrix,
    evaluate_gap,
    generate,
    run_bench,
    run_match,
)
from bmm.pipeline import BENCH_VARIANTS, target_mode_stats
from bmm.synth import random_subset_world

from conftest import shared_nearest_world


@pytest.fixture(scope="module")
def small_world():
    world = random_subset_world(seed=11, per_sub=60, per_target=60, n_target_modes=2,
                                include_whole_super=False)
    server, target, truth = generate(world)
    return world, server, target, truth


def test_config_invariants():
    with pytest.raises(ParameterError):
        PipelineConfig(leaves=4, target_clusters=5)
    with pytest.raises(ParameterError):
        PipelineConfig(leaves=0, target_clusters=0)
    for eps in (0.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            PipelineConfig(eps_cov=eps)
    with pytest.raises(ParameterError):
        PipelineConfig(linkage="single")


def test_match_flow_on_planted_world(small_world):
    world, server, target, truth = small_world
    config = PipelineConfig(leaves=8, target_clusters=2, seed=0)
    tree = build_server_tree(server, config)
    outcome = run_match(tree, target, config)
    assert len(outcome.assignment.sigma) == 2
    assert outcome.selection.sample_rows.size > 0
    assert np.isfinite(outcome.assignment.total_cost)
    gap_selected, gap_server = evaluate_gap(server, target, outcome.selection.sample_rows)
    assert gap_selected < gap_server


def test_target_copy_of_leaf_matches_it(small_world):
    world, server, target, truth = small_world
    config = PipelineConfig(leaves=8, target_clusters=1, seed=0)
    tree = build_server_tree(server, config)
    leaf = tree.node(3)
    copy = FeatureMatrix(
        values=server.values[tree.members(leaf.node_id)],
        sample_ids=[f"copy-{i}" for i in range(leaf.size)],
        dataset_labels=["target"] * leaf.size,
    )
    outcome = run_match(tree, copy, config)
    node_id, value = outcome.selection.per_target[0]
    assert value <= 1e-6
    assert node_id == leaf.node_id
    assert np.array_equal(outcome.selection.sample_rows, tree.members(leaf.node_id))


def test_more_target_clusters_than_structure(small_world):
    """L larger than the real mode count still yields an injective match."""
    world, server, target, truth = small_world
    config = PipelineConfig(leaves=8, target_clusters=4, seed=0)
    tree = build_server_tree(server, config)
    outcome = run_match(tree, target, config)
    assert len(set(outcome.assignment.sigma)) == 4


def test_tiny_target_mode_is_advised(small_world):
    world, server, target, truth = small_world
    few = FeatureMatrix(
        values=target.values[:3],
        sample_ids=[f"t{i}" for i in range(3)],
        dataset_labels=["target"] * 3,
    )
    config = PipelineConfig(leaves=8, target_clusters=3, seed=0)
    tree = build_server_tree(server, config)
    with pytest.raises(ParameterError, match="target-clusters"):
        run_match(tree, few, config)


def test_leaf_candidates_restriction(small_world):
    world, server, target, truth = small_world
    config = PipelineConfig(leaves=8, target_clusters=2, seed=0)
    tree = build_server_tree(server, config)
    _, stats = target_mode_stats(target, config)
    full = cost_matrix(tree, stats)
    assert full.shape == (2, 15)
    # bench's bmm_flat takes the first J columns: the leaves are nodes 0..J-1
    assert [n for n in range(tree.node_count) if tree.node(n).is_leaf] == list(range(8))


def test_evaluate_whole_server_is_identity(small_world):
    world, server, target, truth = small_world
    gap_selected, gap_server = evaluate_gap(server, target, np.arange(server.n))
    assert gap_selected == gap_server


def test_bench_rows_and_variants(monkeypatch):
    built_for = []

    def counting_cost_matrix(tree, *args, **kwargs):
        built_for.append(tree.leaf_count)
        return cost_matrix(tree, *args, **kwargs)

    monkeypatch.setattr(bmm.pipeline, "cost_matrix", counting_cost_matrix)
    world = shared_nearest_world(seed=0, per_mode=60)
    rows = run_bench(world, [4], target_clusters=3, seed=0)
    assert built_for == [4]  # one cost matrix per J, shared by every variant
    assert len(rows) == 3
    assert [r["variant"] for r in rows] == list(BENCH_VARIANTS)
    for row in rows:
        assert row["J"] == 4 and row["L"] == 3
        assert np.isfinite(row["fid"]) and 0.0 <= row["precision"] <= 1.0
        assert row["runtime"] >= 0.0
