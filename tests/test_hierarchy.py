from __future__ import annotations

import json

import numpy as np
import pytest

from bmm import (
    TreeFormatError,
    ValidationError,
    build_hierarchy,
    fit_balanced_kmeans,
    load_tree,
    persist_tree,
)
from bmm.clustering import FlatClustering
from bmm.hierarchy import trees_equal, validate_tree

from conftest import make_features


def quad_features():
    # two tight points near each of 0, 1, 10, 11 on a line
    return make_features([-0.05, 0.05, 0.95, 1.05, 9.95, 10.05, 10.95, 11.05])


def build_quad_tree(linkage="centroid"):
    fm = quad_features()
    leaves = fit_balanced_kmeans(fm, 4, seed=0)
    return fm, build_hierarchy(leaves, fm, linkage=linkage)


def test_single_leaf_tree():
    fm = make_features([0.0, 1.0])
    leaves = fit_balanced_kmeans(fm, 1, seed=0)
    tree = build_hierarchy(leaves, fm)
    assert tree.node_count == 1 and tree.leaf_count == 1
    assert tree.nodes[0].is_leaf and tree.nodes[0].parent is None


def test_quad_tree_merge_order():
    fm, tree = build_quad_tree()
    assert tree.node_count == 7
    # the first two merges pair the 0/1 leaves and the 10/11 leaves
    first, second = tree.nodes[4], tree.nodes[5]
    for merged in (first, second):
        values = np.sort(fm.values[tree.members(merged.node_id), 0])
        assert values.max() - values.min() < 2.0  # a near pair, not a cross-gap merge
    assert first.merge_distance == pytest.approx(1.0, abs=0.2)
    assert second.merge_distance == pytest.approx(1.0, abs=0.2)
    root = tree.nodes[6]
    assert root.size == 8 and root.parent is None


def test_merge_steps_match_exhaustive_linkage(rng):
    """Replay the merge sequence: each step must take the minimum-distance pair."""
    fm = make_features(rng.normal(size=(24, 3)))
    leaves = fit_balanced_kmeans(fm, 6, seed=0)
    tree = build_hierarchy(leaves, fm)
    x = fm.values.astype(np.float64)

    active = {c: tree.members(c) for c in range(6)}
    for new_id in range(6, tree.node_count):
        node = tree.nodes[new_id]
        a, b = node.children
        best = None
        for i in sorted(active):
            for j in sorted(active):
                if i >= j:
                    continue
                gap = x[active[i]].mean(axis=0) - x[active[j]].mean(axis=0)
                value = float(np.sqrt(gap @ gap))
                if best is None or value < best[0]:
                    best = (value, i, j)
        assert (a, b) == (best[1], best[2])
        assert node.merge_distance == pytest.approx(best[0], rel=1e-12)
        del active[a], active[b]
        active[new_id] = tree.members(node.node_id)


@pytest.mark.parametrize("j", [1, 2, 3, 5, 9])
def test_node_count_relation(rng, j):
    fm = make_features(rng.normal(size=(4 * j, 2)))
    leaves = fit_balanced_kmeans(fm, j, seed=0)
    tree = build_hierarchy(leaves, fm)
    assert tree.node_count == 2 * j - 1
    validate_tree(tree)


def test_partition_property(rng):
    fm = make_features(rng.normal(size=(40, 4)))
    leaves = fit_balanced_kmeans(fm, 8, seed=3)
    tree = build_hierarchy(leaves, fm)
    for node in tree.nodes:
        if node.is_leaf:
            continue
        left = tree.members(node.children[0])
        right = tree.members(node.children[1])
        assert np.intersect1d(left, right).size == 0
        assert np.array_equal(np.sort(np.concatenate([left, right])), tree.members(node.node_id))
    assert np.array_equal(tree.members(tree.root_id), np.arange(40))


def test_ward_merges_are_monotone(rng):
    fm = make_features(rng.normal(size=(48, 3)))
    leaves = fit_balanced_kmeans(fm, 12, seed=0)
    tree = build_hierarchy(leaves, fm, linkage="ward")
    distances = [n.merge_distance for n in tree.nodes if n.merge_distance is not None]
    assert all(b >= a - 1e-9 for a, b in zip(distances, distances[1:]))


def test_centroid_merges_monotone_on_collinear_data(rng):
    # centroid linkage can invert on 2-D corner geometries (merged midpoints
    # drift together); collinear well-separated clusters stay monotone
    centers = np.array([[0.0], [30.0], [60.0], [90.0]])
    x = np.concatenate([c + rng.normal(size=(10, 1)) for c in centers])
    fm = make_features(x)
    leaves = fit_balanced_kmeans(fm, 8, seed=0)
    tree = build_hierarchy(leaves, fm)
    distances = [n.merge_distance for n in tree.nodes if n.merge_distance is not None]
    assert all(b >= a - 1e-9 for a, b in zip(distances, distances[1:]))


def test_stats_computed_from_member_rows(rng):
    fm = make_features(rng.normal(size=(30, 3)))
    leaves = fit_balanced_kmeans(fm, 5, seed=0)
    tree = build_hierarchy(leaves, fm)
    node = tree.nodes[tree.root_id]
    x = fm.values[tree.members(node.node_id)].astype(np.float64)
    assert np.allclose(node.stats.mean, x.mean(axis=0))
    assert node.stats.count == 30


def test_empty_leaf_rejected():
    fm = make_features([0.0, 1.0, 2.0])
    bogus = FlatClustering(
        k=3,
        assignment=np.array([0, 0, 2]),
        centroids=np.zeros((3, 1)),
        sse=0.0,
    )
    with pytest.raises(ValidationError, match="empty"):
        build_hierarchy(bogus, fm)


@pytest.mark.parametrize("j", [1, 4, 16])
def test_persist_roundtrip(tmp_path, rng, j):
    fm = make_features(rng.normal(size=(3 * j + 2, 3)))
    leaves = fit_balanced_kmeans(fm, j, seed=j)
    tree = build_hierarchy(leaves, fm)
    path = tmp_path / "tree.json"
    persist_tree(tree, path)
    back = load_tree(path)
    assert trees_equal(tree, back)
    # bit-exact stats after the text round trip
    for original, loaded in zip(tree.nodes, back.nodes):
        assert np.array_equal(original.stats.cov, loaded.stats.cov)


def test_version_mismatch_rejected(tmp_path, rng):
    fm = make_features(rng.normal(size=(8, 2)))
    tree = build_hierarchy(fit_balanced_kmeans(fm, 2, seed=0), fm)
    path = tmp_path / "tree.json"
    persist_tree(tree, path)
    payload = json.loads(path.read_text())
    for version in (99, 1):  # 1 is the earlier format with per-node member lists
        payload["version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(TreeFormatError, match=f"version {version} "):
            load_tree(path)
