from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bmm import (
    TreeFormatError,
    ValidationError,
    build_hierarchy,
    fit_balanced_kmeans,
    gaussian_stats,
    load_tree,
    persist_tree,
)
from bmm.clustering import FlatClustering
from bmm import hierarchy
from bmm.gap import EPS, NodeCosts, group_moments
from bmm.hierarchy import validate_tree

from conftest import make_features, one_blas_thread, trees_equal
from oracles import oracle_build_hierarchy, oracle_node_costs, oracle_pooled

TESTS = str(Path(__file__).resolve().parent)


def quad_features():
    # two tight points near each of 0, 1, 10, 11 on a line
    return make_features([-0.05, 0.05, 0.95, 1.05, 9.95, 10.05, 10.95, 11.05])


def build_quad_tree():
    fm = quad_features()
    leaves = fit_balanced_kmeans(fm, 4, seed=0)
    return fm, build_hierarchy(leaves, fm)


def merge_distances(tree):
    """Centroid distance of each merge, in node-id order, recomputed from the
    children's means."""
    a, b = tree.children[tree.leaf_count:].T
    return hierarchy._centroid_distance(tree.means[a], tree.means[b])


def test_single_leaf_tree():
    fm = make_features([0.0, 1.0])
    leaves = fit_balanced_kmeans(fm, 1, seed=0)
    tree = build_hierarchy(leaves, fm)
    assert tree.node_count == 1 and tree.leaf_count == 1
    assert tree.node(0).is_leaf and tree.node(0).parent is None


def test_quad_tree_merge_order():
    fm, tree = build_quad_tree()
    assert tree.node_count == 7
    # the first two merges pair the 0/1 leaves and the 10/11 leaves
    for merged in (4, 5):
        values = np.sort(fm.values[tree.members(merged), 0])
        assert values.max() - values.min() < 2.0  # a near pair, not a cross-gap merge
    first, second, _ = merge_distances(tree)
    assert first == pytest.approx(1.0, abs=0.2)
    assert second == pytest.approx(1.0, abs=0.2)
    root = tree.node(6)
    assert root.size == 8 and root.parent is None


def test_merge_steps_match_exhaustive_linkage(rng):
    """Replay the merge sequence: each step must take the minimum-distance pair."""
    fm = make_features(rng.normal(size=(24, 3)))
    leaves = fit_balanced_kmeans(fm, 6, seed=0)
    tree = build_hierarchy(leaves, fm)
    x = fm.values.astype(np.float64)

    active = {c: tree.members(c) for c in range(6)}
    for new_id, distance in zip(range(6, tree.node_count), merge_distances(tree)):
        a, b = tree.children[new_id].tolist()
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
        assert distance == pytest.approx(best[0], rel=1e-12)
        del active[a], active[b]
        active[new_id] = tree.members(new_id)


@st.composite
def tie_heavy_leaves(draw):
    """J = 1..40 leaves of 2 or 3 integer rows in d = 1..3, most of them
    copies of another leaf's rows, in a shuffled row order: equal linkage
    values, zero ones included, are the rule rather than the exception."""
    j = draw(st.integers(1, 40))
    d = draw(st.integers(1, 3))
    shapes = st.tuples(st.integers(2, 3), st.just(d))
    templates = draw(st.lists(arrays(np.int64, shapes, elements=st.integers(-2, 2)),
                              min_size=1, max_size=j))
    picks = draw(st.lists(st.integers(0, len(templates) - 1), min_size=j, max_size=j))
    rows = np.concatenate([templates[p] for p in picks])
    labels = np.repeat(np.arange(j), [len(templates[p]) for p in picks])
    order = np.asarray(draw(st.permutations(range(labels.size))))
    leaves = FlatClustering(k=j, assignment=labels[order], centroids=np.zeros((j, d)), sse=0.0)
    return leaves, make_features(rows[order])


def assert_equals_oracle(leaves, fm):
    """Same merges and bit-identical node statistics."""
    tree = build_hierarchy(leaves, fm)
    oracle = oracle_build_hierarchy(leaves, fm)
    assert tree.node_count == oracle.node_count
    for field in ("children", "parents", "counts", "means", "covs", "spectra"):
        assert getattr(tree, field).tobytes() == getattr(oracle, field).tobytes(), field


@settings(max_examples=300, derandomize=True, deadline=None)
@given(tie_heavy_leaves())
def test_build_hierarchy_equals_merge_loop_oracle(case):
    assert_equals_oracle(*case)


def test_build_hierarchy_equals_oracle_on_random_leaves():
    """Random balanced labels at J=96 and d=24: many rows per merge go stale
    under centroid linkage."""
    rng = np.random.default_rng(7)
    j, d = 96, 24
    labels = rng.permutation(np.arange(8 * j) % j)
    fm = make_features(rng.normal(size=(8 * j, d)))
    leaves = FlatClustering(k=j, assignment=labels, centroids=np.zeros((j, d)), sse=0.0)
    assert_equals_oracle(leaves, fm)


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
    for node_id in range(tree.leaf_count, tree.node_count):
        left, right = (tree.members(c) for c in tree.children[node_id])
        assert np.intersect1d(left, right).size == 0
        assert np.array_equal(np.sort(np.concatenate([left, right])), tree.members(node_id))
    assert np.array_equal(tree.members(tree.root_id), np.arange(40))


def test_centroid_merges_monotone_on_collinear_data(rng):
    # centroid linkage can invert on 2-D corner geometries (merged midpoints
    # drift together); collinear well-separated clusters stay monotone
    centers = np.array([[0.0], [30.0], [60.0], [90.0]])
    x = np.concatenate([c + rng.normal(size=(10, 1)) for c in centers])
    fm = make_features(x)
    leaves = fit_balanced_kmeans(fm, 8, seed=0)
    tree = build_hierarchy(leaves, fm)
    distances = merge_distances(tree)
    assert all(b >= a - 1e-9 for a, b in zip(distances, distances[1:]))


def test_stats_computed_from_member_rows(rng):
    fm = make_features(rng.normal(size=(30, 3)))
    leaves = fit_balanced_kmeans(fm, 5, seed=0)
    tree = build_hierarchy(leaves, fm)
    assert tree.counts[tree.root_id] == 30
    for node in map(tree.node, range(tree.node_count)):
        refit = gaussian_stats(fm, tree.members(node.node_id))
        assert node.stats.count == refit.count
        if node.is_leaf:  # fitted to the leaf rows: bit-equal
            assert np.array_equal(node.stats.mean, refit.mean)
            assert np.array_equal(node.stats.cov, refit.cov)
        else:  # pooled from the children: equal up to rounding
            np.testing.assert_allclose(node.stats.mean, refit.mean, rtol=1e-12)
            np.testing.assert_allclose(node.stats.cov, refit.cov, rtol=1e-12)


@pytest.mark.parametrize("label", [2, -1])
def test_leaf_label_outside_the_leaves_rejected(label):
    fm = make_features(np.arange(6.0))
    bogus = FlatClustering(
        k=2, assignment=np.array([0, 0, 1, 1, label, label]), centroids=np.zeros((2, 1)), sse=0.0
    )
    with pytest.raises(ValidationError, match=r"leaf labels must be row labels in \[0, 2\)"):
        build_hierarchy(bogus, fm)


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
    path = tmp_path / "tree.bmmt"
    persist_tree(tree, path)
    back = load_tree(path, fm)
    assert trees_equal(tree, back)
    # bit-exact stats after the binary round trip
    assert tree.covs.tobytes() == back.covs.tobytes()
    # loading then persisting reproduces the file exactly
    again = tmp_path / "again.bmmt"
    persist_tree(back, again)
    assert again.read_bytes() == path.read_bytes()


def tree_file_size(n: int, j: int, d: int) -> int:
    """Bytes of a version-6 tree: the 64-byte header, n leaf labels of 1, 2
    or 4 bytes (the narrowest that holds J-1), J-1 merges of two int32 child
    ids, 2J-1 float64 spectra and the 32-byte digest."""
    width = 1 if j <= 256 else 2 if j <= 65_536 else 4
    return 64 + n * width + 8 * (j - 1) + 8 * d * (2 * j - 1) + 32


def test_benchmark_tree_sizes():
    """The benchmark's build, query and sweep trees (n, J, d) in bytes; version 3
    took 599,942, 1,095,430 and 80,774, version 4 387,856, 624,080 and 55,056,
    and version 5 249,680, 357,968 and 38,736."""
    shapes = [(10_240, 128, 16), (5_120, 64, 32), (3_200, 16, 16)]
    assert [tree_file_size(*shape) for shape in shapes] == [43_992, 38_232, 7_384]


SHAPES = [(1, 3), (2, 1), (7, 5), (16, 3), (24, 12)]


# each id ends in the merge rule its case builds with
@pytest.mark.parametrize("j, d", SHAPES, ids=[f"{j}-{d}-centroid" for j, d in SHAPES])
def test_built_tree_round_trips_bit_for_bit(tmp_path, rng, j, d):
    """The loader derives the statistics the build computed: every array of
    the loaded tree has the built one's bytes, re-persisting the loaded tree
    writes the file again, and the header's reserved field is 0."""
    fm = make_features(rng.normal(size=(6 * j + 1, d)) * rng.uniform(0.1, 10.0, size=d))
    tree = build_hierarchy(fit_balanced_kmeans(fm, j, seed=j), fm)
    path = tmp_path / "tree.bmmt"
    persist_tree(tree, path)
    blob = path.read_bytes()
    assert len(blob) == tree_file_size(fm.n, j, d)
    assert_loads_bit_for_bit(tree, path, fm)


def assert_loads_bit_for_bit(tree, path, fm):
    """Every derived array of the tree loaded from path has the built one's
    bytes, the file's reserved header field is 0, and re-persisting the
    loaded tree writes the file again."""
    blob = path.read_bytes()
    assert blob[30:32] == bytes(2)  # the header's reserved u16
    back = load_tree(path, fm)
    for field in ("children", "parents", "counts", "means", "covs", "spectra", "leaf_labels"):
        assert getattr(back, field).tobytes() == getattr(tree, field).tobytes(), field
    assert back.covs.flags.c_contiguous
    persist_tree(back, path)
    assert path.read_bytes() == blob


@pytest.mark.parametrize("j", [256, 257], ids=["256-centroid", "257-centroid"])
def test_label_width_edges_round_trip(tmp_path, j):
    """J=256 is the widest tree whose labels fit one byte; J=257 takes two."""
    rng = np.random.default_rng(j)
    labels = rng.permutation(np.arange(3 * j) % j)
    fm = make_features(rng.normal(size=(3 * j, 2)) * [1.0, 1e3])
    leaves = FlatClustering(k=j, assignment=labels, centroids=np.zeros((j, 2)), sse=0.0)
    tree = build_hierarchy(leaves, fm)
    path = tmp_path / "tree.bmmt"
    persist_tree(tree, path)
    assert len(path.read_bytes()) == tree_file_size(fm.n, j, 2)
    assert_loads_bit_for_bit(tree, path, fm)


def random_merges(rng, j: int, d: int):
    """(children, counts, means, covs) of a random 2J-1 node tree: a random
    merge order, leaf counts of 1 to 10**6, and random means and symmetric
    leaf covariances of mixed scales; merged nodes pooled one at a time."""
    total = 2 * j - 1
    children = np.full((total, 2), -1, dtype=np.int64)
    counts = np.zeros(total, dtype=np.int64)
    counts[:j] = rng.integers(1, 10**6, size=j, endpoint=True)
    means = np.zeros((total, d))
    means[:j] = rng.normal(size=(j, d)) * 10.0 ** rng.integers(-3, 4, size=(j, 1))
    covs = np.zeros((total, d, d))
    for c in range(j):
        half = rng.normal(size=(d, d)) * 10.0 ** rng.integers(-3, 4)
        covs[c] = (half @ half.T + (half @ half.T).T) / 2.0
    pool = list(range(j))
    for new_id in range(j, total):
        a, b = sorted(pool.pop(int(rng.integers(len(pool)))) for _ in range(2))
        children[new_id] = a, b
        pool.append(new_id)
        counts[new_id], means[new_id], covs[new_id] = oracle_pooled(counts, means, covs, a, b)
    return children, counts, means, covs


@pytest.mark.parametrize("seed", range(12))
def test_level_batched_pool_equals_the_per_merge_oracle(seed):
    rng = np.random.default_rng(seed)
    j, d = int(rng.integers(1, 60)), int(rng.integers(1, 9))
    children, counts, means, covs = random_merges(rng, j, d)
    pooled_means, pooled_covs = means.copy(), covs.copy()
    pooled_means[j:], pooled_covs[j:] = np.nan, np.nan
    hierarchy._pool(children, counts, pooled_means, pooled_covs)
    assert pooled_means.tobytes() == means.tobytes()
    assert pooled_covs.tobytes() == covs.tobytes()


@st.composite
def stacked_leaves(draw):
    """Rows of J = 1..12 leaves in d = 1..128, of 2 to 300 rows each (2 and 3
    drawn often), at column and leaf scales from 1e-3 to 1e20, with shuffled
    labels."""
    j, d = draw(st.integers(1, 12)), draw(st.integers(1, 128))
    sizes = draw(st.lists(st.sampled_from([2, 3, 4, 7, 16, 31, 64]) | st.integers(2, 300),
                          min_size=j, max_size=j))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    column = 10.0 ** rng.integers(-3, 11, size=d)
    leaf = 10.0 ** rng.integers(0, 11, size=(j, 1, 1))
    centers = rng.normal(size=(j, 1, d)) * leaf * column
    rows = [c + rng.normal(size=(size, d)) * column * s for c, s, size in zip(centers, leaf, sizes)]
    labels = np.repeat(np.arange(j), sizes)
    order = rng.permutation(labels.size)
    return make_features(np.concatenate(rows)[order]), labels[order]


def assert_leaf_moments_equal_gaussian_stats(fm, labels) -> str:
    """Every stacked leaf mean and covariance has the bytes of `gaussian_stats`
    over the leaf's rows; returns the SHA-256 of them all."""
    j = int(labels.max()) + 1
    means, covs = group_moments(fm.values, labels, np.bincount(labels, minlength=j))
    for leaf in range(j):
        refit = gaussian_stats(fm, np.flatnonzero(labels == leaf))
        assert means[leaf].tobytes() == refit.mean.tobytes(), leaf
        assert covs[leaf].tobytes() == refit.cov.tobytes(), leaf
    return hashlib.sha256(means[:j].tobytes() + covs[:j].tobytes()).hexdigest()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(stacked_leaves())
def test_stacked_leaf_moments_equal_gaussian_stats(case):
    assert_leaf_moments_equal_gaussian_stats(*case)


def fixed_stacked_case():
    """40 leaves of 2 to 299 rows in d=96, labels shuffled."""
    rng = np.random.default_rng(3)
    labels = rng.permutation(np.repeat(np.arange(40), rng.integers(2, 300, size=40)))
    return make_features(rng.normal(size=(labels.size, 96))), labels


STACKED_ONE_THREAD = """
import sys
sys.path.insert(0, sys.argv[1])
from test_hierarchy import assert_leaf_moments_equal_gaussian_stats, fixed_stacked_case
print(assert_leaf_moments_equal_gaussian_stats(*fixed_stacked_case()))
"""


def test_stacked_leaf_moments_equal_gaussian_stats_on_one_blas_thread():
    """The same bytes with OpenBLAS held to one thread as at its default."""
    digest = assert_leaf_moments_equal_gaussian_stats(*fixed_stacked_case())
    assert one_blas_thread("-c", STACKED_ONE_THREAD, TESTS).decode().strip() == digest


def test_pooled_means_equal_the_merge_loop_means(monkeypatch):
    """The build's merge loop pools each mean as it merges; the level-batched
    pool, which a loaded tree derives its means with, gives the same bits."""
    loop_means = []

    def keep_loop_means(children, counts, means, covs):
        loop_means.append(means.copy())
        pool(children, counts, means, covs)

    pool = hierarchy._pool
    monkeypatch.setattr(hierarchy, "_pool", keep_loop_means)
    rng = np.random.default_rng(11)
    for j, d in [(2, 1), (9, 3), (40, 8)]:
        fm = make_features(rng.normal(size=(5 * j, d)) * 10.0 ** rng.integers(-3, 4, size=d))
        tree = build_hierarchy(fit_balanced_kmeans(fm, j, seed=0), fm)
        assert tree.means.tobytes() == loop_means.pop().tobytes()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(tie_heavy_leaves())
def test_loaded_tree_node_costs_equal_the_per_match_eigvalsh(tmp_path_factory, case):
    """A tree's stored spectra give NodeCosts the bits that one eigvalsh of
    its covariances per match gave, for the rows as drawn and for the rows
    scaled so that the EPS ridge takes every node (FID is homogeneous, so
    that is the rows as drawn under a ridge of `ridge_all`); rank-deficient
    and zero covariances are common here. The file has the size its header
    formula gives, and persist -> load -> persist writes the same bytes."""
    leaves, fm = case
    path = tmp_path_factory.mktemp("v6") / "tree.bmmt"
    ridge_all = 2.0 * float(build_hierarchy(leaves, fm).spectra.max()) + 1.0
    for factor in (1.0, EPS / ridge_all):
        rows = make_features(fm.values * np.sqrt(factor))
        tree = build_hierarchy(leaves, rows)
        persist_tree(tree, path)
        blob = path.read_bytes()
        assert len(blob) == tree_file_size(rows.n, tree.leaf_count, rows.d)
        back = load_tree(path, rows)
        assert trees_equal(tree, back)
        assert back.sha256 == tree.sha256 == blob[-32:]
        persist_tree(back, path)
        assert path.read_bytes() == blob
        costs = NodeCosts(back)
        oracle = oracle_node_costs(back.covs)
        for got, want in zip((costs.covs, costs.traces, costs.eigs), oracle):
            assert got.tobytes() == want.tobytes()
    assert (back.spectra.min(axis=1) < EPS).all()


def test_version_mismatch_rejected(tmp_path, rng):
    fm = make_features(rng.normal(size=(8, 2)))
    tree = build_hierarchy(fit_balanced_kmeans(fm, 2, seed=0), fm)
    path = tmp_path / "tree.bmmt"
    persist_tree(tree, path)
    blob = path.read_bytes()
    for version in (99, 5, 4, 2):  # the header's u16 version follows the 4-byte magic
        path.write_bytes(blob[:4] + struct.pack("<H", version) + blob[6:])
        with pytest.raises(TreeFormatError, match=f"version {version} "):
            load_tree(path, fm)
    # versions 1 and 2 were JSON documents
    path.write_text(json.dumps({"format": "bmm-mode-tree", "version": 2, "nodes": []}, indent=1))
    with pytest.raises(TreeFormatError, match="JSON tree .* incompatible"):
        load_tree(path, fm)


@st.composite
def child_arrays(draw):
    """(H, 2) child ids for H = 1..16 nodes: a random valid merge order, then
    up to three entries overwritten with ids in [-2, H], or one row dropped."""
    j = draw(st.integers(1, 8))
    pool = list(range(j))
    children = [(-1, -1)] * j
    for node in range(j, 2 * j - 1):
        a = pool.pop(draw(st.integers(0, len(pool) - 1)))
        b = pool.pop(draw(st.integers(0, len(pool) - 1)))
        children.append((a, b))
        pool.append(node)
    children = np.array(children, dtype=np.int64).reshape(-1, 2)
    if draw(st.booleans()) and len(children) > 1:
        children = children[:-1]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, len(children) - 1))
        children[row, draw(st.integers(0, 1))] = draw(st.integers(-2, len(children)))
    return children


CHILD_CHECKS = ("must be the leaves", "needs two distinct lower child ids", "does not point back")


@settings(max_examples=500, derandomize=True, deadline=None)
@given(child_arrays())
def test_child_checks_leave_one_root(children):
    """Whenever validate_tree's child checks pass, the root is the one node
    without a parent, so the tree needs no separate single-root check."""
    h = len(children)
    j = (h + 1) // 2
    labels = np.repeat(np.arange(j), 2)
    tree = hierarchy.ModeTree(
        children, np.zeros((h, 1)), labels, 0, make_features(labels)
    )
    try:
        validate_tree(tree)
    except ValidationError as exc:
        if any(check in str(exc) for check in CHILD_CHECKS):
            return
    assert np.flatnonzero(tree.parents < 0).tolist() == [tree.root_id]


def test_load_rejects_non_finite_stats(tmp_path, rng):
    """The spectra are the one stored statistic: a non-finite one is refused
    on load. Means and covariances are derived from finite float32 rows."""
    fm = make_features(rng.normal(size=(12, 2)))
    tree = build_hierarchy(fit_balanced_kmeans(fm, 3, seed=0), fm)
    path = tmp_path / "tree.bmmt"
    for node_id, value in ((1, np.nan), (tree.root_id, np.inf), (0, -np.inf)):
        saved = tree.spectra.copy()
        tree.spectra[node_id, -1] = value
        persist_tree(tree, path)
        tree.spectra = saved
        with pytest.raises(TreeFormatError, match="non-finite node spectrum"):
            load_tree(path, fm)
