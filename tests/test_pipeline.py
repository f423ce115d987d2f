from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bmm.gap
import bmm.pipeline
from bmm import (
    FeatureMatrix,
    InfeasibleMatchError,
    ModeStats,
    ParameterError,
    build_hierarchy,
    build_server_tree,
    direct_match,
    evaluate_gap,
    fit_balanced_kmeans,
    gaussian_stats,
    generate,
    match_modes,
    run_bench,
    run_match,
    solve_assignment,
)
from bmm.gap import NodeCosts
from bmm.pipeline import BENCH_VARIANTS, target_mode_stats
from bmm.synth import granularity_probe_world, random_subset_world

from conftest import make_features, one_blas_thread, shared_nearest_world
from oracles import full_cost_matrix, oracle_bench

TESTS = str(Path(__file__).resolve().parent)


@pytest.fixture(scope="module")
def small_world():
    world = random_subset_world(seed=11, per_sub=60, per_target=60, n_target_modes=2,
                                include_whole_super=False)
    server, target, truth = generate(world)
    return world, server, target, truth


def test_stage_parameter_invariants(small_world):
    """Each stage refuses the parameters it is the first to read."""
    world, server, target, truth = small_world
    tree = build_server_tree(server, 4)
    with pytest.raises(ParameterError, match="got 4 and 5"):
        run_match(tree, target, 5)
    with pytest.raises(ParameterError, match="got 4 and 5"):
        run_bench(world, [4], target_clusters=5)
    with pytest.raises(ParameterError, match="J=0 must be at least 1"):
        build_server_tree(server, 0)
    with pytest.raises(ParameterError, match="J=0 must be at least 1"):
        run_bench(world, [0], target_clusters=0)
    with pytest.raises(ParameterError, match="got 4 and 0"):
        run_match(tree, target, 0)


def test_match_flow_on_planted_world(small_world):
    world, server, target, truth = small_world
    tree = build_server_tree(server, 8)
    outcome = run_match(tree, target, 2)
    assert len(outcome.assignment.sigma) == 2
    assert outcome.selection.sample_rows.size > 0
    assert np.isfinite(outcome.assignment.total_cost)
    gap_selected, gap_server = evaluate_gap(server, target, outcome.selection.sample_rows)
    assert gap_selected < gap_server


def test_target_copy_of_leaf_matches_it(small_world):
    world, server, target, truth = small_world
    tree = build_server_tree(server, 8)
    leaf = tree.node(3)
    copy = FeatureMatrix(
        values=server.values[tree.members(leaf.node_id)],
        sample_ids=[f"copy-{i}" for i in range(leaf.size)],
        dataset_labels=["target"] * leaf.size,
    )
    outcome = run_match(tree, copy, 1)
    node_id, value = outcome.selection.per_target[0]
    assert value <= 1e-6
    assert node_id == leaf.node_id
    assert np.array_equal(outcome.selection.sample_rows, tree.members(leaf.node_id))


def test_more_target_clusters_than_structure(small_world):
    """L larger than the real mode count still yields an injective match."""
    world, server, target, truth = small_world
    tree = build_server_tree(server, 8)
    outcome = run_match(tree, target, 4)
    assert len(set(outcome.assignment.sigma)) == 4


def test_tiny_target_mode_is_advised(small_world):
    world, server, target, truth = small_world
    few = FeatureMatrix(
        values=target.values[:3],
        sample_ids=[f"t{i}" for i in range(3)],
        dataset_labels=["target"] * 3,
    )
    tree = build_server_tree(server, 8)
    with pytest.raises(ParameterError, match="target-clusters"):
        run_match(tree, few, 3)


def test_leaf_candidates_restriction(small_world):
    world, server, target, truth = small_world
    tree = build_server_tree(server, 8)
    _, stats = target_mode_stats(target, 2)
    full = full_cost_matrix(tree, stats)
    assert full.shape == (2, 15)
    # bench's bmm_flat takes the first J columns: the leaves are nodes 0..J-1
    assert [n for n in range(tree.node_count) if tree.node(n).is_leaf] == list(range(8))


def three_blob_target():
    """Three far-apart blobs in d=48, rows shuffled: two of 40 rows, which
    `group_moments` fits in one stacked step, and one of 25."""
    rng = np.random.default_rng(5)
    blobs = [rng.normal(size=(m, 48)) + 100.0 * c for c, m in enumerate([40, 25, 40])]
    return make_features(rng.permutation(np.concatenate(blobs)))


def assert_target_modes_equal_gaussian_stats(target) -> str:
    """Each target mode has the bytes of `gaussian_stats` over its rows;
    returns the SHA-256 of them all."""
    clustering, stats = target_mode_stats(target, 3)
    assert sorted(s.count for s in stats) == [25, 40, 40]
    for c, mode in enumerate(stats):
        refit = gaussian_stats(target, np.flatnonzero(clustering.assignment == c))
        assert mode.mean.tobytes() == refit.mean.tobytes(), c
        assert mode.cov.tobytes() == refit.cov.tobytes(), c
        assert mode.count == refit.count, c
    return hashlib.sha256(b"".join(m.mean.tobytes() + m.cov.tobytes() for m in stats)).hexdigest()


def test_target_modes_equal_gaussian_stats():
    assert_target_modes_equal_gaussian_stats(three_blob_target())


TARGET_MODES_ONE_THREAD = """
import sys
sys.path.insert(0, sys.argv[1])
from test_pipeline import assert_target_modes_equal_gaussian_stats, three_blob_target
print(assert_target_modes_equal_gaussian_stats(three_blob_target()))
"""


def test_target_modes_equal_gaussian_stats_on_one_blas_thread():
    """The same bytes with OpenBLAS held to one thread as at its default."""
    digest = assert_target_modes_equal_gaussian_stats(three_blob_target())
    assert one_blas_thread("-c", TARGET_MODES_ONE_THREAD, TESTS).decode().strip() == digest


def test_evaluate_whole_server_is_identity(small_world):
    world, server, target, truth = small_world
    gap_selected, gap_server = evaluate_gap(server, target, np.arange(server.n))
    assert gap_selected == gap_server


def test_bench_rows_and_variants(monkeypatch):
    """Every cell matches from the bounds: it computes fewer exact pairs than
    the J x L leaf matrix, let alone the variant's full matrix."""
    kernel, match = bmm.gap._fid_row, bmm.pipeline.match_modes
    pairs, cells = [], []

    def counting_kernel(a, covs, *args):
        pairs.append(len(covs))
        return kernel(a, covs, *args)

    def counting_match(tree, stats, *args):
        pairs.clear()
        result = match(tree, stats, *args)
        cells.append(sum(pairs))
        return result

    monkeypatch.setattr(bmm.gap, "_fid_row", counting_kernel)
    monkeypatch.setattr(bmm.pipeline, "match_modes", counting_match)
    world = shared_nearest_world(seed=0, per_mode=60)
    rows = run_bench(world, [16], target_clusters=3, seed=0)
    assert len(cells) == len(rows) == 3
    assert all(0 < computed < 16 * 3 for computed in cells), cells
    assert [r["variant"] for r in rows] == list(BENCH_VARIANTS)
    for row in rows:
        assert row["J"] == 16 and row["L"] == 3
        assert np.isfinite(row["fid"]) and 0.0 <= row["precision"] <= 1.0


BENCH_WORLDS = {
    "shared-nearest": (shared_nearest_world(seed=0, per_mode=60), [3, 4], 3),
    "quick-start": (granularity_probe_world(seed=0), [16, 32, 64, 128], 6),
}


@pytest.mark.parametrize("bounds", ["bounded", "fallback"])
@pytest.mark.parametrize("name", sorted(BENCH_WORLDS))
def test_bench_equals_the_full_matrix_oracle(name, bounds, monkeypatch):
    """Every cell's fid and precision are the full cost matrix's, bit for bit,
    from the bounds and from all-zero bounds alike."""
    world, sweep, clusters = BENCH_WORLDS[name]
    if bounds == "fallback":
        monkeypatch.setattr(NodeCosts, "lower_bounds", lambda self, modes: None)
    rows = run_bench(world, sweep, target_clusters=clusters, seed=0)
    got = [(r["variant"], r["J"], r["L"], repr(r["fid"]), repr(r["precision"])) for r in rows]
    want = [(r["variant"], r["J"], r["L"], repr(r["fid"]), repr(r["precision"]))
            for r in oracle_bench(world, sweep, target_clusters=clusters, seed=0)]
    assert got == want


def test_match_modes_refuses_an_unknown_variant(small_world):
    world, server, target, truth = small_world
    tree = build_server_tree(server, 4)
    _, stats = target_mode_stats(target, 2)
    with pytest.raises(ParameterError, match="unknown variant 'snp'"):
        match_modes(tree, stats, variant="snp")


def bounded_match_case(rng, kind: str):
    """A random tree and target modes; "duplicate-leaves" copies leaf statistics
    onto other leaves, "integer-ties" gives every cost an integer value."""
    d = 1 if kind == "integer-ties" else int(rng.integers(1, 6))
    j = int(rng.integers(1, 9))
    features = make_features(rng.normal(size=(6 * j, d)) * rng.uniform(0.1, 3.0, size=d))
    tree = build_hierarchy(fit_balanced_kmeans(features, j, seed=0), features)
    h = tree.node_count
    if kind == "duplicate-leaves" and j > 1:
        for leaf in rng.integers(1, j, size=int(rng.integers(1, j))):
            source = int(rng.integers(0, leaf))
            tree.means[leaf], tree.covs[leaf] = tree.means[source], tree.covs[source]
    if kind == "integer-ties":
        tree.means[:] = rng.integers(0, 3, size=(h, 1))
        tree.covs[:] = rng.choice([1.0, 4.0, 9.0], size=(h, 1, 1))
    tree.spectra = np.linalg.eigvalsh(tree.covs)  # as a tree with these covariances stores
    stats = []
    for _ in range(int(rng.integers(1, h + 1))):
        x = int(rng.integers(0, h))
        if kind == "integer-ties":
            mean, cov = rng.integers(0, 3, size=1), np.array([[rng.choice([1.0, 4.0, 9.0])]])
        elif rng.random() < 0.3:  # a copy of a node: the bound is tight there
            mean, cov = tree.means[x], tree.covs[x] * rng.choice([1.0, 4.0])
        else:
            a = rng.normal(size=(d, d))
            mean, cov = rng.normal(size=d), a @ a.T / d
        stats.append(ModeStats(mean=mean, cov=cov, count=10))
    return tree, stats


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["random", "duplicate-leaves", "integer-ties"]),
    seed=st.integers(0, 2**32 - 1),
    candidates=st.sampled_from([0, 1, 4]),
)
# exact ties between two equal leaves, then two equal target modes: the bounded
# match must return the full solve's lexicographically smallest sigma
@example(kind="duplicate-leaves", seed=143465352, candidates=4)
@example(kind="duplicate-leaves", seed=10307, candidates=4)
# no bound is 0, so with no candidates the first pick is made on bounds alone
@example(kind="random", seed=4, candidates=0)
def test_bounded_match_equals_the_full_matrix_solve(kind, seed, candidates):
    """Each variant's bounded match is its full-matrix pick, whatever the
    number of up-front candidates: bmm_hier solves every column, bmm_flat the
    leaf columns 0..J-1, and dm_dup takes each row's lowest-column minimum of
    every column."""
    tree, stats = bounded_match_case(np.random.default_rng(seed), kind)
    assert NodeCosts(tree).lower_bounds(stats) is not None
    full = full_cost_matrix(tree, stats)
    flat = stats[: tree.leaf_count]  # a one-to-one match into the leaves takes at most J
    with mock.patch.object(bmm.pipeline, "CANDIDATES", candidates):
        for variant, modes, expected in [
            ("bmm_hier", stats, solve_assignment(full)),
            ("bmm_flat", flat, solve_assignment(full[: len(flat), : tree.leaf_count])),
        ]:
            assignment, cost = match_modes(tree, modes, variant=variant)
            assert assignment.sigma == expected.sigma
            assert (np.float64(assignment.total_cost).tobytes()
                    == np.float64(expected.total_cost).tobytes())
            targets = np.arange(len(modes))
            assert (cost[targets, expected.sigma].tobytes()
                    == full[targets, expected.sigma].tobytes())
        matches, cost = match_modes(tree, stats, variant="dm_dup")
    assert matches == direct_match(full)
    targets = np.arange(len(stats))
    assert cost[targets, matches].tobytes() == full[targets, matches].tobytes()


def test_bounded_match_keeps_the_full_matrix_errors(rng):
    tree, stats = bounded_match_case(rng, "random")
    too_many = stats[:1] * (tree.node_count + 1)
    with pytest.raises(InfeasibleMatchError) as full:
        solve_assignment(full_cost_matrix(tree, too_many))
    with pytest.raises(InfeasibleMatchError) as bounded:
        match_modes(tree, too_many)
    assert str(bounded.value) == str(full.value)
    leaves = stats[:1] * (tree.leaf_count + 1)
    with pytest.raises(InfeasibleMatchError) as full:
        solve_assignment(full_cost_matrix(tree, leaves)[:, : tree.leaf_count])
    with pytest.raises(InfeasibleMatchError) as bounded:
        match_modes(tree, leaves, variant="bmm_flat")
    assert str(bounded.value) == str(full.value)
    # targets may share a node, so direct match takes more targets than nodes
    assert match_modes(tree, too_many, variant="dm_dup")[0] == direct_match(
        full_cost_matrix(tree, too_many)
    )
    for variant in BENCH_VARIANTS:
        with pytest.raises(ParameterError, match="at least one target mode"):
            match_modes(tree, [], variant=variant)


def test_match_computes_few_exact_pairs_on_the_query_world(monkeypatch):
    """The benchmark's query world at seed 0: a 5,120x32 server at J=64 and
    eight target sets at L=12. The bounds leave under 10% of the pairs."""
    sizes = dict(d=32, n_supers=8, subs_per_super=8, per_sub=80, n_target_modes=8,
                 per_target=200)
    base = random_subset_world(0, **sizes)
    server, _, _ = generate(base)
    tree = build_server_tree(server, 64)
    kernel = bmm.gap._fid_row
    pairs = []

    def counting(a, covs, *args):
        pairs.append(len(covs))
        return kernel(a, covs, *args)

    monkeypatch.setattr(bmm.gap, "_fid_row", counting)
    for t in range(8):
        other = random_subset_world(1000 + t, **sizes)
        _, target, _ = generate(dataclasses.replace(base, targets=other.targets))
        pairs.clear()
        outcome = run_match(tree, target, 12)
        computed = sum(pairs)
        assert computed <= 0.10 * 12 * tree.node_count, (t, computed)
        full = full_cost_matrix(tree, outcome.stats)
        assert sum(pairs) == computed + full.size
        assert outcome.assignment.sigma == solve_assignment(full).sigma
