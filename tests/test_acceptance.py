"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

from __future__ import annotations

import time

import numpy as np

from bmm import (
    Budget,
    ModeStats,
    build_hierarchy,
    build_server_tree,
    direct_match,
    evaluate_gap,
    fid,
    fit_balanced_kmeans,
    generate,
    match_modes,
    run_bench,
    run_match,
    solve_assignment,
    write_features,
)
from bmm.cli import main
from bmm.hierarchy import validate_tree
from bmm.matching import selection_from_matches
from bmm.synth import (
    align_truth,
    granularity_probe_world,
    matching_precision,
    random_subset_world,
)

from conftest import (
    cluster_sizes, make_features, one_blas_thread, planted_modes_and_union,
    shared_nearest_world, unmatched,
)
from oracles import (
    full_cost_matrix, oracle_assignment, oracle_balanced_partition,
    oracle_direct_match_no_duplicates,
)


def report(criterion: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[C{criterion:02d}][{status}] {label}: {detail}")
    assert ok, f"criterion {criterion} ({label}) failed: {detail}"


def problem_of(cost) -> np.ndarray:
    return np.asarray(cost, dtype=np.float64)


def test_c01_assignment_optimality():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    mismatches = 0
    for trial in range(200):
        n_rows = int(rng.integers(1, 7))
        n_cols = int(rng.integers(n_rows, 10))
        if trial % 4 == 0:
            cost = rng.integers(0, 5, size=(n_rows, n_cols)).astype(float)
        else:
            cost = rng.random((n_rows, n_cols))
        mine = solve_assignment(problem_of(cost))
        ref = oracle_assignment(cost)
        if mine.sigma != ref.sigma or mine.total_cost != ref.total_cost:
            mismatches += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        "assignment optimality",
        mismatches == 0 and elapsed < 10.0,
        f"200 matrices, {mismatches} mismatches, {elapsed:.2f}s (< 10s)",
    )


def test_c02_fid_correctness():
    rng = np.random.default_rng(202)
    worst_1d = 0.0
    for _ in range(100):
        mu_a, mu_b = rng.normal(size=2) * 3
        var_a, var_b = rng.uniform(0.1, 4.0, size=2)
        a = ModeStats(mean=np.array([mu_a]), cov=np.array([[var_a]]), count=10)
        b = ModeStats(mean=np.array([mu_b]), cov=np.array([[var_b]]), count=10)
        want = (mu_a - mu_b) ** 2 + (np.sqrt(var_a) - np.sqrt(var_b)) ** 2
        worst_1d = max(worst_1d, abs(fid(a, b) - want))

    worst_diag = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 9))
        mu = rng.normal(size=(2, d))
        var = rng.uniform(0.1, 3.0, size=(2, d))
        a = ModeStats(mean=mu[0], cov=np.diag(var[0]), count=20)
        b = ModeStats(mean=mu[1], cov=np.diag(var[1]), count=20)
        expected = float(
            ((mu[0] - mu[1]) ** 2).sum() + ((np.sqrt(var[0]) - np.sqrt(var[1])) ** 2).sum()
        )
        worst_diag = max(worst_diag, abs(fid(a, b) - expected) / expected)

    worst_self = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 7))
        m = rng.normal(size=(d, d))
        s = ModeStats(mean=rng.normal(size=d), cov=m @ m.T / d + 0.05 * np.eye(d), count=30)
        worst_self = max(worst_self, fid(s, s))

    ok = worst_1d <= 1e-6 and worst_diag <= 1e-6 and worst_self <= 1e-6
    report(
        2,
        "fid correctness",
        ok,
        f"1-D err {worst_1d:.2e}, diagonal rel err {worst_diag:.2e}, self {worst_self:.2e} "
        f"(all <= 1e-6)",
    )


def test_c03_balance_and_optimality():
    rng = np.random.default_rng(303)
    spread_fails = 0
    sse_fails = 0
    oracle_checked = 0
    for trial in range(100):
        if trial < 50:
            n = int(rng.integers(2, 9))
            k = 2
        else:
            n = int(rng.integers(2, 150))
            k = int(rng.integers(1, min(n, 10) + 1))
        fm = make_features(rng.normal(size=(n, int(rng.integers(1, 5)))))
        fc = fit_balanced_kmeans(fm, k, seed=trial)
        sizes = cluster_sizes(fc)
        if sizes.max() - sizes.min() > 1:
            spread_fails += 1
        if n <= 8 and k == 2:
            oracle_checked += 1
            if not np.isclose(fc.sse, oracle_balanced_partition(fm, 2), rtol=1e-9, atol=1e-9):
                sse_fails += 1
    ok = spread_fails == 0 and sse_fails == 0 and oracle_checked >= 50
    report(
        3,
        "balance and optimality",
        ok,
        f"100 inputs, spread>1 on {spread_fails}, oracle mismatches {sse_fails} of "
        f"{oracle_checked} small instances",
    )


def test_c04_tree_structure():
    rng = np.random.default_rng(404)
    fm = make_features(rng.normal(size=(512, 8)))
    bad = []
    for j in (1, 2, 4, 8, 16, 128):
        tree = build_hierarchy(fit_balanced_kmeans(fm, j, seed=0), fm)
        try:
            validate_tree(tree)
        except Exception:  # pragma: no cover - failure path
            bad.append(j)
            continue
        if tree.node_count != 2 * j - 1:
            bad.append(j)
    report(
        4,
        "tree structure",
        not bad,
        f"J in (1,2,4,8,16,128) all give 2J-1 nodes with valid partitions"
        + (f"; failures at {bad}" if bad else ""),
    )


def test_c05_gap_reduction_reproduction():
    started = time.perf_counter()
    wins = 0
    reductions = []
    for seed in range(20):
        world = random_subset_world(seed=seed, include_whole_super=False)
        server, target, _ = generate(world)
        tree = build_server_tree(server, 16)
        outcome = run_match(tree, target, len(world.targets))
        gap_selected, gap_server = evaluate_gap(server, target, outcome.selection.sample_rows)
        if gap_selected < gap_server:
            wins += 1
        reductions.append(1.0 - gap_selected / gap_server)
    elapsed = time.perf_counter() - started
    mean_reduction = float(np.mean(reductions))
    ok = wins >= 19 and mean_reduction >= 0.30 and elapsed < 120.0
    report(
        5,
        "gap reduction",
        ok,
        f"selected beats server in {wins}/20 worlds, mean reduction "
        f"{mean_reduction * 100:.1f}% (>= 30%), {elapsed:.1f}s (< 120s)",
    )


def test_c06_granularity_robustness():
    world = granularity_probe_world(seed=0)
    rows = run_bench(world, [16, 32, 64, 128], target_clusters=len(world.targets), seed=0)
    hier = [r["fid"] for r in rows if r["variant"] == "bmm_hier"]
    flat = [r["fid"] for r in rows if r["variant"] == "bmm_flat"]
    var_hier, var_flat = float(np.var(hier)), float(np.var(flat))
    sweet_point = min(flat)
    ok = var_hier < var_flat and max(hier) <= sweet_point * 1.10
    report(
        6,
        "granularity robustness",
        ok,
        f"fid variance hier {var_hier:.3f} < flat {var_flat:.3f}; hier max {max(hier):.2f} "
        f"<= flat sweet point {sweet_point:.2f} x 1.10",
    )


def test_c07_bmm_vs_direct_match():
    world = shared_nearest_world(seed=0)
    server, target, truth = generate(world)
    tree = build_server_tree(server, 3)
    outcome = run_match(tree, target, 3)
    aligned = align_truth(truth, outcome.clustering)

    cost = full_cost_matrix(tree, outcome.stats)
    dm_dup = direct_match(cost)
    dm_dup_sel = selection_from_matches(tree, dm_dup, cost)
    dm_nodup = oracle_direct_match_no_duplicates(cost)

    bmm_distinct = len(outcome.selection.selected_nodes)
    dm_distinct = len(dm_dup_sel.selected_nodes)
    bmm_precision = matching_precision(outcome.selection, aligned, tree)
    dm_precision = matching_precision(dm_dup_sel, aligned, tree)
    ok = (
        dm_distinct < bmm_distinct
        and len(unmatched(dm_nodup)) >= 1
        and len(set(outcome.assignment.sigma)) == 3
        and bmm_precision >= dm_precision
    )
    report(
        7,
        "bmm vs direct match",
        ok,
        f"distinct nodes dm {dm_distinct} < bmm {bmm_distinct}; dm-no-dup leaves "
        f"{len(unmatched(dm_nodup))} unmatched, bmm none; precision {bmm_precision:.2f} >= "
        f"{dm_precision:.2f}",
    )


def test_c08_dedup_exactness():
    rng = np.random.default_rng(808)
    union_fails = 0
    for trial in range(100):
        n = int(rng.integers(12, 48))
        j = int(rng.integers(2, 7))
        fm = make_features(rng.normal(size=(n, 2)))
        tree = build_hierarchy(fit_balanced_kmeans(fm, j, seed=trial), fm)
        n_targets = int(rng.integers(1, min(6, tree.node_count) + 1))
        cols = [int(c) for c in rng.choice(tree.node_count, size=n_targets, replace=False)]
        p = problem_of(rng.random((n_targets, tree.node_count)))
        sel = selection_from_matches(tree, cols, p)
        naive: set[int] = set()
        for c in cols:
            naive |= set(tree.members(c).tolist())
        if set(sel.sample_rows.tolist()) != naive or sel.sample_rows.size != len(naive):
            union_fails += 1

    fm = make_features(np.random.default_rng(1).normal(size=(32, 2)))
    tree = build_hierarchy(fit_balanced_kmeans(fm, 4, seed=0), fm)
    parent = tree.node(tree.leaf_count)
    child = tree.node(parent.children[0])
    p = problem_of(np.zeros((2, tree.node_count)))
    sel = selection_from_matches(tree, [parent.node_id, child.node_id], p)
    parent_child_ok = sel.sample_rows.size == parent.size
    report(
        8,
        "dedup exactness",
        union_fails == 0 and parent_child_ok,
        f"100 random selections match the set-union oracle ({union_fails} fails); "
        f"parent+child yields exactly the parent's {parent.size} rows",
    )


def test_c09_pruning_contracts():
    from test_pruning import consecutive_strata, draw

    rng = np.random.default_rng(909)
    cardinality_fails = 0
    proportion_fails = 0
    determinism_fails = 0
    for trial in range(50):
        sizes = [int(rng.integers(1, 50)) for _ in range(int(rng.integers(1, 6)))]
        rows, strata = consecutive_strata(sizes)
        total = rows.size
        budget = (
            Budget("fraction", float(rng.uniform(0.05, 1.0)))
            if trial % 2
            else Budget("absolute", int(rng.integers(1, total + 1)))
        )
        strategy = "stratified" if trial % 3 else "uniform"
        out = draw(rows, strata, budget, strategy, seed=trial)
        m = budget.resolve(total)
        if out.sample_rows.size != m or not np.isin(out.sample_rows, rows).all():
            cardinality_fails += 1
        if strategy == "stratified":
            for node_id, size in enumerate(sizes):
                kept = np.intersect1d(out.sample_rows, strata[node_id]).size
                if abs(kept - m * size / total) >= 1.0:
                    proportion_fails += 1
        again = draw(rows, strata, budget, strategy, seed=trial)
        if not np.array_equal(out.sample_rows, again.sample_rows):
            determinism_fails += 1
    ok = cardinality_fails == 0 and proportion_fails == 0 and determinism_fails == 0
    report(
        9,
        "pruning contracts",
        ok,
        f"50 budgets: cardinality fails {cardinality_fails}, proportionality fails "
        f"{proportion_fails}, determinism fails {determinism_fails}",
    )


def test_c10_end_to_end_determinism(tmp_path):
    world = random_subset_world(seed=2, per_sub=50, per_target=60, n_target_modes=2,
                                include_whole_super=False)
    server, target, _ = generate(world)
    server_path = tmp_path / "server.bmmf"
    target_path = tmp_path / "target.bmmf"
    write_features(server, server_path)
    write_features(target, target_path)

    artifacts = {}
    for run in ("first", "second"):
        tree_path = tmp_path / f"tree_{run}.bmmt"
        manifest_path = tmp_path / f"sel_{run}.manifest"
        commands = [
            ["build-server", "--server-features", str(server_path), "--leaves", "8",
             "--seed", "0", "--tree", str(tree_path)],
            ["match", "--tree", str(tree_path), "--server-features", str(server_path),
             "--target-features", str(target_path), "--target-clusters", "2",
             "--seed", "0", "--out", str(manifest_path)],
        ]
        for argv in commands:
            if run == "first":  # OpenBLAS at its default thread count
                assert main(argv) == 0
            else:
                one_blas_thread("-m", "bmm.cli", *argv)
        artifacts[run] = (tree_path.read_bytes(), manifest_path.read_bytes())

    trees_same = artifacts["first"][0] == artifacts["second"][0]
    manifests_same = artifacts["first"][1] == artifacts["second"][1]
    report(
        10,
        "end-to-end determinism",
        trees_same and manifests_same,
        f"tree bytes identical: {trees_same}, manifest bytes identical: {manifests_same} "
        f"(across reruns and OPENBLAS_NUM_THREADS 1 vs the default)",
    )


def test_c11_planted_modes_select_the_planted_union():
    """Matched with the planted target modes, the tree and the one-to-one
    match select exactly the planted union, so whatever c05's worlds miss is
    lost in the target clustering."""
    started = time.perf_counter()
    worlds = [random_subset_world(seed=s, include_whole_super=False) for s in range(20)]
    worlds += [granularity_probe_world(seed=s) for s in range(10)]
    missed = []
    for i, world in enumerate(worlds):
        server, target, truth = generate(world)
        tree = build_server_tree(server, 16, seed=0)
        stats, union = planted_modes_and_union(target, truth)
        assignment, cost = match_modes(tree, stats)
        rows = selection_from_matches(tree, assignment.sigma, cost).sample_rows
        if not np.array_equal(rows, union):
            missed.append(f"{'c05' if i < 20 else 'quick start'} seed {world.seed}")
    elapsed = time.perf_counter() - started
    report(
        11,
        "planted modes select the planted union",
        not missed,
        f"selected rows equal the planted union's in {len(worlds) - len(missed)}/{len(worlds)} "
        f"worlds (c05's 20 and quick-start seeds 0-9, J=16), {elapsed:.1f}s"
        + (f"; missed {missed}" if missed else ""),
    )
