"""End-to-end orchestration: build the server tree once, then match targets.

The tree build is the expensive offline step; matching a target against a
persisted tree is cheap and repeatable. A match computes exact Fréchet costs
only for the pairs that their lower bounds cannot rule out of its answer.
Benchmark runs compare the full hierarchical candidate set against
leaves-only matching and the greedy direct-match baseline on a planted
world, each through the same bounded match.

Each stage takes the parameters it reads and checks those it is the first to
need: the leaf count J against the server rows in `build_server_tree`, the
target mode count L against J in `run_match`, and both in `run_bench`. eps
is checked by the Fréchet kernel (`gap`) and the linkage by `build_hierarchy`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clustering import FlatClustering, fit_balanced_kmeans, fit_kmeans
from .errors import ParameterError
from .features import FeatureMatrix
from .gap import DEFAULT_EPS, ModeStats, NodeCosts, cost_matrix, fid, gaussian_stats
from .hierarchy import ModeTree, build_hierarchy
from .matching import (
    Assignment,
    SelectionResult,
    direct_match,
    selection_from_matches,
    select_training_set,
    solve_assignment,
)
from .synth import PlantedWorld, align_truth, generate, matching_precision

BENCH_VARIANTS = ("bmm_hier", "bmm_flat", "dm_dup")
# Exact costs computed for each target mode, at its smallest bounds, before the first pick.
CANDIDATES = 4


def _check_leaves(leaves: int, n: int) -> None:
    """1 <= J <= n // 2, as each leaf needs 2 rows for its Gaussian statistics."""
    if leaves < 1:
        raise ParameterError(f"leaf count J={leaves} must be at least 1")
    if leaves > n // 2:
        raise ParameterError(
            f"leaf count J={leaves} must be at most n // 2 = {n // 2} for n={n} server rows"
        )


def _check_target_clusters(leaves: int, clusters: int) -> None:
    if not leaves >= clusters >= 1:
        raise ParameterError(
            f"need leaves >= target_clusters >= 1, got {leaves} and {clusters}"
        )


def build_server_tree(
    server: FeatureMatrix, leaves: int, seed: int = 0, linkage: str = "centroid"
) -> ModeTree:
    """Balanced leaves then bottom-up merging: the one-time server build."""
    _check_leaves(leaves, server.n)
    _ = server.sha256  # refuses ids a manifest cannot hold before the fit; the tree reuses it
    return build_hierarchy(
        fit_balanced_kmeans(server, leaves, seed), server, linkage=linkage, seed=seed
    )


def target_mode_stats(
    target: FeatureMatrix, clusters: int, seed: int = 0
) -> tuple[FlatClustering, list[ModeStats]]:
    """Flat-cluster the target into `clusters` modes and fit Gaussian stats per mode."""
    clustering = fit_kmeans(target, clusters, seed)
    stats = []
    for c in range(clustering.k):
        rows = clustering.cluster_rows(c)
        if rows.size < 2:
            raise ParameterError(
                f"target mode {c} has {rows.size} samples; use a smaller "
                f"--target-clusters than {clusters}"
            )
        stats.append(gaussian_stats(target, rows))
    return clustering, stats


@dataclass
class MatchOutcome:
    """A target's clustering, its per-mode stats, the assignment (that of the
    full `cost_matrix(tree, stats, eps)`, found from bounds) and the selected rows."""

    clustering: FlatClustering
    stats: list[ModeStats]
    assignment: Assignment
    selection: SelectionResult


def match_modes(
    tree: ModeTree, stats: Sequence[ModeStats], eps: float = DEFAULT_EPS,
    variant: str = BENCH_VARIANTS[0],
) -> tuple[Assignment | list[int], np.ndarray]:
    """solve_assignment(cost_matrix(tree, stats, eps)), computing exact costs
    only for the pairs that their lower bounds cannot rule out; also a cost
    matrix that is exact at every matched pair and may hold bounds elsewhere.
    A bench `variant` sets the columns (bmm_flat's are the leaves, node ids
    0..J-1) and the pick (dm_dup returns direct_match's node ids).

    Each target first gets its CANDIDATES lowest-bound columns, and any bound
    of 0, exactly; after each pick, every picked pair that is still a bound
    is computed and the matrix picked again. The loop ends when the pick uses
    only exact entries. The mixed matrix is at most the exact one entry by
    entry, so any exact optimum sigma' costs no more than sigma on the mixed
    matrix and is a mixed optimum too. The solver returns the
    lexicographically smallest mixed optimum, so sigma <= sigma': it is the
    full matrix's answer. Likewise no exact entry is below an exact mixed row
    minimum, nor equal to it in a lower column: it is direct_match's pick.

    The variant's columns of the full matrix are computed instead where the
    bounds do not apply (more target modes than one-to-one columns, or
    statistics outside the bound's proven range), so every error reads as it
    does from `cost_matrix`.
    """
    if variant not in BENCH_VARIANTS:
        raise ParameterError(f"unknown variant {variant!r}, expected one of {BENCH_VARIANTS}")
    width = tree.leaf_count if variant == "bmm_flat" else tree.node_count
    pick = direct_match if variant == "dm_dup" else solve_assignment
    nodes = NodeCosts(tree, eps)
    bounds = None if variant != "dm_dup" and len(stats) > width else nodes.lower_bounds(stats)
    if bounds is None:
        cost = cost_matrix(tree, stats, eps=eps)[:, :width]
        return pick(cost), cost
    mixed = bounds[:, :width].copy()
    exact = np.zeros(mixed.shape, dtype=bool)
    todo = mixed == 0.0
    lowest = np.argsort(mixed, axis=1, kind="stable")[:, :CANDIDATES]
    np.put_along_axis(todo, lowest, True, axis=1)
    targets = np.arange(len(stats))
    while todo.any():
        for y in np.flatnonzero(todo.any(axis=1)):
            cols = np.flatnonzero(todo[y])
            mixed[y, cols] = nodes.row(stats[y], cols)
        exact |= todo
        result = pick(mixed)
        sigma = result if variant == "dm_dup" else result.sigma
        todo[:] = False
        todo[targets, sigma] = ~exact[targets, sigma]
    return result, mixed


def run_match(
    tree: ModeTree, target: FeatureMatrix, clusters: int, seed: int = 0, eps: float = DEFAULT_EPS
) -> MatchOutcome:
    """Cluster the target into 1 <= L <= J modes, solve the one-to-one
    matching, select the rows."""
    _check_target_clusters(tree.leaf_count, clusters)
    clustering, stats = target_mode_stats(target, clusters, seed)
    assignment, cost = match_modes(tree, stats, eps)
    selection = select_training_set(tree, assignment, cost)
    return MatchOutcome(clustering, stats, assignment, selection)


def evaluate_gap(
    server: FeatureMatrix,
    target: FeatureMatrix,
    selected_rows: np.ndarray,
    eps: float = DEFAULT_EPS,
) -> tuple[float, float]:
    """(selected-to-target, whole-server-to-target) Fréchet distances."""
    target_stats = gaussian_stats(target, np.arange(target.n))
    selected_stats = gaussian_stats(server, selected_rows)
    server_stats = gaussian_stats(server, np.arange(server.n))
    return fid(selected_stats, target_stats, eps=eps), fid(server_stats, target_stats, eps=eps)


def run_bench(
    world: PlantedWorld,
    leaves_sweep: Sequence[int],
    target_clusters: int,
    seed: int = 0,
    eps: float = DEFAULT_EPS,
    linkage: str = "centroid",
) -> list[dict]:
    """Sweep tree sizes and matching variants on one planted world.

    Emits one row per (variant, J) cell with the selected-set gap, the
    matching precision against the planted truth, and the cell's wall time.
    Every J is checked against L and n // 2 before any fit. The target
    clustering, its truth alignment and the whole-target stats do not depend
    on J and are computed once; each J gets its own tree, and each variant
    its own bounded `match_modes`. `runtime` covers the cell's matching,
    selection, selected-set gap and precision.
    """
    server, target, truth = generate(world)
    for leaves in leaves_sweep:
        _check_leaves(leaves, server.n)
        _check_target_clusters(leaves, target_clusters)
    if not leaves_sweep:
        return []
    clustering, stats = target_mode_stats(target, target_clusters, seed)
    aligned = align_truth(truth, clustering)
    whole_target = gaussian_stats(target, np.arange(target.n))
    rows: list[dict] = []
    for leaves in leaves_sweep:
        tree = build_server_tree(server, leaves, seed, linkage)
        for variant in BENCH_VARIANTS:
            started = time.perf_counter()
            result, cost = match_modes(tree, stats, eps, variant)
            matches = result if variant == "dm_dup" else result.sigma
            selection = selection_from_matches(tree, matches, cost)
            selected = gaussian_stats(server, selection.sample_rows)
            rows.append(
                {
                    "variant": variant,
                    "J": leaves,
                    "L": target_clusters,
                    "fid": fid(selected, whole_target, eps=eps),
                    "precision": matching_precision(selection, aligned, tree),
                    "runtime": time.perf_counter() - started,
                }
            )
    return rows
