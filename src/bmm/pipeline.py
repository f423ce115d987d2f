"""End-to-end orchestration: build the server tree once, then match targets.

The tree build is the expensive offline step; matching a target against a
persisted tree is cheap and repeatable. Benchmark runs compare the full
hierarchical candidate set against leaves-only matching and the greedy
direct-match baseline on a planted world.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clustering import FlatClustering, fit_balanced_kmeans, fit_kmeans
from .errors import ParameterError
from .features import FeatureMatrix
from .gap import DEFAULT_EPS, ModeStats, cost_matrix, fid, gaussian_stats
from .hierarchy import LINKAGES, ModeTree, build_hierarchy
from .matching import (
    Assignment,
    AssignmentProblem,
    SelectionResult,
    direct_match,
    selection_from_matches,
    select_training_set,
    solve_assignment,
)
from .synth import PlantedWorld, align_truth, generate, matching_precision

BENCH_VARIANTS = ("bmm_hier", "bmm_flat", "dm_dup")


@dataclass
class PipelineConfig:
    leaves: int = 128
    target_clusters: int = 20
    seed: int = 0
    linkage: str = "centroid"
    eps_cov: float = DEFAULT_EPS

    def __post_init__(self) -> None:
        if not self.leaves >= self.target_clusters >= 1:
            raise ParameterError(
                f"need leaves >= target_clusters >= 1, got {self.leaves} and "
                f"{self.target_clusters}"
            )
        if not 0.0 < self.eps_cov < np.inf:  # NaN fails too
            raise ParameterError(f"eps_cov must be finite and positive, got {self.eps_cov}")
        if self.linkage not in LINKAGES:
            raise ParameterError(f"unknown linkage {self.linkage!r}, expected one of {LINKAGES}")


def build_server_tree(server: FeatureMatrix, config: PipelineConfig) -> ModeTree:
    """Balanced leaves then bottom-up merging: the one-time server build."""
    leaves = fit_balanced_kmeans(server, config.leaves, config.seed)
    return build_hierarchy(leaves, server, linkage=config.linkage)


def target_mode_stats(
    target: FeatureMatrix, config: PipelineConfig
) -> tuple[FlatClustering, list[ModeStats]]:
    """Flat-cluster the target and fit Gaussian stats per cluster."""
    clustering = fit_kmeans(target, config.target_clusters, config.seed)
    stats = []
    for c in range(clustering.k):
        rows = clustering.cluster_rows(c)
        if rows.size < 2:
            raise ParameterError(
                f"target mode {c} has {rows.size} samples; use a smaller "
                f"--target-clusters than {config.target_clusters}"
            )
        stats.append(gaussian_stats(target, rows))
    return clustering, stats


def build_problem(
    tree: ModeTree, target_stats: Sequence[ModeStats], eps: float = DEFAULT_EPS
) -> AssignmentProblem:
    """Pairwise costs of every target mode against every tree node."""
    cost = cost_matrix(tree, target_stats, eps=eps)
    target_ids = [f"mode-{i}" for i in range(len(target_stats))]
    node_ids = list(range(tree.node_count))
    return AssignmentProblem(cost=cost, target_ids=target_ids, node_ids=node_ids)


@dataclass
class MatchOutcome:
    clustering: FlatClustering
    problem: AssignmentProblem
    assignment: Assignment
    selection: SelectionResult


def run_match(
    tree: ModeTree,
    target: FeatureMatrix,
    server_labels: Sequence[str],
    config: PipelineConfig,
) -> MatchOutcome:
    """Cluster the target, solve the one-to-one matching, select the rows."""
    clustering, stats = target_mode_stats(target, config)
    problem = build_problem(tree, stats, eps=config.eps_cov)
    assignment = solve_assignment(problem)
    selection = select_training_set(tree, assignment, problem, server_labels)
    return MatchOutcome(
        clustering=clustering,
        problem=problem,
        assignment=assignment,
        selection=selection,
    )


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
    matching precision against the planted truth, and the cell's matching
    wall time. The tree build, target clustering and the all-node cost
    matrix are shared across variants (bmm_flat takes the matrix's leaf
    columns); runtime covers the per-variant matching work.
    """
    server, target, truth = generate(world)
    rows: list[dict] = []
    for leaves in leaves_sweep:
        config = PipelineConfig(
            leaves=leaves, target_clusters=target_clusters, seed=seed,
            linkage=linkage, eps_cov=eps,
        )
        tree = build_server_tree(server, config)
        clustering, stats = target_mode_stats(target, config)
        aligned = align_truth(truth, clustering)
        shared = build_problem(tree, stats, eps=eps)
        for variant in BENCH_VARIANTS:
            started = time.perf_counter()
            problem = shared.first_columns(tree.leaf_count) if variant == "bmm_flat" else shared
            if variant == "dm_dup":
                result = direct_match(problem, allow_duplicates=True)
                selection = selection_from_matches(
                    tree, result.matches, problem, server.dataset_labels
                )
            else:
                assignment = solve_assignment(problem)
                selection = select_training_set(tree, assignment, problem, server.dataset_labels)
            gap_selected, _ = evaluate_gap(server, target, selection.sample_rows, eps=eps)
            rows.append(
                {
                    "variant": variant,
                    "J": leaves,
                    "L": target_clusters,
                    "fid": gap_selected,
                    "precision": matching_precision(selection, aligned, tree),
                    "runtime": time.perf_counter() - started,
                }
            )
    return rows
