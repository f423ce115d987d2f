"""End-to-end orchestration: build the server tree once, then match targets.

The tree build is the expensive offline step; matching a target against a
persisted tree is cheap and repeatable. A match computes exact Fréchet costs
only for the pairs that their lower bounds cannot rule out of the optimal
assignment. Benchmark runs compare the full hierarchical candidate set
against leaves-only matching and the greedy direct-match baseline on a
planted world, on the full cost matrix.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .clustering import FlatClustering, fit_balanced_kmeans, fit_kmeans
from .errors import ParameterError
from .features import FeatureMatrix
from .gap import DEFAULT_EPS, ModeStats, NodeCosts, cost_matrix, fid, gaussian_stats
from .hierarchy import LINKAGES, ModeTree, build_hierarchy
from .matching import (
    Assignment,
    SelectionResult,
    assignment_on,
    direct_match,
    lex_smallest_relabeling,
    selection_from_matches,
    select_training_set,
    solve_assignment,
)
from .synth import PlantedWorld, align_truth, generate, matching_precision

BENCH_VARIANTS = ("bmm_hier", "bmm_flat", "dm_dup")
# Exact costs computed for each target mode, at its smallest bounds, before the first solve.
CANDIDATES = 4


@dataclass
class PipelineConfig:
    leaves: int = 128
    target_clusters: int = 20
    seed: int = 0
    linkage: str = "centroid"
    eps_cov: float = DEFAULT_EPS

    def __post_init__(self) -> None:
        if self.leaves < 1:
            raise ParameterError(f"leaf count J={self.leaves} must be at least 1")
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
    """Balanced leaves then bottom-up merging: the one-time server build.

    J is at most n // 2, as each leaf needs 2 rows for its Gaussian statistics.
    """
    if config.leaves > server.n // 2:
        raise ParameterError(
            f"leaf count J={config.leaves} must be at most n // 2 = {server.n // 2} "
            f"for n={server.n} server rows"
        )
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


@dataclass
class MatchOutcome:
    clustering: FlatClustering
    assignment: Assignment
    selection: SelectionResult
    full_cost: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def cost(self) -> np.ndarray:
        """The full L x H cost matrix, target mode i against tree node j; computed on first use."""
        return self.full_cost()


def match_modes(
    tree: ModeTree, stats: Sequence[ModeStats], eps: float = DEFAULT_EPS
) -> tuple[Assignment, np.ndarray]:
    """solve_assignment(cost_matrix(tree, stats, eps)), computing exact costs
    only for the pairs that their lower bounds cannot rule out; also a cost
    matrix that is exact at every matched pair and may hold bounds elsewhere.

    The mixed matrix holds exact costs where computed and bounds elsewhere, so
    it is at most the exact matrix entry by entry. Each target first gets its
    CANDIDATES lowest-bound columns, and any bound of 0, exactly; after each
    solve, every matched pair that is still a bound is computed and the matrix
    solved again. Once the solution uses only exact entries its cost is exact
    and no assignment costs less. Any other exact optimum then costs the same
    on the mixed matrix, so it uses no bound below its exact cost: it lies on
    computed entries, as every bound above 0 sits below the cost it bounds.
    The last solve keeps only the computed entries, so its lexicographic
    tie-break works on exact values, as it does on the full matrix. Target
    modes (nodes) with equal statistics have equal exact rows (columns), so
    sigma is relabeled among them as `solve_assignment` relabels among equal
    rows and columns.

    The full matrix is computed instead where the bounds do not apply (more
    target modes than nodes, or statistics outside the bound's proven range),
    so every error reads as it does from `cost_matrix`.
    """
    nodes = NodeCosts(tree, eps)
    bounds = nodes.lower_bounds(stats) if len(stats) <= tree.node_count else None
    if bounds is None:
        cost = cost_matrix(tree, stats, eps=eps)
        return solve_assignment(cost), cost
    mixed = bounds.copy()
    exact = np.zeros(bounds.shape, dtype=bool)
    todo = bounds == 0.0
    lowest = np.argsort(bounds, axis=1, kind="stable")[:, :CANDIDATES]
    np.put_along_axis(todo, lowest, True, axis=1)
    targets = np.arange(len(stats))
    while todo.any():
        for y in np.flatnonzero(todo.any(axis=1)):
            cols = np.flatnonzero(todo[y])
            mixed[y, cols] = nodes.row(stats[y], cols)
        exact |= todo
        sigma = solve_assignment(mixed).sigma
        todo[:] = False
        todo[targets, sigma] = ~exact[targets, sigma]
    # The columns with computed entries; any other entry costs more than the
    # optimum in `known`, and as an integer it keeps integer costs exact.
    used = np.flatnonzero(exact.any(axis=0))
    ceiling = 2.0 * math.ceil(assignment_on(mixed, sigma).total_cost) + 1.0
    known = np.where(exact[:, used], mixed[:, used], ceiling)
    sigma = lex_smallest_relabeling(
        used[solve_assignment(known).sigma],
        _stats_keys([t.mean for t in stats], [t.cov for t in stats]),
        _stats_keys(tree.means, tree.covs),
    )
    for y in np.flatnonzero(~exact[targets, sigma]):
        mixed[y, sigma[y]] = nodes.row(stats[y], sigma[y:y + 1])[0]
    return assignment_on(mixed, sigma), mixed


def _stats_keys(means: Sequence[np.ndarray], covs: Sequence[np.ndarray]) -> np.ndarray:
    """One row per mode holding its mean and covariance: equal rows, equal costs."""
    return np.concatenate([np.stack(means), np.stack(covs).reshape(len(covs), -1)], axis=1)


def run_match(tree: ModeTree, target: FeatureMatrix, config: PipelineConfig) -> MatchOutcome:
    """Cluster the target, solve the one-to-one matching, select the rows."""
    clustering, stats = target_mode_stats(target, config)
    assignment, cost = match_modes(tree, stats, config.eps_cov)
    selection = select_training_set(tree, assignment, cost)
    return MatchOutcome(
        clustering=clustering, assignment=assignment, selection=selection,
        full_cost=partial(cost_matrix, tree, stats, eps=config.eps_cov),
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
    matching precision against the planted truth, and the cell's wall time.
    The target clustering, its truth alignment and the whole-target stats
    do not depend on J and are computed once; each J gets its own config,
    tree and all-node cost matrix, shared across variants (bmm_flat takes
    the matrix's leaf columns). `runtime` covers the cell's matching,
    selection, selected-set gap and precision.
    """
    server, target, truth = generate(world)
    configs = [
        PipelineConfig(
            leaves=leaves, target_clusters=target_clusters, seed=seed,
            linkage=linkage, eps_cov=eps,
        )
        for leaves in leaves_sweep
    ]
    if not configs:
        return []
    # target_mode_stats reads only target_clusters and seed, which every config shares
    clustering, stats = target_mode_stats(target, configs[0])
    aligned = align_truth(truth, clustering)
    whole_target = gaussian_stats(target, np.arange(target.n))
    rows: list[dict] = []
    for config in configs:
        tree = build_server_tree(server, config)
        shared = cost_matrix(tree, stats, eps=eps)
        for variant in BENCH_VARIANTS:
            started = time.perf_counter()
            # leaves are nodes 0..J-1, so the flat variant's columns are the first J
            cost = shared[:, : tree.leaf_count] if variant == "bmm_flat" else shared
            if variant == "dm_dup":
                selection = selection_from_matches(tree, direct_match(cost), cost)
            else:
                assignment = solve_assignment(cost)
                selection = select_training_set(tree, assignment, cost)
            selected = gaussian_stats(server, selection.sample_rows)
            rows.append(
                {
                    "variant": variant,
                    "J": config.leaves,
                    "L": target_clusters,
                    "fid": fid(selected, whole_target, eps=eps),
                    "precision": matching_precision(selection, aligned, tree),
                    "runtime": time.perf_counter() - started,
                }
            )
    return rows
