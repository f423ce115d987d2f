"""One-to-one matching of target modes to server tree nodes.

The solver finds the injective map sigma minimizing the total pairwise
distance over an L x H cost matrix (L <= H) via shortest augmenting paths
with dual potentials, working directly on the rectangular matrix. Costs are
carried as (distance, tie_weight) pairs where the integer tie weight encodes
positional preference, so among equal-cost optima the lexicographically
smallest sigma is the unique optimum rather than a post-hoc repair.

The greedy per-target argmin baseline (direct match) and the deduplicating
training-set selection live here as well.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InfeasibleMatchError, ValidationError

if TYPE_CHECKING:
    from .hierarchy import ModeTree


@dataclass(eq=False)
class AssignmentProblem:
    """L x H costs between target modes (rows) and candidate nodes (columns)."""

    cost: np.ndarray
    target_ids: list[str]
    node_ids: list[int]

    def __post_init__(self) -> None:
        self.cost = np.asarray(self.cost, dtype=np.float64)
        self.target_ids = [str(t) for t in self.target_ids]
        self.node_ids = [int(n) for n in self.node_ids]

    @property
    def n_targets(self) -> int:
        return self.cost.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.cost.shape[1]

    def first_columns(self, count: int) -> "AssignmentProblem":
        """The same targets against only the first count candidate columns."""
        return AssignmentProblem(
            cost=self.cost[:, :count], target_ids=self.target_ids, node_ids=self.node_ids[:count]
        )

    def validate(self) -> None:
        if self.cost.ndim != 2 or self.n_targets < 1 or self.n_nodes < 1:
            raise ValidationError(f"cost matrix must be 2-D and non-empty, got {self.cost.shape}")
        if self.n_targets > self.n_nodes:
            raise InfeasibleMatchError(
                f"{self.n_targets} target modes cannot match one-to-one into "
                f"{self.n_nodes} candidate nodes"
            )
        if len(self.target_ids) != self.n_targets or len(self.node_ids) != self.n_nodes:
            raise ValidationError("label lists do not match the cost matrix shape")
        if not np.isfinite(self.cost).all():
            y, x = np.argwhere(~np.isfinite(self.cost))[0]
            raise ValidationError(f"non-finite cost at target {y}, node column {x}")
        if (self.cost < 0).any():
            y, x = np.argwhere(self.cost < 0)[0]
            raise ValidationError(f"negative cost at target {y}, node column {x}")


@dataclass
class Assignment:
    """An injective target -> column map and its total cost."""

    sigma: list[int]
    total_cost: float

    def __post_init__(self) -> None:
        self.sigma = [int(s) for s in self.sigma]
        if len(set(self.sigma)) != len(self.sigma):
            raise ValidationError(f"assignment is not one-to-one: {self.sigma}")


@dataclass
class DirectMatchResult:
    """Per-target argmin matches; entries are None when duplicates are dropped."""

    matches: list[int | None]
    total_cost: float


def _solve_lex_hungarian(cost: np.ndarray) -> list[int]:
    """Rectangular assignment by shortest augmenting paths over (cost, tie) pairs."""
    n_rows, n_cols = cost.shape
    base = n_cols + 1
    place = [base ** (n_rows - 1 - i) for i in range(n_rows)]
    INF = (math.inf, 0)
    ZERO = (0.0, 0)
    rows = cost.tolist()

    # 1-based arrays; column 0 is the virtual start of each augmenting path
    u = [ZERO] * (n_rows + 1)
    v = [ZERO] * (n_cols + 1)
    matched_row = [0] * (n_cols + 1)
    way = [0] * (n_cols + 1)

    for i in range(1, n_rows + 1):
        matched_row[0] = i
        j0 = 0
        minv = [INF] * (n_cols + 1)
        used = [False] * (n_cols + 1)
        while True:
            used[j0] = True
            i0 = matched_row[j0]
            row = rows[i0 - 1]
            weight = place[i0 - 1]
            u0, u1 = u[i0]
            delta = INF
            j_next = 0
            for j in range(1, n_cols + 1):
                if used[j]:
                    continue
                v0, v1 = v[j]
                cur = (row[j - 1] - u0 - v0, (j - 1) * weight - u1 - v1)
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j_next = j
            d0, d1 = delta
            for j in range(n_cols + 1):
                if used[j]:
                    r = matched_row[j]
                    u[r] = (u[r][0] + d0, u[r][1] + d1)
                    v[j] = (v[j][0] - d0, v[j][1] - d1)
                else:
                    m = minv[j]
                    minv[j] = (m[0] - d0, m[1] - d1)
            j0 = j_next
            if matched_row[j0] == 0:
                break
        while j0:
            j_prev = way[j0]
            matched_row[j0] = matched_row[j_prev]
            j0 = j_prev

    sigma = [-1] * n_rows
    for j in range(1, n_cols + 1):
        if matched_row[j]:
            sigma[matched_row[j] - 1] = j - 1
    return sigma


def solve_assignment(problem: AssignmentProblem) -> Assignment:
    """Globally optimal one-to-one matching; equal-cost ties break to the
    lexicographically smallest sigma."""
    problem.validate()
    sigma = _solve_lex_hungarian(problem.cost)
    total = 0.0
    for i, j in enumerate(sigma):
        total += float(problem.cost[i, j])
    return Assignment(sigma=sigma, total_cost=total)


def direct_match(problem: AssignmentProblem, allow_duplicates: bool = True) -> DirectMatchResult:
    """Greedy baseline: each target takes its nearest node independently.

    With duplicates disallowed, repeat claims after the first are dropped and
    those targets stay unmatched.
    """
    problem.validate()
    nearest = problem.cost.argmin(axis=1)
    matches: list[int | None] = []
    claimed: set[int] = set()
    total = 0.0
    for i, j in enumerate(nearest):
        j = int(j)
        if not allow_duplicates and j in claimed:
            matches.append(None)
            continue
        claimed.add(j)
        matches.append(j)
        total += float(problem.cost[i, j])
    return DirectMatchResult(matches=matches, total_cost=total)


@dataclass(eq=False)
class SelectionResult:
    """The searched training set: matched nodes and their deduplicated rows."""

    selected_nodes: list[int]
    sample_rows: np.ndarray
    per_target: dict[str, tuple[int, float] | None]
    composition: dict[str, int]
    strata: dict[int, np.ndarray] = field(default_factory=dict)
    row_labels: tuple[str, ...] = ()


def count_labels(labels: Sequence[str]) -> dict[str, int]:
    """Rows per dataset label, keys sorted."""
    return dict(sorted(Counter(labels).items()))


def node_strata(
    tree: "ModeTree", selected: Sequence[int], rows: np.ndarray
) -> dict[int, np.ndarray]:
    """Split sorted rows into per-node strata for the selected nodes, in order.

    Each leaf is owned by the first selected node whose subtree holds it, and
    each row goes to its leaf's owner; rows under no selected node are left out.
    """
    owner = np.full(tree.leaf_count, -1, dtype=np.int64)
    for node_id in selected:
        owner[tree.subtree_leaves(node_id) & (owner < 0)] = node_id
    row_owner = owner[tree.leaf_labels[rows]]
    return {node_id: rows[row_owner == node_id] for node_id in selected}


def selection_from_matches(
    tree: "ModeTree",
    matches: Sequence[int | None],
    problem: AssignmentProblem,
    dataset_labels: Sequence[str],
) -> SelectionResult:
    """Union the matched nodes' member rows, dropping repeats.

    Rows reachable through several selected nodes (repeat matches or an
    ancestor/descendant pair) appear once; each row is owned by the first
    selected node that contains it, which defines the pruning strata.
    """
    selected: list[int] = []
    per_target: dict[str, tuple[int, float] | None] = {}
    for i, m in enumerate(matches):
        if m is None:
            per_target[problem.target_ids[i]] = None
            continue
        node_id = problem.node_ids[m]
        per_target[problem.target_ids[i]] = (node_id, float(problem.cost[i, m]))
        if node_id not in selected:
            selected.append(node_id)

    strata = node_strata(tree, selected, np.arange(tree.leaf_labels.size))
    taken = np.sort(np.concatenate([np.empty(0, dtype=np.int64), *strata.values()]))
    labels = tuple(dataset_labels[int(r)] for r in taken)
    return SelectionResult(
        selected_nodes=selected,
        sample_rows=taken,
        per_target=per_target,
        composition=count_labels(labels),
        strata=strata,
        row_labels=labels,
    )


def select_training_set(
    tree: "ModeTree",
    assignment: Assignment,
    problem: AssignmentProblem,
    dataset_labels: Sequence[str],
) -> SelectionResult:
    """Materialize the deduplicated training set for an optimal assignment."""
    for j in assignment.sigma:
        if not 0 <= j < problem.n_nodes:
            raise ValidationError(f"assignment column {j} outside problem with {problem.n_nodes}")
    return selection_from_matches(tree, assignment.sigma, problem, dataset_labels)


def render_match_report(payload: dict, warn_fid: float | None = None) -> str:
    """Human-readable text of match_report_payload: per-target table, totals, composition."""
    lines = ["target_mode  node_id  fid  node_size  node_depth"]
    for hit in payload["per_target"]:
        if hit["node_id"] is None:
            lines.append(f"{hit['target']}  -  unmatched  -  -")
            continue
        flag = "  WARN" if warn_fid is not None and hit["fid"] > warn_fid else ""
        lines.append(
            f"{hit['target']}  {hit['node_id']}  {hit['fid']:.6f}  {hit['node_size']}  "
            f"{hit['node_depth']}{flag}"
        )
    lines.append(f"total_cost: {payload['total_cost']:.6f}")
    lines.append(f"selected_nodes: {' '.join(str(n) for n in payload['selected_nodes'])}")
    lines.append(f"selected_samples: {payload['selected_samples']}")
    for label, count in payload["composition"].items():
        lines.append(f"composition {label}: {count}")
    return "\n".join(lines) + "\n"


def match_report_payload(
    selection: SelectionResult,
    problem: AssignmentProblem,
    tree: "ModeTree",
    total_cost: float,
) -> dict:
    """Machine-readable match report; render_match_report formats it as text."""
    depths = tree.depths()
    per_target = []
    for tid in problem.target_ids:
        hit = selection.per_target[tid]
        if hit is None:
            per_target.append({"target": tid, "node_id": None, "fid": None})
            continue
        node_id, value = hit
        per_target.append(
            {
                "target": tid,
                "node_id": node_id,
                "fid": value,
                "node_size": tree.node(node_id).size,
                "node_depth": depths[node_id],
            }
        )
    return {
        "per_target": per_target,
        "total_cost": total_cost,
        "selected_nodes": list(selection.selected_nodes),
        "selected_samples": int(selection.sample_rows.size),
        "composition": dict(selection.composition),
    }
