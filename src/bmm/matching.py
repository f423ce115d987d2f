"""One-to-one matching of target modes to server tree nodes.

The solver finds the injective map sigma minimizing the total pairwise
distance over an L x H cost matrix (L <= H) via shortest augmenting paths
with dual potentials, working directly on the rectangular matrix. Costs are
carried as (distance, tie_weight) pairs where the integer tie weight encodes
positional preference, so among equal-cost optima the lexicographically
smallest sigma is the unique optimum rather than a post-hoc repair. Float
potentials can still miss it among targets with equal rows or nodes with
equal columns; `lex_smallest_relabeling` settles those ties exactly.

The greedy per-target argmin baseline (direct match, where targets may share
a node) and the deduplicating training-set selection live here as well.
Every stage takes a bare L x H cost matrix: row i is target mode i (reported
as mode-i) and column j is tree node j, so no label lists travel with it.
The matrix is `gap.cost_matrix`, or from `pipeline.match_modes` one that is
exact at the matched pairs and may hold lower bounds elsewhere, which is all
that selection reads. Every target mode is matched to a node.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import InfeasibleMatchError, ValidationError

if TYPE_CHECKING:
    from .hierarchy import ModeTree


def _checked(cost: np.ndarray) -> np.ndarray:
    """The L x H cost matrix (target modes by node ids) as float64, validated."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise ValidationError(f"cost matrix must be 2-D and non-empty, got {cost.shape}")
    n_targets, n_nodes = cost.shape
    if n_targets > n_nodes:
        raise InfeasibleMatchError(
            f"{n_targets} target modes cannot match one-to-one into {n_nodes} candidate nodes"
        )
    if not np.isfinite(cost).all():
        y, x = np.argwhere(~np.isfinite(cost))[0]
        raise ValidationError(f"non-finite cost at target {y}, node column {x}")
    if (cost < 0).any():
        y, x = np.argwhere(cost < 0)[0]
        raise ValidationError(f"negative cost at target {y}, node column {x}")
    return cost


@dataclass
class Assignment:
    """An injective target -> column map and its total cost."""

    sigma: list[int]
    total_cost: float

    def __post_init__(self) -> None:
        self.sigma = [int(s) for s in self.sigma]
        if len(set(self.sigma)) != len(self.sigma):
            raise ValidationError(f"assignment is not one-to-one: {self.sigma}")


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


def _classes(keys: np.ndarray) -> list[int]:
    """Each key row's class: the index of the first row with the same bytes."""
    first: dict[bytes, int] = {}
    return [first.setdefault(key.tobytes(), i) for i, key in enumerate(keys)]


def lex_smallest_relabeling(
    sigma: Sequence[int], row_keys: np.ndarray, col_keys: np.ndarray
) -> list[int]:
    """The lexicographically smallest injective map that gives each class of
    equal rows as many columns of each class of equal columns as sigma does.

    Rows with equal keys are interchangeable targets and columns with equal
    keys interchangeable nodes (keys are compared by their bytes), so every
    such map costs what sigma costs. The solver's float potentials alone do
    not always return the smallest one. Each target in turn takes the lowest
    unused column among the column classes its row class still needs.
    """
    rows, cols = _classes(row_keys), _classes(col_keys)
    if len(set(rows)) == len(rows) and len(set(cols)) == len(cols):
        return list(sigma)
    need = Counter((rows[i], cols[j]) for i, j in enumerate(sigma))
    members: dict[int, list[int]] = {}
    for j, c in enumerate(cols):
        members.setdefault(c, []).append(j)
    used = Counter()  # columns taken from each class, lowest first
    relabeled = []
    for r in rows:
        _, c = min((members[k][used[k]], k) for (q, k), n in need.items() if q == r and n)
        relabeled.append(members[c][used[c]])
        used[c] += 1
        need[r, c] -= 1
    return relabeled


def assignment_on(cost: np.ndarray, sigma: Sequence[int]) -> Assignment:
    """sigma with its total cost, summed in target order."""
    total = 0.0
    for i, j in enumerate(sigma):
        total += float(cost[i, j])
    return Assignment(sigma=list(sigma), total_cost=total)


def solve_assignment(cost: np.ndarray) -> Assignment:
    """Globally optimal one-to-one matching; equal-cost ties break to the
    lexicographically smallest sigma."""
    cost = _checked(cost)
    sigma = _solve_lex_hungarian(cost)
    return assignment_on(cost, lex_smallest_relabeling(sigma, cost, cost.T))


def direct_match(cost: np.ndarray) -> list[int]:
    """Greedy baseline: each target takes its nearest node (the lowest column
    at its row's minimum) independently, so targets may share a node."""
    return [int(j) for j in _checked(cost).argmin(axis=1)]


@dataclass(eq=False)
class SelectionResult:
    """The searched training set: matched nodes and their deduplicated rows.

    per_target holds each target mode's (node id, cost) in target order;
    strata maps each selected node to its rows (a pruned result has none).
    """

    selected_nodes: list[int]
    sample_rows: np.ndarray
    per_target: list[tuple[int, float]] = field(default_factory=list)
    strata: dict[int, np.ndarray] = field(default_factory=dict)


def count_labels(labels: Iterable[str]) -> dict[str, int]:
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
    tree: "ModeTree", matches: Sequence[int], cost: np.ndarray
) -> SelectionResult:
    """Union the matched nodes' member rows, dropping repeats.

    matches[i] is target i's node id (its cost column). Rows reachable
    through several selected nodes (repeat matches or an ancestor/descendant
    pair) appear once; each row is owned by the first selected node that
    contains it, which defines the pruning strata.
    """
    n_nodes = cost.shape[1]
    for j in matches:
        if not 0 <= j < n_nodes:
            raise ValidationError(f"matched column {j} outside problem with {n_nodes}")
    per_target = [(int(m), float(cost[i, m])) for i, m in enumerate(matches)]
    selected = list(dict.fromkeys(node_id for node_id, _ in per_target))
    strata = node_strata(tree, selected, np.arange(tree.leaf_labels.size))
    taken = np.sort(np.concatenate([np.empty(0, dtype=np.int64), *strata.values()]))
    return SelectionResult(
        selected_nodes=selected, sample_rows=taken, per_target=per_target, strata=strata
    )


def select_training_set(
    tree: "ModeTree", assignment: Assignment, cost: np.ndarray
) -> SelectionResult:
    """Materialize the deduplicated training set for an optimal assignment."""
    return selection_from_matches(tree, assignment.sigma, cost)


def render_match_report(payload: dict, warn_fid: float | None = None) -> str:
    """Human-readable text of match_report_payload: per-target table, totals, composition."""
    lines = ["target_mode  node_id  fid  node_size  node_depth"]
    for hit in payload["per_target"]:
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
    tree: "ModeTree",
    total_cost: float,
    dataset_labels: Sequence[str],
) -> dict:
    """Machine-readable match report; render_match_report formats it as text.

    Target modes are named mode-0..mode-{L-1}; the composition counts the
    dataset labels of the selected rows.
    """
    depths = tree.depths()
    per_target = [
        {
            "target": f"mode-{i}",
            "node_id": node_id,
            "fid": value,
            "node_size": int(tree.counts[node_id]),
            "node_depth": int(depths[node_id]),
        }
        for i, (node_id, value) in enumerate(selection.per_target)
    ]
    return {
        "per_target": per_target,
        "total_cost": total_cost,
        "selected_nodes": list(selection.selected_nodes),
        "selected_samples": int(selection.sample_rows.size),
        "composition": count_labels(
            map(dataset_labels.__getitem__, selection.sample_rows.tolist())
        ),
    }
