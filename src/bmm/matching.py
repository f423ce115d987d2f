"""One-to-one matching of target modes to server tree nodes.

The solver finds the injective map sigma minimizing the total pairwise
distance over an L x H cost matrix (L <= H) via shortest augmenting paths
with dual potentials, working directly on the rectangular matrix. It runs on
exact integers: each float64 cost scaled to a common power of two, with an
integer tie weight in the low bits that encodes positional preference. So
the answer is one stated optimum for every input: the lexicographically
smallest sigma among those whose exact total, the real sum of the float64
entries, is least. The reported total_cost is the float sum in target order,
which on a near tie can be one ulp above another assignment's float sum.

The greedy per-target argmin baseline (direct match, where targets may share
a node), the deduplicating training-set selection and its per-node strata
(`node_strata`, which a stratified prune draws from) live here as well.
Every stage takes a bare L x H cost matrix: row i is target mode i (reported
as mode-i) and column j is tree node j, so no label lists travel with it.
`pipeline.match_modes` runs the solver and the direct match on matrices that
hold lower bounds where a cost is not needed; selection reads only the
matched pairs, which are exact. Every target mode is matched to a node.
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


def _exact_integers(cost: np.ndarray) -> list[list[int]]:
    """Each cost as an exact integer whose low bits hold its tie weight.

    A float64 is an integer mantissa times a power of two (`np.frexp`), so
    shifting every mantissa to the matrix's smallest exponent makes every cost
    an integer and every sum exact. k*L more bits, with k bits per column
    index, make room below the cost for the tie weight j << k*(L-1-i): over an
    assignment the weights spell sigma in base 2**k and sum below one unit of
    cost, so they order only assignments of equal exact total.
    """
    n_rows, n_cols = cost.shape
    mantissa, exponent = np.frexp(cost)
    low = exponent.min(where=mantissa != 0, initial=exponent.max())
    k = n_cols.bit_length()
    ints = (mantissa * 2.0**53).astype(np.int64).astype(object)
    shifts = (np.maximum(exponent - low, 0) + k * n_rows).astype(object)  # a zero has exponent 0
    places = (k * np.arange(n_rows - 1, -1, -1)).astype(object)
    return ((ints << shifts) + (np.arange(n_cols).astype(object) << places[:, None])).tolist()


def _solve_lex_hungarian(cost: np.ndarray) -> list[int]:
    """Rectangular assignment by shortest augmenting paths on exact integers."""
    n_rows, n_cols = cost.shape
    rows = [[0, *row] for row in _exact_integers(cost)]  # 1-based like the columns

    # 1-based arrays; column 0 is the virtual start of each augmenting path
    u = [0] * (n_rows + 1)
    v = [0] * (n_cols + 1)
    matched_row = [0] * (n_cols + 1)
    way = [0] * (n_cols + 1)

    for i in range(1, n_rows + 1):
        matched_row[0] = i
        j0 = 0
        minv = [math.inf] * (n_cols + 1)  # each unused column's is an int after one scan
        used = [False] * (n_cols + 1)
        while True:
            used[j0] = True
            i0 = matched_row[j0]
            row = rows[i0 - 1]
            u0 = u[i0]
            delta = math.inf
            j_next = 0
            for j in range(1, n_cols + 1):
                if used[j]:
                    continue
                cur = row[j] - u0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j_next = j
            for j in range(n_cols + 1):
                if used[j]:
                    u[matched_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
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


def solve_assignment(cost: np.ndarray) -> Assignment:
    """Globally optimal one-to-one matching of L <= H targets: the
    lexicographically smallest sigma among those whose exact total (the real
    sum of the float64 entries) is least.

    total_cost is the float sum in target order, so on a near tie it can be
    one ulp above another assignment's float sum.
    """
    cost = _checked(cost)
    n_targets, n_nodes = cost.shape
    if n_targets > n_nodes:
        raise InfeasibleMatchError(
            f"{n_targets} target modes cannot match one-to-one into {n_nodes} candidate nodes"
        )
    sigma = _solve_lex_hungarian(cost)
    total = 0.0
    for i, j in enumerate(sigma):
        total += float(cost[i, j])
    return Assignment(sigma=sigma, total_cost=total)


def direct_match(cost: np.ndarray) -> list[int]:
    """Greedy baseline: each target takes its nearest node (the lowest column
    at its row's minimum) independently, so targets may share a node."""
    return [int(j) for j in _checked(cost).argmin(axis=1)]


@dataclass(eq=False)
class SelectionResult:
    """The searched training set: matched nodes and their deduplicated rows.

    per_target holds each target mode's (node id, cost) in target order; a
    pruned result holds only its rows.
    """

    selected_nodes: list[int]
    sample_rows: np.ndarray
    per_target: list[tuple[int, float]] = field(default_factory=list)


def count_labels(labels: Iterable[str]) -> dict[str, int]:
    """Rows per dataset label, keys sorted."""
    return dict(sorted(Counter(labels).items()))


def node_strata(
    tree: "ModeTree", selected: Sequence[int], rows: np.ndarray
) -> list[np.ndarray]:
    """Split sorted rows into per-node strata, one per selected node, in order.

    Each leaf is owned by the first selected node whose subtree holds it, and
    each row goes to its leaf's owner; rows under no selected node are left out.
    """
    owner = np.full(tree.leaf_count, -1, dtype=np.int64)
    for node_id in selected:
        owner[tree.subtree_leaves(node_id) & (owner < 0)] = node_id
    row_owner = owner[tree.leaf_labels[rows]]
    return [rows[row_owner == node_id] for node_id in selected]


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
    taken = np.sort(np.concatenate([np.empty(0, dtype=np.int64), *strata]))
    return SelectionResult(selected_nodes=selected, sample_rows=taken, per_target=per_target)


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
