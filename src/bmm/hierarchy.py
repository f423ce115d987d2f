"""The hierarchical mode tree over balanced leaf clusters.

Leaves are the balanced k-means clusters of the server feature set; internal
nodes come from bottom-up agglomerative merging of the closest pair at each
step, so J leaves always produce 2J-1 nodes. Every node caches the Gaussian
statistics of its member rows and is a candidate for matching, the root
included.

Membership is stored once, as one leaf label per server row: a node's rows
are those whose leaf lies in its subtree, derived on demand, never stored.

Trees persist as versioned JSON (version 2): a top-level leaf_labels list
plus one record per node holding node_id, parent_id, child_ids, mean,
covariance and count. Python's shortest-round-trip float repr makes
persist/load exact at the bit level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError, TreeFormatError, ValidationError
from .gap import ModeStats, gaussian_stats

if TYPE_CHECKING:
    from .clustering import FlatClustering
    from .features import FeatureMatrix

TREE_FORMAT = "bmm-mode-tree"
TREE_VERSION = 2

LINKAGES = ("centroid", "ward")


@dataclass(eq=False)
class ModeNode:
    node_id: int
    children: tuple[int, int] | None
    parent: int | None
    stats: ModeStats
    merge_distance: float | None = None  # linkage value for internal nodes; not persisted

    @property
    def size(self) -> int:
        return self.stats.count

    @property
    def is_leaf(self) -> bool:
        return self.children is None


@dataclass(eq=False)
class ModeTree:
    nodes: list[ModeNode]
    leaf_count: int
    leaf_labels: np.ndarray  # int64 leaf node id of every server row

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def root_id(self) -> int:
        return self.node_count - 1

    def node(self, node_id: int) -> ModeNode:
        return self.nodes[node_id]

    def subtree_leaves(self, node_id: int) -> np.ndarray:
        """Boolean mask over the J leaves: True for the leaves under node_id."""
        mask = np.zeros(self.leaf_count, dtype=bool)
        stack = [node_id]
        while stack:
            node_id = stack.pop()
            children = self.nodes[node_id].children
            if children is None:
                mask[node_id] = True
            else:
                stack.extend(children)
        return mask

    def members(self, node_id: int) -> np.ndarray:
        """Sorted server rows of node_id, derived from the leaf labels."""
        return np.flatnonzero(self.subtree_leaves(node_id)[self.leaf_labels])

    def depths(self) -> list[int]:
        """Depth of each node, root = 0."""
        depth = [0] * self.node_count
        for node in sorted(self.nodes, key=lambda nd: -nd.node_id):
            if node.parent is not None:
                depth[node.node_id] = depth[node.parent] + 1
        return depth

    def level_sizes(self) -> dict[int, list[int]]:
        """Member counts per depth level, for build summaries."""
        out: dict[int, list[int]] = {}
        for node, depth in zip(self.nodes, self.depths()):
            out.setdefault(depth, []).append(node.size)
        return out


def _linkage_value(linkage, mean_a, mean_b, count_a, count_b) -> float:
    gap = mean_a - mean_b
    if linkage == "centroid":
        return float(np.sqrt(gap @ gap))
    # ward: SSE increase caused by the merge
    return float(count_a * count_b / (count_a + count_b) * (gap @ gap))


def build_hierarchy(
    leaves: "FlatClustering", features: "FeatureMatrix", linkage: str = "centroid"
) -> ModeTree:
    """Merge the J leaf clusters bottom-up into a 2J-1 node tree.

    At every step the closest active pair under the chosen linkage is merged;
    equidistant pairs resolve to the lowest (node_id, node_id) pair. Node
    statistics and centroids are always recomputed from member rows.
    """
    if linkage not in LINKAGES:
        raise ParameterError(f"unknown linkage {linkage!r}, expected one of {LINKAGES}")
    j = leaves.k
    total = 2 * j - 1
    x = features.values.astype(np.float64)

    nodes: list[ModeNode] = []
    means = np.zeros((total, x.shape[1]), dtype=np.float64)
    counts = np.zeros(total, dtype=np.int64)
    members: list[np.ndarray] = []
    for c in range(j):
        rows = leaves.cluster_rows(c)
        if rows.size == 0:
            raise ValidationError(f"leaf cluster {c} is empty")
        members.append(rows)
        means[c] = x[rows].mean(axis=0)
        counts[c] = rows.size
        nodes.append(
            ModeNode(
                node_id=c,
                children=None,
                parent=None,
                stats=gaussian_stats(features, rows),
            )
        )

    dist = np.full((total, total), np.inf, dtype=np.float64)
    active = np.zeros(total, dtype=bool)
    active[:j] = True
    for a in range(j):
        for b in range(a + 1, j):
            dist[a, b] = _linkage_value(linkage, means[a], means[b], counts[a], counts[b])

    for new_id in range(j, total):
        ids = np.flatnonzero(active)
        block = dist[np.ix_(ids, ids)]
        flat = int(block.argmin())  # row-major first minimum = lowest (a, b) pair
        a = int(ids[flat // ids.size])
        b = int(ids[flat % ids.size])
        rows = np.sort(np.concatenate([members[a], members[b]]))
        members.append(rows)
        means[new_id] = x[rows].mean(axis=0)
        counts[new_id] = rows.size
        nodes.append(
            ModeNode(
                node_id=new_id,
                children=(a, b),
                parent=None,
                stats=gaussian_stats(features, rows),
                merge_distance=float(dist[a, b]),
            )
        )
        nodes[a].parent = new_id
        nodes[b].parent = new_id
        active[a] = False
        active[b] = False
        for other in np.flatnonzero(active):
            value = _linkage_value(
                linkage, means[new_id], means[other], counts[new_id], counts[other]
            )
            dist[min(other, new_id), max(other, new_id)] = value
        active[new_id] = True

    tree = ModeTree(nodes=nodes, leaf_count=j, leaf_labels=leaves.assignment)
    validate_tree(tree)
    return tree


def validate_tree(tree: ModeTree) -> None:
    """Structural checks: H = 2J-1, single root, links, and counts that agree
    with the leaf labels; together they make the nodes partition the rows."""
    j = tree.leaf_count
    if tree.node_count != 2 * j - 1:
        raise ValidationError(f"node count {tree.node_count} != 2*{j}-1 for {j} leaves")
    roots = [node.node_id for node in tree.nodes if node.parent is None]
    if roots != [tree.root_id]:
        raise ValidationError(f"expected single root {tree.root_id}, found {roots}")
    labels = tree.leaf_labels
    if labels.ndim != 1 or (labels.size and not 0 <= labels.min() <= labels.max() < j):
        raise ValidationError(f"leaf labels must be row labels in [0, {j})")
    counts = np.bincount(labels, minlength=j)
    for position, node in enumerate(tree.nodes):
        if node.node_id != position:
            raise ValidationError(f"node_id {node.node_id} does not match its position")
        if node.is_leaf != (position < j):
            raise ValidationError(f"nodes 0..{j - 1} must be the leaves; node {position} is not")
        if node.is_leaf:
            if counts[position] == 0:
                raise ValidationError(f"leaf {position} holds no rows")
            expected = int(counts[position])
        else:
            a, b = node.children
            if not (0 <= a < position and 0 <= b < position and a != b):
                raise ValidationError(f"node {position} needs two distinct lower child ids")
            for child in (a, b):
                if tree.nodes[child].parent != position:
                    raise ValidationError(f"child {child} does not point back to {position}")
            expected = tree.nodes[a].stats.count + tree.nodes[b].stats.count
        if node.stats.count != expected:
            raise ValidationError(f"node {position} count {node.stats.count} != {expected} rows")


def persist_tree(tree: ModeTree, path: str | Path) -> None:
    payload = {
        "format": TREE_FORMAT,
        "version": TREE_VERSION,
        "leaf_count": tree.leaf_count,
        "leaf_labels": [int(i) for i in tree.leaf_labels],
        "nodes": [
            {
                "node_id": node.node_id,
                "parent_id": node.parent,
                "child_ids": list(node.children) if node.children else [],
                "mean": [float(v) for v in node.stats.mean],
                "covariance": [[float(v) for v in row] for row in node.stats.cov],
                "count": node.stats.count,
            }
            for node in tree.nodes
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _field(record, key: str, where: str, kinds: str = "i", ndim: int = 0):
    """record[key] as an ndim-D array of dtype kinds ("i" integers, "if" numbers),
    or as an int when ndim is 0; TreeFormatError when missing or mistyped."""
    try:
        arr = np.asarray(record.get(key) if isinstance(record, dict) else None)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.ndim != ndim or (arr.size and arr.dtype.kind not in kinds):
        raise TreeFormatError(f"{where}: {key!r} is missing or mistyped")
    return arr if ndim else int(arr)


def load_tree(path: str | Path) -> ModeTree:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise TreeFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != TREE_FORMAT:
        raise TreeFormatError(f"{path}: missing {TREE_FORMAT!r} format tag")
    version = payload.get("version")
    if version != TREE_VERSION:
        raise TreeFormatError(
            f"{path}: tree version {version} is incompatible with this build (reads {TREE_VERSION})"
        )
    if not isinstance(payload.get("nodes"), list):
        raise TreeFormatError(f"{path}: 'nodes' is missing or not a list")
    nodes = []
    for position, rec in enumerate(payload["nodes"]):
        where = f"{path}: node record {position}"
        children = _field(rec, "child_ids", where, ndim=1)
        if children.size not in (0, 2):
            raise TreeFormatError(f"{where} has {children.size} children")
        nodes.append(
            ModeNode(
                node_id=_field(rec, "node_id", where),
                children=(int(children[0]), int(children[1])) if children.size else None,
                parent=None if rec.get("parent_id", 0) is None else _field(rec, "parent_id", where),
                stats=ModeStats(
                    mean=_field(rec, "mean", where, "if", 1),
                    cov=_field(rec, "covariance", where, "if", 2),
                    count=_field(rec, "count", where),
                ),
            )
        )
    tree = ModeTree(
        nodes=nodes,
        leaf_count=_field(payload, "leaf_count", str(path)),
        leaf_labels=_field(payload, "leaf_labels", str(path), ndim=1).astype(np.int64),
    )
    validate_tree(tree)
    return tree


def trees_equal(a: ModeTree, b: ModeTree) -> bool:
    """Structural equality: nodes, links, leaf labels, and bit-exact cached stats."""
    if a.leaf_count != b.leaf_count or a.node_count != b.node_count:
        return False
    if not np.array_equal(a.leaf_labels, b.leaf_labels):
        return False
    for na, nb in zip(a.nodes, b.nodes):
        if (na.node_id, na.parent, na.children) != (nb.node_id, nb.parent, nb.children):
            return False
        if na.stats.count != nb.stats.count:
            return False
        if not np.array_equal(na.stats.mean, nb.stats.mean):
            return False
        if not np.array_equal(na.stats.cov, nb.stats.cov):
            return False
    return True
