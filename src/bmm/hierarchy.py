"""The hierarchical mode tree over balanced leaf clusters.

Leaves are the balanced k-means clusters of the server feature set; internal
nodes come from bottom-up agglomerative merging of the closest pair at each
step, so J leaves always produce 2J-1 nodes. Every node caches the Gaussian
statistics of its member rows and is a candidate for matching, the root
included. Leaf statistics are fitted to the leaf rows; a merged node pools
the exact moments of its two children, so no row is read twice.

Membership is stored once, as one leaf label per server row: a node's rows
are those whose leaf lies in its subtree, derived on demand, never stored.

Trees persist as a little-endian binary file (version 3):

* header ``<4sHQII``: magic ``BMMT``, ``u16`` version 3, ``u64`` row count
  ``n``, ``u32`` leaf count ``J``, ``u32`` dimension ``d``;
* ``n`` int32 leaf labels;
* ``2J-1`` node records in node-id order: two int32 child ids (-1 for a
  leaf), an int64 count, ``d`` float64 mean values and ``d*d`` float64
  covariance values in row-major order.

Parents are derived from the child ids. Persist/load is exact at the bit
level; the loader refuses JSON trees (versions 1-2), other versions, a size
that disagrees with the header, non-finite statistics and broken structure.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError, TreeFormatError, ValidationError
from .gap import ModeStats, gaussian_stats

if TYPE_CHECKING:
    from .clustering import FlatClustering
    from .features import FeatureMatrix

TREE_MAGIC = b"BMMT"
TREE_VERSION = 3
_HEADER = struct.Struct("<4sHQII")  # magic, version, rows n, leaves J, dimension d

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


def _linkage_value(linkage: str, a: ModeStats, b: ModeStats) -> float:
    gap = a.mean - b.mean
    if linkage == "centroid":
        return float(np.sqrt(gap @ gap))
    # ward: SSE increase caused by the merge
    return float(a.count * b.count / (a.count + b.count) * (gap @ gap))


def _pooled(a: ModeStats, b: ModeStats) -> ModeStats:
    """Exact moments of the union of two disjoint row sets from their own
    moments (Chan, Golub & LeVeque 1979); no row is read again."""
    n = a.count + b.count
    delta = b.mean - a.mean
    mean = a.mean + delta * (b.count / n)
    scatter = (a.count - 1) * a.cov + (b.count - 1) * b.cov
    cov = (scatter + np.outer(delta, delta) * (a.count * b.count / n)) / (n - 1)
    return ModeStats(mean=mean, cov=cov, count=n)


def build_hierarchy(
    leaves: "FlatClustering", features: "FeatureMatrix", linkage: str = "centroid"
) -> ModeTree:
    """Merge the J leaf clusters bottom-up into a 2J-1 node tree.

    At every step the closest active pair under the chosen linkage is merged;
    equidistant pairs resolve to the lowest (node_id, node_id) pair. Leaf
    statistics are fitted to the leaf rows; a merged node pools its children's.
    """
    if linkage not in LINKAGES:
        raise ParameterError(f"unknown linkage {linkage!r}, expected one of {LINKAGES}")
    j = leaves.k
    total = 2 * j - 1

    nodes: list[ModeNode] = []
    for c in range(j):
        rows = leaves.cluster_rows(c)
        if rows.size == 0:
            raise ValidationError(f"leaf cluster {c} is empty")
        nodes.append(
            ModeNode(node_id=c, children=None, parent=None, stats=gaussian_stats(features, rows))
        )

    dist = np.full((total, total), np.inf, dtype=np.float64)
    active = np.zeros(total, dtype=bool)
    active[:j] = True
    for a in range(j):
        for b in range(a + 1, j):
            dist[a, b] = _linkage_value(linkage, nodes[a].stats, nodes[b].stats)

    for new_id in range(j, total):
        ids = np.flatnonzero(active)
        block = dist[np.ix_(ids, ids)]
        flat = int(block.argmin())  # row-major first minimum = lowest (a, b) pair
        a = int(ids[flat // ids.size])
        b = int(ids[flat % ids.size])
        stats = _pooled(nodes[a].stats, nodes[b].stats)
        nodes.append(
            ModeNode(
                node_id=new_id,
                children=(a, b),
                parent=None,
                stats=stats,
                merge_distance=float(dist[a, b]),
            )
        )
        nodes[a].parent = new_id
        nodes[b].parent = new_id
        active[a] = False
        active[b] = False
        for other in np.flatnonzero(active):
            value = _linkage_value(linkage, stats, nodes[other].stats)
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
    roots = [node.node_id for node in tree.nodes if node.parent is None]
    if roots != [tree.root_id]:
        raise ValidationError(f"expected single root {tree.root_id}, found {roots}")


def _record_dtype(d: int) -> np.dtype:
    """One node record: child ids (-1, -1 for a leaf), count, mean, covariance."""
    return np.dtype(
        [("children", "<i4", (2,)), ("count", "<i8"), ("mean", "<f8", (d,)), ("cov", "<f8", (d, d))]
    )


def persist_tree(tree: ModeTree, path: str | Path) -> None:
    d = tree.nodes[0].stats.d
    records = np.zeros(tree.node_count, dtype=_record_dtype(d))
    records["children"] = [node.children or (-1, -1) for node in tree.nodes]
    records["count"] = [node.stats.count for node in tree.nodes]
    records["mean"] = [node.stats.mean for node in tree.nodes]
    records["cov"] = [node.stats.cov for node in tree.nodes]
    header = _HEADER.pack(TREE_MAGIC, TREE_VERSION, tree.leaf_labels.size, tree.leaf_count, d)
    Path(path).write_bytes(header + tree.leaf_labels.astype("<i4").tobytes() + records.tobytes())


def load_tree(path: str | Path) -> ModeTree:
    data = Path(path).read_bytes()
    if data[:4] != TREE_MAGIC:
        if data.lstrip()[:1] == b"{":
            raise TreeFormatError(
                f"{path}: JSON tree (versions 1-2) is incompatible with this build "
                f"(reads binary version {TREE_VERSION})"
            )
        raise TreeFormatError(f"{path}: missing {TREE_MAGIC!r} magic; not a bmm tree")
    if len(data) < _HEADER.size:
        raise TreeFormatError(f"{path}: truncated tree header")
    _, version, n, j, d = _HEADER.unpack_from(data)
    if version != TREE_VERSION:
        raise TreeFormatError(
            f"{path}: tree version {version} is incompatible with this build (reads {TREE_VERSION})"
        )
    if j < 1 or d < 1:
        raise TreeFormatError(f"{path}: header declares {j} leaves of dimension {d}")
    total = 2 * j - 1
    # in Python integers, before any array is sized from the header
    expected = _HEADER.size + 4 * n + total * (16 + 8 * d + 8 * d * d)
    if len(data) != expected:
        raise TreeFormatError(
            f"{path}: {len(data)} bytes, but n={n}, J={j}, d={d} take {expected}"
        )
    labels = np.frombuffer(data, "<i4", n, _HEADER.size).astype(np.int64)
    records = np.frombuffer(data, _record_dtype(d), total, _HEADER.size + 4 * n)
    means, covs = records["mean"].copy(), records["cov"].copy()
    if not (np.isfinite(means).all() and np.isfinite(covs).all()):
        raise TreeFormatError(f"{path}: non-finite node mean or covariance")
    nodes = [
        ModeNode(
            node_id=i,
            children=None if children == [-1, -1] else tuple(children),
            parent=None,
            stats=ModeStats(mean=means[i], cov=covs[i], count=count),
        )
        for i, (children, count) in enumerate(
            zip(records["children"].tolist(), records["count"].tolist())
        )
    ]
    for node in nodes:  # parents are derived; validate_tree reports bad child ids
        for child in node.children or ():
            if 0 <= child < node.node_id:
                nodes[child].parent = node.node_id
    tree = ModeTree(nodes=nodes, leaf_count=j, leaf_labels=labels)
    validate_tree(tree)
    return tree
