"""The hierarchical mode tree over balanced leaf clusters.

Leaves are the balanced k-means clusters of the server feature set; internal
nodes come from bottom-up agglomerative merging of the closest pair at each
step, so J leaves always produce H = 2J-1 nodes. Every node, the root
included, is a candidate for matching with its rows' Gaussian statistics.

The merging stores the (2J-1)^2 float64 distance matrix (0.52 MB at J=128),
as in Müllner's generic algorithm: each node caches its nearest higher-id
neighbour, and a merge recomputes only the rows whose nearest neighbour it
removed, from their stored distances (see `build_hierarchy`).

`ModeTree` holds the tree's structure in node-id order: `children` (H x 2,
-1 for a leaf), `spectra` (each covariance's eigenvalues, ascending), one
leaf label per server row, the build's `seed`, and `server`, the
`FeatureMatrix` it is bound to. It derives `parents` from `children`,
`counts` from the labels and `children` (reading no feature value), and
`means` and `covs` from the server rows on first read: the leaves' fitted by
`gap.group_moments`, then each merged node's pooled from its children's, one
merge level at a time (`_pool`); this module only pools. Stratified `prune`
reads only labels and links, so it never derives them. A node's rows (those
whose leaf lies in its subtree) and `ModeTree.node(i)` views are derived on
demand.

Trees persist as a little-endian binary file (version 6):

* header ``<4sHQIIQH32s`` (64 bytes): magic ``BMMT``, ``u16`` version 6,
  ``u64`` row count ``n``, ``u32`` leaf count ``J``, ``u32`` dimension ``d``,
  ``u64`` build seed (modulo 2**63, as k-means reads it), a reserved ``u16``
  that must be 0, the server's 32-byte SHA-256;
* ``n`` leaf labels in the narrowest unsigned type that holds J-1: ``u1`` up
  to J=256, ``u2`` up to J=65,536, then ``u4``;
* ``J-1`` merges in node-id order, two int32 child ids each (the leaves are
  nodes 0..J-1 and store none);
* ``2J-1`` spectra in node-id order, ``d`` float64 eigenvalues each;
* the 32-byte SHA-256 of everything before it, which is also the tree's
  identity (`ModeTree.sha256`; `match` writes it into the manifest).

That is ``64 + n w + 8(J-1) + 8d(2J-1) + 32`` bytes for labels of w bytes.
`load_tree(path, server)` refuses a server whose row count or
`FeatureMatrix.sha256` is not the header's, so the statistics it derives are
the build's, bit for bit, and finite: `FeatureMatrix` refuses non-finite
values, and a leaf holds at least 2 rows. The spectra are the build's stacked
`np.linalg.eigvalsh(covs)`, stored because an eigvalsh per load costs
milliseconds; the Fréchet kernel reads its ridge decisions and bounds from
them. The digest guards them: a spectrum cannot drift from its covariance
unless the file is written so on purpose.

The round trip is exact at the bit level, and so is re-persisting a loaded
file. The loader refuses JSON trees (versions 1-2), other versions (3-5
stored statistics), a size that disagrees with the header, a digest
mismatch, another server, a nonzero reserved field, broken structure, a
leaf of fewer than 2 rows, and non-finite or unsorted spectra.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import TreeFormatError, ValidationError
from .gap import ModeStats, group_moments

if TYPE_CHECKING:
    from .clustering import FlatClustering
    from .features import FeatureMatrix

TREE_MAGIC = b"BMMT"
TREE_VERSION = 6
# magic, version, rows n, leaves J, dimension d, seed, reserved (0), server SHA-256
_HEADER = struct.Struct("<4sHQIIQH32s")
_DIGEST = 32  # bytes of the trailing SHA-256

_SMALL_LEAF = "leaf {} is empty or a single row ({} rows); its covariance needs 2"


@dataclass(eq=False)
class ModeNode:
    """One node read from a ModeTree's arrays; `ModeTree.node` builds it on demand."""

    node_id: int
    children: tuple[int, int] | None
    parent: int | None
    stats: ModeStats

    @property
    def size(self) -> int:
        return self.stats.count

    @property
    def is_leaf(self) -> bool:
        return self.children is None


@dataclass(eq=False)
class ModeTree:
    """The 2J-1 node tree's structure in node-id order, bound to its server."""

    children: np.ndarray  # (H, 2) int64 child ids, -1 for a leaf
    spectra: np.ndarray  # (H, d) float64 eigenvalues of each covariance, ascending
    leaf_labels: np.ndarray  # (n,) int64 leaf node id of every server row
    seed: int  # the leaf k-means seed, modulo 2**63
    server: "FeatureMatrix" = field(repr=False)  # the rows every statistic comes from
    parents: np.ndarray = field(init=False)  # (H,) int64, -1 for the root

    def __post_init__(self) -> None:
        # only links to a lower id count; validate_tree reports the others
        ids = np.arange(self.node_count)
        linked = (self.children >= 0) & (self.children < ids[:, None])
        self.parents = np.full(self.node_count, -1, dtype=np.int64)
        self.parents[self.children[linked]] = np.repeat(ids, 2)[linked.ravel()]

    @cached_property
    def sha256(self) -> bytes:
        """The tree's identity: the SHA-256 its file ends with."""
        return hashlib.sha256(_payload(self)).digest()

    @cached_property
    def counts(self) -> np.ndarray:
        """(H,) int64 member row counts, from the leaf labels and the links alone."""
        counts = np.bincount(self.leaf_labels, minlength=self.node_count)
        for node, (a, b) in enumerate(self.children[self.leaf_count:].tolist(), self.leaf_count):
            counts[node] = counts[a] + counts[b]
        return counts

    @cached_property
    def _moments(self) -> tuple[np.ndarray, np.ndarray]:
        """(means, covs) of every node, derived from the server rows on first read."""
        h, j, d = self.node_count, self.leaf_count, self.server.d
        means, covs = np.empty((h, d)), np.empty((h, d, d))
        means[:j], covs[:j] = group_moments(self.server.values, self.leaf_labels, self.counts[:j])
        _pool(self.children, self.counts, means, covs)
        return means, covs

    means = property(lambda self: self._moments[0])  # (H, d) float64
    covs = property(lambda self: self._moments[1])  # (H, d, d) float64, exactly symmetric

    @property
    def node_count(self) -> int:
        return len(self.children)

    @property
    def leaf_count(self) -> int:
        return (self.node_count + 1) // 2

    @property
    def root_id(self) -> int:
        return self.node_count - 1

    def node(self, node_id: int) -> ModeNode:
        a, b = self.children[node_id].tolist()
        parent = int(self.parents[node_id])
        return ModeNode(
            node_id=node_id,
            children=None if a < 0 else (a, b),
            parent=None if parent < 0 else parent,
            stats=ModeStats(self.means[node_id], self.covs[node_id], int(self.counts[node_id])),
        )

    def _levels(self, node_id: int):
        """The node ids under node_id, one array per depth below it."""
        level = np.array([node_id])
        while level.size:
            yield level
            below = self.children[level]
            level = below[below >= 0]

    def subtree_leaves(self, node_id: int) -> np.ndarray:
        """Boolean mask over the J leaves: True for the leaves under node_id."""
        mask = np.zeros(self.leaf_count, dtype=bool)
        for level in self._levels(node_id):
            mask[level[level < self.leaf_count]] = True
        return mask

    def members(self, node_id: int) -> np.ndarray:
        """Sorted server rows of node_id, derived from the leaf labels."""
        return np.flatnonzero(self.subtree_leaves(node_id)[self.leaf_labels])

    def depths(self) -> np.ndarray:
        """Depth of each node, root = 0."""
        depth = np.zeros(self.node_count, dtype=np.int64)
        for d, level in enumerate(self._levels(self.root_id)):
            depth[level] = d
        return depth


def _centroid_distance(means_a: np.ndarray, means_b: np.ndarray) -> np.ndarray:
    """Distances between the means of nodes a and b, broadcast over the leading axes."""
    gap = means_a - means_b
    # a stacked vector.vector matmul adds each gap in the same order as the
    # scalar gap @ gap, so every value keeps its bits (einsum does not)
    return np.sqrt((gap[..., None, :] @ gap[..., :, None])[..., 0, 0])


def _pool(children: np.ndarray, counts: np.ndarray, means: np.ndarray, covs: np.ndarray) -> None:
    """Fill in every merged node's mean and covariance from its children's.

    A merged node pools its children a and b (Chan, Golub & LeVeque 1979):
    the mean ma + d (cb / n) and the covariance ((ca-1) A + (cb-1) B +
    dd^T (ca cb / n)) / (n-1), with d = mb - ma and n = ca + cb. The mean is
    the build's merge-loop formula. The nodes of one merge level (a leaf is
    level 0, a merged node one above its higher child) are pooled in one
    stacked step, by one merge's elementwise operations in their order. Each
    value has the bits of that formula in Python integers while every ca * cb
    is below 2**53, so that the counts and their products are exact in
    float64. Children must have lower ids (`validate_tree`).
    """
    j = (len(children) + 1) // 2
    level = [0] * len(children)
    for node, (a, b) in enumerate(children[j:].tolist(), j):
        level[node] = 1 + max(level[a], level[b])
    level = np.array(level)
    for step in range(1, level.max() + 1):
        nodes = np.flatnonzero(level == step)
        a, b = children[nodes].T
        count_a, count_b = counts[a][:, None], counts[b][:, None]
        n = count_a + count_b
        delta = means[b] - means[a]
        means[nodes] = means[a] + delta * (count_b / n)
        scatter = (count_a - 1)[:, None] * covs[a] + (count_b - 1)[:, None] * covs[b]
        outer = delta[:, :, None] * delta[:, None, :]
        covs[nodes] = (scatter + outer * (count_a * count_b / n)[:, None]) / (n - 1)[:, None]


def build_hierarchy(leaves: "FlatClustering", features: "FeatureMatrix", seed: int = 0) -> ModeTree:
    """Merge the J leaf clusters bottom-up into a 2J-1 node tree.

    At every step the active pair whose means are closest (centroid linkage)
    is merged; equidistant pairs resolve to the lowest (node_id, node_id)
    pair. Leaf statistics are fitted to the leaf rows (`group_moments`). A
    merge pools its children's count and mean, which the distances need; the
    merged covariances are pooled after the loop, one merge level at a time
    (`_pool`, which a loaded tree derives its statistics with too).

    The distances are stored, as in the generic algorithm of Müllner 2011
    (arXiv:1109.2378): `dist[a, b]` holds the distance of active a < b and
    every other entry is inf, one (2J-1)^2 float64 matrix (0.52 MB at
    J=128). Each active node a caches `nearest[a]`, the lowest-id active node
    b > a at the smallest distance `best[a]`, so `best.argmin()` and its
    `nearest` give the lowest pair. A merge clears its children's rows and
    columns and writes the new node's column; the rows whose nearest was a
    child are recomputed from their matrix rows, and any other row keeps its
    nearest unless the new node, whose id is the highest, is strictly closer.

    The tree records `seed` (the seed `leaves` were fitted with) and
    `features`, whose `sha256` refuses ids a manifest cannot hold.
    """
    _ = features.sha256  # refuses unlistable ids before the work; the tree reuses it
    j, d = leaves.k, features.d
    total = 2 * j - 1

    children = np.full((total, 2), -1, dtype=np.int64)
    counts = np.zeros(total, dtype=np.int64)
    _check_labels(leaves.assignment, j)
    counts[:j] = np.bincount(leaves.assignment, minlength=j)
    _refuse(counts[:j] < 2, _SMALL_LEAF, np.arange(j), counts)
    means, covs = np.empty((total, d)), np.empty((total, d, d))
    means[:j], covs[:j] = group_moments(features.values, leaves.assignment, counts[:j])
    dist = np.full((total, total), np.inf)
    for a in range(j - 1):
        dist[a, a + 1:j] = _centroid_distance(means[a], means[a + 1:j])
    active = np.zeros(total, dtype=bool)
    active[:j] = True
    nearest, best = dist.argmin(axis=1), dist.min(axis=1)  # first minimum = lowest id

    for new_id in range(j, total):
        a = int(best.argmin())  # the lowest row holding the minimum, then its first
        b = int(nearest[a])
        children[new_id] = a, b
        count_a, count_b = int(counts[a]), int(counts[b])
        counts[new_id] = count_a + count_b
        means[new_id] = means[a] + (means[b] - means[a]) * (count_b / (count_a + count_b))
        active[a] = active[b] = False
        best[a] = best[b] = np.inf
        dist[[a, b]] = dist[:, [a, b]] = np.inf
        ids = np.flatnonzero(active)
        row = _centroid_distance(means[new_id], means[ids])
        dist[ids, new_id] = row
        stale = ids[(nearest[ids] == a) | (nearest[ids] == b)]
        # new_id is the highest column, so it wins only when strictly closer
        closer = row < best[ids]
        nearest[ids[closer]] = new_id
        best[ids[closer]] = row[closer]
        rows = dist[stale, :new_id + 1]  # the columns above new_id are all inf
        nearest[stale] = rows.argmin(axis=1)
        best[stale] = rows.min(axis=1)
        active[new_id] = True
    del dist  # before the pooled covariances and their eigvalsh

    _pool(children, counts, means, covs)  # its means have the loop's bits
    tree = ModeTree(children, np.linalg.eigvalsh(covs), leaves.assignment, seed % 2**63, features)
    tree.counts, tree._moments = counts, (means, covs)  # what the tree would derive
    validate_tree(tree)
    return tree


def _refuse(broken: np.ndarray, message: str, *columns: np.ndarray) -> None:
    """Raise ValidationError(message.format(*column[i])) at the lowest i where broken holds."""
    hits = np.flatnonzero(broken)
    if hits.size:
        raise ValidationError(message.format(*(column[hits[0]] for column in columns)))


def _check_labels(labels: np.ndarray, j: int) -> None:
    if labels.ndim != 1 or (labels.size and not 0 <= labels.min() <= labels.max() < j):
        raise ValidationError(f"leaf labels must be row labels in [0, {j})")


def validate_tree(tree: ModeTree) -> None:
    """Structural checks: leaves first, links (so the root is the one node without a
    parent), and leaves of at least 2 rows, so every node has statistics; errors
    name the lowest bad node."""
    j = tree.leaf_count
    _check_labels(tree.leaf_labels, j)
    ids = np.arange(tree.node_count)
    is_leaf = (tree.children == -1).all(axis=1)
    _refuse(is_leaf != (ids < j), f"nodes 0..{j - 1} must be the leaves; node {{}} is not", ids)
    merged = ids[j:]
    a, b = tree.children[j:].T
    _refuse((a < 0) | (a >= merged) | (b < 0) | (b >= merged) | (a == b),
            "node {} needs two distinct lower child ids", merged)
    for child in (a, b):
        _refuse(tree.parents[child] != merged, "child {} does not point back to {}", child, merged)
    _refuse(tree.counts[:j] < 2, _SMALL_LEAF, ids, tree.counts)


def _payload(tree: ModeTree) -> bytes:
    """The file's bytes before its digest."""
    j = tree.leaf_count
    labels = np.min_scalar_type(j - 1).newbyteorder("<")  # the narrowest that holds J-1
    header = _HEADER.pack(
        TREE_MAGIC, TREE_VERSION, tree.leaf_labels.size, j, tree.spectra.shape[1], tree.seed, 0,
        tree.server.sha256,
    )
    return b"".join([
        header, tree.leaf_labels.astype(labels).tobytes(),
        tree.children[j:].astype("<i4").tobytes(), tree.spectra.astype("<f8").tobytes(),
    ])


def persist_tree(tree: ModeTree, path: str | Path) -> None:
    data = _payload(tree)
    Path(path).write_bytes(data + hashlib.sha256(data).digest())


def load_tree(path: str | Path, server: "FeatureMatrix") -> ModeTree:
    """The tree at path, bound to `server`, which must be the server it was
    built from: the same rows, ids, labels and float32 values."""
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
    _, version, n, j, d, seed, reserved, server_sha256 = _HEADER.unpack_from(data)
    if version != TREE_VERSION:
        raise TreeFormatError(
            f"{path}: tree version {version} is incompatible with this build (reads {TREE_VERSION})"
        )
    if j < 1 or d < 1:
        raise TreeFormatError(f"{path}: header declares {j} leaves of dimension {d}")
    total, labels = 2 * j - 1, np.min_scalar_type(j - 1).newbyteorder("<")
    # in Python integers, before any array is sized from the header
    merges = _HEADER.size + labels.itemsize * n
    spectra = merges + 8 * (j - 1)
    expected = spectra + 8 * d * total + _DIGEST
    if len(data) != expected:
        raise TreeFormatError(
            f"{path}: {len(data)} bytes, but n={n}, J={j}, d={d} take {expected}"
        )
    digest = data[-_DIGEST:]
    if hashlib.sha256(memoryview(data)[:-_DIGEST]).digest() != digest:
        raise TreeFormatError(f"{path}: contents do not match the tree's SHA-256; file is corrupt")
    if server.n != n:
        raise ValidationError(f"server features have {server.n} rows but the tree covers {n}")
    if server.sha256 != server_sha256:
        raise ValidationError(
            f"server features (SHA-256 {server.sha256.hex()[:16]}...) are not the server "
            f"the tree was built from ({server_sha256.hex()[:16]}...)"
        )
    if reserved != 0:  # a second linkage's trees held 1 here
        raise TreeFormatError(
            f"{path}: tree was built with a linkage this build no longer reads; "
            "rebuild it with build-server"
        )
    children = np.full((total, 2), -1, dtype=np.int64)
    children[j:] = np.frombuffer(data, "<i4", 2 * (j - 1), merges).reshape(-1, 2)
    tree = ModeTree(
        children, np.frombuffer(data, "<f8", total * d, spectra).reshape(total, d).astype(float),
        np.frombuffer(data, labels, n, _HEADER.size).astype(np.int64), seed, server,
    )
    try:
        validate_tree(tree)
    except ValidationError as exc:
        raise TreeFormatError(f"{path}: {exc}") from exc
    if not np.isfinite(tree.spectra).all():
        raise TreeFormatError(f"{path}: non-finite node spectrum")
    if (np.diff(tree.spectra, axis=1) < 0).any():
        raise TreeFormatError(f"{path}: a node spectrum is not in ascending order")
    tree.sha256 = digest  # re-persisting the loaded tree writes the same bytes
    return tree
