"""The hierarchical mode tree over balanced leaf clusters.

Leaves are the balanced k-means clusters of the server feature set; internal
nodes come from bottom-up agglomerative merging of the closest pair at each
step, so J leaves always produce H = 2J-1 nodes. Every node caches the
Gaussian statistics of its member rows and is a candidate for matching, the
root included. Leaf statistics are fitted to the leaf rows; a merged node
pools the exact moments of its two children, so no row is read twice.

The merging keeps no distance matrix: each node caches its nearest
higher-id neighbour, linkage rows are computed in blocks against the
stacked means and counts, and a merge recomputes only the rows whose
nearest neighbour it removed (see `build_hierarchy`).

`ModeTree` holds the tree as arrays in node-id order: `children` (H x 2,
-1 for a leaf), `counts`, `means`, `covs`, `spectra` (each covariance's
eigenvalues, ascending) and one leaf label per server row, plus the build's
provenance: `linkage`, `seed` and `server_sha256` (`FeatureMatrix.sha256` of
the server). `parents` is derived from `children`, and `ModeTree.node(i)`
builds a `ModeNode` view on demand. A node's rows are those whose leaf lies
in its subtree, derived on demand, never stored; nor are merged nodes'
covariances: `build_hierarchy` and `load_tree` both pool them from the
leaves' with `_pooled_covs`.

Trees persist as a little-endian binary file (version 5):

* header ``<4sHQIIQH32s`` (64 bytes): magic ``BMMT``, ``u16`` version 5,
  ``u64`` row count ``n``, ``u32`` leaf count ``J``, ``u32`` dimension ``d``,
  ``u64`` build seed (modulo 2**63, as k-means reads it), ``u16`` linkage
  (its index in `LINKAGES`), the server's 32-byte SHA-256;
* ``n`` int32 leaf labels;
* ``2J-1`` node records in node-id order: two int32 child ids (-1 for a
  leaf), an int64 count, ``d`` float64 mean values and the ``d`` float64
  eigenvalues of the covariance, ascending;
* ``J`` leaf covariances in leaf order, each the ``d(d+1)/2`` float64 values
  of its row-major upper triangle;
* the 32-byte SHA-256 of everything before it, which is also the tree's
  identity (`ModeTree.sha256`; `match` writes it into the manifest).

Packing loses nothing: every covariance is exactly symmetric, as
`gaussian_stats` symmetrizes and each term the pool adds is symmetric. The
pool is exact while every product of two child counts is below 2**53 (as for
ward's linkage), so the loader's pool is the build's, bit for bit, and
`persist_tree` refuses an asymmetric leaf covariance or a merged one that is
not its children's pool. The spectra are the stacked
`np.linalg.eigvalsh(covs)` of the build, so the Fréchet kernel reads its
ridge decisions and bounds from the file instead of recomputing them. The
digest, not a loader eigvalsh (which would cost what the stored spectra
save), guards them: a spectrum cannot drift from its covariance unless the
file is written so on purpose.

The round trip is exact at the bit level, and so is re-persisting a loaded
file. The loader refuses JSON trees (versions 1-2), other versions (version 3
stored full covariances and no spectra, version 4 a packed covariance for
every node), a size that disagrees with the header, a digest mismatch, an
unknown linkage, broken structure, and non-finite (stored or pooled) or
unsorted statistics.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError, TreeFormatError, ValidationError
from .gap import ModeStats, gaussian_stats

if TYPE_CHECKING:
    from .clustering import FlatClustering
    from .features import FeatureMatrix

TREE_MAGIC = b"BMMT"
TREE_VERSION = 5
# magic, version, rows n, leaves J, dimension d, seed, linkage index, server SHA-256
_HEADER = struct.Struct("<4sHQIIQH32s")
_DIGEST = 32  # bytes of the trailing SHA-256

LINKAGES = ("centroid", "ward")
_BLOCK_VALUES = 1 << 20  # gap values per block of linkage rows (8 MB)


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
    """The 2J-1 node tree as the arrays its file stores, in node-id order."""

    children: np.ndarray  # (H, 2) int64 child ids, -1 for a leaf
    counts: np.ndarray  # (H,) int64 member row counts
    means: np.ndarray  # (H, d) float64
    covs: np.ndarray  # (H, d, d) float64, exactly symmetric; merged ones pooled
    spectra: np.ndarray  # (H, d) float64 eigenvalues of each covariance, ascending
    leaf_labels: np.ndarray  # (n,) int64 leaf node id of every server row
    linkage: str  # one of LINKAGES
    seed: int  # the leaf k-means seed, modulo 2**63
    server_sha256: bytes  # FeatureMatrix.sha256 of the server
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


def _linkage(
    linkage: str, means_a: np.ndarray, counts_a: np.ndarray, means_b: np.ndarray,
    counts_b: np.ndarray,
) -> np.ndarray:
    """Linkage values between nodes a and b, broadcast over the leading axes."""
    gap = means_a - means_b
    # a stacked vector.vector matmul adds each gap in the same order as the
    # scalar gap @ gap, so every value keeps its bits (einsum does not)
    sq = (gap[..., None, :] @ gap[..., :, None])[..., 0, 0]
    if linkage == "centroid":
        return np.sqrt(sq)
    # ward: SSE increase caused by the merge; counts are at most n, so the
    # int64 product is exact, and so is its float64 value below 2**53
    return counts_a * counts_b / (counts_a + counts_b) * sq


def _pooled_covs(
    children: np.ndarray, counts: np.ndarray, means: np.ndarray, leaf_covs: np.ndarray
) -> np.ndarray:
    """The (H, d, d) covariances of all nodes from the J packed leaf covariances.

    A merged node pools its children a and b (Chan, Golub & LeVeque 1979):
    ((ca-1) A + (cb-1) B + dd^T (ca cb / n)) / (n-1), with d the mean
    difference and n = ca + cb. The nodes of one merge level (a leaf is level
    0, a merged node one above its higher child) are pooled in one stacked
    step on the packed upper triangles, by one merge's elementwise operations
    in their order. Each value has the bits of that formula in Python
    integers while every ca * cb is below 2**53, so that the counts and their
    products are exact in float64. Children must have lower ids
    (`validate_tree`); an overflow gives non-finite values, which the callers
    refuse.
    """
    j, d = len(leaf_covs), means.shape[1]
    rows, cols = np.triu_indices(d)
    packed = np.empty((len(children), rows.size))
    packed[:j] = leaf_covs
    level = [0] * len(children)
    for node, (a, b) in enumerate(children[j:].tolist(), j):
        level[node] = 1 + max(level[a], level[b])
    level = np.array(level)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, level.max() + 1):
            nodes = np.flatnonzero(level == step)
            a, b = children[nodes].T
            count_a, count_b = counts[a][:, None], counts[b][:, None]
            n = count_a + count_b
            delta = means[b] - means[a]
            scatter = (count_a - 1) * packed[a] + (count_b - 1) * packed[b]
            outer = delta[:, rows] * delta[:, cols]
            packed[nodes] = (scatter + outer * (count_a * count_b / n)) / (n - 1)
    at = np.empty((d, d), dtype=np.intp)  # packed position of each (row, col) entry
    at[rows, cols] = at[cols, rows] = np.arange(rows.size)
    # np.take keeps the stack C-contiguous; the kernel's matmul bits depend on
    # the layout, and `packed[:, at]` would not be
    return np.take(packed, at, axis=1)


def build_hierarchy(
    leaves: "FlatClustering", features: "FeatureMatrix", linkage: str = "centroid",
    seed: int = 0,
) -> ModeTree:
    """Merge the J leaf clusters bottom-up into a 2J-1 node tree.

    At every step the closest active pair under the chosen linkage is merged;
    equidistant pairs resolve to the lowest (node_id, node_id) pair. Leaf
    statistics are fitted to the leaf rows. A merge pools its children's count
    and mean, which the linkage needs; the merged covariances are pooled after
    the loop, one merge level at a time (`_pooled_covs`, as `load_tree` does).

    No distance matrix is kept. Each active node a caches `nearest[a]`, the
    lowest-id active node b > a at the smallest linkage value `best[a]`, so
    `best.argmin()` and its `nearest` give the lowest pair (the generic
    algorithm of Müllner 2011, arXiv:1109.2378). After a merge the rows whose
    nearest was a child are recomputed; any other row keeps its nearest
    unless the new node, whose id is the highest, is strictly closer.

    The tree records the linkage, `seed` (the seed `leaves` were fitted
    with) and `features.sha256`, which refuses ids a manifest cannot hold.
    """
    if linkage not in LINKAGES:
        raise ParameterError(f"unknown linkage {linkage!r}, expected one of {LINKAGES}")
    server_sha256 = features.sha256
    j, d = leaves.k, features.d
    total = 2 * j - 1

    children = np.full((total, 2), -1, dtype=np.int64)
    counts = np.empty(total, dtype=np.int64)
    means = np.empty((total, d), dtype=np.float64)
    leaf_covs = np.empty((j, d * (d + 1) // 2), dtype=np.float64)
    upper = np.triu_indices(d)
    for c in range(j):
        rows = leaves.cluster_rows(c)
        if rows.size == 0:
            raise ValidationError(f"leaf cluster {c} is empty")
        stats = gaussian_stats(features, rows)
        counts[c], means[c], leaf_covs[c] = stats.count, stats.mean, stats.cov[upper]
    active = np.zeros(total, dtype=bool)
    active[:j] = True
    nearest = np.full(total, -1, dtype=np.int64)
    best = np.full(total, np.inf)

    def refresh(rows: np.ndarray) -> None:
        """Recompute nearest and best of the ascending active rows, each over
        the active nodes above it; a row with none keeps best = inf."""
        ids = np.flatnonzero(active)
        ids = ids[ids > rows[0]]
        if ids.size == 0:
            return
        step = max(1, _BLOCK_VALUES // (ids.size * d))
        for start in range(0, rows.size, step):
            chunk = rows[start:start + step]
            block = _linkage(
                linkage, means[chunk, None], counts[chunk, None], means[ids], counts[ids]
            )
            block[ids[None, :] <= chunk[:, None]] = np.inf
            first = block.argmin(axis=1)
            nearest[chunk] = ids[first]
            best[chunk] = block[np.arange(chunk.size), first]

    refresh(np.arange(j))
    for new_id in range(j, total):
        a = int(best.argmin())  # the lowest row holding the minimum, then its first
        b = int(nearest[a])
        children[new_id] = a, b
        count_a, count_b = int(counts[a]), int(counts[b])
        counts[new_id] = count_a + count_b
        means[new_id] = means[a] + (means[b] - means[a]) * (count_b / (count_a + count_b))
        active[a] = active[b] = False
        best[a] = best[b] = np.inf
        ids = np.flatnonzero(active)
        row = _linkage(linkage, means[new_id], counts[new_id], means[ids], counts[ids])
        stale = (nearest[ids] == a) | (nearest[ids] == b)
        # new_id is the highest column, so it wins only when strictly closer
        closer = ~stale & (row < best[ids])
        nearest[ids[closer]] = new_id
        best[ids[closer]] = row[closer]
        active[new_id] = True
        if stale.any():
            refresh(ids[stale])

    covs = _pooled_covs(children, counts, means, leaf_covs)
    tree = ModeTree(
        children, counts, means, covs, np.linalg.eigvalsh(covs), leaves.assignment,
        linkage, seed % 2**63, server_sha256,
    )
    validate_tree(tree)
    return tree


def _refuse(broken: np.ndarray, message: str, *columns: np.ndarray) -> None:
    """Raise ValidationError(message.format(*column[i])) at the lowest i where broken holds."""
    hits = np.flatnonzero(broken)
    if hits.size:
        raise ValidationError(message.format(*(column[hits[0]] for column in columns)))


def validate_tree(tree: ModeTree) -> None:
    """Structural checks: leaves first, links (so the root is the one node without a
    parent), and counts that agree with the leaf labels, so the nodes partition the
    rows; errors name the lowest bad node."""
    j, labels = tree.leaf_count, tree.leaf_labels
    if labels.ndim != 1 or (labels.size and not 0 <= labels.min() <= labels.max() < j):
        raise ValidationError(f"leaf labels must be row labels in [0, {j})")
    ids = np.arange(tree.node_count)
    is_leaf = (tree.children == -1).all(axis=1)
    _refuse(is_leaf != (ids < j), f"nodes 0..{j - 1} must be the leaves; node {{}} is not", ids)
    merged = ids[j:]
    a, b = tree.children[j:].T
    _refuse((a < 0) | (a >= merged) | (b < 0) | (b >= merged) | (a == b),
            "node {} needs two distinct lower child ids", merged)
    for child in (a, b):
        _refuse(tree.parents[child] != merged, "child {} does not point back to {}", child, merged)
    leaf_rows = np.bincount(labels, minlength=j)
    _refuse(leaf_rows == 0, "leaf {} holds no rows", ids)
    expected = np.concatenate([leaf_rows, tree.counts[a] + tree.counts[b]])
    _refuse(tree.counts != expected, "node {} count {} != {} rows", ids, tree.counts, expected)


def _record_dtype(d: int) -> np.dtype:
    """One node record: child ids (-1, -1 for a leaf), count, mean, spectrum."""
    return np.dtype([
        ("children", "<i4", (2,)), ("count", "<i8"), ("mean", "<f8", (d,)),
        ("spectrum", "<f8", (d,)),
    ])


def _payload(tree: ModeTree) -> bytes:
    """The file's bytes before its digest."""
    j, d = tree.leaf_count, tree.means.shape[1]
    rows, cols = np.triu_indices(d)
    leaf_covs = tree.covs[:j, rows, cols]
    if leaf_covs.tobytes() != tree.covs[:j, cols, rows].tobytes():
        raise ValidationError("leaf covariances must be exactly symmetric to be stored packed")
    pooled = _pooled_covs(tree.children, tree.counts, tree.means, leaf_covs)
    if pooled.tobytes() != tree.covs.tobytes():
        raise ValidationError("merged covariances must be their children's pool to be stored")
    records = np.zeros(tree.node_count, dtype=_record_dtype(d))
    records["children"], records["count"] = tree.children, tree.counts
    records["mean"], records["spectrum"] = tree.means, tree.spectra
    header = _HEADER.pack(
        TREE_MAGIC, TREE_VERSION, tree.leaf_labels.size, j, d, tree.seed,
        LINKAGES.index(tree.linkage), tree.server_sha256,
    )
    labels = tree.leaf_labels.astype("<i4").tobytes()
    return header + labels + records.tobytes() + leaf_covs.astype("<f8").tobytes()


def persist_tree(tree: ModeTree, path: str | Path) -> None:
    data = _payload(tree)
    Path(path).write_bytes(data + hashlib.sha256(data).digest())


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
    _, version, n, j, d, seed, linkage, server_sha256 = _HEADER.unpack_from(data)
    if version != TREE_VERSION:
        raise TreeFormatError(
            f"{path}: tree version {version} is incompatible with this build (reads {TREE_VERSION})"
        )
    if j < 1 or d < 1:
        raise TreeFormatError(f"{path}: header declares {j} leaves of dimension {d}")
    total, packed = 2 * j - 1, d * (d + 1) // 2
    # in Python integers, before any array is sized from the header
    expected = _HEADER.size + 4 * n + total * (16 + 16 * d) + j * 8 * packed + _DIGEST
    if len(data) != expected:
        raise TreeFormatError(
            f"{path}: {len(data)} bytes, but n={n}, J={j}, d={d} take {expected}"
        )
    digest = data[-_DIGEST:]
    if hashlib.sha256(memoryview(data)[:-_DIGEST]).digest() != digest:
        raise TreeFormatError(f"{path}: contents do not match the tree's SHA-256; file is corrupt")
    if linkage >= len(LINKAGES):
        raise TreeFormatError(f"{path}: unknown linkage index {linkage}")
    records = np.frombuffer(data, _record_dtype(d), total, _HEADER.size + 4 * n)
    leaf_covs = np.frombuffer(data, "<f8", j * packed, _HEADER.size + 4 * n + records.nbytes)
    tree = ModeTree(
        records["children"].astype(np.int64), records["count"].astype(np.int64),
        records["mean"].astype(np.float64), np.empty((0, d, d)),  # pooled once links are checked
        records["spectrum"].astype(np.float64),
        np.frombuffer(data, "<i4", n, _HEADER.size).astype(np.int64),
        LINKAGES[linkage], seed, server_sha256,
    )
    try:
        validate_tree(tree)
    except ValidationError as exc:
        raise TreeFormatError(f"{path}: {exc}") from exc
    tree.covs = _pooled_covs(tree.children, tree.counts, tree.means, leaf_covs.reshape(j, packed))
    if not all(np.isfinite(a).all() for a in (tree.means, tree.covs, tree.spectra)):
        raise TreeFormatError(f"{path}: non-finite node mean, covariance or spectrum")
    if (np.diff(tree.spectra, axis=1) < 0).any():
        raise TreeFormatError(f"{path}: a node spectrum is not in ascending order")
    tree.sha256 = digest  # re-persisting the loaded tree writes the same bytes
    return tree
