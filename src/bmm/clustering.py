"""Flat and size-balanced k-means over feature rows.

Both variants use k-means++ seeding and Lloyd iteration. The balanced
variant replaces the nearest-centroid step with a capacity-respecting
assignment: per-cluster capacities of floor(n/k) plus n mod k single-slot
extensions, so cluster sizes always land in {floor(n/k), ceil(n/k)}. Its
result is that of the greedy over all (point, cluster) pairs in one stable
sort by distance, computed without that sort: in rounds where every
unassigned point proposes its nearest open cluster and the proposals are
accepted in distance order up to the first that names a cluster with no
room left (see `_balanced_assign`). The proposals left after a round keep
their (distance, point) order, and one stable sort merges in the
re-proposals of the points whose cluster closed.

Seeding holds the rows column-major (d x n): each pick's distances are
contiguous ops of length n, summed over the d rows in numpy's pairwise
order (`_pairwise_row_sum`), and the next pick is drawn inline as
`Generator.choice` draws it, so the picks keep every bit of the row-major
loop. A fit seeds first, then sums the row norms once and writes every
Lloyd iteration's n x k squared distances into the same buffer
(`_squared_distance_kernel`), so the seeding's buffers are freed before
that exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError

if TYPE_CHECKING:
    from .features import FeatureMatrix

MAX_ITER = 300
MOVEMENT_TOL = 1e-6
_BLOCK_VALUES = 1 << 15  # norm sums per block of squared distances (256 KB)


@dataclass(eq=False)
class FlatClustering:
    """A flat k-way clustering: assignments, centroids and the SSE objective."""

    k: int
    assignment: np.ndarray
    centroids: np.ndarray
    sse: float
    sse_history: list[float] = field(default_factory=list)

    def cluster_rows(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == j)


def recompute_sse(x: np.ndarray, assignment: np.ndarray, centroids: np.ndarray) -> float:
    diff = x - centroids[assignment]
    return float((diff * diff).sum())


def _squared_distance_kernel(x: np.ndarray, k: int):
    """The squared distances from the rows of x to k centroids, for one fit.

    The row norms are summed once, and every call evaluates
    (|x|^2 + |c|^2) - 2 x.c in that order into one n x k buffer: 2 x.c is
    formed there, then each block of rows is subtracted from its norm sums,
    which only a small temporary holds, and clipped at zero. A returned array
    is overwritten by the next call.
    """
    n = x.shape[0]
    xx = (x * x).sum(axis=1)[:, None]
    d2 = np.empty((n, k))
    step = max(1, _BLOCK_VALUES // k)

    def squared_distances(centroids: np.ndarray) -> np.ndarray:
        cc = (centroids * centroids).sum(axis=1)[None, :]
        np.matmul(x, centroids.T, out=d2)
        np.multiply(d2, 2.0, out=d2)
        for start in range(0, n, step):
            block = d2[start:start + step]
            np.subtract(xx[start:start + step] + cc, block, out=block)
        np.clip(d2, 0.0, None, out=d2)
        return d2

    return squared_distances


def _pairwise_row_sum(rows: np.ndarray) -> np.ndarray:
    """Sum the d rows of a (d, n) array in place, in the order of numpy's
    pairwise sum over d contiguous values (`.sum(axis=1)` of the transpose),
    and return the row holding the sums.

    Below 8 rows a running sum; up to 128, eight accumulators over the full
    blocks of eight, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then
    the rest in order; above 128, each half so, split at d // 2 rounded
    down to a multiple of 8.
    """
    d = rows.shape[0]
    if d > 128:
        half = d // 2 - d // 2 % 8
        np.add(_pairwise_row_sum(rows[:half]), _pairwise_row_sum(rows[half:]), out=rows[0])
        return rows[0]
    rest = 1
    if d >= 8:
        rest = d - d % 8
        for i in range(8, rest, 8):
            rows[:8] += rows[i:i + 8]
        rows[0:8:2] += rows[1:8:2]
        rows[0:8:4] += rows[2:8:4]
        rows[0] += rows[4]
    for i in range(rest, d):
        rows[0] += rows[i]
    return rows[0]


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds (Arthur & Vassilvitskii 2007) for the rows of x.

    Bit for bit those of `((x - x[i]) ** 2).sum(axis=1)` per pick and
    `rng.choice(n, p=closest / total)`. The draw leaves out `choice`'s
    checks on p, which cannot fail: float32 rows cannot overflow a float64
    squared distance.
    """
    n = x.shape[0]
    xt = np.array(x.T, dtype=np.float64, order="C")
    buf = np.empty_like(xt)
    cdf = np.empty(n)

    def squared_distances(i: int) -> np.ndarray:
        np.subtract(xt, xt[:, i, None], out=buf)
        np.multiply(buf, buf, out=buf)
        return _pairwise_row_sum(buf)

    picks = [int(rng.integers(n))]
    # a copy: every later pick's distances overwrite the buffer
    closest = squared_distances(picks[0]).copy()
    for _ in range(1, k):
        total = float(closest.sum())
        if total > 0.0:
            np.divide(closest, total, out=cdf)
            np.cumsum(cdf, out=cdf)
            cdf /= cdf[-1]
            picks.append(int(cdf.searchsorted(rng.random(), side="right")))
        else:
            # remaining mass is zero: every point coincides with a chosen
            # centroid; fall back to the lowest unchosen index
            picks.append(int(np.setdiff1d(np.arange(n), picks)[0]))
        np.minimum(closest, squared_distances(picks[-1]), out=closest)
    return xt[:, picks].T.copy()


def _cluster_means(x: np.ndarray, assignment: np.ndarray, k: int) -> np.ndarray:
    # one bincount over (cluster, column) bins adds each bin's values in row
    # order from 0.0, exactly as np.add.at would
    d = x.shape[1]
    bins = (assignment[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(bins, weights=x.ravel(), minlength=k * d).reshape(k, d)
    counts = np.bincount(assignment, minlength=k).astype(np.float64)
    return sums / counts[:, None]


def _repair_empty_clusters(
    x: np.ndarray, centroids: np.ndarray, assignment: np.ndarray, point_sse: np.ndarray
) -> None:
    """Relocate empty clusters onto the farthest points of crowded clusters (in place)."""
    k = centroids.shape[0]
    sizes = np.bincount(assignment, minlength=k)
    for c in np.flatnonzero(sizes == 0):
        eligible = sizes[assignment] > 1
        candidates = np.where(eligible, point_sse, -np.inf)
        far = int(candidates.argmax())
        sizes[assignment[far]] -= 1
        assignment[far] = c
        sizes[c] = 1
        centroids[c] = x[far]
        point_sse[far] = 0.0


def _lloyd(x, centroids, squared_distances):
    n, k = x.shape[0], centroids.shape[0]
    history: list[float] = []
    prev = None
    for _ in range(MAX_ITER):
        d2 = squared_distances(centroids)
        assignment = d2.argmin(axis=1).astype(np.int64)
        point_sse = d2[np.arange(n), assignment]
        _repair_empty_clusters(x, centroids, assignment, point_sse)
        history.append(float(point_sse.sum()))
        if prev is not None and np.array_equal(assignment, prev):
            break
        prev = assignment
        new_centroids = _cluster_means(x, assignment, k)
        movement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if movement < MOVEMENT_TOL:
            break
    return prev, history


def _balanced_assign(d2: np.ndarray) -> np.ndarray:
    """Capacity-respecting assignment, in rounds of proposals.

    Equal, for every `d2` without NaN (squared distances between finite
    rows have none), to the greedy that walks all (point, cluster) pairs in
    the order of one stable sort of `d2` (by distance, ties by flat index
    point * k + cluster) and gives each unassigned point the first cluster
    that still has room. A cluster has room while it holds fewer than
    floor(n/k) rows, or exactly floor(n/k) while some of the n mod k
    ceil-sized slots are left; once closed it stays closed.

    Each round, every unassigned point proposes its nearest open cluster,
    the lowest index among ties (`argmin`): the greedy would skip every
    earlier pair of that point, since each names a closed cluster. The
    greedy meets these proposals in (distance, point) order and accepts
    each one until the first that names a cluster with no room left: one
    whose new size, counting the round's earlier proposals to the same
    cluster, would pass ceil(n/k), or reach it after the round's earlier
    proposals have taken the last ceil-sized slot. The round accepts every
    proposal before that one in one step. Only the points whose cluster
    closed propose again, each at a pair after its voided one in the
    greedy's order, so no new proposal comes before the position where the
    round stopped. Every round accepts at least its first proposal.
    """
    n, k = d2.shape
    base, extras = divmod(n, k)
    # the narrowest unsigned type, so the stable sort by cluster below is a
    # radix sort whenever k <= 65536
    choice = d2.argmin(axis=1).astype(np.min_scalar_type(k - 1))
    sizes = np.zeros(k, dtype=np.int64)
    assignment = np.full(n, -1, dtype=np.int64)
    points = np.arange(n)
    dist = d2[points, choice]
    for _ in range(n):
        # points is in (distance, point) order up to the re-proposals appended
        # by point, so the stable sort breaks a distance tie by point unless it
        # puts a kept proposal before the tied re-proposal of a lower point
        order = np.argsort(dist, kind="stable")
        points, dist = points[order], dist[order]
        if ((dist[1:] == dist[:-1]) & (points[1:] < points[:-1])).any():
            order = np.lexsort((points, dist))
            points, dist = points[order], dist[order]
        clusters = choice[points]
        # cluster c's proposals, in order, are by_cluster[starts[c]:][:counts[c]];
        # the one at index room[c] finds it at floor(n/k) and needs a
        # ceil-sized slot, and the one after that would pass ceil(n/k). The
        # round stops at the first pass or the first ceil-sized slot too many.
        by_cluster = np.argsort(clusters, kind="stable")
        counts = np.bincount(clusters, minlength=k)
        starts = np.cumsum(counts) - counts
        room = base - sizes
        over = counts > room + 1
        stop = int(by_cluster[starts[over] + room[over] + 1].min(initial=points.size))
        hit = (counts > room) & (counts > 0)  # a closed cluster's room may be -1
        ceil = np.sort(by_cluster[starts[hit] + room[hit]])
        if ceil.size > extras:
            stop = min(stop, int(ceil[extras]))
        assignment[points[:stop]] = clusters[:stop]
        if stop == points.size:
            return assignment
        sizes += np.bincount(clusters[:stop], minlength=k)
        extras -= int(np.searchsorted(ceil, stop))
        is_open = sizes < base + (extras > 0)
        # the proposals left keep their order; the points whose cluster
        # closed propose again, appended by point
        kept = is_open[clusters[stop:]]
        moved = np.sort(points[stop:][~kept])
        open_ids = np.flatnonzero(is_open)
        choice[moved] = open_ids[d2[np.ix_(moved, open_ids)].argmin(axis=1)]
        points = np.concatenate([points[stop:][kept], moved])
        dist = np.concatenate([dist[stop:][kept], d2[moved, choice[moved]]])
    raise RuntimeError("a balanced assignment round accepted no proposal")


SWAP_REFINE_LIMIT = 384


def _swap_refine(x, assignment, k, history, max_steps=200):
    """Polish a balanced partition with exact-delta swaps and rebalancing moves.

    Swapping i and j changes the SSE by exactly
        2 (x_i - x_j) . (mu_a - mu_b) - ||x_i - x_j||^2 (1/n_a + 1/n_b)
    and moving a point from a ceil-sized cluster to a floor-sized one by
        (n_c / (n_c + 1)) d2(i, c) - (n_a / (n_a - 1)) d2(i, a),
    both with the means re-adjusted, so every accepted step strictly lowers
    the true objective. Quadratic in n; callers gate it to small inputs.
    """
    n = x.shape[0]
    base, extras = divmod(n, k)
    q = (x * x).sum(axis=1)
    gram = x @ x.T
    pair_norm = q[:, None] + q[None, :] - 2.0 * gram
    for _ in range(max_steps):
        sizes = np.bincount(assignment, minlength=k)
        mu = _cluster_means(x, assignment, k)
        t = x @ mu.T
        t_own = t[np.arange(n), assignment]
        cross = t[:, assignment]  # cross[i, j] = x_i . mu_{cluster of j}
        inv = (1.0 / sizes)[assignment]
        swap = (
            2.0 * (t_own[:, None] + t_own[None, :] - cross - cross.T)
            - pair_norm * (inv[:, None] + inv[None, :])
        )
        swap[assignment[:, None] == assignment[None, :]] = np.inf

        si, sj = np.unravel_index(int(swap.argmin()), swap.shape)
        best_gain = float(swap[si, sj])
        move = None
        if extras:
            d2 = q[:, None] - 2.0 * t + (mu * mu).sum(axis=1)[None, :]
            gain_in = d2 * (sizes / (sizes + 1.0))[None, :]
            own_sizes = sizes[assignment].astype(np.float64)
            gain_out = (
                own_sizes / np.maximum(own_sizes - 1.0, 1.0)
            ) * d2[np.arange(n), assignment]
            moves = gain_in - gain_out[:, None]
            moves[sizes[assignment] != base + 1, :] = np.inf
            moves[:, sizes != base] = np.inf
            mi, mc = np.unravel_index(int(moves.argmin()), moves.shape)
            if float(moves[mi, mc]) < best_gain:
                best_gain = float(moves[mi, mc])
                move = (int(mi), int(mc))

        if best_gain >= -1e-12 * (1.0 + history[-1]):
            break
        assignment = assignment.copy()
        if move is not None:
            assignment[move[0]] = move[1]
        else:
            assignment[si], assignment[sj] = assignment[sj], assignment[si]
        history.append(recompute_sse(x, assignment, _cluster_means(x, assignment, k)))
    return assignment


def _balanced_lloyd(x, centroids, squared_distances):
    n, k = x.shape[0], centroids.shape[0]
    d2 = squared_distances(centroids)
    assignment = _balanced_assign(d2)
    history = [float(d2[np.arange(n), assignment].sum())]
    for _ in range(MAX_ITER - 1):
        new_centroids = _cluster_means(x, assignment, k)
        movement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        d2 = squared_distances(centroids)
        candidate = _balanced_assign(d2)
        candidate_sse = float(d2[np.arange(n), candidate].sum())
        if candidate_sse > history[-1]:
            break  # greedy reassignment would regress; keep the current partition
        converged = np.array_equal(candidate, assignment)
        assignment = candidate
        history.append(candidate_sse)
        if converged or movement < MOVEMENT_TOL:
            break
    if 1 < k and n <= SWAP_REFINE_LIMIT:
        assignment = _swap_refine(x, assignment, k, history)
    return assignment, history


def _check_k(k: int, n: int) -> None:
    if k < 1:
        raise ParameterError(f"cluster count must be >= 1, got {k}")
    if k > n:
        raise ParameterError(f"cluster count {k} exceeds sample count {n}")


def _restart_count(n: int) -> int:
    # restarts are cheap insurance on tiny inputs and close to free there
    return 25 if n <= 64 else 1


def _rng_for(seed: int, restart: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, restart])


def _fit(features, k, seed, loop) -> FlatClustering:
    """Per restart: k-means++ seeds, the variant's loop, then the final means and SSE."""
    _check_k(k, features.n)
    # seeds before the float64 rows and the distance buffers are made
    centroids = _kmeans_pp_init(features.values, k, _rng_for(seed, 0))
    x = features.values.astype(np.float64)
    squared_distances = _squared_distance_kernel(x, k)
    best = None
    for r in range(_restart_count(x.shape[0])):
        if r:
            centroids = _kmeans_pp_init(features.values, k, _rng_for(seed, r))
        assignment, history = loop(x, centroids, squared_distances)
        centroids = _cluster_means(x, assignment, k)
        sse = recompute_sse(x, assignment, centroids)
        history.append(sse)
        if best is None or sse < best.sse:
            best = FlatClustering(
                k=k, assignment=assignment, centroids=centroids, sse=sse, sse_history=history
            )
    return best


def fit_kmeans(features: "FeatureMatrix", k: int, seed: int) -> FlatClustering:
    """Plain Lloyd k-means; deterministic for a fixed seed."""
    return _fit(features, k, seed, _lloyd)


def fit_balanced_kmeans(features: "FeatureMatrix", k: int, seed: int) -> FlatClustering:
    """Balanced k-means; every cluster size lands in {floor(n/k), ceil(n/k)}."""
    return _fit(features, k, seed, _balanced_lloyd)
