"""Flat and size-balanced k-means over feature rows.

Both variants use k-means++ seeding and Lloyd iteration. The balanced
variant replaces the nearest-centroid step with a greedy pass over all
(point, cluster) pairs sorted by distance, honouring per-cluster capacities
of floor(n/k) plus n mod k single-slot extensions, so cluster sizes always
land in {floor(n/k), ceil(n/k)}.
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


def _squared_distances(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = (
        (x * x).sum(axis=1)[:, None]
        + (centroids * centroids).sum(axis=1)[None, :]
        - 2.0 * (x @ centroids.T)
    )
    np.clip(d2, 0.0, None, out=d2)
    return d2


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]), dtype=np.float64)
    chosen: set[int] = set()
    first = int(rng.integers(n))
    centroids[0] = x[first]
    chosen.add(first)
    closest = ((x - x[first]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = float(closest.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=closest / total))
        else:
            # remaining mass is zero: every point coincides with a chosen
            # centroid; fall back to the lowest unchosen index
            idx = min(set(range(n)) - chosen)
        centroids[i] = x[idx]
        chosen.add(idx)
        np.minimum(closest, ((x - x[idx]) ** 2).sum(axis=1), out=closest)
    return centroids


def _cluster_means(x: np.ndarray, assignment: np.ndarray, k: int) -> np.ndarray:
    sums = np.zeros((k, x.shape[1]), dtype=np.float64)
    np.add.at(sums, assignment, x)
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


def _lloyd(x, k, rng):
    n = x.shape[0]
    centroids = _kmeans_pp_init(x, k, rng)
    history: list[float] = []
    prev = None
    for _ in range(MAX_ITER):
        d2 = _squared_distances(x, centroids)
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
    centroids = _cluster_means(x, prev, k)
    sse = recompute_sse(x, prev, centroids)
    history.append(sse)
    return prev, centroids, sse, history


def _balanced_assign(d2: np.ndarray) -> np.ndarray:
    """Greedy capacity-respecting assignment over distance-sorted (point, cluster) pairs."""
    n, k = d2.shape
    base = n // k
    extras = n % k
    order = np.argsort(d2, axis=None, kind="stable")
    points = (order // k).tolist()
    clusters = (order % k).tolist()
    assignment = [-1] * n
    sizes = [0] * k
    extra_used = 0
    remaining = n
    for p, c in zip(points, clusters):
        if assignment[p] != -1:
            continue
        s = sizes[c]
        if s < base:
            pass
        elif s == base and extra_used < extras:
            extra_used += 1
        else:
            continue
        assignment[p] = c
        sizes[c] = s + 1
        remaining -= 1
        if remaining == 0:
            break
    return np.asarray(assignment, dtype=np.int64)


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


def _balanced_lloyd(x, k, rng):
    n = x.shape[0]
    centroids = _kmeans_pp_init(x, k, rng)
    d2 = _squared_distances(x, centroids)
    assignment = _balanced_assign(d2)
    history = [float(d2[np.arange(n), assignment].sum())]
    for _ in range(MAX_ITER - 1):
        new_centroids = _cluster_means(x, assignment, k)
        movement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        d2 = _squared_distances(x, centroids)
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
    centroids = _cluster_means(x, assignment, k)
    sse = recompute_sse(x, assignment, centroids)
    history.append(sse)
    return assignment, centroids, sse, history


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


def _fit(features, k, seed, runner) -> FlatClustering:
    x = features.values.astype(np.float64)
    _check_k(k, x.shape[0])
    best = None
    for r in range(_restart_count(x.shape[0])):
        assignment, centroids, sse, history = runner(x, k, _rng_for(seed, r))
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
