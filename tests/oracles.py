"""Brute-force oracles and reference implementations the tests check bmm against.

The oracles enumerate exhaustively and refuse instances beyond their stated
limits instead of approximating. `reference_fid` is the per-pair Fréchet
distance, written out one pair at a time, that the stacked kernel behind
`bmm.fid` and `bmm.cost_matrix` must reproduce bit for bit, and
`oracle_node_costs` the per-match eigvalsh of the node covariances that
`gap.NodeCosts`, which reads the tree's stored spectra, must equal bit for bit.
`oracle_balanced_assign` is the greedy over one global stable sort of all
(point, cluster) distances that `clustering._balanced_assign` must equal
exactly, `oracle_cluster_means` the row-by-row `np.add.at` sum that
`clustering._cluster_means` must reproduce bit for bit, and
`oracle_kmeans_pp` the k-means++ loop over row-major rows with
`Generator.choice` whose picks and bits `clustering._kmeans_pp_init` must
reproduce.
`oracle_squared_distances` is the one-expression distance kernel that the
buffered one in `clustering` must reproduce bit for bit, and
`oracle_build_hierarchy` the merge loop over a full pairwise distance
matrix, one scalar linkage value at a time, that `bmm.build_hierarchy` must
equal node for node; it pools each merged node's moments as it merges, with
`oracle_pooled`, whose covariances the level-batched pool in `bmm.hierarchy`
must equal bit for bit. `oracle_assignment` is the exhaustive assignment over
exact integer totals whose answer `bmm.solve_assignment` must return on
every input, near ties included, and `oracle_direct_match_no_duplicates`
the greedy direct match that leaves a target unmatched when an earlier
target already claimed its nearest node. `oracle_bench` is the bench sweep
on each J's full cost matrix, whose fid and precision columns the bounded
`bmm.run_bench` must equal bit for bit, and `oracle_generate` the
planted-world sampler that draws whole-super target rows one row at a time,
which `bmm.generate` must reproduce bit for bit. `oracle_string_block`,
`oracle_read_manifest` and `oracle_write_manifest` are the
one-string-at-a-time readers and writer that the bulk ones in `bmm.features`
must equal, outputs and error messages alike.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from bmm import (
    Assignment, FeatureMatrix, FormatError, Manifest, ModeStats, ModeTree, ParameterError,
    ValidationError, WorldTruth, align_truth, build_server_tree, cost_matrix, direct_match, fid,
    generate, matching_precision, solve_assignment,
)
from bmm.gap import DEFAULT_EPS, gaussian_stats
from bmm.hierarchy import LINKAGES, validate_tree
from bmm.matching import selection_from_matches
from bmm.pipeline import BENCH_VARIANTS, target_mode_stats

ORACLE_ASSIGN_MAX_TARGETS = 7
ORACLE_ASSIGN_MAX_NODES = 10
ORACLE_PARTITION_MAX_N = 8
ORACLE_PARTITION_MAX_K = 3


def _ridged(cov: np.ndarray, eps: float) -> np.ndarray:
    if float(np.linalg.eigvalsh(cov).min()) < eps:
        return cov + eps * np.eye(cov.shape[0])
    return cov


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return (root + root.T) / 2.0


def reference_fid(a: ModeStats, b: ModeStats, eps: float = DEFAULT_EPS) -> float:
    """Fréchet distance of one pair of Gaussian modes; clamped to be >= 0."""
    cov_a = _ridged(a.cov, eps)
    cov_b = _ridged(b.cov, eps)
    delta = a.mean - b.mean
    root_a = _psd_sqrt(cov_a)
    inner = root_a @ cov_b @ root_a
    cross = np.linalg.eigvalsh((inner + inner.T) / 2.0)
    value = float(
        delta @ delta
        + np.trace(cov_a)
        + np.trace(cov_b)
        - 2.0 * np.sqrt(np.clip(cross, 0.0, None)).sum()
    )
    return max(value, 0.0)


def oracle_node_costs(covs: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ridged covariances, traces, ridged eigenvalues) of a stack of node
    covariances from one stacked eigvalsh of them, as every match computed
    them before trees stored their spectra."""
    eigs = np.linalg.eigvalsh(covs)
    low = eigs.min(axis=-1) < eps
    ridged = np.where(low[..., None, None], covs + eps * np.eye(covs.shape[-1]), covs)
    return ridged, np.trace(ridged, axis1=1, axis2=2), eigs + np.where(low, eps, 0.0)[..., None]


def reference_cost_matrix(tree: ModeTree, targets, eps: float = DEFAULT_EPS) -> np.ndarray:
    """L x H matrix of reference_fid(target y, node x), filled one pair at a time."""
    nodes = [tree.node(x).stats for x in range(tree.node_count)]
    return np.array([[reference_fid(t, node, eps) for node in nodes] for t in targets])


def oracle_assignment(cost: np.ndarray) -> Assignment:
    """Exhaustive minimum of the exact totals over all injective maps;
    lexicographically first on ties. Each float64 entry is an integer ratio
    whose denominator is a power of two, so scaled to the matrix's largest
    denominator every entry, and every total, is an exact Python int. The
    total_cost is the float sum of that map in target order."""
    cost = np.asarray(cost, dtype=np.float64)
    n_rows, n_cols = cost.shape
    if n_rows > ORACLE_ASSIGN_MAX_TARGETS or n_cols > ORACLE_ASSIGN_MAX_NODES:
        raise ParameterError(
            f"oracle refuses {n_rows}x{n_cols}; limits are "
            f"{ORACLE_ASSIGN_MAX_TARGETS}x{ORACLE_ASSIGN_MAX_NODES}"
        )
    if n_rows > n_cols:
        raise ParameterError(f"need at least as many nodes as targets, got {n_rows}x{n_cols}")
    ratios = [[x.as_integer_ratio() for x in row] for row in cost.tolist()]
    scale = max(den for row in ratios for _, den in row)
    rows = [[num * (scale // den) for num, den in row] for row in ratios]
    best_sigma = None
    best_total = None
    for perm in itertools.permutations(range(n_cols), n_rows):
        total = sum(map(list.__getitem__, rows, perm))
        if best_total is None or total < best_total:
            best_total = total
            best_sigma = perm
    float_total = 0.0
    for i, j in enumerate(best_sigma):
        float_total += float(cost[i, j])
    return Assignment(sigma=list(best_sigma), total_cost=float_total)


def oracle_direct_match_no_duplicates(cost: np.ndarray) -> list[int | None]:
    """Each target takes its nearest node unless an earlier target claimed it;
    repeat claims are dropped and those targets stay unmatched (None)."""
    nearest = np.asarray(cost, dtype=np.float64).argmin(axis=1)
    matches: list[int | None] = []
    claimed: set[int] = set()
    for j in nearest:
        j = int(j)
        if j in claimed:
            matches.append(None)
            continue
        claimed.add(j)
        matches.append(j)
    return matches


def oracle_bench(
    world, leaves_sweep, target_clusters: int, seed: int = 0, eps: float = DEFAULT_EPS,
    linkage: str = "centroid",
) -> list[dict]:
    """The bench rows without `runtime`, every variant of a J read from one
    full all-node cost matrix: bmm_flat solves its first J (leaf) columns,
    bmm_hier all of them, and dm_dup takes its direct match."""
    server, target, truth = generate(world)
    clustering, stats = target_mode_stats(target, target_clusters, seed)
    aligned = align_truth(truth, clustering)
    whole_target = gaussian_stats(target, np.arange(target.n))
    rows = []
    for leaves in leaves_sweep:
        tree = build_server_tree(server, leaves, seed, linkage)
        full = cost_matrix(tree, stats, eps=eps)
        for variant in BENCH_VARIANTS:
            cost = full[:, : tree.leaf_count] if variant == "bmm_flat" else full
            if variant == "dm_dup":
                matches = direct_match(cost)
            else:
                matches = solve_assignment(cost).sigma
            selection = selection_from_matches(tree, matches, cost)
            selected = gaussian_stats(server, selection.sample_rows)
            rows.append({
                "variant": variant,
                "J": leaves,
                "L": target_clusters,
                "fid": fid(selected, whole_target, eps=eps),
                "precision": matching_precision(selection, aligned, tree),
            })
    return rows


def oracle_balanced_partition(features: FeatureMatrix, k: int) -> float:
    """Exact minimum SSE over all size-balanced k-partitions of the rows."""
    n = features.n
    if n > ORACLE_PARTITION_MAX_N or k > ORACLE_PARTITION_MAX_K:
        raise ParameterError(
            f"oracle refuses n={n}, k={k}; limits are n<={ORACLE_PARTITION_MAX_N}, "
            f"k<={ORACLE_PARTITION_MAX_K}"
        )
    if k < 1 or k > n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    x = features.values.astype(np.float64)
    base, extras = divmod(n, k)
    allowed = {base, base + 1} if extras else {base}
    best = None
    for labels in itertools.product(range(k), repeat=n):
        counts = [0] * k
        for lab in labels:
            counts[lab] += 1
        if any(c not in allowed for c in counts):
            continue
        if extras and sum(c == base + 1 for c in counts) != extras:
            continue
        sse = 0.0
        arr = np.asarray(labels)
        for c in range(k):
            rows = x[arr == c]
            centered = rows - rows.mean(axis=0)
            sse += float((centered * centered).sum())
        if best is None or sse < best:
            best = sse
    return best


def oracle_balanced_assign(d2: np.ndarray) -> np.ndarray:
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


def oracle_kmeans_pp(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds, one pick at a time: each pick's squared distances as
    row sums of the broadcast difference, the next pick drawn with
    Generator.choice(n, p=...), or the lowest unchosen row when no mass is left."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]), dtype=np.float64)
    chosen = np.zeros(n, dtype=bool)
    first = int(rng.integers(n))
    centroids[0] = x[first]
    chosen[first] = True
    closest = ((x - x[first]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = float(closest.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=closest / total))
        else:
            idx = int(np.flatnonzero(~chosen)[0])
        centroids[i] = x[idx]
        chosen[idx] = True
        np.minimum(closest, ((x - x[idx]) ** 2).sum(axis=1), out=closest)
    return centroids


def oracle_cluster_means(x: np.ndarray, assignment: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster means of the rows, summed row by row with np.add.at."""
    sums = np.zeros((k, x.shape[1]), dtype=np.float64)
    np.add.at(sums, assignment, x)
    counts = np.bincount(assignment, minlength=k).astype(np.float64)
    return sums / counts[:, None]


def oracle_squared_distances(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """n x k squared distances from the rows of x to the centroids, in one expression."""
    d2 = (
        (x * x).sum(axis=1)[:, None]
        + (centroids * centroids).sum(axis=1)[None, :]
        - 2.0 * (x @ centroids.T)
    )
    np.clip(d2, 0.0, None, out=d2)
    return d2


def _linkage_value(linkage: str, count_a, mean_a, count_b, mean_b) -> float:
    gap = mean_a - mean_b
    if linkage == "centroid":
        return float(np.sqrt(gap @ gap))
    # ward: SSE increase caused by the merge
    return float(count_a * count_b / (count_a + count_b) * (gap @ gap))


def oracle_pooled(
    counts: np.ndarray, means: np.ndarray, covs: np.ndarray, a: int, b: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """Exact (count, mean, covariance) of the union of the disjoint rows of
    nodes a and b from their own moments (Chan, Golub & LeVeque 1979), one
    merge at a time in Python integers; `hierarchy._pooled_covs` must give
    these covariances bit for bit."""
    count_a, count_b = int(counts[a]), int(counts[b])
    n = count_a + count_b
    delta = means[b] - means[a]
    mean = means[a] + delta * (count_b / n)
    scatter = (count_a - 1) * covs[a] + (count_b - 1) * covs[b]
    cov = (scatter + np.outer(delta, delta) * (count_a * count_b / n)) / (n - 1)
    return n, mean, cov


def oracle_build_hierarchy(leaves, features: FeatureMatrix, linkage: str = "centroid") -> ModeTree:
    """The merge loop over a full (2J-1)^2 distance matrix: every step copies
    the active block and takes its row-major first minimum."""
    if linkage not in LINKAGES:
        raise ParameterError(f"unknown linkage {linkage!r}, expected one of {LINKAGES}")
    j = leaves.k
    total = 2 * j - 1

    children = np.full((total, 2), -1, dtype=np.int64)
    counts = np.zeros(total, dtype=np.int64)
    means = np.zeros((total, features.d))
    covs = np.zeros((total, features.d, features.d))
    for c in range(j):
        rows = leaves.cluster_rows(c)
        if rows.size == 0:
            raise ValidationError(f"leaf cluster {c} is empty")
        stats = gaussian_stats(features, rows)
        counts[c], means[c], covs[c] = stats.count, stats.mean, stats.cov

    dist = np.full((total, total), np.inf, dtype=np.float64)
    active = np.zeros(total, dtype=bool)
    active[:j] = True
    for a in range(j):
        for b in range(a + 1, j):
            dist[a, b] = _linkage_value(linkage, counts[a], means[a], counts[b], means[b])

    for new_id in range(j, total):
        ids = np.flatnonzero(active)
        block = dist[np.ix_(ids, ids)]
        flat = int(block.argmin())  # row-major first minimum = lowest (a, b) pair
        a = int(ids[flat // ids.size])
        b = int(ids[flat % ids.size])
        children[new_id] = a, b
        counts[new_id], means[new_id], covs[new_id] = oracle_pooled(counts, means, covs, a, b)
        active[a] = False
        active[b] = False
        for other in np.flatnonzero(active):
            value = _linkage_value(
                linkage, counts[new_id], means[new_id], counts[other], means[other]
            )
            dist[min(other, new_id), max(other, new_id)] = value
        active[new_id] = True

    tree = ModeTree(
        children, counts, means, covs, np.linalg.eigvalsh(covs), leaves.assignment,
        linkage, 0, features.sha256,
    )
    validate_tree(tree)
    return tree


def oracle_generate(world) -> tuple[FeatureMatrix, FeatureMatrix, WorldTruth]:
    """(server, target, truth) of a planted world, whole-super target rows drawn one at a time."""
    rng = np.random.default_rng(world.seed % 2**63)
    d = world.dimension

    server_rows, server_ids, server_labels = [], [], []
    server_super, server_sub = [], []
    for s, sup in enumerate(world.supers):
        center = np.asarray(sup.center, dtype=np.float64)
        for b, sub in enumerate(sup.subs):
            mean = center + np.asarray(sub.offset, dtype=np.float64)
            rows = mean + rng.normal(size=(sub.count, d)) * sub.scale
            server_rows.append(rows)
            server_ids.extend(f"s{s}.{b}.{i:05d}" for i in range(sub.count))
            server_labels.extend([f"src-{s}"] * sub.count)
            server_super.extend([s] * sub.count)
            server_sub.extend([b] * sub.count)

    target_rows, target_ids = [], []
    target_row_mode, planted_pairs = [], []
    for m, tm in enumerate(world.targets):
        sup = world.supers[tm.super_idx]
        center = np.asarray(sup.center, dtype=np.float64)
        shift = (
            np.zeros(d) if tm.mean_shift is None else np.asarray(tm.mean_shift, dtype=np.float64)
        )
        if tm.sub_idx is None:
            weights = np.array([sub.count for sub in sup.subs], dtype=np.float64)
            picks = rng.choice(len(sup.subs), size=tm.count, p=weights / weights.sum())
            rows = np.empty((tm.count, d))
            for i, b in enumerate(picks):
                sub = sup.subs[int(b)]
                mean = center + np.asarray(sub.offset, dtype=np.float64) + shift
                rows[i] = mean + rng.normal(size=d) * (sub.scale * tm.scale_multiplier)
        else:
            sub = sup.subs[tm.sub_idx]
            mean = center + np.asarray(sub.offset, dtype=np.float64) + shift
            rows = mean + rng.normal(size=(tm.count, d)) * (sub.scale * tm.scale_multiplier)
        target_rows.append(rows)
        target_ids.extend(f"t{m}.{i:05d}" for i in range(tm.count))
        target_row_mode.extend([m] * tm.count)
        planted_pairs.append((tm.super_idx, tm.sub_idx))

    server = FeatureMatrix(
        values=np.concatenate(server_rows).astype(np.float32),
        sample_ids=server_ids,
        dataset_labels=server_labels,
    )
    target = FeatureMatrix(
        values=np.concatenate(target_rows).astype(np.float32),
        sample_ids=target_ids,
        dataset_labels=["target"] * len(target_ids),
    )
    truth = WorldTruth(
        server_super=np.asarray(server_super, dtype=np.int64),
        server_sub=np.asarray(server_sub, dtype=np.int64),
        target_row_mode=np.asarray(target_row_mode, dtype=np.int64),
        planted_pairs=planted_pairs,
        target_pairs=list(planted_pairs),
    )
    return server, target, truth


def oracle_string_block(data: bytes, offset: int, n: int, what: str) -> tuple[list[str], int]:
    """n length-prefixed UTF-8 strings from `offset`, one decode per string."""
    out = []
    size = len(data)
    for i in range(n):
        start = offset + 4
        if start > size:
            raise FormatError(f"truncated file while reading {what} length {i}")
        offset = start + int.from_bytes(data[start - 4:start], "little")
        if offset > size:
            raise FormatError(f"truncated file while reading {what} {i}")
        try:
            out.append(data[start:offset].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"{what} {i} is not valid UTF-8: {exc}") from exc
    return out, offset


def _text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, newlines translated as text mode reads them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: file is not valid UTF-8: {exc}") from exc


def oracle_read_manifest(path) -> Manifest:
    """Read a manifest line by line; duplicate sample ids keep their first occurrence."""
    metadata: dict[str, str] = {}
    labels: dict[str, str] = {}  # sample_id -> label of its first occurrence, in file order
    for lineno, raw in enumerate(_text_lines(path), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:]
            if body.startswith(" "):
                body = body[1:]
            if "=" not in body:
                raise FormatError(f"{path}:{lineno}: metadata line without '=': {line!r}")
            key, value = body.split("=", 1)
            metadata[key] = value
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected 'sample_id,dataset_label'")
        labels.setdefault(parts[0], parts[1])
    return Manifest(entries=list(labels.items()), metadata=metadata)


def _csv_safe(text: str, what: str) -> str:
    if "," in text or "\n" in text or "\r" in text:
        raise ValidationError(f"{what} {text!r} may not contain commas or newlines")
    return text


def oracle_write_manifest(m: Manifest, path) -> None:
    """Write a manifest one checked line at a time."""
    lines = []
    for key in sorted(m.metadata):
        value = m.metadata[key]
        if "=" in key or any(c in key + value for c in "\n\r"):
            raise ValidationError(f"metadata key {key!r} or its value is not representable")
        lines.append(f"# {key}={m.metadata[key]}")
    for sid, label in m.entries:
        lines.append(f"{_csv_safe(sid, 'sample_id')},{_csv_safe(label, 'dataset_label')}")
    try:
        Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write manifest {path}: {exc}") from exc
