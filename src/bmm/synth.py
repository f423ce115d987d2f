"""Synthetic planted worlds with known ground truth, used to verify the pipeline.

A world plants a two-level mode structure: well-separated super modes, each a
set of isotropic Gaussian sub modes. Server rows sample every sub mode; target
rows sample a chosen subset of modes, optionally a whole super mode at once,
with a small mean shift and covariance scale factor standing in for domain
gap. Generation is fully determined by the world seed.

World definitions round-trip through a JSON config with keys mirroring the
dataclasses below (see load_world / save_world).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .clustering import FlatClustering
from .errors import FormatError, ParameterError, ValidationError
from .features import FeatureMatrix
from .hierarchy import ModeTree
from .matching import SelectionResult

SEPARATION_FACTOR = 8.0


@dataclass
class SubMode:
    offset: np.ndarray
    scale: float
    count: int


@dataclass
class SuperMode:
    center: np.ndarray
    subs: list[SubMode]


@dataclass
class TargetMode:
    """A planted target mode: one sub mode, or a whole super mode when sub is None."""

    super_idx: int
    sub_idx: int | None
    count: int
    mean_shift: np.ndarray | None = None
    scale_multiplier: float = 1.0


@dataclass
class PlantedWorld:
    dimension: int
    supers: list[SuperMode]
    targets: list[TargetMode]
    seed: int = 0

    def _check_vector(self, value, what: str) -> None:
        value = np.asarray(value, dtype=np.float64)
        if value.size != self.dimension:
            raise ValidationError(f"{what} has the wrong dimension")
        if not np.isfinite(value).all():
            raise ValidationError(f"{what} is not finite")

    def validate(self) -> None:
        if self.dimension < 1:
            raise ParameterError(f"dimension must be >= 1, got {self.dimension}")
        if not self.supers or not self.targets:
            raise ParameterError("a world needs at least one super mode and one target mode")
        max_scale = 0.0
        for s, sup in enumerate(self.supers):
            self._check_vector(sup.center, f"super {s} center")
            if not sup.subs:
                raise ValidationError(f"super {s} has no sub modes")
            for b, sub in enumerate(sup.subs):
                self._check_vector(sub.offset, f"sub mode ({s},{b}) offset")
                if not 0 < sub.scale < np.inf:
                    raise ParameterError(f"sub mode ({s},{b}) has degenerate scale {sub.scale}")
                if sub.count < 2:
                    raise ParameterError(f"sub mode ({s},{b}) needs count >= 2, got {sub.count}")
                max_scale = max(max_scale, sub.scale)
        for a in range(len(self.supers)):
            for b in range(a + 1, len(self.supers)):
                gap = np.asarray(self.supers[a].center) - np.asarray(self.supers[b].center)
                separation = float(np.sqrt(gap @ gap))
                if separation < SEPARATION_FACTOR * max_scale:
                    raise ValidationError(
                        f"supers {a} and {b} are {separation:.3g} apart; need >= "
                        f"{SEPARATION_FACTOR:g} x max sub scale ({max_scale:.3g})"
                    )
        for m, tm in enumerate(self.targets):
            if not 0 <= tm.super_idx < len(self.supers):
                raise ValidationError(f"target mode {m} references unknown super {tm.super_idx}")
            subs = self.supers[tm.super_idx].subs
            if tm.sub_idx is not None and not 0 <= tm.sub_idx < len(subs):
                raise ValidationError(f"target mode {m} references unknown sub {tm.sub_idx}")
            if tm.mean_shift is not None:
                self._check_vector(tm.mean_shift, f"target mode {m} mean shift")
            if tm.count < 2:
                raise ParameterError(f"target mode {m} needs count >= 2, got {tm.count}")
            if not 0 < tm.scale_multiplier < np.inf:
                raise ParameterError(f"target mode {m} has degenerate scale multiplier")


@dataclass
class WorldTruth:
    """Planted origins of every generated row plus the per-mode correspondence.

    target_pairs (one (super, sub-or-None) per matched target mode, in match
    order) starts in planted-mode order; after clustering the target set,
    use align_truth to re-derive it per clustered mode by majority vote.
    """

    server_super: np.ndarray
    server_sub: np.ndarray
    target_row_mode: np.ndarray
    planted_pairs: list[tuple[int, int | None]]
    target_pairs: list[tuple[int, int | None]] = field(default_factory=list)


def generate(world: PlantedWorld) -> tuple[FeatureMatrix, FeatureMatrix, WorldTruth]:
    """Sample (server, target, truth) from a planted world, seeded by the world."""
    world.validate()
    try:
        return _sample(world)
    except MemoryError as exc:
        server_rows = sum(sub.count for sup in world.supers for sub in sup.subs)
        target_rows = sum(tm.count for tm in world.targets)
        raise ParameterError(
            f"cannot allocate the world's {server_rows} server and {target_rows} target rows "
            f"of dimension {world.dimension}"
        ) from exc


def _sample(world: PlantedWorld) -> tuple[FeatureMatrix, FeatureMatrix, WorldTruth]:
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
            offsets = np.asarray([sub.offset for sub in sup.subs], dtype=np.float64)
            scales = np.array([sub.scale for sub in sup.subs]) * tm.scale_multiplier
            noise = rng.normal(size=(tm.count, d))
            rows = center + offsets[picks] + shift + noise * scales[picks, None]
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


def align_truth(truth: WorldTruth, clustering: FlatClustering) -> WorldTruth:
    """Re-key the truth to clustered target modes by majority planted origin."""
    pairs = []
    for c in range(clustering.k):
        rows = clustering.cluster_rows(c)
        if rows.size == 0:
            raise ValidationError(f"target cluster {c} is empty")
        modes = truth.target_row_mode[rows]
        counts = np.bincount(modes, minlength=len(truth.planted_pairs))
        pairs.append(truth.planted_pairs[int(counts.argmax())])
    return replace(truth, target_pairs=pairs)


def matching_precision(result: SelectionResult, truth: WorldTruth, tree: ModeTree) -> float:
    """Fraction of target modes whose matched node is dominated by the right super mode.

    A match counts when more than half of the node's member rows were
    generated from the target's planted super mode; which sub modes they
    came from is not checked.
    """
    if len(truth.target_pairs) != len(result.per_target):
        raise ValidationError(
            f"truth covers {len(truth.target_pairs)} target modes, result has "
            f"{len(result.per_target)}"
        )
    correct = 0
    for (s, _b), (node_id, _cost) in zip(truth.target_pairs, result.per_target):
        members = tree.members(node_id)
        share = float((truth.server_super[members] == s).mean())
        if share > 0.5:
            correct += 1
    return correct / len(truth.target_pairs)


def load_world(path: str | Path) -> PlantedWorld:
    """Read a world config (JSON keys: dimension, seed, super_modes, target_modes)."""
    try:
        world = _world_from_payload(json.loads(Path(path).read_text(encoding="utf-8")))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: not a valid world config: {type(exc).__name__}: {exc}") from exc
    world.validate()
    return world


def _integer(value, key: str) -> int:
    """A JSON integer; floats, strings and booleans are refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def _world_from_payload(payload) -> PlantedWorld:
    """The world a parsed config describes; a malformed one raises a builtin error."""
    supers = [
        SuperMode(
            center=np.asarray(rec["center"], dtype=np.float64),
            subs=[
                SubMode(
                    offset=np.asarray(sub["offset"], dtype=np.float64),
                    scale=float(sub["scale"]),
                    count=_integer(sub["count"], "count"),
                )
                for sub in rec["sub_modes"]
            ],
        )
        for rec in payload["super_modes"]
    ]
    targets = [
        TargetMode(
            super_idx=_integer(rec["super"], "super"),
            sub_idx=None if rec.get("sub") is None else _integer(rec["sub"], "sub"),
            count=_integer(rec["count"], "count"),
            mean_shift=(
                None
                if rec.get("mean_shift") is None
                else np.asarray(rec["mean_shift"], dtype=np.float64)
            ),
            scale_multiplier=float(rec.get("scale_multiplier", 1.0)),
        )
        for rec in payload["target_modes"]
    ]
    return PlantedWorld(
        dimension=_integer(payload["dimension"], "dimension"),
        supers=supers,
        targets=targets,
        seed=_integer(payload.get("seed", 0), "seed"),
    )


def save_world(world: PlantedWorld, path: str | Path) -> None:
    payload = {
        "dimension": world.dimension,
        "seed": world.seed,
        "super_modes": [
            {
                "center": [float(v) for v in sup.center],
                "sub_modes": [
                    {
                        "offset": [float(v) for v in sub.offset],
                        "scale": sub.scale,
                        "count": sub.count,
                    }
                    for sub in sup.subs
                ],
            }
            for sup in world.supers
        ],
        "target_modes": [
            {
                "super": tm.super_idx,
                "sub": tm.sub_idx,
                "count": tm.count,
                "mean_shift": (
                    None if tm.mean_shift is None else [float(v) for v in tm.mean_shift]
                ),
                "scale_multiplier": tm.scale_multiplier,
            }
            for tm in world.targets
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _spread_centers(rng: np.random.Generator, count: int, d: int, radius: float) -> np.ndarray:
    """Well-separated random centers at a radius.

    When count <= d they are orthonormalized random directions, pinning
    pairwise distances to radius * sqrt(2). Otherwise they are the first
    count points of a d-dimensional grid of spacing radius, centered and
    randomly rotated, so no two are closer than radius.
    """
    if count <= d:
        q, _ = np.linalg.qr(rng.normal(size=(count, d)).T)
        return q.T[:count] * radius
    side = next(m for m in itertools.count(2) if m**d >= count)
    grid = np.array(list(itertools.islice(itertools.product(range(side), repeat=d), count)))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return (grid - grid.mean(axis=0)) @ q * radius


def _spread_supers(
    rng: np.random.Generator, d: int, n_supers: int, subs_per_super: int, per_sub: int,
    scale: float,
) -> list[SuperMode]:
    """Super modes spread far apart, each with its sub modes spread around it."""
    centers = _spread_centers(rng, n_supers, d, SEPARATION_FACTOR * scale * 4.0)
    return [
        SuperMode(
            center=centers[s],
            subs=[
                SubMode(offset=offset, scale=scale, count=per_sub)
                for offset in _spread_centers(rng, subs_per_super, d, 6.0 * scale)
            ],
        )
        for s in range(n_supers)
    ]


def random_subset_world(
    seed: int,
    d: int = 16,
    n_supers: int = 4,
    subs_per_super: int = 4,
    per_sub: int = 312,
    n_target_modes: int = 3,
    per_target: int = 300,
    include_whole_super: bool = True,
    scale: float = 0.7,
) -> PlantedWorld:
    """A world whose target covers a strict subset of the planted server modes."""
    if not 1 <= n_target_modes <= n_supers * subs_per_super:
        raise ParameterError(
            f"n_target_modes must be in 1..{n_supers * subs_per_super} "
            f"({n_supers} supers x {subs_per_super} subs), got {n_target_modes}"
        )
    rng = np.random.default_rng([seed % 2**63, 101])
    supers = _spread_supers(rng, d, n_supers, subs_per_super, per_sub, scale)
    all_pairs = [(s, b) for s in range(n_supers) for b in range(subs_per_super)]
    picked = rng.choice(len(all_pairs), size=n_target_modes, replace=False)
    targets = []
    for m, pair_idx in enumerate(picked):
        s, b = all_pairs[int(pair_idx)]
        whole = include_whole_super and m == 0
        shift = rng.normal(size=d)
        shift *= 0.4 * scale / np.sqrt(shift @ shift)
        targets.append(
            TargetMode(
                super_idx=s,
                sub_idx=None if whole else b,
                count=per_target * (subs_per_super if whole else 1),
                mean_shift=shift,
                scale_multiplier=float(rng.uniform(0.9, 1.1)),
            )
        )
    return PlantedWorld(dimension=d, supers=supers, targets=targets, seed=seed)


def granularity_probe_world(
    seed: int = 0,
    d: int = 16,
    n_supers: int = 4,
    subs_per_super: int = 4,
    per_sub: int = 200,
    per_target: int = 200,
    scale: float = 0.7,
) -> PlantedWorld:
    """Targets at mixed granularity: whole supers next to single sub modes."""
    rng = np.random.default_rng([seed % 2**63, 202])
    supers = _spread_supers(rng, d, n_supers, subs_per_super, per_sub, scale)
    targets = [
        TargetMode(super_idx=0, sub_idx=None, count=per_target * subs_per_super),
        TargetMode(super_idx=1, sub_idx=None, count=per_target * subs_per_super),
        TargetMode(super_idx=2, sub_idx=0, count=per_target),
        TargetMode(super_idx=2, sub_idx=2, count=per_target),
        TargetMode(super_idx=3, sub_idx=1, count=per_target),
        TargetMode(super_idx=3, sub_idx=3, count=per_target),
    ]
    return PlantedWorld(dimension=d, supers=supers, targets=targets, seed=seed)
