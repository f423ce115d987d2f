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

import json
from dataclasses import dataclass, field
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

    def validate(self) -> None:
        if self.dimension < 1:
            raise ParameterError(f"dimension must be >= 1, got {self.dimension}")
        if not self.supers or not self.targets:
            raise ParameterError("a world needs at least one super mode and one target mode")
        max_scale = 0.0
        for s, sup in enumerate(self.supers):
            if np.asarray(sup.center).size != self.dimension:
                raise ValidationError(f"super {s} center has the wrong dimension")
            if not sup.subs:
                raise ValidationError(f"super {s} has no sub modes")
            for b, sub in enumerate(sup.subs):
                if np.asarray(sub.offset).size != self.dimension:
                    raise ValidationError(f"sub mode ({s},{b}) offset has the wrong dimension")
                if sub.scale <= 0:
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
            if tm.mean_shift is not None and np.asarray(tm.mean_shift).size != self.dimension:
                raise ValidationError(f"target mode {m} mean shift has the wrong dimension")
            if tm.count < 2:
                raise ParameterError(f"target mode {m} needs count >= 2, got {tm.count}")
            if tm.scale_multiplier <= 0:
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
    return WorldTruth(
        server_super=truth.server_super,
        server_sub=truth.server_sub,
        target_row_mode=truth.target_row_mode,
        planted_pairs=truth.planted_pairs,
        target_pairs=pairs,
    )


def matching_precision(result: SelectionResult, truth: WorldTruth, tree: ModeTree) -> float:
    """Fraction of target modes whose matched node is dominated by the right origin.

    A match counts when more than half of the node's member rows were
    generated from the target's planted (super, sub) pair or from any
    coarser/finer grouping of it in the planted hierarchy; unmatched targets
    count as misses.
    """
    if len(truth.target_pairs) != len(result.per_target):
        raise ValidationError(
            f"truth covers {len(truth.target_pairs)} target modes, result has "
            f"{len(result.per_target)}"
        )
    correct = 0
    for (s, _b), hit in zip(truth.target_pairs, result.per_target.values()):
        if hit is None:
            continue
        members = tree.members(hit[0])
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


def _world_from_payload(payload) -> PlantedWorld:
    """The world a parsed config describes; a malformed one raises a builtin error."""
    supers = [
        SuperMode(
            center=np.asarray(rec["center"], dtype=np.float64),
            subs=[
                SubMode(
                    offset=np.asarray(sub["offset"], dtype=np.float64),
                    scale=float(sub["scale"]),
                    count=int(sub["count"]),
                )
                for sub in rec["sub_modes"]
            ],
        )
        for rec in payload["super_modes"]
    ]
    targets = [
        TargetMode(
            super_idx=int(rec["super"]),
            sub_idx=None if rec.get("sub") is None else int(rec["sub"]),
            count=int(rec["count"]),
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
        dimension=int(payload["dimension"]),
        supers=supers,
        targets=targets,
        seed=int(payload.get("seed", 0)),
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
    """Well-separated random directions scaled to a radius.

    When count <= d the directions are orthonormalized, pinning pairwise
    distances to radius * sqrt(2); otherwise they are only normalized.
    """
    centers = rng.normal(size=(count, d))
    if count <= d:
        q, _ = np.linalg.qr(centers.T)
        return q.T[:count] * radius
    norms = np.sqrt((centers * centers).sum(axis=1, keepdims=True))
    return centers / np.where(norms == 0, 1.0, norms) * radius


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
    rng = np.random.default_rng([seed % 2**63, 101])
    radius = SEPARATION_FACTOR * scale * 4.0
    centers = _spread_centers(rng, n_supers, d, radius)
    supers = []
    for s in range(n_supers):
        offsets = _spread_centers(rng, subs_per_super, d, 6.0 * scale)
        supers.append(
            SuperMode(
                center=centers[s],
                subs=[SubMode(offset=offsets[b], scale=scale, count=per_sub)
                      for b in range(subs_per_super)],
            )
        )
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
    radius = SEPARATION_FACTOR * scale * 4.0
    centers = _spread_centers(rng, n_supers, d, radius)
    supers = []
    for s in range(n_supers):
        offsets = _spread_centers(rng, subs_per_super, d, 6.0 * scale)
        supers.append(
            SuperMode(
                center=centers[s],
                subs=[SubMode(offset=offsets[b], scale=scale, count=per_sub)
                      for b in range(subs_per_super)],
            )
        )
    targets = [
        TargetMode(super_idx=0, sub_idx=None, count=per_target * subs_per_super),
        TargetMode(super_idx=1, sub_idx=None, count=per_target * subs_per_super),
        TargetMode(super_idx=2, sub_idx=0, count=per_target),
        TargetMode(super_idx=2, sub_idx=2, count=per_target),
        TargetMode(super_idx=3, sub_idx=1, count=per_target),
        TargetMode(super_idx=3, sub_idx=3, count=per_target),
    ]
    return PlantedWorld(dimension=d, supers=supers, targets=targets, seed=seed)
