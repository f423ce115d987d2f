from __future__ import annotations

import numpy as np
import pytest

from bmm import FeatureMatrix, ModeTree
from bmm.clustering import FlatClustering
from bmm.matching import DirectMatchResult
from bmm.synth import PlantedWorld, SubMode, SuperMode, TargetMode


def make_features(values, prefix="p", label="set-a") -> FeatureMatrix:
    """FeatureMatrix from an array with generated ids and a constant label."""
    values = np.asarray(values, dtype=np.float32)
    if values.ndim == 1:
        values = values[:, None]
    n = values.shape[0]
    return FeatureMatrix(
        values=values,
        sample_ids=[f"{prefix}{i}" for i in range(n)],
        dataset_labels=[label] * n,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def cluster_sizes(clustering: FlatClustering) -> np.ndarray:
    """Row count of each of the k clusters."""
    return np.bincount(clustering.assignment, minlength=clustering.k)


def unmatched(result: DirectMatchResult) -> list[int]:
    """Targets whose match was dropped as a duplicate."""
    return [i for i, m in enumerate(result.matches) if m is None]


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


def shared_nearest_world(seed: int = 0, d: int = 8, per_mode: int = 200) -> PlantedWorld:
    """Two target modes whose nearest server mode coincides, to provoke duplicates.

    Both are planted from sub (0, 0), so however the target set is clustered,
    two of its modes sit on the same server leaf and greedy matching claims
    it twice.
    """
    axis = np.zeros(d)
    axis[0] = 1.0
    far = np.zeros(d)
    far[1] = 40.0
    supers = [
        SuperMode(
            center=np.zeros(d),
            subs=[
                SubMode(offset=-1.25 * axis, scale=0.4, count=2 * per_mode),
                SubMode(offset=1.25 * axis, scale=0.4, count=2 * per_mode),
            ],
        ),
        SuperMode(center=far, subs=[SubMode(offset=np.zeros(d), scale=0.4, count=2 * per_mode)]),
    ]
    targets = [
        TargetMode(super_idx=0, sub_idx=0, count=per_mode),
        TargetMode(super_idx=0, sub_idx=0, count=per_mode),
        TargetMode(super_idx=1, sub_idx=0, count=per_mode),
    ]
    return PlantedWorld(dimension=d, supers=supers, targets=targets, seed=seed)
