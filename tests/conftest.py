from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bmm
from bmm import FeatureMatrix, ModeStats, ModeTree, WorldTruth, gaussian_stats
from bmm.clustering import FlatClustering
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


def run_python(*argv: str) -> subprocess.CompletedProcess:
    """`python *argv` run with OPENBLAS_NUM_THREADS=1, which only takes effect
    when set before numpy loads, and with this bmm importable."""
    src = str(Path(bmm.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True)


def one_blas_thread(*argv: str) -> bytes:
    """The stdout of run_python(*argv), which must exit 0."""
    done = run_python(*argv)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def cluster_sizes(clustering: FlatClustering) -> np.ndarray:
    """Row count of each of the k clusters."""
    return np.bincount(clustering.assignment, minlength=clustering.k)


def unmatched(matches: list[int | None]) -> list[int]:
    """Targets whose match was dropped as a duplicate."""
    return [i for i, m in enumerate(matches) if m is None]


def trees_equal(a: ModeTree, b: ModeTree) -> bool:
    """Structural equality: links, leaf labels, bit-exact cached stats and
    spectra, and the same provenance."""
    fields = ("children", "parents", "counts", "means", "covs", "spectra", "leaf_labels")
    return all(
        getattr(a, f).shape == getattr(b, f).shape
        and getattr(a, f).tobytes() == getattr(b, f).tobytes()
        for f in fields
    ) and (a.seed, a.server.sha256) == (b.seed, b.server.sha256)


def planted_modes_and_union(
    target: FeatureMatrix, truth: WorldTruth
) -> tuple[list[ModeStats], np.ndarray]:
    """Each planted target mode's Gaussian stats over its own target rows, and
    the planted union: the sorted server rows of every (super, sub) pair a
    target planted, or of every super a whole-super target planted."""
    stats = [
        gaussian_stats(target, np.flatnonzero(truth.target_row_mode == m))
        for m in range(len(truth.planted_pairs))
    ]
    union = np.zeros(truth.server_super.size, dtype=bool)
    for sup, sub in truth.planted_pairs:
        union |= (truth.server_super == sup) & ((truth.server_sub == sub) | (sub is None))
    return stats, np.flatnonzero(union)


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
