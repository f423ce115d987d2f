"""Gaussian mode statistics and the Fréchet distance used as the domain gap.

The distance between two modes is computed between the Gaussians fitted to
their feature rows:

    ||mu_a - mu_b||^2 + Tr(Cov_a) + Tr(Cov_b) - 2 Tr((Cov_a^1/2 Cov_b Cov_a^1/2)^1/2)

The symmetric reformulation avoids taking the square root of the
non-symmetric product Cov_a Cov_b; negative eigenvalues from rounding are
clamped to zero and near-singular covariances get an eps ridge before use.

One kernel, `_fid_row`, computes every distance, from one mode to a stack of
ridged modes; `fid` and `cost_matrix` both call it, serially (no BMM_THREADS).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    InsufficientSamplesError,
    NumericalError,
    ParameterError,
)

if TYPE_CHECKING:
    from .features import FeatureMatrix
    from .hierarchy import ModeTree

DEFAULT_EPS = 1e-6


@dataclass(eq=False)
class ModeStats:
    """Mean vector, covariance matrix and sample count of one mode."""

    mean: np.ndarray
    cov: np.ndarray
    count: int

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        self.cov = np.asarray(self.cov, dtype=np.float64)
        if self.cov.shape != (self.mean.size, self.mean.size):
            raise ParameterError(
                f"covariance shape {self.cov.shape} does not match mean dimension {self.mean.size}"
            )

    @property
    def d(self) -> int:
        return self.mean.size


def gaussian_stats(features: "FeatureMatrix", rows: Sequence[int] | np.ndarray) -> ModeStats:
    """Fit (mean, unbiased covariance, count) to the selected feature rows."""
    idx = np.asarray(rows, dtype=np.int64).reshape(-1)
    if idx.size < 2:
        raise InsufficientSamplesError(
            f"need at least 2 rows for Gaussian statistics, got {idx.size}"
        )
    x = features.values[idx].astype(np.float64)
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (idx.size - 1)
    cov = (cov + cov.T) / 2.0
    return ModeStats(mean=mean, cov=cov, count=int(idx.size))


def _ridged(cov: np.ndarray, eps: float) -> np.ndarray:
    """Return cov with an eps*I ridge when its smallest eigenvalue is below eps."""
    if float(np.linalg.eigvalsh(cov).min()) < eps:
        return cov + eps * np.eye(cov.shape[0])
    return cov


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return (root + root.T) / 2.0


def _stacked(stats: Sequence[ModeStats], eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ridged covariances, their traces, means) of the modes, stacked along axis 0."""
    if not 0.0 < eps < np.inf:  # NaN fails too
        raise ParameterError(f"eps must be finite and positive, got {eps}")
    covs = np.stack([_ridged(s.cov, eps) for s in stats])
    traces = np.array([np.trace(cov) for cov in covs])
    means = np.stack([s.mean for s in stats])
    return covs, traces, means


def _fid_row(
    a: ModeStats, covs: np.ndarray, traces: np.ndarray, means: np.ndarray, eps: float
) -> np.ndarray:
    """Fréchet distances from mode a to each stacked mode; clamped to be >= 0."""
    if a.d != means.shape[1]:
        raise ParameterError(f"dimension mismatch: {a.d} vs {means.shape[1]}")
    cov_a = _ridged(a.cov, eps)
    try:
        root_a = _psd_sqrt(cov_a)
        inner = root_a @ covs @ root_a
        cross = np.linalg.eigvalsh((inner + inner.transpose(0, 2, 1)) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"covariance square root failed (d={a.d}, count {a.count}): {exc}"
        ) from exc
    gaps = np.array([delta @ delta for delta in a.mean - means])
    row = gaps + np.trace(cov_a) + traces - 2.0 * np.sqrt(np.clip(cross, 0.0, None)).sum(axis=1)
    if not np.isfinite(row).all():
        x = int(np.flatnonzero(~np.isfinite(row))[0])
        raise NumericalError(f"non-finite Fréchet distance to node column {x} (d={a.d})")
    row[row < 0.0] = 0.0
    return row


def fid(a: ModeStats, b: ModeStats, eps: float = DEFAULT_EPS) -> float:
    """Fréchet distance between two Gaussian modes; clamped to be >= 0."""
    return float(_fid_row(a, *_stacked([b], eps), eps)[0])


def thread_limit() -> int:
    """BMM_THREADS, else min(4, nproc). No bmm code path reads it: all runs serially."""
    raw = os.environ.get("BMM_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError as exc:
            raise ParameterError(f"BMM_THREADS must be an integer, got {raw!r}") from exc
    return min(4, os.cpu_count() or 1)


def cost_matrix(
    tree: "ModeTree", target_modes: Sequence[ModeStats], eps: float = DEFAULT_EPS
) -> np.ndarray:
    """L x H matrix of Fréchet distances, entry (y, x) = fid(target y, node x).

    The tree's node covariances are ridged and stacked once per call; each
    target then costs one square root and one stacked eigvalsh.
    """
    if len(target_modes) == 0:
        raise ParameterError("need at least one target mode")
    nodes = _stacked([node.stats for node in tree.nodes], eps)
    rows = []
    for y, t in enumerate(target_modes):
        try:
            rows.append(_fid_row(t, *nodes, eps))
        except NumericalError as exc:
            raise NumericalError(f"target mode {y}: {exc}") from exc
    return np.stack(rows)


def write_cost_matrix_csv(
    path: str | Path,
    cost: np.ndarray,
    target_ids: Sequence[str],
    node_ids: Sequence[int],
) -> None:
    """Dump a cost matrix for inspection: one row per target mode, one column per node."""
    lines = ["target_id," + ",".join(f"node_{nid}" for nid in node_ids)]
    for y, tid in enumerate(target_ids):
        lines.append(f"{tid}," + ",".join(repr(float(v)) for v in cost[y]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
