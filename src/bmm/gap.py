"""Gaussian mode statistics and the Fréchet distance used as the domain gap.

The distance between two modes is computed between the Gaussians fitted to
their feature rows:

    ||mu_a - mu_b||^2 + Tr(Cov_a) + Tr(Cov_b) - 2 Tr((Cov_a^1/2 Cov_b Cov_a^1/2)^1/2)

The symmetric reformulation avoids taking the square root of the
non-symmetric product Cov_a Cov_b; negative eigenvalues from rounding are
clamped to zero and near-singular covariances get an eps ridge before use.

One kernel, `_fid_row`, computes every distance, from one mode to a stack of
ridged modes; `fid`, `cost_matrix` and `NodeCosts` all call it, serially (no
BMM_THREADS). Every stacked operation in it works node by node, so a row over
a subset of node columns is bit-equal to those columns of the full row.

`NodeCosts.lower_bounds` bounds every (target, node) cost from below without
the kernel, from the eigenvalues that decide the ridge. By von Neumann's trace
inequality, Tr((A^1/2 B A^1/2)^1/2) <= sum_i sqrt(a_i b_i) over the
eigenvalues of A and B sorted alike, so

    ||mu_a - mu_b||^2 + sum_i (sqrt(a_i) - sqrt(b_i))^2

is at most the distance; the bound is deflated by a rounding slack so that it
stays below the value the kernel computes in floats.
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

# The kernel's float value can sit below the exact distance by rounding in its
# sums (relative to gap + Tr A + Tr B) and by eigenvalue noise under its square
# roots, up to ~d * sqrt(d * machine eps * lmax_a * lmax_b). The bound is
# deflated by _BOUND_REL times the first plus _BOUND_NOISE times the second;
# in random trials at d = 1..64 (rank-deficient, B = cA, commuting, identical
# modes; eps 1e-14..1) the largest shortfall was half the noise term.
_BOUND_REL = 1e-9
_BOUND_NOISE = 4.0
# Bound inputs at or above this fall back to the full matrix: the kernel's
# covariance product (<= d * lmax_a * lmax_b) or its sums could overflow.
_BOUND_LIMIT = 1e300
# A ridged covariance may have negative eigenvalues down to -_BOUND_NEGATIVE / d
# times its largest (rounding in a rank-deficient covariance); they count as 0.
# The kernel's value then drops by at most their sum, 1e-10 * lmax, a tenth of
# the relative slack. A more negative eigenvalue falls back to the full matrix.
_BOUND_NEGATIVE = 1e-10


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


def _ridged(covs: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(covs, one matrix or a stack, with an eps*I ridge on each matrix whose
    smallest eigenvalue is below eps; the ridged matrices' eigenvalues, ascending)."""
    eigs = np.linalg.eigvalsh(covs)
    low = eigs.min(axis=-1) < eps
    ridged = np.where(low[..., None, None], covs + eps * np.eye(covs.shape[-1]), covs)
    return ridged, eigs + np.where(low, eps, 0.0)[..., None]


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return (root + root.T) / 2.0


def _stacked(covs: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ridged covariances, their traces, their eigenvalues) of a stack of covariances."""
    if not 0.0 < eps < np.inf:  # NaN fails too
        raise ParameterError(f"eps must be finite and positive, got {eps}")
    # a huge eps overflows the traces to inf; `_fid_row` reports the result
    with np.errstate(over="ignore", invalid="ignore"):
        covs, eigs = _ridged(covs, eps)
        traces = np.trace(covs, axis1=1, axis2=2)
    return covs, traces, eigs


def _fid_row(
    a: ModeStats, covs: np.ndarray, traces: np.ndarray, means: np.ndarray, eps: float
) -> np.ndarray:
    """Fréchet distances from mode a to each stacked mode; clamped to be >= 0."""
    if a.d != means.shape[1]:
        raise ParameterError(f"dimension mismatch: {a.d} vs {means.shape[1]}")
    # huge but finite stats overflow to inf or nan here; the check below reports them
    with np.errstate(over="ignore", invalid="ignore"):
        cov_a = _ridged(a.cov, eps)[0]
        try:
            root_a = _psd_sqrt(cov_a)
            inner = root_a @ covs @ root_a
            finite = np.isfinite(inner).all(axis=(1, 2))
            if not finite.all():
                x = int(np.flatnonzero(~finite)[0])
                raise NumericalError(
                    f"covariance product Cov_a^1/2 Cov_b Cov_a^1/2 overflows for node column "
                    f"{x} (d={a.d}): a covariance or the eps ridge is too large"
                )
            cross = np.linalg.eigvalsh((inner + inner.transpose(0, 2, 1)) / 2.0)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"covariance square root failed (d={a.d}, count {a.count}): {exc}"
            ) from exc
        deltas = a.mean - means  # stacked vector.vector products: the bits of delta @ delta
        gaps = (deltas[:, None, :] @ deltas[:, :, None])[:, 0, 0]
        row = (
            gaps + np.trace(cov_a) + traces - 2.0 * np.sqrt(np.clip(cross, 0.0, None)).sum(axis=1)
        )
    if not np.isfinite(row).all():
        x = int(np.flatnonzero(~np.isfinite(row))[0])
        raise NumericalError(f"non-finite Fréchet distance to node column {x} (d={a.d})")
    row[row < 0.0] = 0.0
    return row


def fid(a: ModeStats, b: ModeStats, eps: float = DEFAULT_EPS) -> float:
    """Fréchet distance between two Gaussian modes; clamped to be >= 0."""
    covs, traces, _ = _stacked(b.cov[None], eps)
    return float(_fid_row(a, covs, traces, b.mean[None], eps)[0])


def thread_limit() -> int:
    """BMM_THREADS, else min(4, nproc). No bmm code path reads it: all runs serially."""
    raw = os.environ.get("BMM_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError as exc:
            raise ParameterError(f"BMM_THREADS must be an integer, got {raw!r}") from exc
    return min(4, os.cpu_count() or 1)


class NodeCosts:
    """A tree's ridged node statistics, for Fréchet costs from any target mode.

    The node covariances are ridged together once, by one stacked eigvalsh;
    each exact row then costs one square root and one stacked eigvalsh over
    the columns asked for.
    """

    def __init__(self, tree: "ModeTree", eps: float) -> None:
        self.covs, self.traces, self.eigs = _stacked(tree.covs, eps)
        self.means = tree.means
        self.eps = eps

    def row(self, a: ModeStats, cols: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Fréchet distances from mode a to the node columns `cols`."""
        return _fid_row(a, self.covs[cols], self.traces[cols], self.means[cols], self.eps)

    def lower_bounds(self, modes: Sequence[ModeStats]) -> np.ndarray | None:
        """L x H lower bounds on the values `row` computes: the deflated von
        Neumann bound, clamped at 0.

        None when the bound is not shown to hold: a dimension mismatch, a
        non-finite or asymmetric covariance, a ridged covariance that is not
        PSD up to rounding, or inputs so large that the kernel could overflow.
        The full matrix then reports any error.
        """
        d = self.means.shape[1]
        if not modes or any(m.d != d for m in modes):
            return None
        covs = np.stack([m.cov for m in modes])
        if not (np.array_equal(covs, covs.transpose(0, 2, 1))
                and np.array_equal(self.covs, self.covs.transpose(0, 2, 1))):
            return None  # the kernel uses (B + B^T) / 2; eigvalsh reads one triangle
        means = np.stack([m.mean for m in modes])
        with np.errstate(over="ignore", invalid="ignore"):
            eigs_a, eigs_b = _ridged(covs, self.eps)[1], self.eigs
            # NaN fails every comparison, so it falls back too
            if not all((e.min(axis=1) >= -_BOUND_NEGATIVE / d * e.max(axis=1)).all()
                       for e in (eigs_a, eigs_b)):
                return None
            eigs_a, eigs_b = np.clip(eigs_a, 0.0, None), np.clip(eigs_b, 0.0, None)
            gap = ((means[:, None, :] - self.means) ** 2).sum(axis=2)
            spread = ((np.sqrt(eigs_a)[:, None, :] - np.sqrt(eigs_b)) ** 2).sum(axis=2)
            scale = gap + eigs_a.sum(axis=1)[:, None] + eigs_b.sum(axis=1)
            top = eigs_a.max(axis=1)[:, None] * eigs_b.max(axis=1)
            if not (scale.max() < _BOUND_LIMIT and d * top.max() < _BOUND_LIMIT):
                return None
        noise = d * np.sqrt(d * np.finfo(np.float64).eps * top)
        slack = _BOUND_REL * scale + _BOUND_NOISE * noise
        return np.maximum(gap + spread - slack, 0.0)


def cost_matrix(
    tree: "ModeTree", target_modes: Sequence[ModeStats], eps: float = DEFAULT_EPS
) -> np.ndarray:
    """L x H matrix of Fréchet distances, entry (y, x) = fid(target y, node x)."""
    if len(target_modes) == 0:
        raise ParameterError("need at least one target mode")
    nodes = NodeCosts(tree, eps)
    rows = []
    for y, t in enumerate(target_modes):
        try:
            rows.append(nodes.row(t))
        except NumericalError as exc:
            raise NumericalError(f"target mode {y}: {exc}") from exc
    return np.stack(rows)


def write_cost_matrix_csv(path: str | Path, cost: np.ndarray) -> None:
    """Dump a cost matrix for inspection: rows mode-0..mode-{L-1}, columns node_0..node_{H-1}."""
    lines = ["target_id," + ",".join(f"node_{j}" for j in range(cost.shape[1]))]
    for y, row in enumerate(cost):
        lines.append(f"mode-{y}," + ",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
