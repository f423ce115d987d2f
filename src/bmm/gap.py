"""Gaussian mode statistics and the Fréchet distance used as the domain gap.

The distance between two modes is computed between the Gaussians that the
one fit, `_moments`, gives their feature rows (`gaussian_stats` fits a
selection, `group_moments` k labelled groups, each bit-equal to it):

    ||mu_a - mu_b||^2 + Tr(Cov_a) + Tr(Cov_b) - 2 Tr((Cov_a^1/2 Cov_b Cov_a^1/2)^1/2)

The symmetric reformulation avoids taking the square root of the
non-symmetric product Cov_a Cov_b; negative eigenvalues from rounding are
clamped to zero and near-singular covariances get an EPS ridge before use.

One kernel, `_fid_row`, computes every distance, from one mode to a stack of
ridged modes; `fid` and `cost_matrix`, which computes a match's exact costs,
call it, serially. Its bytes are checked against the BLAS thread count only
at small widths: `test_cost_matrix_thread_invariance` finds them the same
with OPENBLAS_NUM_THREADS=1 as at the default for d <= 33, and `ci/check.sh`
and acceptance check c10 find the pipeline's outputs the same at d=16. At
d=300 the pipeline's outputs differ between 1 and 2 threads (ROADMAP item
1). Every stacked operation in the kernel works node by node, so a row over
a subset of node columns is bit-equal to those columns of the full row.

A tree stores each node covariance's eigenvalues (`ModeTree.spectra`, from
the build's stacked eigvalsh), so `NodeCosts` ridges the nodes from them and
runs no eigvalsh of its own; only target covariances are decomposed per match.

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

# The covariance ridge: a numerical guard for near-singular covariances.
EPS = 1e-6

# The kernel's float value can sit below the exact distance by rounding in its
# sums (relative to gap + Tr A + Tr B) and by eigenvalue noise under its square
# roots, up to ~d * sqrt(d * machine eps * lmax_a * lmax_b). The bound is
# deflated by _BOUND_REL times the first plus _BOUND_NOISE times the second;
# in random trials at d = 1..64 (rank-deficient, B = cA, commuting, identical
# modes; a ridge of 1e-14..1 times the covariances' scale) the largest
# shortfall was half the noise term.
_BOUND_REL = 1e-9
_BOUND_NOISE = 4.0
# Bound inputs at or above this give no bound, so every cost is computed exactly:
# the kernel's covariance product (<= d * lmax_a * lmax_b) or its sums could overflow.
_BOUND_LIMIT = 1e300
# A ridged covariance may have negative eigenvalues down to -_BOUND_NEGATIVE / d
# times its largest (rounding in a rank-deficient covariance); they count as 0.
# The kernel's value then drops by at most their sum, 1e-10 * lmax, a tenth of
# the relative slack. With a more negative eigenvalue every cost is computed exactly.
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


def _moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and unbiased, exactly symmetric covariance of the rows of x: one
    (m, d) set, or each set of a (k, m, d) stack with the bits it gets alone."""
    mean = x.mean(axis=-2)
    centered = x - mean[..., None, :]
    cov = centered.swapaxes(-1, -2) @ centered / (x.shape[-2] - 1)
    return mean, (cov + cov.swapaxes(-1, -2)) / 2.0


def gaussian_stats(features: "FeatureMatrix", rows: Sequence[int] | np.ndarray) -> ModeStats:
    """Fit (mean, unbiased covariance, count) to the selected feature rows."""
    idx = np.asarray(rows, dtype=np.int64).reshape(-1)
    if idx.size < 2:
        raise InsufficientSamplesError(
            f"need at least 2 rows for Gaussian statistics, got {idx.size}"
        )
    mean, cov = _moments(features.values[idx].astype(np.float64))
    return ModeStats(mean=mean, cov=cov, count=int(idx.size))


def group_moments(values: np.ndarray, labels: np.ndarray,
                  counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, d) means and (k, d, d) covariances of the k groups of rows that
    `labels` names, counts[g] >= 2 rows in group g. One stacked `_moments` step
    per group size keeps the bits of `gaussian_stats` over a group's ascending
    rows: `mean(axis=-2)` adds them in its order, and each group's product is one BLAS call."""
    k, d = len(counts), values.shape[1]
    means, covs = np.empty((k, d)), np.empty((k, d, d))
    order = np.argsort(labels, kind="stable")
    starts = np.cumsum(counts) - counts
    for size in np.unique(counts).tolist():
        groups = np.flatnonzero(counts == size)
        rows = values[order[starts[groups, None] + np.arange(size)]]
        means[groups], covs[groups] = _moments(rows.astype(np.float64))
    return means, covs


def _ridge(eigs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one ridge rule: which matrices get an EPS*I ridge, those whose
    smallest eigenvalue in `eigs` (ascending, one row per matrix) is below
    EPS, and every matrix's eigenvalues after it."""
    low = eigs.min(axis=-1) < EPS
    return low, eigs + np.where(low, EPS, 0.0)[..., None]


def _ridged(covs: np.ndarray, eigs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(covs, one matrix or a stack, ridged by `_ridge` from eigs =
    eigvalsh(covs); their traces; their eigenvalues, ascending)."""
    low, ridged_eigs = _ridge(eigs)
    # huge covariances overflow the traces to inf; `_fid_row` reports the result
    with np.errstate(over="ignore", invalid="ignore"):
        ridged = np.where(low[..., None, None], covs + EPS * np.eye(covs.shape[-1]), covs)
        traces = np.trace(ridged, axis1=-2, axis2=-1)
    return ridged, traces, ridged_eigs


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return (root + root.T) / 2.0


def _at(columns: np.ndarray | None, ok: np.ndarray) -> str:
    """' for node column x', x the first of `columns` not `ok`; '' without columns (fid)."""
    return "" if columns is None else f" for node column {columns[np.flatnonzero(~ok)[0]]}"


def _fid_row(a: ModeStats, covs: np.ndarray, traces: np.ndarray, means: np.ndarray,
             columns: np.ndarray | None = None) -> np.ndarray:
    """Fréchet distances from mode a to each stacked mode; clamped to be >= 0."""
    if a.d != means.shape[1]:
        raise ParameterError(f"dimension mismatch: {a.d} vs {means.shape[1]}")
    # huge but finite stats overflow to inf or nan here; the check below reports them
    with np.errstate(over="ignore", invalid="ignore"):
        cov_a, trace_a, _ = _ridged(a.cov, np.linalg.eigvalsh(a.cov))
        try:
            root_a = _psd_sqrt(cov_a)
            inner = root_a @ covs @ root_a
            finite = np.isfinite(inner).all(axis=(1, 2))
            if not finite.all():
                raise NumericalError(
                    f"covariance product Cov_a^1/2 Cov_b Cov_a^1/2 overflows{_at(columns, finite)}"
                    f" (d={a.d}): a covariance is too large"
                )
            cross = np.linalg.eigvalsh((inner + inner.transpose(0, 2, 1)) / 2.0)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"covariance square root failed (d={a.d}, count {a.count}): {exc}"
            ) from exc
        deltas = a.mean - means  # stacked vector.vector products: the bits of delta @ delta
        gaps = (deltas[:, None, :] @ deltas[:, :, None])[:, 0, 0]
        row = (
            gaps + trace_a + traces - 2.0 * np.sqrt(np.clip(cross, 0.0, None)).sum(axis=1)
        )
    finite = np.isfinite(row)
    if not finite.all():
        raise NumericalError(f"non-finite Fréchet distance{_at(columns, finite)} (d={a.d})")
    row[row < 0.0] = 0.0
    return row


def fid(a: ModeStats, b: ModeStats) -> float:
    """Fréchet distance between two Gaussian modes; clamped to be >= 0."""
    covs, traces, _ = _ridged(b.cov[None], np.linalg.eigvalsh(b.cov[None]))
    return float(_fid_row(a, covs, traces, b.mean[None])[0])


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

    The ridge decisions, the ridged eigenvalues and the traces come from the
    spectra the tree stores, so building one runs no eigvalsh; each exact row
    of `cost_matrix` then costs one square root and one stacked eigvalsh over
    the columns asked for.
    """

    def __init__(self, tree: "ModeTree") -> None:
        self.covs, self.traces, self.eigs = _ridged(tree.covs, tree.spectra)
        self.means = tree.means

    def lower_bounds(self, modes: Sequence[ModeStats]) -> np.ndarray | None:
        """L x H lower bounds on the values `cost_matrix` computes: the
        deflated von Neumann bound, clamped at 0.

        None when the bound is not shown to hold: a dimension mismatch, a
        non-finite or asymmetric target covariance (tree covariances are
        symmetric), a ridged covariance that is not PSD up to rounding, or
        inputs so large that the kernel could overflow. Every cost is then
        computed exactly, and `cost_matrix` reports any error.
        """
        d = self.means.shape[1]
        if not modes or any(m.d != d for m in modes):
            return None
        covs = np.stack([m.cov for m in modes])
        if not np.array_equal(covs, covs.transpose(0, 2, 1)):
            return None  # eigvalsh reads one triangle
        means = np.stack([m.mean for m in modes])
        with np.errstate(over="ignore", invalid="ignore"):
            eigs_a, eigs_b = _ridge(np.linalg.eigvalsh(covs))[1], self.eigs
            # NaN fails every comparison, so it gives no bound too
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


def cost_matrix(nodes: NodeCosts, modes: Sequence[ModeStats], todo: np.ndarray) -> np.ndarray:
    """The distances from modes[y] to node x wherever todo[y, x], in row-major order."""
    rows = []
    for y in np.flatnonzero(todo.any(axis=1)):
        x = np.flatnonzero(todo[y])
        try:
            rows.append(_fid_row(modes[y], nodes.covs[x], nodes.traces[x], nodes.means[x], x))
        except NumericalError as exc:
            raise NumericalError(f"target mode {y}: {exc}") from exc
    return np.concatenate([np.empty(0), *rows])
