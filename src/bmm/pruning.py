"""Budgeted subsampling of a searched training set.

Budgets are either a fraction of the selection or an absolute sample count.
The uniform strategy draws from all selected rows at once; the stratified
strategy allocates the budget across the matched nodes' strata with
largest-remainder rounding, keeping the composition proportional to within
one sample per stratum. Both are deterministic for a fixed seed. A pruned
selection keeps the input's matched nodes and per-target matches with the
kept rows; its strata are not rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .matching import SelectionResult

STRATEGIES = ("uniform", "stratified")


@dataclass(frozen=True)
class Budget:
    kind: str  # "fraction" or "absolute"
    value: float

    def __post_init__(self) -> None:
        if self.kind == "fraction":
            if not 0.0 < self.value <= 1.0:
                raise ParameterError(f"fraction budget must be in (0, 1], got {self.value}")
        elif self.kind == "absolute":
            if self.value < 1 or self.value != int(self.value):
                raise ParameterError(f"absolute budget must be a positive count, got {self.value}")
        else:
            raise ParameterError(f"unknown budget kind {self.kind!r}")

    def resolve(self, size: int) -> int:
        """Number of samples to keep out of `size`."""
        if self.kind == "absolute":
            m = int(self.value)
            if m > size:
                raise ParameterError(f"absolute budget {m} exceeds selection size {size}")
            return m
        if self.value == 1.0:
            return size
        return min(size, max(1, int(self.value * size + 0.5)))


def largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation of `total` proportional to weights, off by < 1 each."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.sum() <= 0:
        raise ParameterError("allocation weights must have positive sum")
    quotas = total * weights / weights.sum()
    alloc = np.floor(quotas).astype(np.int64)
    order = np.lexsort((np.arange(weights.size), -(quotas - alloc)))
    for i in order[: total - int(alloc.sum())]:
        alloc[i] += 1
    return alloc


def prune(
    selection: SelectionResult, budget: Budget, strategy: str = "uniform", seed: int = 0
) -> SelectionResult:
    """Subsample the selection to the budget; output rows are a sorted subset."""
    if strategy not in STRATEGIES:
        raise ParameterError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    size = int(selection.sample_rows.size)
    m = budget.resolve(size)
    if m == size:
        return selection
    rng = np.random.default_rng(seed % 2**63)
    if strategy == "uniform":
        kept = np.sort(rng.choice(selection.sample_rows, size=m, replace=False))
    else:
        node_order = [nid for nid in selection.selected_nodes if selection.strata[nid].size]
        sizes = np.array([selection.strata[nid].size for nid in node_order], dtype=np.int64)
        alloc = largest_remainder(sizes, m)
        parts = [
            np.sort(rng.choice(selection.strata[nid], size=int(take), replace=False))
            for nid, take in zip(node_order, alloc)
        ]
        kept = np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
    return SelectionResult(
        selected_nodes=list(selection.selected_nodes),
        sample_rows=kept,
        per_target=list(selection.per_target),
    )
