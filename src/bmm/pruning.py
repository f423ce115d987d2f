"""Budgeted subsampling of a searched training set.

Budgets are either a fraction of the rows or an absolute sample count.
`prune` splits the budget across disjoint strata of rows by largest
remainder, proportional to within one sample per stratum, and draws each
non-empty stratum without replacement, in order, from one seeded generator.
A uniform prune is one stratum of every row; a stratified prune passes the
matched nodes' `matching.node_strata`. A pruned result holds only its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .matching import SelectionResult


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


def prune(strata: Sequence[np.ndarray], budget: Budget, seed: int = 0) -> SelectionResult:
    """Subsample the union of disjoint row strata to the budget, in proportion;
    output rows are a sorted subset (the whole union when the budget keeps it)."""
    parts = [stratum for stratum in strata if stratum.size]
    sizes = np.array([part.size for part in parts], dtype=np.int64)
    m = budget.resolve(int(sizes.sum()))
    if m < sizes.sum():
        rng = np.random.default_rng(seed % 2**63)
        alloc = largest_remainder(sizes, m)
        parts = [rng.choice(part, int(take), replace=False) for part, take in zip(parts, alloc)]
    kept = np.sort(np.concatenate([np.empty(0, dtype=np.int64), *parts]))
    return SelectionResult(selected_nodes=[], sample_rows=kept)
