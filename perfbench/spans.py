"""Span recorder for the traced benchmark run.

Tracing happens from the benchmark's side only: `Recorder.install` rebinds
the public functions that `bmm.cli` and `bmm.pipeline` call to timing
wrappers, and puts the originals back on exit. The program's own code path
is unchanged, and nothing inside a wrapped function (such as the per-pair
`fid` calls in `cost_matrix`) is traced.

Every span records its name, layer, start, end, parent span and request id,
plus counts read from the wrapped function's return value. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import bmm.cli
import bmm.pipeline

# Wrapped function -> the src/bmm module (layer) that defines it.
WRAPPED = {
    "read_features": "features",
    "read_manifest": "features",
    "write_manifest": "features",
    "build_server_tree": "pipeline",
    "fit_balanced_kmeans": "clustering",
    "build_hierarchy": "hierarchy",
    "persist_tree": "hierarchy",
    "load_tree": "hierarchy",
    "run_match": "pipeline",
    "target_mode_stats": "pipeline",
    "fit_kmeans": "clustering",
    "cost_matrix": "gap",
    "solve_assignment": "matching",
    "select_training_set": "matching",
    "selection_from_matches": "matching",
    "direct_match": "matching",
    "render_match_report": "matching",
    "match_report_payload": "matching",
    "evaluate_gap": "pipeline",
    "prune": "pruning",
    "run_bench": "pipeline",
}


def _selection_counts(args, result) -> dict:
    tree = args[0]
    matched = sum(tree.node(n).size for n in result.selected_nodes)
    rows = int(result.sample_rows.size)
    return {"rows_selected": rows, "rows_dedup_dropped": matched - rows}


# Counts taken from a wrapped call's arguments and return value.
COUNTERS = {
    "fit_balanced_kmeans": lambda args, r: {"iters": len(r.sse_history)},
    "fit_kmeans": lambda args, r: {"iters": len(r.sse_history)},
    "cost_matrix": lambda args, r: {"pairs": int(r.size)},
    "persist_tree": lambda args, r: {"bytes": os.path.getsize(args[1])},
    "select_training_set": _selection_counts,
    "selection_from_matches": _selection_counts,
    "prune": lambda args, r: {"rows_kept": int(r.sample_rows.size)},
}


@dataclass
class Span:
    name: str
    layer: str
    request: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans for one benchmark process; single-threaded use only."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, layer, self.request, parent, time.perf_counter())
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, func):
        layer = WRAPPED[name]
        counter = COUNTERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name, layer) as record:
                result = func(*args, **kwargs)
            if counter is not None:
                record.counts = counter(args, result)
            return result

        return wrapper

    @contextmanager
    def install(self):
        """Rebind the wrapped names in bmm.cli and bmm.pipeline for the block."""
        saved = []
        wrappers = {}
        for module in (bmm.cli, bmm.pipeline):
            for name in WRAPPED:
                if name in vars(module):
                    func = getattr(module, name)
                    if func not in wrappers:
                        wrappers[func] = self._wrap(name, func)
                    saved.append((module, name, func))
                    setattr(module, name, wrappers[func])
        missing = set(WRAPPED) - {name for _, name, _ in saved}
        if missing:
            raise RuntimeError(f"bmm.cli and bmm.pipeline no longer call {sorted(missing)}")
        try:
            yield self
        finally:
            for module, name, func in saved:
                setattr(module, name, func)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def check_nesting(self) -> list[str]:
        """Children lie inside their parent and do not overlap one another.

        When this holds, each command's child spans plus its self time add
        up to the command's own span.
        """
        problems = []
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.end < s.start:
                problems.append(f"span {i} {s.name} ends before it starts")
            if s.parent is not None:
                children[s.parent].append(s)
        for p, kids in children.items():
            parent = self.spans[p]
            previous_end = parent.start
            for kid in sorted(kids, key=lambda k: k.start):
                if kid.start < previous_end or kid.end > parent.end:
                    problems.append(f"span {kid.name} is not nested in {parent.name}")
                previous_end = kid.end
        return problems

    def command_breakdown(self) -> dict[str, dict[str, float]]:
        """Per CLI command: total span time, child-span time and self time."""
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            if s.layer != "cli":
                continue
            entry = out.setdefault(s.name, {"span_s": 0.0, "children_s": 0.0, "self_s": 0.0})
            entry["span_s"] += s.duration
            entry["self_s"] += own[i]
            entry["children_s"] += s.duration - own[i]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, summed over the run."""
        own = self.self_times()
        secs: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, int] = defaultdict(int)
        tree_bytes = 0
        pipeline_self = 0.0
        for i, s in enumerate(self.spans):
            secs[s.name] += own[i]
            calls[s.name] += 1
            for key, value in s.counts.items():
                counts[f"{s.name}.{key}"] += value
            if s.name == "persist_tree":
                tree_bytes = max(tree_bytes, s.counts["bytes"])
            if s.layer == "pipeline":
                pipeline_self += own[i]
        pairs = counts["cost_matrix.pairs"]
        selected = ("select_training_set", "selection_from_matches")
        metrics = {
            "features.read_s": secs["read_features"],
            "features.read_calls": calls["read_features"],
            "features.manifest_io_s": secs["read_manifest"] + secs["write_manifest"],
            "clustering.balanced_kmeans_s": secs["fit_balanced_kmeans"],
            "clustering.balanced_kmeans_iters": counts["fit_balanced_kmeans.iters"],
            "clustering.kmeans_s": secs["fit_kmeans"],
            "clustering.kmeans_iters": counts["fit_kmeans.iters"],
            "hierarchy.build_s": secs["build_hierarchy"],
            "hierarchy.persist_s": secs["persist_tree"],
            "hierarchy.load_s": secs["load_tree"],
            "hierarchy.load_calls": calls["load_tree"],
            "hierarchy.tree_bytes": tree_bytes,
            "gap.cost_matrix_s": secs["cost_matrix"],
            "gap.cost_matrix_calls": calls["cost_matrix"],
            "gap.cost_pairs": pairs,
            "gap.pair_us": secs["cost_matrix"] / pairs * 1e6 if pairs else 0.0,
            "matching.assign_s": secs["solve_assignment"] + secs["direct_match"],
            "matching.select_s": sum(secs[n] for n in selected),
            "matching.report_s": secs["render_match_report"] + secs["match_report_payload"],
            "matching.rows_selected": sum(counts[f"{n}.rows_selected"] for n in selected),
            "matching.rows_dedup_dropped": sum(
                counts[f"{n}.rows_dedup_dropped"] for n in selected
            ),
            "pruning.prune_s": secs["prune"],
            "pruning.rows_kept": counts["prune.rows_kept"],
            "pipeline.target_stats_s": secs["target_mode_stats"],
            "pipeline.evaluate_gap_s": secs["evaluate_gap"],
            "pipeline.self_s": pipeline_self,
        }
        for command, entry in self.command_breakdown().items():
            metrics[f"{command}.self_s"] = entry["self_s"]
        return metrics

    def write(self, path) -> None:
        """Write the spans as JSON Lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")
