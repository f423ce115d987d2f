"""The benchmark's workloads: inputs from bmm.synth, commands through bmm.cli.main.

Each workload is a closed loop with one client: it issues a command, waits
for its exit code and only then issues the next. Its inputs come from the
workload seed alone, and that seed is also every command's --seed.

Import this module only after the checkout's src/ is on sys.path.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import os
import resource
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import bmm.cli
from bmm import generate, save_world, write_features
from bmm.features import read_manifest
from bmm.pipeline import BENCH_VARIANTS
from bmm.pruning import Budget
from bmm.synth import granularity_probe_world, random_subset_world

SETUP_REPEATS = 3
BUDGET_FRAC = 0.2
BENCH_LEAVES = (16, 32, 64, 128)
QUERY_TARGETS = 8


class Client:
    """The closed loop's one caller.

    Every command counts as attempted. One that exits non-zero or raises
    counts as failed; it is never retried and its inputs are never re-seeded.
    """

    def __init__(self, recorder) -> None:
        self.recorder = recorder
        self.attempted = 0
        self.failures: list[str] = []
        self.times: dict[str, list[float]] = defaultdict(list)

    def run(self, *argv, timed: bool = True) -> bool:
        argv = [str(a) for a in argv]
        self.attempted += 1
        err = io.StringIO()
        span = self.recorder.span(f"cli.{argv[0]}", "cli") if self.recorder else nullcontext()
        start = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err), span:
                code = bmm.cli.main(argv)
        except (Exception, SystemExit):
            code = "raised\n" + traceback.format_exc()
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failures.append(f"{' '.join(argv)}: exit {code} {err.getvalue().strip()}")
            return False
        if timed:
            self.times[argv[0]].append(elapsed)
        return True


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One workload run: its files, the client, the timings and the checks."""

    def __init__(self, workdir: Path, seed: int, seconds: float, recorder) -> None:
        self.dir = workdir
        self.seed = seed
        self.seconds = seconds
        self.recorder = recorder
        self.client = Client(recorder)
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.setup_times: list[float] = []
        self.request_times: list[float] = []
        self.loop_seconds = 0.0
        self.gap_ratios: dict[int, float] = {}
        self.bench_quality: dict[str, float] = {}
        self.tree_path = workdir / "tree.json"

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def remember(self, key: str, path: Path) -> None:
        """Record an output's digest; every later output under `key` must match it."""
        digest = _digest(path)
        self.check(
            self.digests.setdefault(key, digest) == digest,
            f"{path.name}: bytes differ from an earlier output of the same command ({key})",
        )

    def write_inputs(self, server, targets) -> None:
        self.server_ids = set(server.sample_ids)
        self.server_path = self.dir / "server.bmmf"
        write_features(server, self.server_path)
        self.target_paths = []
        for t, target in enumerate(targets):
            self.target_paths.append(self.dir / f"target{t}.bmmf")
            write_features(target, self.target_paths[t])

    def build_setup(self, leaves: int) -> None:
        """Build the server tree SETUP_REPEATS times; each build must write the same bytes."""
        for _ in range(SETUP_REPEATS):
            self.tree_path.unlink(missing_ok=True)
            start = time.perf_counter()
            ok = self.client.run(
                "build-server", "--server-features", self.server_path, "--leaves", leaves,
                "--seed", self.seed, "--tree", self.tree_path, timed=False,
            )
            if ok:
                self.setup_times.append(time.perf_counter() - start)
                self.remember("tree", self.tree_path)
        self.check(bool(self.setup_times), "no server build succeeded")

    def match(self, t: int, clusters: int, out: Path, timed: bool = True) -> bool:
        out.unlink(missing_ok=True)
        return self.client.run(
            "match", "--tree", self.tree_path, "--server-features", self.server_path,
            "--target-features", self.target_paths[t], "--target-clusters", clusters,
            "--seed", self.seed, "--out", out, timed=timed,
        )

    def target_request(self, t: int, clusters: int) -> float:
        """match, evaluate and stratified prune for target set t; returns their wall time."""
        manifest = self.dir / f"target{t}.manifest"
        pruned = self.dir / f"target{t}.pruned.manifest"
        gap = self.dir / f"target{t}.gap.json"
        pruned.unlink(missing_ok=True)
        gap.unlink(missing_ok=True)
        start = time.perf_counter()
        self.match(t, clusters, manifest)
        self.client.run(
            "evaluate", "--manifest", manifest, "--server-features", self.server_path,
            "--target-features", self.target_paths[t], "--out", gap,
        )
        self.client.run(
            "prune", "--manifest", manifest, "--budget-frac", BUDGET_FRAC,
            "--strategy", "stratified", "--seed", self.seed, "--tree", self.tree_path,
            "--server-features", self.server_path, "--out", pruned,
        )
        elapsed = time.perf_counter() - start
        if manifest.exists() and pruned.exists() and gap.exists():
            self.verify_target(t, manifest, pruned, gap)
        return elapsed

    def verify_target(self, t: int, manifest: Path, pruned: Path, gap: Path) -> None:
        self.remember(f"target{t}.manifest", manifest)
        self.remember(f"target{t}.pruned", pruned)
        selected = [sid for sid, _ in read_manifest(manifest).entries]
        kept = [sid for sid, _ in read_manifest(pruned).entries]
        unknown = set(selected) - self.server_ids
        self.check(not unknown, f"{manifest.name}: {len(unknown)} ids not in the server features")
        self.check(set(kept) <= set(selected), f"{pruned.name}: not a subset of its selection")
        promised = Budget("fraction", BUDGET_FRAC).resolve(len(selected))
        self.check(len(kept) == promised, f"{pruned.name}: kept {len(kept)}, budget {promised}")
        payload = json.loads(gap.read_text(encoding="utf-8"))
        self.gap_ratios[t] = payload["fid_selected_vs_target"] / payload["fid_server_vs_target"]

    def bench_request(self, world_path: Path, clusters: int) -> float:
        """One `bench` sweep over BENCH_LEAVES; returns its wall time."""
        out = self.dir / "bench.csv"
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        self.client.run(
            "bench", "--world", world_path, "--leaves", ",".join(map(str, BENCH_LEAVES)),
            "--target-clusters", clusters, "--seed", self.seed, "--out", out,
        )
        elapsed = time.perf_counter() - start
        if out.exists():
            self.verify_bench(out)
        return elapsed

    def verify_bench(self, path: Path) -> None:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        cells = sorted((r["variant"], int(r["J"])) for r in rows)
        expected = sorted((v, j) for v in BENCH_VARIANTS for j in BENCH_LEAVES)
        self.check(cells == expected, f"bench CSV has cells {cells}, expected {expected}")
        # The runtime column is wall time; every other column must repeat exactly.
        quality = "\n".join(
            ",".join(r[k] for k in ("variant", "J", "L", "fid", "precision")) for r in rows
        )
        digest = hashlib.sha256(quality.encode()).hexdigest()
        self.check(
            self.digests.setdefault("bench.quality", digest) == digest,
            "bench fid/precision columns differ between runs of the same sweep",
        )
        hier = [r for r in rows if r["variant"] == "bmm_hier"]
        if hier:
            self.bench_quality["fid_hier_max"] = max(float(r["fid"]) for r in hier)
            self.bench_quality["precision_super_min"] = min(float(r["precision"]) for r in hier)

    def closed_loop(self, request) -> None:
        """Issue request(i) for i = 0, 1, ... until `seconds` have passed; at least once.

        A request's time counts only if none of its commands failed.
        """
        started = time.perf_counter()
        i = 0
        while True:
            if self.recorder is not None:
                self.recorder.request = f"request{i}"
            failed_before = len(self.client.failures)
            elapsed = request(i)
            if len(self.client.failures) == failed_before:
                self.request_times.append(elapsed)
            i += 1
            if time.perf_counter() - started >= self.seconds:
                break
        self.loop_seconds = time.perf_counter() - started
        if self.recorder is not None:
            self.recorder.request = "checks"
        self.check(bool(self.request_times), "no request completed without a failed command")

    def metrics(self) -> dict[str, tuple[float, int]]:
        """Every end-to-end and report-only metric as (value, sample count)."""
        times = self.client.times
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tree_bytes = self.tree_path.stat().st_size if self.tree_path.exists() else 0
        requests = len(self.request_times)
        metrics = {
            "setup_s": (_median(self.setup_times), len(self.setup_times)),
            "request_p50_s": (_median(self.request_times), requests),
            "tree_mb": (tree_bytes / 1e6, 1),
            "peak_rss_mb": (rss_kib * 1024 / 1e6, 1),
            "targets_per_s": (requests / self.loop_seconds, requests),
            "failed_frac": (len(self.client.failures) / self.client.attempted,
                            self.client.attempted),
        }
        for command in ("match", "evaluate", "prune"):
            metrics[f"{command}_p50_s"] = (_median(times[command]), len(times[command]))
        if times["bench"]:
            metrics["bench_s"] = (_median(times["bench"]), len(times["bench"]))
        if self.gap_ratios:
            metrics["gap_ratio"] = (statistics.fmean(self.gap_ratios.values()),
                                    len(self.gap_ratios))
        for name, value in self.bench_quality.items():
            metrics[name] = (value, len(BENCH_LEAVES))
        return metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def build(run: Run) -> None:
    """A 10,240x16 server built at J=128, then one target set matched against it."""
    world = random_subset_world(
        run.seed, d=16, n_supers=8, subs_per_super=8, per_sub=160,
        n_target_modes=3, per_target=200,
    )
    server, target, _ = generate(world)
    run.write_inputs(server, [target])
    run.build_setup(leaves=128)
    run.closed_loop(lambda i: run.target_request(0, clusters=4))


def query(run: Run) -> None:
    """One 5,120x32 server at J=64 serving QUERY_TARGETS distinct target sets in turn."""
    sizes = dict(d=32, n_supers=8, subs_per_super=8, per_sub=80, n_target_modes=8, per_target=200)
    base = random_subset_world(run.seed, **sizes)
    server, _, _ = generate(base)
    targets = []
    for t in range(QUERY_TARGETS):
        # The server's modes and world seed with another world's target list,
        # so generate() reproduces the same server rows.
        other = random_subset_world(run.seed + 1000 + t, **sizes)
        same_server, target, _ = generate(dataclasses.replace(base, targets=other.targets))
        if not (same_server.values == server.values).all():
            raise RuntimeError(f"target set {t} did not reproduce the server")
        targets.append(target)
    run.write_inputs(server, targets)
    run.build_setup(leaves=64)
    run.closed_loop(lambda i: run.target_request(i % QUERY_TARGETS, clusters=12))

    # The README's thread-count contract: BMM_THREADS never changes an output byte.
    single = run.dir / "target0.threads1.manifest"
    previous = os.environ.get("BMM_THREADS")
    os.environ["BMM_THREADS"] = "1"
    try:
        ok = run.match(0, 12, single, timed=False)
    finally:
        if previous is None:
            del os.environ["BMM_THREADS"]
        else:
            os.environ["BMM_THREADS"] = previous
    if ok:
        run.remember("target0.manifest", single)


def sweep(run: Run) -> None:
    """The README quick start on a 3,200x16 world: a J=16 tree, one target, the J sweep."""
    world = granularity_probe_world(run.seed)
    world_path = run.dir / "world.json"
    save_world(world, world_path)
    server, target, _ = generate(world)
    run.write_inputs(server, [target])
    run.build_setup(leaves=16)
    run.closed_loop(
        lambda i: run.target_request(0, clusters=6) + run.bench_request(world_path, clusters=6)
    )


WORKLOADS = {"build": build, "query": query, "sweep": sweep}
