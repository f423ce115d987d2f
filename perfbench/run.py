"""bmm benchmark: the build, query and sweep workloads, run through bmm.cli.main in-process.

One workload in this process; the last line of stdout is the JSON result:

    python3 perfbench/run.py --workload query --seed 0 --seconds 20 --trace 0

Every workload, untraced and then traced, each in a fresh process, followed by
the tracing overhead (--seconds defaults to BENCHMARK.json's run_seconds):

    python3 perfbench/run.py --workload all --seed 0

perfbench/README.md describes the workloads, the metrics and the held-out seed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("build", "query", "sweep")
# Kept out of tuning; a later claim is checked at this seed as well as at 0.
HELD_OUT_SEED = 9973

# Metrics printed in the report but kept out of the JSON result. The short
# commands' medians swing by 20-45% between runs on a shared 2-core machine,
# more than any bound BENCHMARK.json may set; the quality metrics depend on
# the seed; failed_frac is 0 when all is well.
REPORT_ONLY = {
    "match_p50_s": ("s", "lower"),
    "evaluate_p50_s": ("s", "lower"),
    "prune_p50_s": ("s", "lower"),
    "bench_s": ("s", "lower"),
    "targets_per_s": ("1/s", "higher"),
    "gap_ratio": ("ratio", "lower"),
    "fid_hier_max": ("FID", "lower"),
    "precision_super_min": ("ratio", "higher"),
    "failed_frac": ("ratio", "lower"),
}


def _import_bmm() -> None:
    """Put this checkout's src/ first on sys.path; bmm must come from there."""
    if not (SRC / "bmm" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'bmm'} not found; run from the root of a bmm checkout")
    sys.path.insert(0, str(SRC))
    import bmm

    if not Path(bmm.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported bmm from {bmm.__file__}, not from {SRC}")


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _blas_threads() -> str:
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                return str(func())
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    from bmm.gap import thread_limit

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "bmm_threads": thread_limit(),
        "git_commit": _git_commit(),
    }


def _result_path(workload: str, seed: int, traced: bool) -> Path:
    return WORK / "results" / f"{workload}-seed{seed}-trace{int(traced)}.json"


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> int:
    _import_bmm()
    from spans import Recorder
    from workloads import WORKLOADS, Run

    spec = _load_spec()
    recorder = Recorder() if traced else None
    workdir = WORK / f"{workload}-seed{seed}-trace{int(traced)}"
    workdir.mkdir(parents=True, exist_ok=True)
    for path in workdir.iterdir():
        path.unlink()
    run = Run(workdir, seed, seconds, recorder)

    env = environment()
    print(f"# workload={workload} seed={seed} seconds={seconds} trace={int(traced)} "
          f"held_out_seed={HELD_OUT_SEED}")
    for key, value in env.items():
        print(f"env {key}={value}")

    with recorder.install() if recorder else nullcontext():
        WORKLOADS[workload](run)

    metrics = run.metrics()
    guarded = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    for name, (value, n) in metrics.items():
        unit, better = guarded.get(name) or REPORT_ONLY[name]
        print(f"metric workload={workload} seed={seed} name={name} value={value!r} unit={unit} "
              f"better={better} n={n} guarded={'yes' if name in guarded else 'no'}")
    result = {
        "workload": workload, "seed": seed, "traced": traced, "env": env,
        "end_to_end": {name: value for name, (value, _) in metrics.items()},
        "samples": {"setup": run.setup_times, "request": run.request_times, **run.client.times},
        "digests": run.digests,
    }

    if traced:
        run.problems.extend(recorder.check_nesting())
        for command, parts in sorted(recorder.command_breakdown().items()):
            print(f"span {command}: span_s={parts['span_s']!r} = children_s="
                  f"{parts['children_s']!r} + self_s={parts['self_s']!r}")
        result["per_layer"] = recorder.layer_metrics()
        for name, value in result["per_layer"].items():
            print(f"layer workload={workload} seed={seed} name={name} value={value!r}")
        recorder.write(workdir / "spans.jsonl")
        untraced = _result_path(workload, seed, False)
        if untraced.exists():
            plain = json.loads(untraced.read_text(encoding="utf-8"))["end_to_end"]
            for name, value in result["end_to_end"].items():
                if name in plain:
                    print(f"overhead workload={workload} seed={seed} name={name} "
                          f"traced_minus_untraced={value - plain[name]!r}")

    for failure in run.client.failures:
        print(f"failed {failure}")
    for problem in run.problems:
        print(f"check FAILED {problem}")
    for key, digest in sorted(run.digests.items()):
        print(f"digest {key} sha256={digest}")
    correct = not run.problems
    result.update(correct=correct, failures=run.client.failures, problems=run.problems)
    out = _result_path(workload, seed, traced)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")

    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    values = result["per_layer"] if traced else result["end_to_end"]
    # A median of no samples is NaN, which JSON cannot carry; such a run is not correct.
    print(json.dumps({
        "correct": correct,
        "attempted": run.client.attempted,
        "failed": len(run.client.failures),
        "metrics": {
            m["name"]: {"value": values[m["name"]] if math.isfinite(values[m["name"]]) else None,
                        "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced then traced, each in a fresh process, then the overhead."""
    status = 0
    for workload in WORKLOAD_NAMES:
        for traced in (False, True):
            _result_path(workload, seed, traced).unlink(missing_ok=True)
            code = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(traced))],
                check=False,
            ).returncode
            status = status or code
    print(f"# summary seed={seed}: tracing overhead is traced minus untraced")
    for workload in WORKLOAD_NAMES:
        paths = [_result_path(workload, seed, traced) for traced in (False, True)]
        if not all(p.exists() for p in paths):
            print(f"outputs workload={workload} missing a result file")
            status = status or 1
            continue
        plain, traced = (json.loads(p.read_text(encoding="utf-8")) for p in paths)
        for name, value in traced["end_to_end"].items():
            base = plain["end_to_end"][name]
            print(f"overhead workload={workload} name={name} untraced={base!r} "
                  f"traced={value!r} diff={value - base!r}")
        same = plain["digests"] == traced["digests"]
        print(f"outputs workload={workload} traced_bytes_equal_untraced={same}")
        if not same:
            status = status or 1
    print(f"# all workloads at seed {seed}: {'ok' if status == 0 else 'FAILED'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="closed-loop time to measure (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else _load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds)
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
