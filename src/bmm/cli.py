"""Command-line pipeline: build-server, match, evaluate, prune, bench.

Every command is deterministic given its full flag set; reports pair a
human-readable text rendering with a machine-readable JSON or CSV file.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .errors import BmmError, ParameterError, ValidationError
from .features import (
    FeatureMatrix,
    Manifest,
    read_features,
    read_manifest,
    write_manifest,
)
from .gap import DEFAULT_EPS, cost_matrix, write_cost_matrix_csv
from .hierarchy import LINKAGES, ModeTree, load_tree, persist_tree
from .matching import match_report_payload, node_strata, render_match_report
from .pipeline import build_server_tree, evaluate_gap, run_bench, run_match
from .pruning import Budget, prune
from .synth import load_world


def _add_feature_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("binary", "csv"), default="binary",
        help="feature file format (default: binary)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmm", description="training-set search against a hierarchical data server"
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-server", help="cluster server features and persist the mode tree")
    p.add_argument("--server-features", required=True)
    p.add_argument("--leaves", type=int, default=128, help="leaf cluster count J (default 128)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--linkage", choices=LINKAGES, default="centroid")
    p.add_argument("--tree", required=True, help="output path for the persisted tree")
    _add_feature_format(p)

    p = sub.add_parser("match", help="match target modes against a persisted tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--server-features", required=True)
    p.add_argument("--target-features", required=True)
    p.add_argument("--target-clusters", type=int, default=20, help="target mode count L")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps-cov", type=float, default=DEFAULT_EPS)
    p.add_argument("--out", required=True, help="output manifest path")
    p.add_argument("--report", default=None, help="report base path (default: <out>.report)")
    p.add_argument("--cost-csv", default=None, help="optionally dump the cost matrix as CSV")
    p.add_argument("--warn-fid", type=float, default=None,
                   help="flag matches whose distance exceeds this value")
    _add_feature_format(p)

    p = sub.add_parser("evaluate", help="report the gap of a manifest vs the full server")
    p.add_argument("--manifest", required=True)
    p.add_argument("--server-features", required=True)
    p.add_argument("--target-features", required=True)
    p.add_argument("--eps-cov", type=float, default=DEFAULT_EPS)
    p.add_argument("--out", default=None, help="optional JSON output path")
    _add_feature_format(p)

    p = sub.add_parser("prune", help="subsample a manifest to a budget")
    p.add_argument("--manifest", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--budget-frac", type=float, default=None)
    group.add_argument("--budget-n", type=int, default=None)
    p.add_argument("--strategy", choices=("uniform", "stratified"), default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tree", default=None, help="tree path (required for stratified)")
    p.add_argument("--server-features", default=None,
                   help="server features path (required for stratified)")
    p.add_argument("--out", required=True)
    _add_feature_format(p)

    p = sub.add_parser("bench", help="sweep tree sizes and variants on a planted world")
    p.add_argument("--world", required=True, help="world config JSON")
    p.add_argument("--leaves", default="16,32,64,128",
                   help="comma-separated J sweep (default 16,32,64,128)")
    p.add_argument("--target-clusters", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps-cov", type=float, default=DEFAULT_EPS)
    p.add_argument("--linkage", choices=LINKAGES, default="centroid")
    p.add_argument("--out", required=True, help="output CSV path")
    return parser


def _print_tree_summary(tree: ModeTree) -> None:
    print(f"leaves (J): {tree.leaf_count}")
    print(f"nodes (H): {tree.node_count}")
    depths = tree.depths()
    for depth in np.unique(depths):
        sizes = tree.counts[depths == depth].tolist()
        few = len(sizes) <= 16
        shown = " ".join(map(str, sizes)) if few else f"min={min(sizes)} max={max(sizes)}"
        print(f"depth {depth}: {len(sizes)} node(s), sizes {shown}")


def _cmd_build_server(args) -> int:
    features = read_features(args.server_features, args.format)
    tree = build_server_tree(features, args.leaves, args.seed, args.linkage)
    persist_tree(tree, args.tree)
    _print_tree_summary(tree)
    print(f"tree written to {args.tree}")
    return 0


def _check_server(tree: ModeTree, server: FeatureMatrix) -> None:
    """The server must be the one the tree was built from: same rows, ids,
    labels and float32 values."""
    if server.n != tree.leaf_labels.size:
        raise ValidationError(
            f"server features have {server.n} rows but the tree covers {tree.leaf_labels.size}"
        )
    if server.sha256 != tree.server_sha256:
        raise ValidationError(
            f"server features (SHA-256 {server.sha256.hex()[:16]}...) are not the server "
            f"the tree was built from ({tree.server_sha256.hex()[:16]}...)"
        )


def _cmd_match(args) -> int:
    tree = load_tree(args.tree)
    server = read_features(args.server_features, args.format)
    _check_server(tree, server)
    target = read_features(args.target_features, args.format)
    outcome = run_match(tree, target, args.target_clusters, args.seed, args.eps_cov)
    selection = outcome.selection

    manifest = Manifest(
        _entries(server, selection.sample_rows),
        {
            "tool": f"bmm/{__version__}",
            "command": "match",
            "seed": str(args.seed),
            "leaves": str(tree.leaf_count),
            "target_clusters": str(args.target_clusters),
            "eps_cov": repr(args.eps_cov),
            "total_cost": repr(outcome.assignment.total_cost),
            "selected_nodes": ",".join(str(n) for n in selection.selected_nodes),
            "tree_sha256": tree.sha256.hex(),
        },
    )
    payload = match_report_payload(
        selection, tree, outcome.assignment.total_cost, server.dataset_labels
    )
    text = render_match_report(payload, warn_fid=args.warn_fid)
    cost = cost_matrix(tree, outcome.stats, args.eps_cov) if args.cost_csv else None

    # Every output is computed first and the manifest written last, so a run
    # that cannot write one of its outputs leaves no manifest.
    base = args.report if args.report is not None else f"{args.out}.report"
    Path(f"{base}.txt").write_text(text, encoding="utf-8")
    Path(f"{base}.json").write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    if cost is not None:
        write_cost_matrix_csv(args.cost_csv, cost)
    write_manifest(manifest, args.out)
    sys.stdout.write(text)
    print(f"manifest written to {args.out}")
    return 0


def _entries(features: FeatureMatrix, rows: np.ndarray) -> list[tuple[str, str]]:
    """The (sample_id, dataset_label) entries of the given feature rows, in order."""
    rows = rows.tolist()
    ids = map(features.sample_ids.__getitem__, rows)
    return list(zip(ids, map(features.dataset_labels.__getitem__, rows)))


def _manifest_rows(manifest: Manifest, features: FeatureMatrix) -> np.ndarray:
    ids = list(map(itemgetter(0), manifest.entries))
    rows = list(map(features.row_index().get, ids))
    if None in rows:
        sid = ids[rows.index(None)]
        raise ValidationError(f"manifest sample_id {sid!r} not found in server features")
    return np.sort(np.asarray(rows, dtype=np.int64))


def _cmd_evaluate(args) -> int:
    manifest = read_manifest(args.manifest)
    server = read_features(args.server_features, args.format)
    target = read_features(args.target_features, args.format)
    rows = _manifest_rows(manifest, server)
    if rows.size < 2:
        raise ValidationError(f"manifest selects {rows.size} rows; need at least 2")
    gap_selected, gap_server = evaluate_gap(server, target, rows, eps=args.eps_cov)
    print(f"fid_selected_vs_target: {gap_selected:.6f}")
    print(f"fid_server_vs_target:   {gap_server:.6f}")
    if args.out:
        payload = {
            "fid_selected_vs_target": gap_selected,
            "fid_server_vs_target": gap_server,
            "selected_rows": int(rows.size),
            "server_rows": server.n,
        }
        Path(args.out).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


def _match_metadata(manifest: Manifest, key: str) -> str:
    value = manifest.metadata.get(key)
    if value is None:
        raise ValidationError(
            f"manifest lacks {key!r} metadata; it was not produced by 'bmm match'"
        )
    return value


def _manifest_strata(
    manifest: Manifest, tree: ModeTree, features: FeatureMatrix
) -> list[np.ndarray]:
    """Rebuild match-time strata from a manifest plus its tree and features."""
    matched = _match_metadata(manifest, "tree_sha256")
    if matched != tree.sha256.hex():
        raise ValidationError(
            f"manifest was matched against tree {matched[:16]}..., "
            f"not this tree ({tree.sha256.hex()[:16]}...)"
        )
    raw = _match_metadata(manifest, "selected_nodes")
    if not all(tok.isascii() and tok.isdigit() for tok in raw.split(",")):
        raise ValidationError(f"manifest 'selected_nodes' metadata {raw!r} must list node ids")
    selected = [int(tok) for tok in raw.split(",")]
    if len(set(selected)) < len(selected):
        raise ValidationError(f"manifest 'selected_nodes' metadata {raw!r} repeats a node id")
    if max(selected) >= tree.node_count:
        raise ValidationError(f"manifest references unknown node {max(selected)}")
    _check_server(tree, features)
    rows = _manifest_rows(manifest, features)
    strata = node_strata(tree, selected, rows)
    covered = sum(stratum.size for stratum in strata)
    if covered != rows.size:
        raise ValidationError(
            f"selected nodes cover {covered} of the manifest's {rows.size} rows"
        )
    return strata


def _cmd_prune(args) -> int:
    manifest = read_manifest(args.manifest)
    if args.budget_frac is not None:
        budget = Budget("fraction", args.budget_frac)
    else:
        budget = Budget("absolute", args.budget_n)

    if args.strategy == "stratified":
        if not args.tree or not args.server_features:
            raise ParameterError("stratified pruning needs --tree and --server-features")
        features = read_features(args.server_features, args.format)
        tree = load_tree(args.tree)
        pruned = prune(_manifest_strata(manifest, tree, features), budget, args.seed)
        entries = _entries(features, pruned.sample_rows)
    else:
        pruned = prune([np.arange(len(manifest.entries))], budget, args.seed)
        entries = list(map(manifest.entries.__getitem__, pruned.sample_rows.tolist()))

    metadata = dict(manifest.metadata)
    metadata.update(
        {
            "pruned_by": f"bmm/{__version__}",
            "budget": f"{budget.kind}:{budget.value!r}",
            "strategy": args.strategy,
            "prune_seed": str(args.seed),
        }
    )
    write_manifest(Manifest(entries, metadata), args.out)
    print(f"kept {len(entries)} of {len(manifest.entries)} entries -> {args.out}")
    return 0


def _cmd_bench(args) -> int:
    world = load_world(args.world)
    tokens = args.leaves.split(",")
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ParameterError(f"--leaves {args.leaves!r} must list comma-separated tree sizes")
    sweep = [int(tok) for tok in tokens]
    rows = run_bench(
        world, sweep, args.target_clusters, seed=args.seed, eps=args.eps_cov,
        linkage=args.linkage,
    )
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["variant", "J", "L", "fid", "precision", "runtime"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    for row in rows:
        print(
            f"{row['variant']:9s} J={row['J']:<4d} L={row['L']:<3d} "
            f"fid={row['fid']:.4f} precision={row['precision']:.3f} "
            f"runtime={row['runtime']:.3f}s"
        )
    print(f"bench CSV written to {args.out}")
    return 0


_COMMANDS = {
    "build-server": _cmd_build_server,
    "match": _cmd_match,
    "evaluate": _cmd_evaluate,
    "prune": _cmd_prune,
    "bench": _cmd_bench,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parse_args keeps no state between calls."""
    return _build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (BmmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
