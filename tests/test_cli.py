from __future__ import annotations

import json
import struct
import warnings
from collections import Counter

import numpy as np
import pytest

import bmm
from bmm import (
    BmmError, Manifest, PipelineConfig, cost_matrix, generate, load_tree, read_manifest,
    save_world, write_features, write_manifest,
)
from bmm import cli
from bmm.cli import main
from bmm.pipeline import target_mode_stats
from bmm.synth import random_subset_world

from conftest import shared_nearest_world


@pytest.fixture(scope="module")
def world_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    world = random_subset_world(seed=5, per_sub=40, per_target=50, n_target_modes=2,
                                include_whole_super=False)
    server, target, _ = generate(world)
    server_path = root / "server.bmmf"
    target_path = root / "target.bmmf"
    write_features(server, server_path)
    write_features(target, target_path)
    return root, server, target, server_path, target_path


def run_build(tmp_path, server_path, leaves=8, seed=0):
    tree_path = tmp_path / "tree.bmmt"
    code = main([
        "build-server", "--server-features", str(server_path),
        "--leaves", str(leaves), "--seed", str(seed), "--tree", str(tree_path),
    ])
    return code, tree_path


def test_build_server_writes_tree(tmp_path, world_files, capsys):
    _, server, _, server_path, _ = world_files
    code, tree_path = run_build(tmp_path, server_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "leaves (J): 8" in out and "nodes (H): 15" in out
    tree = load_tree(tree_path)
    assert tree.node_count == 15
    assert tree.node(tree.root_id).size == server.n


def test_build_server_rejects_oversized_j(tmp_path, world_files, capsys):
    _, server, _, server_path, _ = world_files
    code = main([
        "build-server", "--server-features", str(server_path),
        "--leaves", str(10_000), "--tree", str(tmp_path / "t.json"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_leaf_count_above_half_the_rows_is_named(tmp_path, world_files, capsys):
    _, server, _, server_path, _ = world_files
    half = server.n // 2
    code, _ = run_build(tmp_path, server_path, leaves=half + 1)
    err = capsys.readouterr().err
    assert code == 2
    assert f"J={half + 1} must be at most n // 2 = {half}" in err

    world_path = tmp_path / "world.json"
    world = shared_nearest_world(seed=0, per_mode=10)
    save_world(world, world_path)
    rows = sum(sub.count for sup in world.supers for sub in sup.subs)
    code = main([
        "bench", "--world", str(world_path), "--leaves", f"4,{rows // 2 + 1}",
        "--target-clusters", "3", "--out", str(tmp_path / "bench.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert f"must be at most n // 2 = {rows // 2}" in err and "Traceback" not in err


def test_leaf_count_below_one_is_named(tmp_path, world_files, capsys):
    _, _, _, server_path, _ = world_files
    for leaves in (0, -3):
        code, _ = run_build(tmp_path, server_path, leaves=leaves)
        err = capsys.readouterr().err
        assert code == 2
        assert f"leaf count J={leaves} must be at least 1" in err
        assert "target_clusters" not in err


def test_build_server_deterministic_bytes(tmp_path, world_files):
    _, _, _, server_path, _ = world_files
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _, first = run_build(tmp_path / "a", server_path)
    _, second = run_build(tmp_path / "b", server_path)
    assert first.read_bytes() == second.read_bytes()


def match_args(tree_path, server_path, target_path, out_path, seed=0):
    return [
        "match", "--tree", str(tree_path), "--server-features", str(server_path),
        "--target-features", str(target_path), "--target-clusters", "2",
        "--seed", str(seed), "--out", str(out_path),
    ]


def test_match_outputs_and_rerun_identical(tmp_path, world_files):
    _, server, _, server_path, target_path = world_files
    code, tree_path = run_build(tmp_path, server_path)
    out_a = tmp_path / "sel_a.manifest"
    out_b = tmp_path / "sel_b.manifest"
    assert main(match_args(tree_path, server_path, target_path, out_a)) == 0
    assert main(match_args(tree_path, server_path, target_path, out_b)) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    manifest = read_manifest(out_a)
    assert manifest.metadata["command"] == "match"
    assert "selected_nodes" in manifest.metadata
    ids = set(server.sample_ids)
    assert all(sid in ids for sid, _ in manifest.entries)

    report = json.loads((tmp_path / "sel_a.manifest.report.json").read_text())
    assert report["selected_samples"] == len(manifest.entries)
    labels = Counter(label for _, label in manifest.entries)
    assert report["composition"] == dict(sorted(labels.items()))
    assert (tmp_path / "sel_a.manifest.report.txt").exists()


def test_match_thread_count_does_not_change_outputs(tmp_path, world_files, monkeypatch):
    _, _, _, server_path, target_path = world_files
    code, tree_path = run_build(tmp_path, server_path)
    monkeypatch.setenv("BMM_THREADS", "1")
    out_serial = tmp_path / "serial.manifest"
    assert main(match_args(tree_path, server_path, target_path, out_serial)) == 0
    monkeypatch.setenv("BMM_THREADS", "4")
    out_threaded = tmp_path / "threaded.manifest"
    assert main(match_args(tree_path, server_path, target_path, out_threaded)) == 0
    assert out_serial.read_bytes() == out_threaded.read_bytes()


def test_match_cost_csv_dump(tmp_path, world_files):
    _, _, _, server_path, target_path = world_files
    code, tree_path = run_build(tmp_path, server_path)
    out = tmp_path / "sel.manifest"
    cost_csv = tmp_path / "cost.csv"
    assert main(match_args(tree_path, server_path, target_path, out)
                + ["--cost-csv", str(cost_csv)]) == 0
    lines = cost_csv.read_text().strip().splitlines()
    assert len(lines) == 3  # header + L rows
    node_count = load_tree(tree_path).node_count
    assert lines[0] == "target_id," + ",".join(f"node_{j}" for j in range(node_count))
    assert [line.split(",")[0] for line in lines[1:]] == ["mode-0", "mode-1"]


def test_evaluate_full_server_equal_numbers(tmp_path, world_files, capsys):
    root, server, _, server_path, target_path = world_files
    manifest_path = tmp_path / "all.manifest"
    lines = [f"{sid},{label}" for sid, label in zip(server.sample_ids, server.dataset_labels)]
    manifest_path.write_text("\n".join(lines) + "\n")
    out_json = tmp_path / "gap.json"
    code = main([
        "evaluate", "--manifest", str(manifest_path),
        "--server-features", str(server_path), "--target-features", str(target_path),
        "--out", str(out_json),
    ])
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["fid_selected_vs_target"] == payload["fid_server_vs_target"]


def test_evaluate_reports_gap_reduction(tmp_path, world_files):
    _, _, _, server_path, target_path = world_files
    code, tree_path = run_build(tmp_path, server_path)
    out = tmp_path / "sel.manifest"
    assert main(match_args(tree_path, server_path, target_path, out)) == 0
    out_json = tmp_path / "gap.json"
    assert main([
        "evaluate", "--manifest", str(out), "--server-features", str(server_path),
        "--target-features", str(target_path), "--out", str(out_json),
    ]) == 0
    payload = json.loads(out_json.read_text())
    assert payload["fid_selected_vs_target"] < payload["fid_server_vs_target"]


def test_evaluate_unknown_id_fails(tmp_path, world_files, capsys):
    _, _, _, server_path, target_path = world_files
    manifest_path = tmp_path / "bogus.manifest"
    manifest_path.write_text("not-a-real-id,whatever\n")
    code = main([
        "evaluate", "--manifest", str(manifest_path),
        "--server-features", str(server_path), "--target-features", str(target_path),
    ])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_prune_fraction_one_keeps_entries(tmp_path, world_files):
    _, _, _, server_path, target_path = world_files
    code, tree_path = run_build(tmp_path, server_path)
    out = tmp_path / "sel.manifest"
    assert main(match_args(tree_path, server_path, target_path, out)) == 0
    pruned_path = tmp_path / "pruned.manifest"
    assert main([
        "prune", "--manifest", str(out), "--budget-frac", "1.0",
        "--seed", "3", "--out", str(pruned_path),
    ]) == 0
    original = read_manifest(out)
    pruned = read_manifest(pruned_path)
    assert pruned.entries == original.entries
    assert pruned.metadata["budget"] == "fraction:1.0"
    assert pruned.metadata["prune_seed"] == "3"


def test_prune_uniform_count(tmp_path, world_files):
    _, _, _, server_path, target_path = world_files
    code, tree_path = run_build(tmp_path, server_path)
    out = tmp_path / "sel.manifest"
    assert main(match_args(tree_path, server_path, target_path, out)) == 0
    n_input = len(read_manifest(out).entries)
    pruned_path = tmp_path / "pruned.manifest"
    assert main([
        "prune", "--manifest", str(out), "--budget-n", "5", "--out", str(pruned_path),
    ]) == 0
    pruned = read_manifest(pruned_path)
    assert len(pruned.entries) == 5
    assert set(s for s, _ in pruned.entries) <= set(s for s, _ in read_manifest(out).entries)
    assert n_input >= 5


def test_prune_stratified_matches_allocation(tmp_path, world_files):
    _, server, _, server_path, target_path = world_files
    code, tree_path = run_build(tmp_path, server_path)
    out = tmp_path / "sel.manifest"
    assert main(match_args(tree_path, server_path, target_path, out)) == 0
    pruned_path = tmp_path / "strat.manifest"
    assert main([
        "prune", "--manifest", str(out), "--budget-frac", "0.5", "--strategy", "stratified",
        "--tree", str(tree_path), "--server-features", str(server_path),
        "--out", str(pruned_path),
    ]) == 0
    original = read_manifest(out)
    pruned = read_manifest(pruned_path)
    assert len(pruned.entries) == round(0.5 * len(original.entries))

    tree = load_tree(tree_path)
    index = {sid: i for i, sid in enumerate(server.sample_ids)}
    kept_rows = {index[sid] for sid, _ in pruned.entries}
    total_rows = {index[sid] for sid, _ in original.entries}
    selected = [int(t) for t in original.metadata["selected_nodes"].split(",")]
    taken: set[int] = set()
    for node_id in selected:
        members = set(tree.members(node_id).tolist()) & total_rows
        stratum = members - taken
        taken |= stratum
        expected = len(stratum) / len(total_rows) * len(pruned.entries)
        assert abs(len(stratum & kept_rows) - expected) < 1.0


def test_prune_stratified_requires_tree(tmp_path, world_files, capsys):
    _, _, _, server_path, target_path = world_files
    code, tree_path = run_build(tmp_path, server_path)
    out = tmp_path / "sel.manifest"
    assert main(match_args(tree_path, server_path, target_path, out)) == 0
    code = main([
        "prune", "--manifest", str(out), "--budget-frac", "0.5",
        "--strategy", "stratified", "--out", str(tmp_path / "x.manifest"),
    ])
    assert code == 2
    assert "stratified" in capsys.readouterr().err


BAD_SELECTED_NODES = {
    "not-an-integer": lambda raw: "abc",
    "repeated-id": lambda raw: f"{raw},{raw}",
}


@pytest.mark.parametrize("mutation", sorted(BAD_SELECTED_NODES))
def test_prune_stratified_rejects_bad_selected_nodes(tmp_path, world_files, mutation, capsys):
    _, _, _, server_path, target_path = world_files
    code, tree_path = run_build(tmp_path, server_path)
    out = tmp_path / "sel.manifest"
    assert main(match_args(tree_path, server_path, target_path, out)) == 0
    manifest = read_manifest(out)
    raw = manifest.metadata["selected_nodes"]
    manifest.metadata["selected_nodes"] = BAD_SELECTED_NODES[mutation](raw)
    write_manifest(manifest, out)
    code = main([
        "prune", "--manifest", str(out), "--budget-frac", "0.5", "--strategy", "stratified",
        "--tree", str(tree_path), "--server-features", str(server_path),
        "--out", str(tmp_path / "x.manifest"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert "'selected_nodes' metadata" in err


def test_bench_csv(tmp_path, capsys):
    world = shared_nearest_world(seed=0, per_mode=40)
    world_path = tmp_path / "world.json"
    save_world(world, world_path)
    out_csv = tmp_path / "bench.csv"
    code = main([
        "bench", "--world", str(world_path), "--leaves", "4",
        "--target-clusters", "3", "--out", str(out_csv),
    ])
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "variant,J,L,fid,precision,runtime"
    assert len(lines) == 4  # header + 3 variants for one J
    assert {line.split(",")[0] for line in lines[1:]} == {"bmm_hier", "bmm_flat", "dm_dup"}


@pytest.mark.parametrize("leaves", ["4,,8", "4,", "", "4;8"])
def test_bench_rejects_malformed_leaf_list(tmp_path, leaves, capsys):
    world_path = tmp_path / "world.json"
    save_world(shared_nearest_world(seed=0, per_mode=40), world_path)
    code = main([
        "bench", "--world", str(world_path), "--leaves", leaves,
        "--target-clusters", "3", "--out", str(tmp_path / "bench.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: --leaves") and "Traceback" not in err
    assert not (tmp_path / "bench.csv").exists()


def _without_scale(payload: dict) -> dict:
    del payload["super_modes"][0]["sub_modes"][0]["scale"]
    return payload


def _short_offset(payload: dict) -> dict:
    payload["super_modes"][0]["sub_modes"][0]["offset"].pop()
    return payload


def _short_mean_shift(payload: dict) -> dict:
    payload["target_modes"][0]["mean_shift"] = [0.0]
    return payload


def _sub_count(value):
    """Replace the first sub mode's count with value(count)."""
    def mutate(payload: dict) -> dict:
        count = payload["super_modes"][0]["sub_modes"][0]["count"]
        payload["super_modes"][0]["sub_modes"][0]["count"] = value(count)
        return payload
    return mutate


# Each mutation takes a valid world config and returns the document to write.
MALFORMED_WORLDS = {
    # 10**12 rows: numpy refuses the allocation at once
    "count-huge": _sub_count(lambda count: 10**12),
    "count-fraction": _sub_count(lambda count: count + 0.5),
    "count-string": _sub_count(str),
    "no-super-modes": lambda p: {k: v for k, v in p.items() if k != "super_modes"},
    "super-modes-int": lambda p: {**p, "super_modes": 5},
    "sub-mode-without-scale": _without_scale,
    "dimension-string": lambda p: {**p, "dimension": "x"},
    "top-level-list": lambda p: [p],
    "offset-too-short": _short_offset,
    "mean-shift-too-short": _short_mean_shift,
}


@pytest.mark.parametrize("mutation", sorted(MALFORMED_WORLDS))
def test_bench_rejects_malformed_world(tmp_path, mutation, capsys):
    save_world(shared_nearest_world(seed=0, per_mode=40), tmp_path / "valid.json")
    payload = json.loads((tmp_path / "valid.json").read_text())
    world_path = tmp_path / "world.json"
    world_path.write_text(json.dumps(MALFORMED_WORLDS[mutation](payload)))
    code = main([
        "bench", "--world", str(world_path), "--leaves", "4",
        "--target-clusters", "3", "--out", str(tmp_path / "bench.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_csv_feature_format_end_to_end(tmp_path, world_files):
    _, server, target, _, _ = world_files
    server_csv = tmp_path / "server.csv"
    target_csv = tmp_path / "target.csv"
    write_features(server, server_csv, "csv")
    write_features(target, target_csv, "csv")
    tree_path = tmp_path / "tree.bmmt"
    assert main([
        "build-server", "--server-features", str(server_csv), "--format", "csv",
        "--leaves", "8", "--tree", str(tree_path),
    ]) == 0
    out = tmp_path / "sel.manifest"
    assert main([
        "match", "--tree", str(tree_path), "--server-features", str(server_csv),
        "--target-features", str(target_csv), "--format", "csv",
        "--target-clusters", "2", "--out", str(out),
    ]) == 0
    assert len(read_manifest(out).entries) > 0


def test_match_rejects_mismatched_server(tmp_path, world_files, capsys):
    _, _, target, server_path, target_path = world_files
    code, tree_path = run_build(tmp_path, server_path)
    code = main(match_args(tree_path, target_path, target_path, tmp_path / "x.manifest"))
    assert code == 2
    assert "covers" in capsys.readouterr().err



@pytest.fixture(scope="module")
def tree_blob(tmp_path_factory, world_files):
    _, _, _, server_path, _ = world_files
    _, tree_path = run_build(tmp_path_factory.mktemp("tree"), server_path)
    return tree_path.read_bytes()


TREE_HEADER = struct.Struct("<4sHQII")  # magic, version, rows n, leaves J, dimension d


def tree_parts(blob: bytes):
    """The header fields, leaf labels and node records of a version-3 tree, as
    writable copies."""
    header = list(TREE_HEADER.unpack_from(blob))
    _, _, n, j, d = header
    record = np.dtype(
        [("children", "<i4", (2,)), ("count", "<i8"), ("mean", "<f8", (d,)), ("cov", "<f8", (d, d))]
    )
    labels = np.frombuffer(blob, "<i4", n, TREE_HEADER.size).copy()
    records = np.frombuffer(blob, record, 2 * j - 1, TREE_HEADER.size + 4 * n).copy()
    return header, labels, records


def v2_payload(blob: bytes) -> dict:
    """The tree as the earlier JSON format (version 2) wrote it."""
    header, labels, records = tree_parts(blob)
    children = [[c for c in rec.tolist() if c >= 0] for rec in records["children"]]
    parents = {c: i for i, pair in enumerate(children) for c in pair}
    return {
        "format": "bmm-mode-tree",
        "version": 2,
        "leaf_count": header[3],
        "leaf_labels": labels.tolist(),
        "nodes": [
            {
                "node_id": i,
                "parent_id": parents.get(i),
                "child_ids": children[i],
                "mean": records["mean"][i].tolist(),
                "covariance": records["cov"][i].tolist(),
                "count": int(records["count"][i]),
            }
            for i in range(len(records))
        ],
    }


def _set(record, key, value):
    record[key] = value


def _v3(change):
    """A mutation that edits the parsed header list, labels and records in place."""
    def apply(blob):
        header, labels, records = tree_parts(blob)
        change(header, labels, records)
        return TREE_HEADER.pack(*header) + labels.tobytes() + records.tobytes()
    return apply


def _json(change):
    """A mutation that edits the tree's version-2 JSON document in place."""
    def apply(blob):
        payload = v2_payload(blob)
        change(payload)
        return json.dumps(payload).encode()
    return apply


# Each mutation maps the bytes of a valid version-3 tree (built with J=8, so
# records 0..7 are leaves and record 14 is the root) to the bytes to load.
# The JSON mutations break one rule of the earlier version-2 JSON format;
# like an intact JSON tree, they must be refused as incompatible.
MALFORMED_TREES = {
    "bad-magic": lambda blob: b"BMMX" + blob[4:],
    "version-99": _v3(lambda h, l, r: _set(h, 1, 99)),
    "version-2": _v3(lambda h, l, r: _set(h, 1, 2)),
    "v2-json": _json(lambda p: None),
    "truncated-one-byte": lambda blob: blob[:-1],
    "trailing-byte": lambda blob: blob + b"\0",
    "leaf-count-zero": _v3(lambda h, l, r: _set(h, 3, 0)),
    "dimension-zero": _v3(lambda h, l, r: _set(h, 4, 0)),
    "rows-one-more": _v3(lambda h, l, r: _set(h, 2, h[2] + 1)),
    "nan-leaf-covariance": _v3(lambda h, l, r: _set(r["cov"][3], (0, 1), np.nan)),
    "inf-merged-mean": _v3(lambda h, l, r: _set(r["mean"][10], 0, np.inf)),
    "leaf-label-at-j": _v3(lambda h, l, r: _set(l, 0, 8)),
    "leaf-label-negative": _v3(lambda h, l, r: _set(l, 0, -1)),
    "label-moved": _v3(lambda h, l, r: _set(l, np.flatnonzero(l == 0)[0], 1)),
    "child-id-at-parent": _v3(lambda h, l, r: _set(r["children"][14], 0, 14)),
    "child-id-above-parent": _v3(lambda h, l, r: _set(r["children"][8], 0, 12)),
    "child-id-minus-two": _v3(lambda h, l, r: _set(r["children"][14], 0, -2)),
    "leaf-with-children": _v3(lambda h, l, r: _set(r["children"], 3, (0, 1))),
    "merged-without-children": _v3(lambda h, l, r: _set(r["children"], 10, (-1, -1))),
    "half-leaf-children": _v3(lambda h, l, r: _set(r["children"][12], 0, -1)),
    "repeated-child": _v3(lambda h, l, r: _set(r["children"][14], 1, r["children"][14][0])),
    "child-shared-by-two-parents": _v3(
        lambda h, l, r: _set(r["children"][9], 0, r["children"][8][0])
    ),
    "leaf-count-off": _v3(lambda h, l, r: _set(r["count"], 0, r["count"][0] + 1)),
    "root-count-off": _v3(lambda h, l, r: _set(r["count"], 14, r["count"][14] - 1)),
    "no-leaf-labels": _json(lambda p: p.pop("leaf_labels")),
    "no-nodes": _json(lambda p: p.pop("nodes")),
    "no-child-ids": _json(lambda p: p["nodes"][14].pop("child_ids")),
    "no-parent-id": _json(lambda p: p["nodes"][3].pop("parent_id")),
    "no-count": _json(lambda p: p["nodes"][0].pop("count")),
    "no-covariance": _json(lambda p: p["nodes"][9].pop("covariance")),
    "leaf-count-bool": _json(lambda p: _set(p, "leaf_count", True)),
    "leaf-labels-string": _json(lambda p: _set(p, "leaf_labels", "0,1,2")),
    "leaf-label-float": _json(lambda p: _set(p["leaf_labels"], 0, 0.5)),
    "node-not-object": _json(lambda p: _set(p["nodes"], 2, [2, 9])),
    "node-id-float": _json(lambda p: _set(p["nodes"][2], "node_id", 2.0)),
    "child-ids-string": _json(lambda p: _set(p["nodes"][14], "child_ids", "12,13")),
    "count-string": _json(lambda p: _set(p["nodes"][0], "count", "5")),
    "mean-strings": _json(lambda p: _set(p["nodes"][5], "mean", ["a"] * len(p["nodes"][5]["mean"]))),
    "covariance-ragged": _json(lambda p: p["nodes"][5]["covariance"][0].append(0.0)),
}


@pytest.mark.parametrize("mutation", sorted(MALFORMED_TREES))
def test_match_rejects_malformed_tree(tmp_path, world_files, tree_blob, mutation, capsys):
    _, _, _, server_path, target_path = world_files
    tree_path = tmp_path / "tree.bmmt"
    tree_path.write_bytes(MALFORMED_TREES[mutation](tree_blob))
    code = main(match_args(tree_path, server_path, target_path, tmp_path / "x.manifest"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(tree_path) in err.splitlines()[0]


def test_match_huge_tree_mean_is_numerical_error(tmp_path, world_files, tree_blob, capsys):
    _, _, _, server_path, target_path = world_files
    tree_path = tmp_path / "tree.bmmt"
    tree_path.write_bytes(_v3(lambda h, l, r: _set(r["mean"][14], 0, 1e200))(tree_blob))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(match_args(tree_path, server_path, target_path, tmp_path / "x.manifest"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "non-finite" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_match_huge_node_covariance_is_the_full_matrix_error(
    tmp_path, world_files, tree_blob, capsys
):
    """A leaf covariance that overflows the kernel gives that leaf a bound far
    above the others, so a bounded search would never compute its cost; the
    match still exits 2 with the message of the full cost matrix."""
    _, _, target, server_path, target_path = world_files
    tree_path = tmp_path / "tree.bmmt"
    tree_path.write_bytes(_v3(lambda h, l, r: _set(r["cov"], 3, np.eye(h[4]) * 1e308))(tree_blob))
    _, stats = target_mode_stats(target, PipelineConfig(leaves=8, target_clusters=2, seed=0))
    with pytest.raises(BmmError) as full:
        cost_matrix(load_tree(tree_path), stats)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(match_args(tree_path, server_path, target_path, tmp_path / "x.manifest"))
    assert code == 2
    assert capsys.readouterr().err == f"error: {full.value}\n"
    assert "node column 3" in str(full.value)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def eps_argv(tmp_path, world_files, tree_blob, command, out):
    """`match` or `evaluate` (over the whole server) writing to `out`."""
    _, server, _, server_path, target_path = world_files
    tree_path = tmp_path / "tree.bmmt"
    tree_path.write_bytes(tree_blob)
    manifest_path = tmp_path / "all.manifest"
    manifest_path.write_text(
        "".join(f"{sid},{label}\n" for sid, label in zip(server.sample_ids, server.dataset_labels))
    )
    if command == "match":
        return match_args(tree_path, server_path, target_path, out)
    return [
        "evaluate", "--manifest", str(manifest_path), "--server-features", str(server_path),
        "--target-features", str(target_path), "--out", str(out),
    ]


@pytest.mark.parametrize("command", ["match", "evaluate"])
def test_huge_eps_cov_is_numerical_error(tmp_path, world_files, tree_blob, command, capsys):
    out = tmp_path / "out"
    argv = eps_argv(tmp_path, world_files, tree_blob, command, out)
    for eps in ("1e200", "1e308"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--eps-cov", eps])
        err = capsys.readouterr().err
        assert code == 2, eps
        assert err.startswith("error: ")
        # the ridged covariance product overflows before any eigenvalue solve
        assert "overflows" in err and "did not converge" not in err, err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()


@pytest.mark.parametrize("command", ["match", "evaluate"])
def test_eps_cov_must_be_finite(tmp_path, world_files, tree_blob, command, capsys):
    out = tmp_path / "out"
    argv = eps_argv(tmp_path, world_files, tree_blob, command, out)
    for eps in ("nan", "inf"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--eps-cov", eps])
        err = capsys.readouterr().err
        assert code == 2, eps
        assert err.startswith("error: ") and "finite and positive" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()


def test_missing_file_is_parameter_error(tmp_path, capsys):
    code = main([
        "build-server", "--server-features", str(tmp_path / "missing.bmmf"),
        "--tree", str(tmp_path / "t.json"),
    ])
    assert code == 2


def test_parser_is_built_once_and_keeps_no_state(tmp_path, world_files, capsys):
    _, _, _, server_path, target_path = world_files
    assert cli._parser() is cli._parser()
    argvs = [
        match_args("t", server_path, target_path, "o", seed=7) + ["--warn-fid", "3"],
        ["prune", "--manifest", "m", "--budget-n", "5", "--out", "o"],
        ["build-server", "--server-features", "s", "--tree", "t", "--linkage", "ward"],
        match_args("t", server_path, target_path, "o"),
        ["prune", "--manifest", "m", "--budget-frac", "0.5", "--strategy", "stratified",
         "--out", "o"],
        ["bench", "--world", "w", "--out", "o"],
    ]
    for argv in argvs:
        assert vars(cli._parser().parse_args(argv)) == vars(cli._build_parser().parse_args(argv))

    missing = str(tmp_path / "missing.bmmf")
    build = ["build-server", "--server-features", missing, "--tree", str(tmp_path / "t")]
    evaluate = ["evaluate", "--manifest", str(tmp_path / "missing.manifest"),
                "--server-features", missing, "--target-features", missing]
    errors = []
    for argv in (build, evaluate, build):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[2] != errors[1]

    with pytest.raises(SystemExit) as fresh:
        cli._build_parser().parse_args(["prune", "--manifest", "m"])
    usage = capsys.readouterr()
    for argv in (["--version"], ["prune", "--manifest", "m"], ["--version"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        out = capsys.readouterr()
        if argv == ["--version"]:
            assert exit_.value.code == 0 and out.out == f"bmm {bmm.__version__}\n"
        else:
            assert exit_.value.code == fresh.value.code == 2 and out == usage


def test_cli_manifests_skip_the_public_constructor(tmp_path, world_files, monkeypatch):
    """match and prune build manifests of strings they already hold, so the
    public constructor's per-entry str() coercion never runs."""
    _, _, _, server_path, target_path = world_files
    code, tree_path = run_build(tmp_path, server_path)
    assert code == 0

    def refuse(self):
        raise AssertionError("Manifest.__post_init__ ran")

    monkeypatch.setattr(Manifest, "__post_init__", refuse)
    manifest = tmp_path / "sel.manifest"
    assert main(match_args(tree_path, server_path, target_path, manifest)) == 0
    features = ["--tree", str(tree_path), "--server-features", str(server_path)]
    for strategy in ("uniform", "stratified"):
        out = tmp_path / f"{strategy}.manifest"
        assert main(["prune", "--manifest", str(manifest), "--budget-frac", "0.5",
                     "--strategy", strategy, *features, "--out", str(out)]) == 0
        assert 0 < len(read_manifest(out).entries) < len(read_manifest(manifest).entries)
