from __future__ import annotations

import hashlib
import json
import struct
import warnings
from collections import Counter

import numpy as np
import pytest

import bmm
from bmm import (
    BmmError, FeatureMatrix, cost_matrix, generate, load_tree, persist_tree, read_manifest,
    save_world, write_features, write_manifest,
)
from bmm import cli
from bmm.cli import main
from bmm import hierarchy
from bmm.hierarchy import LINKAGES
from bmm.pipeline import build_server_tree, target_mode_stats
from bmm.synth import granularity_probe_world, random_subset_world

from conftest import one_blas_thread, run_python, shared_nearest_world


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


def test_tree_records_how_and_from_what_it_was_built(tmp_path, world_files):
    _, server, _, server_path, _ = world_files
    tree_path = tmp_path / "tree.bmmt"
    assert main([
        "build-server", "--server-features", str(server_path), "--leaves", "8",
        "--seed", "-1", "--linkage", "ward", "--tree", str(tree_path),
    ]) == 0
    tree = load_tree(tree_path)
    # the seed as the k-means generator reads it
    assert (tree.seed, tree.linkage, tree.server_sha256) == (2**63 - 1, "ward", server.sha256)


def test_loaded_tree_gives_the_built_trees_cost_bits(tmp_path, world_files):
    """The kernel's matmul bits depend on the covariance stack's memory
    layout, so the unpacked stack must be laid out as the built one."""
    _, server, target, _, _ = world_files
    tree = build_server_tree(server, 8)
    persist_tree(tree, tmp_path / "tree.bmmt")
    _, stats = target_mode_stats(target, 4)
    loaded = cost_matrix(load_tree(tmp_path / "tree.bmmt"), stats)
    assert loaded.tobytes() == cost_matrix(tree, stats).tobytes()


def test_build_server_rejects_oversized_j(tmp_path, world_files, capsys):
    _, server, _, server_path, _ = world_files
    code = main([
        "build-server", "--server-features", str(server_path),
        "--leaves", str(10_000), "--tree", str(tmp_path / "t.bmmt"),
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


def test_bench_refuses_an_oversized_j_before_fitting_any_tree(tmp_path, monkeypatch, capsys):
    world_path = tmp_path / "world.json"
    save_world(granularity_probe_world(seed=0), world_path)
    fits = []
    monkeypatch.setattr(bmm.pipeline, "fit_balanced_kmeans", lambda *a: fits.append(a))
    code = main([
        "bench", "--world", str(world_path), "--leaves", "16,32,64,128,5000",
        "--target-clusters", "6", "--out", str(tmp_path / "bench.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: leaf count J=5000 must be at most n // 2 = 1600 for n=3200 server rows\n"
    assert fits == [] and not (tmp_path / "bench.csv").exists()


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


def test_match_thread_count_does_not_change_outputs(tmp_path, world_files):
    """A match with OpenBLAS held to one thread writes the bytes of one at its
    default thread count."""
    _, _, _, server_path, target_path = world_files
    code, tree_path = run_build(tmp_path, server_path)
    outputs = {}
    for run in ("serial", "default"):
        out = tmp_path / f"{run}.manifest"
        argv = match_args(tree_path, server_path, target_path, out)
        argv += ["--cost-csv", str(tmp_path / f"{run}.csv")]
        if run == "serial":
            one_blas_thread("-m", "bmm.cli", *argv)
        else:
            assert main(argv) == 0
        paths = (out, tmp_path / f"{run}.manifest.report.json", tmp_path / f"{run}.csv")
        outputs[run] = [path.read_bytes() for path in paths]
    assert outputs["serial"] == outputs["default"]


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


# Each mutation maps the matched manifest's selected_nodes value ("7,3": two
# disjoint leaves of the J=8 tree, whose nodes are 0..14) to the value to
# write, None dropping the line, and names a fragment of the refusal.
BAD_SELECTED_NODES = {
    "not-an-integer": (lambda raw: "abc", "'selected_nodes' metadata"),
    "repeated-id": (lambda raw: f"{raw},{raw}", "'selected_nodes' metadata"),
    "missing": (lambda raw: None, "lacks 'selected_nodes' metadata"),
    "id-at-node-count": (lambda raw: "15", "unknown node 15"),
    "first-node-only": (lambda raw: raw.split(",")[0], "selected nodes cover 80 of the"),
}


@pytest.mark.parametrize("mutation", sorted(BAD_SELECTED_NODES))
def test_prune_stratified_rejects_bad_selected_nodes(tmp_path, world_files, mutation, capsys):
    _, _, _, server_path, target_path = world_files
    code, tree_path = run_build(tmp_path, server_path)
    out = tmp_path / "sel.manifest"
    assert main(match_args(tree_path, server_path, target_path, out)) == 0
    manifest = read_manifest(out)
    edit, fragment = BAD_SELECTED_NODES[mutation]
    value = edit(manifest.metadata.pop("selected_nodes"))
    if value is not None:
        manifest.metadata["selected_nodes"] = value
    write_manifest(manifest, out)
    code = main([
        "prune", "--manifest", str(out), "--budget-frac", "0.5", "--strategy", "stratified",
        "--tree", str(tree_path), "--server-features", str(server_path),
        "--out", str(tmp_path / "x.manifest"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert fragment in err


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


def _set_key(*path, value):
    """A mutation that sets the entry at path (keys and indexes) to value."""
    def mutate(payload: dict) -> dict:
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return payload
    return mutate


# Each mutation takes a valid world config and returns the document to write.
# The valid world has d=8, supers 0 (subs 0, 1) and 1 (sub 0), and targets 0
# and 1 on sub (0, 0) and target 2 on sub (1, 0).
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
    "dimension-zero": _set_key("dimension", value=0),
    "no-target-modes": _set_key("target_modes", value=[]),
    "center-too-short": _set_key("super_modes", 0, "center", value=[0.0] * 7),
    "super-without-subs": _set_key("super_modes", 1, "sub_modes", value=[]),
    "unknown-super": _set_key("target_modes", 2, "super", value=2),
    "unknown-sub": _set_key("target_modes", 0, "sub", value=2),
    "target-count-one": _set_key("target_modes", 1, "count", value=1),
    "scale-multiplier-zero": _set_key("target_modes", 2, "scale_multiplier", value=0.0),
    # json writes these as NaN and Infinity, which json reads back
    "center-nan": _set_key("super_modes", 1, "center", 3, value=float("nan")),
    "offset-inf": _set_key("super_modes", 0, "sub_modes", 1, "offset", 0, value=float("-inf")),
    "scale-nan": _set_key("super_modes", 0, "sub_modes", 1, "scale", value=float("nan")),
    "scale-inf": _set_key("super_modes", 1, "sub_modes", 0, "scale", value=float("inf")),
    "mean-shift-nan": _set_key("target_modes", 1, "mean_shift", value=[float("nan")] * 8),
    "scale-multiplier-inf": _set_key("target_modes", 0, "scale_multiplier", value=float("inf")),
    "scale-multiplier-nan": _set_key("target_modes", 2, "scale_multiplier", value=float("nan")),
}


# The refusal of each world that parses but breaks a rule of PlantedWorld.validate.
MALFORMED_WORLD_ERRORS = {
    "dimension-zero": "dimension must be >= 1, got 0",
    "no-target-modes": "a world needs at least one super mode and one target mode",
    "center-too-short": "super 0 center has the wrong dimension",
    "super-without-subs": "super 1 has no sub modes",
    "unknown-super": "target mode 2 references unknown super 2",
    "unknown-sub": "target mode 0 references unknown sub 2",
    "target-count-one": "target mode 1 needs count >= 2, got 1",
    "scale-multiplier-zero": "target mode 2 has degenerate scale multiplier",
    "center-nan": "super 1 center is not finite",
    "offset-inf": "sub mode (0,1) offset is not finite",
    "scale-nan": "sub mode (0,1) has degenerate scale nan",
    "scale-inf": "sub mode (1,0) has degenerate scale inf",
    "mean-shift-nan": "target mode 1 mean shift is not finite",
    "scale-multiplier-inf": "target mode 0 has degenerate scale multiplier",
    "scale-multiplier-nan": "target mode 2 has degenerate scale multiplier",
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
    assert MALFORMED_WORLD_ERRORS.get(mutation, "") in err


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


def stratified_args(manifest_path, tree_path, server_path, out_path):
    return [
        "prune", "--manifest", str(manifest_path), "--budget-frac", "0.5",
        "--strategy", "stratified", "--tree", str(tree_path),
        "--server-features", str(server_path), "--out", str(out_path),
    ]


def test_match_and_prune_bind_the_tree_to_its_server(tmp_path, world_files, capsys):
    """A server with the tree's row count but one other float32 value, id or
    label is not the tree's server, for match and for stratified prune."""
    _, server, _, server_path, target_path = world_files
    _, tree_path = run_build(tmp_path, server_path)
    manifest = tmp_path / "sel.manifest"
    assert main(match_args(tree_path, server_path, target_path, manifest)) == 0
    values = server.values.copy()
    values[7, 0] = np.nextafter(values[7, 0], np.float32(np.inf))
    ids, labels = list(server.sample_ids), list(server.dataset_labels)
    others = {
        "value": FeatureMatrix(values, ids, labels),
        "id": FeatureMatrix(server.values, ids[:3] + [ids[3] + "x"] + ids[4:], labels),
        "label": FeatureMatrix(server.values, ids, labels[:-1] + [labels[-1] + "x"]),
    }
    for name, other in others.items():
        path = tmp_path / f"{name}.bmmf"
        write_features(other, path)
        out = tmp_path / f"{name}.manifest"
        assert main(match_args(tree_path, path, target_path, out)) == 2, name
        assert "not the server the tree was built from" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / f"{name}.manifest.report.txt").exists()
        assert main(stratified_args(manifest, tree_path, path, out)) == 2, name
        assert "not the server the tree was built from" in capsys.readouterr().err


def test_match_writes_the_tree_digest_and_prune_checks_it(tmp_path, world_files, capsys):
    _, _, _, server_path, target_path = world_files
    _, tree_path = run_build(tmp_path, server_path)
    out = tmp_path / "sel.manifest"
    assert main(match_args(tree_path, server_path, target_path, out)) == 0
    manifest = read_manifest(out)
    assert manifest.metadata["tree_sha256"] == tree_path.read_bytes()[-32:].hex()
    pruned = tmp_path / "pruned.manifest"
    assert main(stratified_args(out, tree_path, server_path, pruned)) == 0
    assert read_manifest(pruned).metadata["tree_sha256"] == manifest.metadata["tree_sha256"]

    # the same server under another seed is another tree
    (tmp_path / "other").mkdir()
    _, other_tree = run_build(tmp_path / "other", server_path, seed=1)
    assert main(stratified_args(out, other_tree, server_path, pruned)) == 2
    assert "not this tree" in capsys.readouterr().err
    del manifest.metadata["tree_sha256"]
    write_manifest(manifest, out)
    assert main(stratified_args(out, tree_path, server_path, pruned)) == 2
    assert "lacks 'tree_sha256' metadata" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["sample_ids", "dataset_labels"])
def test_ids_a_manifest_cannot_hold_are_refused_before_any_output(
    tmp_path, monkeypatch, field, capsys
):
    """A server id with a comma or a label with a newline could never be
    written to a manifest: build-server refuses it, and so does match, before
    it writes any report, against a tree built without the check."""
    values = np.random.default_rng(0).normal(size=(40, 3))
    columns = {"sample_ids": [f"a{i}" for i in range(40)], "dataset_labels": ["set"] * 40}
    columns[field] = [f"a,{i}" for i in range(40)] if field == "sample_ids" else ["x\ny"] * 40
    server_path, target_path = tmp_path / "server.bmmf", tmp_path / "target.bmmf"
    write_features(FeatureMatrix(values, **columns), server_path)
    write_features(
        FeatureMatrix(values[:20], [f"t{i}" for i in range(20)], ["target"] * 20), target_path
    )
    code, tree_path = run_build(tmp_path, server_path, leaves=4)
    assert code == 2
    assert "may not contain commas or newlines" in capsys.readouterr().err
    assert not tree_path.exists()

    with monkeypatch.context() as patched:
        patched.setattr(bmm.features, "_csv_safe", lambda text, what: text)
        assert run_build(tmp_path, server_path, leaves=4)[0] == 0
    capsys.readouterr()
    code = main(match_args(tree_path, server_path, target_path, tmp_path / "sel.manifest"))
    assert code == 2
    assert "may not contain commas or newlines" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["server.bmmf", "target.bmmf", "tree.bmmt"]



@pytest.fixture(scope="module")
def tree_blob(tmp_path_factory, world_files):
    _, _, _, server_path, _ = world_files
    _, tree_path = run_build(tmp_path_factory.mktemp("tree"), server_path)
    return tree_path.read_bytes()


# magic, version, rows n, leaves J, dimension d, seed, linkage index, server SHA-256
TREE_HEADER = struct.Struct("<4sHQIIQH32s")
V3_HEADER = struct.Struct("<4sHQII")  # magic, version, rows n, leaves J, dimension d


def tree_parts(blob: bytes):
    """The header fields, leaf labels, node records and packed leaf
    covariances (J x d(d+1)/2) of a version-5 tree, as writable copies; the
    trailing digest is dropped."""
    header = list(TREE_HEADER.unpack_from(blob))
    n, j, d = header[2:5]
    record = np.dtype([
        ("children", "<i4", (2,)), ("count", "<i8"), ("mean", "<f8", (d,)),
        ("spectrum", "<f8", (d,)),
    ])
    labels = np.frombuffer(blob, "<i4", n, TREE_HEADER.size).copy()
    records = np.frombuffer(blob, record, 2 * j - 1, TREE_HEADER.size + 4 * n).copy()
    packed = d * (d + 1) // 2
    covs = np.frombuffer(blob, "<f8", j * packed, TREE_HEADER.size + 4 * n + records.nbytes)
    return header, labels, records, covs.reshape(j, packed).copy()


def full_covs(records, covs) -> np.ndarray:
    """Every node's full covariance: the leaves' unpacked, the merged ones pooled."""
    return hierarchy._pooled_covs(
        records["children"].astype(np.int64), records["count"], records["mean"], covs
    )


def v5_bytes(header, labels, records, covs) -> bytes:
    """A version-5 tree file from its parts, ending with the SHA-256 of the bytes before it."""
    data = TREE_HEADER.pack(*header) + labels.tobytes() + records.tobytes() + covs.tobytes()
    return data + hashlib.sha256(data).digest()


def v3_bytes(blob: bytes) -> bytes:
    """The tree as version 3 wrote it: full covariances, no spectra, provenance or digest."""
    header, labels, records, covs = tree_parts(blob)
    n, j, d = header[2:5]
    record = np.dtype(
        [("children", "<i4", (2,)), ("count", "<i8"), ("mean", "<f8", (d,)), ("cov", "<f8", (d, d))]
    )
    old = np.zeros(len(records), dtype=record)
    for name in ("children", "count", "mean"):
        old[name] = records[name]
    old["cov"] = full_covs(records, covs)
    return V3_HEADER.pack(b"BMMT", 3, n, j, d) + labels.tobytes() + old.tobytes()


def v4_bytes(blob: bytes) -> bytes:
    """The tree as version 4 wrote it: a packed covariance in every node record."""
    header, labels, records, covs = tree_parts(blob)
    d = header[4]
    record = np.dtype([
        ("children", "<i4", (2,)), ("count", "<i8"), ("mean", "<f8", (d,)),
        ("cov", "<f8", (d * (d + 1) // 2,)), ("spectrum", "<f8", (d,)),
    ])
    old = np.zeros(len(records), dtype=record)
    for name in ("children", "count", "mean", "spectrum"):
        old[name] = records[name]
    rows, cols = np.triu_indices(d)
    old["cov"] = full_covs(records, covs)[:, rows, cols]
    header[1] = 4
    data = TREE_HEADER.pack(*header) + labels.tobytes() + old.tobytes()
    return data + hashlib.sha256(data).digest()


def v2_payload(blob: bytes) -> dict:
    """The tree as the earlier JSON format (version 2) wrote it."""
    header, labels, records, covs = tree_parts(blob)
    children = [[c for c in rec.tolist() if c >= 0] for rec in records["children"]]
    parents = {c: i for i, pair in enumerate(children) for c in pair}
    covs = full_covs(records, covs)
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
                "covariance": covs[i].tolist(),
                "count": int(records["count"][i]),
            }
            for i in range(len(records))
        ],
    }


def _set(record, key, value):
    record[key] = value


def _v5(change):
    """A mutation that edits the parsed header list, labels, records and leaf
    covariances in place, then writes them with a fresh digest, so that the
    loader's checks behind the digest see the edit."""
    def apply(blob):
        parts = tree_parts(blob)
        change(*parts)
        return v5_bytes(*parts)
    return apply


def _flip(offset: int):
    """A mutation that flips the low bit of the byte at `offset` (from the end
    when negative), keeping the stored digest."""
    def apply(blob):
        at = offset % len(blob)
        return blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1:]
    return apply


def _json(change):
    """A mutation that edits the tree's version-2 JSON document in place."""
    def apply(blob):
        payload = v2_payload(blob)
        change(payload)
        return json.dumps(payload).encode()
    return apply


# Each mutation maps the bytes of a valid version-5 tree (built with J=8, so
# records 0..7 are leaves and record 14 is the root) to the bytes to load.
# The JSON mutations break one rule of the earlier version-2 JSON format;
# like an intact JSON tree or a version-3 or version-4 file, they must be
# refused as incompatible.
MALFORMED_TREES = {
    "bad-magic": lambda blob: b"BMMX" + blob[4:],
    "version-99": _v5(lambda h, l, r, c: _set(h, 1, 99)),
    "version-2": _v5(lambda h, l, r, c: _set(h, 1, 2)),
    "v2-json": _json(lambda p: None),
    "truncated-one-byte": lambda blob: blob[:-1],
    "trailing-byte": lambda blob: blob + b"\0",
    "leaf-count-zero": _v5(lambda h, l, r, c: _set(h, 3, 0)),
    "dimension-zero": _v5(lambda h, l, r, c: _set(h, 4, 0)),
    "rows-one-more": _v5(lambda h, l, r, c: _set(h, 2, h[2] + 1)),
    # packed index 1 is the (0, 1) entry
    "nan-leaf-covariance": _v5(lambda h, l, r, c: _set(c[3], 1, np.nan)),
    # leaf 3 holds more than two rows, so (count - 1) * 1e308 overflows in its parent's pool
    "huge-leaf-covariance-pools-to-inf": _v5(lambda h, l, r, c: _set(c, 3, 1e308)),
    "nan-spectrum": _v5(lambda h, l, r, c: _set(r["spectrum"][5], 0, np.nan)),
    "inf-spectrum": _v5(lambda h, l, r, c: _set(r["spectrum"][12], -1, np.inf)),
    "unsorted-spectrum": _v5(lambda h, l, r, c: _set(r["spectrum"], 5, r["spectrum"][5][::-1])),
    "linkage-unknown": _v5(lambda h, l, r, c: _set(h, 6, len(LINKAGES))),
    "version-3": v3_bytes,
    "version-4": v4_bytes,
    "header-cut": lambda blob: blob[:5],
    "header-cut-6-bytes": lambda blob: blob[:6],
    "header-cut-63-bytes": lambda blob: blob[:63],
    # a header cut before its end is truncated, whatever its version field holds
    "version-99-cut-63-bytes": lambda blob: MALFORMED_TREES["version-99"](blob)[:63],
    "flipped-seed-byte": _flip(22),
    "flipped-server-digest-byte": _flip(40),
    "flipped-payload-byte": _flip(-100),
    "flipped-digest-byte": _flip(-1),
    "inf-merged-mean": _v5(lambda h, l, r, c: _set(r["mean"][10], 0, np.inf)),
    "leaf-label-at-j": _v5(lambda h, l, r, c: _set(l, 0, 8)),
    "leaf-label-negative": _v5(lambda h, l, r, c: _set(l, 0, -1)),
    "label-moved": _v5(lambda h, l, r, c: _set(l, np.flatnonzero(l == 0)[0], 1)),
    "child-id-at-parent": _v5(lambda h, l, r, c: _set(r["children"][14], 0, 14)),
    "child-id-above-parent": _v5(lambda h, l, r, c: _set(r["children"][8], 0, 12)),
    "child-id-minus-two": _v5(lambda h, l, r, c: _set(r["children"][14], 0, -2)),
    "leaf-with-children": _v5(lambda h, l, r, c: _set(r["children"], 3, (0, 1))),
    "merged-without-children": _v5(lambda h, l, r, c: _set(r["children"], 10, (-1, -1))),
    "half-leaf-children": _v5(lambda h, l, r, c: _set(r["children"][12], 0, -1)),
    "repeated-child": _v5(lambda h, l, r, c: _set(r["children"][14], 1, r["children"][14][0])),
    "child-shared-by-two-parents": _v5(
        lambda h, l, r, c: _set(r["children"][9], 0, r["children"][8][0])
    ),
    "leaf-count-off": _v5(lambda h, l, r, c: _set(r["count"], 0, r["count"][0] + 1)),
    "root-count-off": _v5(lambda h, l, r, c: _set(r["count"], 14, r["count"][14] - 1)),
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


# The check that must refuse a mutation, where more than one could.
MALFORMED_TREE_ERRORS = {
    "version-3": "tree version 3 is incompatible",
    "version-4": "tree version 4 is incompatible",
    "nan-leaf-covariance": "non-finite",
    "huge-leaf-covariance-pools-to-inf": "non-finite",
    "header-cut": "truncated tree header",
    "header-cut-6-bytes": "truncated tree header",
    "header-cut-63-bytes": "truncated tree header",
    "version-99-cut-63-bytes": "truncated tree header",
    "nan-spectrum": "non-finite",
    "inf-spectrum": "non-finite",
    "unsorted-spectrum": "ascending",
    "linkage-unknown": "unknown linkage",
    "flipped-seed-byte": "SHA-256",
    "flipped-server-digest-byte": "SHA-256",
    "flipped-payload-byte": "SHA-256",
    "flipped-digest-byte": "SHA-256",
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
    assert MALFORMED_TREE_ERRORS.get(mutation, "") in err


def test_v5_mutation_helpers_rebuild_the_tree_exactly(tree_blob):
    """The table's parser and writer are exact, so each mutation changes only what it names."""
    assert v5_bytes(*tree_parts(tree_blob)) == tree_blob


def test_match_huge_tree_mean_is_numerical_error(tmp_path, world_files, tree_blob, capsys):
    _, _, _, server_path, target_path = world_files
    tree_path = tmp_path / "tree.bmmt"
    tree_path.write_bytes(_v5(lambda h, l, r, c: _set(r["mean"][14], 0, 1e200))(tree_blob))
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
    match still exits 2 with the message of the full cost matrix. The file
    stores leaf covariances only, so the leaf's must pool to finite values:
    1e306 * I over its 80 rows does (79e306 < 1.8e308), and a target ridged at
    eps 1e3 takes its product past the float range."""
    _, _, target, server_path, target_path = world_files
    tree_path = tmp_path / "tree.bmmt"
    def huge_leaf(h, l, r, c):
        # the covariance 1e306 * I, packed, and its spectrum, as a build would store them
        c[3] = (np.eye(h[4]) * 1e306)[np.triu_indices(h[4])]
        r["spectrum"][3] = 1e306

    tree_path.write_bytes(_v5(huge_leaf)(tree_blob))
    _, stats = target_mode_stats(target, 2)
    with pytest.raises(BmmError) as full:
        cost_matrix(load_tree(tree_path), stats, eps=1e3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        argv = match_args(tree_path, server_path, target_path, tmp_path / "x.manifest")
        code = main(argv + ["--eps-cov", "1e3"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {full.value}\n"
    assert "overflows for node column 3" in str(full.value)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def eps_argv(tmp_path, world_files, tree_blob, command, out):
    """`match`, `evaluate` (over the whole server) or `bench` writing to `out`."""
    if command == "bench":
        world_path = tmp_path / "world.json"
        save_world(shared_nearest_world(seed=0, per_mode=10), world_path)
        return ["bench", "--world", str(world_path), "--leaves", "4", "--target-clusters", "3",
                "--out", str(out)]
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


@pytest.mark.parametrize("command", ["match", "evaluate", "bench"])
def test_eps_cov_must_be_finite(tmp_path, world_files, tree_blob, command, capsys):
    """Every command refuses the same eps values with one message, from the kernel."""
    out = tmp_path / "out"
    argv = eps_argv(tmp_path, world_files, tree_blob, command, out)
    for eps in ("0", "nan", "inf"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--eps-cov", eps])
        err = capsys.readouterr().err
        assert code == 2, eps
        assert err == f"error: eps must be finite and positive, got {float(eps)}\n"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()


@pytest.mark.parametrize("flag", ["--cost-csv", "--report"])
def test_match_writes_no_manifest_when_an_output_fails(tmp_path, world_files, flag, capsys):
    _, _, _, server_path, target_path = world_files
    _, tree_path = run_build(tmp_path, server_path)
    out = tmp_path / "sel.manifest"
    unwritable = str(tmp_path / "missing" / "out")
    code = main(match_args(tree_path, server_path, target_path, out) + [flag, unwritable])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_missing_file_is_parameter_error(tmp_path, capsys):
    code = main([
        "build-server", "--server-features", str(tmp_path / "missing.bmmf"),
        "--tree", str(tmp_path / "t.bmmt"),
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


def test_module_entry_point(tmp_path):
    """`python -m bmm.cli` runs cli.entrypoint, which exits with main's code."""
    version = run_python("-m", "bmm.cli", "--version")
    assert version.returncode == 0, version.stderr.decode()
    assert version.stdout.decode() == f"bmm {bmm.__version__}\n"
    manifest = tmp_path / "m.manifest"
    manifest.write_text("p0,set-a\n", encoding="utf-8")
    refused = run_python(
        "-m", "bmm.cli", "prune", "--manifest", str(manifest), "--budget-n", "0",
        "--out", str(tmp_path / "o.manifest"),
    )
    err = refused.stderr.decode()
    assert refused.returncode == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert "absolute budget" in err
