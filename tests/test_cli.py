from __future__ import annotations

import functools
import hashlib
import json
import struct
from collections import Counter

import numpy as np
import pytest

import bmm
from bmm import (
    FeatureMatrix, generate, load_tree, persist_tree, read_manifest,
    save_world, write_features, write_manifest,
)
from bmm import cli
from bmm.cli import main
from bmm import hierarchy
from bmm.pipeline import build_server_tree, target_mode_stats
from bmm.synth import granularity_probe_world, random_subset_world

from conftest import one_blas_thread, run_python, shared_nearest_world
from oracles import full_cost_matrix


@functools.cache
def world_features():
    """The (server, target) features of the tests' world."""
    world = random_subset_world(seed=5, per_sub=40, per_target=50, n_target_modes=2,
                                include_whole_super=False)
    return generate(world)[:2]


@pytest.fixture(scope="module")
def world_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    server, target = world_features()
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
    tree = load_tree(tree_path, server)
    assert tree.node_count == 15
    assert tree.node(tree.root_id).size == server.n


def test_tree_records_how_and_from_what_it_was_built(tmp_path, world_files):
    _, server, _, server_path, _ = world_files
    tree_path = tmp_path / "tree.bmmt"
    assert main([
        "build-server", "--server-features", str(server_path), "--leaves", "8",
        "--seed", "-1", "--tree", str(tree_path),
    ]) == 0
    tree = load_tree(tree_path, server)
    # the seed as the k-means generator reads it
    assert (tree.seed, tree.server.sha256) == (2**63 - 1, server.sha256)


def test_loaded_tree_gives_the_built_trees_cost_bits(tmp_path, world_files):
    """The kernel's matmul bits depend on the covariance stack's memory
    layout, so the derived stack must be laid out as the built one."""
    _, server, target, _, _ = world_files
    tree = build_server_tree(server, 8)
    persist_tree(tree, tmp_path / "tree.bmmt")
    _, stats = target_mode_stats(target, 4)
    loaded = full_cost_matrix(load_tree(tmp_path / "tree.bmmt", server), stats)
    assert loaded.tobytes() == full_cost_matrix(tree, stats).tobytes()


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
        if run == "serial":
            one_blas_thread("-m", "bmm.cli", *argv)
        else:
            assert main(argv) == 0
        paths = (out, tmp_path / f"{run}.manifest.report.json")
        outputs[run] = [path.read_bytes() for path in paths]
    assert outputs["serial"] == outputs["default"]


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

    tree = load_tree(tree_path, server)
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


@pytest.mark.parametrize("flags", [["--tree", "tree.bmmt"], ["--server-features", "s.bmmf"]])
def test_prune_uniform_refuses_tree_flags(tmp_path, world_files, capsys, flags):
    """A uniform draw reads neither flag, so passing one is refused, not ignored."""
    _, _, _, server_path, target_path = world_files
    _, tree_path = run_build(tmp_path, server_path)
    out = tmp_path / "sel.manifest"
    assert main(match_args(tree_path, server_path, target_path, out)) == 0
    pruned_path = tmp_path / "uniform.manifest"
    code = main([
        "prune", "--manifest", str(out), "--budget-n", "5", "--strategy", "uniform",
        *flags, "--out", str(pruned_path),
    ])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: uniform pruning takes no --tree or --server-features\n"
    )
    assert not pruned_path.exists()


def test_memory_error_exits_2(tmp_path, world_files, monkeypatch, capsys):
    """An allocation that fails ends in an error line and exit 2, not a traceback."""
    _, _, _, server_path, _ = world_files

    def exhausted(*args):
        raise MemoryError("Unable to allocate 26.8 GiB for an array")

    monkeypatch.setattr(cli, "build_server_tree", exhausted)
    code, tree_path = run_build(tmp_path, server_path)
    assert code == 2
    assert capsys.readouterr().err == "error: Unable to allocate 26.8 GiB for an array\n"
    assert not tree_path.exists()


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
    assert lines[0] == "variant,J,L,fid,precision"
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
    # 8 values, but not a vector of them
    "center-2d": _set_key("super_modes", 0, "center", value=[[0.0] * 4] * 2),
    "offset-2d": _set_key("super_modes", 0, "sub_modes", 1, "offset", value=[[0.0] * 4] * 2),
    "mean-shift-2d": _set_key("target_modes", 1, "mean_shift", value=[[0.0] * 2] * 4),
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
    "center-too-short": "super 0 center has the wrong dimension: shape (7,), need (8,)",
    "center-2d": "super 0 center has the wrong dimension: shape (2, 4), need (8,)",
    "offset-2d": "sub mode (0,1) offset has the wrong dimension: shape (2, 4), need (8,)",
    "mean-shift-2d": "target mode 1 mean shift has the wrong dimension: shape (4, 2), need (8,)",
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


def pipeline_outputs(root, server_format, target_format) -> dict[str, bytes]:
    """The bytes of every file that build-server, match, evaluate and a
    stratified prune write for the tests' world, with the server and the
    target written in the given feature formats."""
    server, target = world_features()
    server_path = root / f"server.{server_format}"
    target_path = root / f"target.{target_format}"
    write_features(server, server_path, server_format)
    write_features(target, target_path, target_format)
    tree = root / "tree.bmmt"
    manifest = root / "sel.manifest"
    assert main([
        "build-server", "--server-features", str(server_path), "--leaves", "8",
        "--tree", str(tree),
    ]) == 0
    assert main(match_args(tree, server_path, target_path, manifest)) == 0
    assert main([
        "evaluate", "--manifest", str(manifest), "--server-features", str(server_path),
        "--target-features", str(target_path), "--out", str(root / "gap.json"),
    ]) == 0
    assert main(stratified_args(manifest, tree, server_path, root / "pruned.manifest")) == 0
    names = ["tree.bmmt", "sel.manifest", "sel.manifest.report.txt", "sel.manifest.report.json",
             "gap.json", "pruned.manifest"]
    return {name: (root / name).read_bytes() for name in names}


@pytest.mark.parametrize("target_format", ["binary", "csv"])
@pytest.mark.parametrize("server_format", ["binary", "csv"])
def test_csv_feature_format_end_to_end(tmp_path, server_format, target_format):
    """Each reader tells the formats apart by the binary magic, so any mix of
    binary and CSV inputs writes the all-binary run's bytes."""
    (tmp_path / "binary").mkdir()
    (tmp_path / "mixed").mkdir()
    expected = pipeline_outputs(tmp_path / "binary", "binary", "binary")
    assert pipeline_outputs(tmp_path / "mixed", server_format, target_format) == expected


def test_csv_value_beyond_float32_exits_2_without_a_warning(tmp_path):
    """The error names the file line and float32, and numpy's overflow
    warning does not reach stderr."""
    server = tmp_path / "server.csv"
    server.write_text("sample_id,dataset_label,f0\na,x,1\nb,x,2\n\nc,x,1e39\nd,x,3\n")
    done = run_python("-m", "bmm.cli", "build-server", "--server-features", str(server),
                      "--leaves", "1", "--tree", str(tmp_path / "tree.bmmt"))
    assert done.returncode == 2
    assert done.stderr.decode() == (
        f"error: {server}:5: feature value 1e39 is beyond float32's range "
        "(no b'BMMF' magic, so read as CSV)\n"
    )


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


# server id and label columns that no manifest line can hold, the first value
# build-server names and what it says of it
UNLISTABLE_SERVERS = {
    "sample_ids": (
        [f"a,{i}" for i in range(40)], ["set"] * 40, "a,0", "may not contain commas or newlines"
    ),
    "dataset_labels": (
        [f"a{i}" for i in range(40)], ["x\ny"] * 40, "x\ny", "may not contain commas or newlines"
    ),
    "hash_ids": (
        [f"#{i}=x" if i % 2 else f"a{i}" for i in range(40)], ["set"] * 40, "#1=x",
        "may not start with '#'",
    ),
}


@pytest.mark.parametrize("case", list(UNLISTABLE_SERVERS))
def test_ids_a_manifest_cannot_hold_are_refused_before_any_output(
    tmp_path, monkeypatch, case, capsys
):
    """A server id with a comma, a label with a newline or an id that would
    read as a metadata line could never be written to a manifest:
    build-server refuses it, and so does match, before it writes any report,
    against a tree built without the check."""
    ids, labels, named, message = UNLISTABLE_SERVERS[case]
    values = np.random.default_rng(0).normal(size=(40, 3))
    server_path, target_path = tmp_path / "server.bmmf", tmp_path / "target.bmmf"
    write_features(FeatureMatrix(values, ids, labels), server_path)
    write_features(
        FeatureMatrix(values[:20], [f"t{i}" for i in range(20)], ["target"] * 20), target_path
    )
    code, tree_path = run_build(tmp_path, server_path, leaves=4)
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and repr(named) in err
    assert not tree_path.exists()

    with monkeypatch.context() as patched:
        patched.setattr(bmm.features, "_manifest_entry", lambda sid, label: None)
        assert run_build(tmp_path, server_path, leaves=4)[0] == 0
    capsys.readouterr()
    code = main(match_args(tree_path, server_path, target_path, tmp_path / "sel.manifest"))
    assert code == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["server.bmmf", "target.bmmf", "tree.bmmt"]



@pytest.fixture(scope="module")
def tree_blob(tmp_path_factory, world_files):
    _, _, _, server_path, _ = world_files
    _, tree_path = run_build(tmp_path_factory.mktemp("tree"), server_path)
    return tree_path.read_bytes()


# magic, version, rows n, leaves J, dimension d, seed, reserved (0), server SHA-256
TREE_HEADER = struct.Struct("<4sHQIIQH32s")
V3_HEADER = struct.Struct("<4sHQII")  # magic, version, rows n, leaves J, dimension d


def tree_parts(blob: bytes):
    """The header fields, leaf labels (one byte each, as J=8), merges (J-1 x 2
    int32 child ids) and spectra ((2J-1) x d) of a version-6 tree, as writable
    copies; the trailing digest is dropped."""
    header = list(TREE_HEADER.unpack_from(blob))
    n, j, d = header[2:5]
    labels = np.frombuffer(blob, "<u1", n, TREE_HEADER.size).copy()
    merges = np.frombuffer(blob, "<i4", 2 * (j - 1), TREE_HEADER.size + n).reshape(-1, 2).copy()
    spectra = np.frombuffer(blob, "<f8", (2 * j - 1) * d, TREE_HEADER.size + n + merges.nbytes)
    return header, labels, merges, spectra.reshape(-1, d).copy()


def v6_bytes(header, labels, merges, spectra) -> bytes:
    """A version-6 tree file from its parts, ending with the SHA-256 of the bytes before it."""
    data = TREE_HEADER.pack(*header) + labels.tobytes() + merges.tobytes() + spectra.tobytes()
    return data + hashlib.sha256(data).digest()


def node_records(blob: bytes):
    """The header fields, int32 leaf labels, node records (child ids, count,
    mean, spectrum) and full covariances of a version-6 tree's nodes, with the
    statistics derived from the world's server rows."""
    header, labels, merges, spectra = tree_parts(blob)
    j, d = header[3:5]
    children = np.concatenate([np.full((j, 2), -1), merges]).astype(np.int64)
    labels = labels.astype(np.int64)
    tree = hierarchy.ModeTree(children, spectra, labels, 0, world_features()[0])
    records = np.zeros(len(children), dtype=[
        ("children", "<i4", (2,)), ("count", "<i8"), ("mean", "<f8", (d,)),
        ("spectrum", "<f8", (d,)),
    ])
    records["children"], records["count"] = children, tree.counts
    records["mean"], records["spectrum"] = tree.means, spectra
    return header, labels.astype("<i4"), records, tree.covs


def v3_bytes(blob: bytes) -> bytes:
    """The tree as version 3 wrote it: full covariances, no spectra, provenance or digest."""
    header, labels, records, covs = node_records(blob)
    n, j, d = header[2:5]
    record = np.dtype(
        [("children", "<i4", (2,)), ("count", "<i8"), ("mean", "<f8", (d,)), ("cov", "<f8", (d, d))]
    )
    old = np.zeros(len(records), dtype=record)
    for name in ("children", "count", "mean"):
        old[name] = records[name]
    old["cov"] = covs
    return V3_HEADER.pack(b"BMMT", 3, n, j, d) + labels.tobytes() + old.tobytes()


def v4_bytes(blob: bytes) -> bytes:
    """The tree as version 4 wrote it: a packed covariance in every node record."""
    header, labels, records, covs = node_records(blob)
    d = header[4]
    record = np.dtype([
        ("children", "<i4", (2,)), ("count", "<i8"), ("mean", "<f8", (d,)),
        ("cov", "<f8", (d * (d + 1) // 2,)), ("spectrum", "<f8", (d,)),
    ])
    old = np.zeros(len(records), dtype=record)
    for name in ("children", "count", "mean", "spectrum"):
        old[name] = records[name]
    rows, cols = np.triu_indices(d)
    old["cov"] = covs[:, rows, cols]
    header[1] = 4
    data = TREE_HEADER.pack(*header) + labels.tobytes() + old.tobytes()
    return data + hashlib.sha256(data).digest()


def v5_bytes(blob: bytes) -> bytes:
    """The tree as version 5 wrote it: int32 labels, a record per node and
    the J leaf covariances' packed upper triangles."""
    header, labels, records, covs = node_records(blob)
    j, d = header[3:5]
    header[1] = 5
    rows, cols = np.triu_indices(d)
    data = TREE_HEADER.pack(*header) + labels.tobytes() + records.tobytes()
    data += covs[:j, rows, cols].tobytes()
    return data + hashlib.sha256(data).digest()


def v2_payload(blob: bytes) -> dict:
    """The tree as the earlier JSON format (version 2) wrote it."""
    header, labels, records, covs = node_records(blob)
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
                "covariance": covs[i].tolist(),
                "count": int(records["count"][i]),
            }
            for i in range(len(records))
        ],
    }


def _set(record, key, value):
    record[key] = value


def _v6(change):
    """A mutation that edits the parsed header list, labels, merges and
    spectra in place, then writes them with a fresh digest, so that the
    loader's checks behind the digest see the edit."""
    def apply(blob):
        parts = tree_parts(blob)
        change(*parts)
        return v6_bytes(*parts)
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


def _cut_labels(blob):
    """The tree with its last leaf label dropped and a fresh digest."""
    header, labels, merges, spectra = tree_parts(blob)
    return v6_bytes(header, labels[:-1], merges, spectra)


# Each mutation maps the bytes of a valid version-6 tree (built with J=8, so
# nodes 0..7 are the leaves, merge m is node 8 + m and node 14, merge 6, is
# the root) to the bytes to load. The JSON mutations break one rule of the
# earlier version-2 JSON format; like an intact JSON tree or a version-3, 4
# or 5 file, they must be refused as incompatible.
MALFORMED_TREES = {
    "bad-magic": lambda blob: b"BMMX" + blob[4:],
    "version-99": _v6(lambda h, l, m, s: _set(h, 1, 99)),
    "version-2": _v6(lambda h, l, m, s: _set(h, 1, 2)),
    "v2-json": _json(lambda p: None),
    "truncated-one-byte": lambda blob: blob[:-1],
    "trailing-byte": lambda blob: blob + b"\0",
    "leaf-count-zero": _v6(lambda h, l, m, s: _set(h, 3, 0)),
    "dimension-zero": _v6(lambda h, l, m, s: _set(h, 4, 0)),
    "rows-one-more": _v6(lambda h, l, m, s: _set(h, 2, h[2] + 1)),
    "labels-cut-one-byte": _cut_labels,
    "nan-spectrum": _v6(lambda h, l, m, s: _set(s[5], 0, np.nan)),
    "inf-spectrum": _v6(lambda h, l, m, s: _set(s[12], -1, np.inf)),
    "unsorted-spectrum": _v6(lambda h, l, m, s: _set(s, 5, s[5][::-1])),
    # what a tree built with the earlier Ward linkage holds in the reserved field
    "linkage-unknown": _v6(lambda h, l, m, s: _set(h, 6, 1)),
    "version-3": v3_bytes,
    "version-4": v4_bytes,
    "version-5": v5_bytes,
    "header-cut": lambda blob: blob[:5],
    "header-cut-6-bytes": lambda blob: blob[:6],
    "header-cut-63-bytes": lambda blob: blob[:63],
    # a header cut before its end is truncated, whatever its version field holds
    "version-99-cut-63-bytes": lambda blob: MALFORMED_TREES["version-99"](blob)[:63],
    "flipped-seed-byte": _flip(22),
    "flipped-server-digest-byte": _flip(40),
    "flipped-payload-byte": _flip(-100),
    "flipped-digest-byte": _flip(-1),
    # J in the one-byte label block
    "leaf-label-at-j": _v6(lambda h, l, m, s: _set(l, 0, 8)),
    # the byte of a -1: labels are unsigned, so it reads as 255
    "leaf-label-negative": _v6(lambda h, l, m, s: _set(l, 0, 255)),
    # all but one of leaf 0's rows moved to leaf 1
    "label-moved": _v6(lambda h, l, m, s: _set(l, np.flatnonzero(l == 0)[1:], 1)),
    "child-id-at-parent": _v6(lambda h, l, m, s: _set(m[6], 0, 14)),
    "child-id-above-parent": _v6(lambda h, l, m, s: _set(m[0], 0, 12)),
    "child-id-minus-two": _v6(lambda h, l, m, s: _set(m[6], 0, -2)),
    "merged-without-children": _v6(lambda h, l, m, s: _set(m, 2, (-1, -1))),
    "half-leaf-children": _v6(lambda h, l, m, s: _set(m[4], 0, -1)),
    "repeated-child": _v6(lambda h, l, m, s: _set(m[6], 1, m[6][0])),
    "child-shared-by-two-parents": _v6(lambda h, l, m, s: _set(m[1], 0, m[0][0])),
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
    "version-5": "tree version 5 is incompatible",
    "labels-cut-one-byte": "bytes, but n=",
    "header-cut": "truncated tree header",
    "header-cut-6-bytes": "truncated tree header",
    "header-cut-63-bytes": "truncated tree header",
    "version-99-cut-63-bytes": "truncated tree header",
    "nan-spectrum": "non-finite",
    "inf-spectrum": "non-finite",
    "unsorted-spectrum": "ascending",
    "linkage-unknown": "tree was built with a linkage this build no longer reads; "
                       "rebuild it with build-server",
    "flipped-seed-byte": "SHA-256",
    "flipped-server-digest-byte": "SHA-256",
    "flipped-payload-byte": "SHA-256",
    "flipped-digest-byte": "SHA-256",
    "leaf-label-at-j": "leaf labels must be row labels in [0, 8)",
    "leaf-label-negative": "leaf labels must be row labels in [0, 8)",
    "label-moved": "leaf 0 is empty or a single row (1 rows)",
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
    """The table's parser and writer are exact, so each mutation changes only
    what it names, and the version-5 writer writes that layout's size."""
    assert v6_bytes(*tree_parts(tree_blob)) == tree_blob
    n, j, d = TREE_HEADER.unpack_from(tree_blob)[2:5]
    v5_size = 64 + 4 * n + (2 * j - 1) * (16 + 16 * d) + j * 8 * d * (d + 1) // 2 + 32
    assert len(v5_bytes(tree_blob)) == v5_size


def test_stratified_prune_never_derives_statistics(tmp_path, world_files, monkeypatch):
    """Stratified prune reads only the tree's labels and links: with the
    statistics' derivation broken it writes the same pruned bytes. match
    derives them exactly once."""
    _, _, _, server_path, target_path = world_files
    _, tree_path = run_build(tmp_path, server_path)
    calls = []

    def counted(*args):
        calls.append(args)
        return leaf_moments(*args)

    def broken(*args):
        raise AssertionError("stratified prune derived node statistics")

    leaf_moments = hierarchy.group_moments
    monkeypatch.setattr(hierarchy, "group_moments", counted)
    manifest, pruned = tmp_path / "sel.manifest", tmp_path / "pruned.manifest"
    assert main(match_args(tree_path, server_path, target_path, manifest)) == 0
    assert len(calls) == 1
    assert main(stratified_args(manifest, tree_path, server_path, pruned)) == 0
    assert len(calls) == 1
    expected = pruned.read_bytes()
    pruned.unlink()
    monkeypatch.setattr(hierarchy, "group_moments", broken)
    assert main(stratified_args(manifest, tree_path, server_path, pruned)) == 0
    assert pruned.read_bytes() == expected


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


@pytest.mark.parametrize("command", ["match", "evaluate", "bench"])
def test_eps_cov_is_an_unknown_flag(tmp_path, world_files, tree_blob, command):
    """The covariance ridge is a constant: `--eps-cov` ends in argparse's
    usage error, exit 2, and nothing is written."""
    out = tmp_path / "out"
    argv = eps_argv(tmp_path, world_files, tree_blob, command, out)
    done = run_python("-m", "bmm.cli", *argv, "--eps-cov", "1e-6")
    err = done.stderr.decode()
    assert done.returncode == 2
    assert err.startswith("usage: bmm [-h] [--version]") and "Traceback" not in err
    assert err.endswith("error: unrecognized arguments: --eps-cov 1e-6\n")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--report"])
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


def test_match_cost_csv_is_an_unknown_flag(tmp_path, world_files):
    """`match` has no full-matrix dump: `--cost-csv` ends in argparse's usage error, exit 2."""
    _, _, _, server_path, target_path = world_files
    argv = match_args(tmp_path / "t.bmmt", server_path, target_path, tmp_path / "sel.manifest")
    done = run_python("-m", "bmm.cli", *argv, "--cost-csv", "x")
    err = done.stderr.decode()
    assert done.returncode == 2
    assert err.startswith("usage: bmm [-h] [--version]")
    assert err.endswith("error: unrecognized arguments: --cost-csv x\n")
    assert not (tmp_path / "sel.manifest").exists()


@pytest.mark.parametrize("command, linkage", [("build-server", "centroid"), ("bench", "ward")])
def test_linkage_is_an_unknown_flag(tmp_path, world_files, command, linkage):
    """There is one merge rule: `--linkage` ends in argparse's usage error,
    exit 2, and nothing is written."""
    _, _, _, server_path, _ = world_files
    out = tmp_path / "out"
    if command == "build-server":
        argv = ["build-server", "--server-features", str(server_path), "--leaves", "4",
                "--tree", str(out)]
    else:
        save_world(shared_nearest_world(seed=0, per_mode=10), tmp_path / "world.json")
        argv = ["bench", "--world", str(tmp_path / "world.json"), "--leaves", "4",
                "--target-clusters", "3", "--out", str(out)]
    done = run_python("-m", "bmm.cli", *argv, "--linkage", linkage)
    err = done.stderr.decode()
    assert done.returncode == 2
    assert err.startswith("usage: bmm [-h] [--version]") and "Traceback" not in err
    assert err.endswith(f"error: unrecognized arguments: --linkage {linkage}\n")
    assert not out.exists()


def test_warn_fid_must_be_a_number(tmp_path, world_files, tree_blob, capsys):
    """No distance exceeds NaN, so `--warn-fid nan` would flag nothing: it is
    refused before any work. An infinite or negative value keeps its meaning."""
    _, _, _, server_path, target_path = world_files
    tree_path = tmp_path / "tree.bmmt"
    tree_path.write_bytes(tree_blob)
    out = tmp_path / "sel.manifest"
    argv = match_args(tree_path, server_path, target_path, out)
    assert main(argv + ["--warn-fid", "nan"]) == 2
    assert capsys.readouterr().err == "error: --warn-fid must be a number, got nan\n"
    assert not list(tmp_path.glob("sel.manifest*"))
    for value, flagged in (("inf", 0), ("-inf", 2), ("-1", 2)):
        assert main(argv + [f"--warn-fid={value}"]) == 0
        assert capsys.readouterr().out.count("  WARN\n") == flagged, value


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
        ["build-server", "--server-features", "s", "--tree", "t"],
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


def mixed_id_features() -> tuple[FeatureMatrix, FeatureMatrix]:
    """A 160x4 server of four modes, whose ids have mixed byte widths and
    non-ASCII characters and come in pairs that differ only by a trailing
    NUL ("r0" and "r0\\0"), and whose labels include an empty one; and a 60-row
    target near two of its modes, with ids of mixed widths."""
    rng = np.random.default_rng(2026)
    centers = rng.normal(scale=6.0, size=(4, 4))
    server = np.concatenate([c + rng.normal(size=(40, 4)) for c in centers])
    target = np.concatenate([centers[m] + rng.normal(size=(30, 4)) for m in (0, 2)])
    ids = [["r", "é", "日本", "row-long-"][i % 4] + str(i // 8) + "\0" * (i // 4 % 2)
           for i in range(160)]
    labels = [["", "src-a", "sourcé", "s"][i // 40] for i in range(160)]
    return (FeatureMatrix(server, ids, labels),
            FeatureMatrix(target, [f"t{i}" for i in range(60)], ["target"] * 60))


# SHA-256 of each output on mixed_id_features, written by the str-based id
# handling that the byte columns replaced
MIXED_ID_DIGESTS = {
    "server.bmmf": "5b43a808b946018374eeefde6e0260a0c20a0d5d4cf7bd08a8462f0358befd7e",
    "tree.bmmt": "3cec0d2f1d5aa84fba194e5eb834ceec341fc83a5c28c1f5136f3ca3a62be741",
    "sel.manifest": "981dda7bedb04f3079b9d5f58218ef85e7af06becd50bc622409dae5e088c956",
    "sel.manifest.report.txt": "5c38696b6bcf0537bb29b789635c97f2ca5a39dc2475fb4dfd23175f731534ac",
    "sel.manifest.report.json": "dfb59fbe36c84cf740127357105b0b402f9b4c16330a4caf4720f565290e9820",
    "gap.json": "76344876a69310cfcdb1a6d08a69d8cd9ad03c2d0aa3cd94c91722c78f04444b",
    "pruned.manifest": "860aff85f425f6d082b814011c074a4fd45cda3fa88c931d1a6b32d6dbec47c6",
    "uniform.manifest": "c2d5199c032c097056b448610508338459d85bf2d188f62e4effde662d3c72e6",
}


def test_mixed_width_ids_keep_their_output_bytes(tmp_path, capsys):
    """build-server, match, evaluate and both prunes write the pinned bytes
    on a server whose id and label blocks take the string-by-string read."""
    server, target = mixed_id_features()
    s, t = str(tmp_path / "server.bmmf"), str(tmp_path / "target.bmmf")
    write_features(server, s)
    write_features(target, t)
    tree, selection = str(tmp_path / "tree.bmmt"), str(tmp_path / "sel.manifest")
    assert main(["build-server", "--server-features", s, "--leaves", "8", "--tree", tree]) == 0
    assert main(["match", "--tree", tree, "--server-features", s, "--target-features", t,
                 "--target-clusters", "2", "--out", selection]) == 0
    assert main(["evaluate", "--manifest", selection, "--server-features", s,
                 "--target-features", t, "--out", str(tmp_path / "gap.json")]) == 0
    assert main(["prune", "--manifest", selection, "--budget-frac", "0.5",
                 "--strategy", "stratified", "--tree", tree, "--server-features", s,
                 "--out", str(tmp_path / "pruned.manifest")]) == 0
    assert main(["prune", "--manifest", selection, "--budget-n", "7",
                 "--out", str(tmp_path / "uniform.manifest")]) == 0
    assert "composition : 40\ncomposition sourcé: 40\n" in capsys.readouterr().out
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in MIXED_ID_DIGESTS}
    assert digests == MIXED_ID_DIGESTS
