"""The names and result fields that the benchmark's traced run reads from bmm.

`perfbench/spans.py` rebinds functions in `bmm.cli` and `bmm.pipeline` by
name and reads counts off their arguments and return values; a refactor
that drops one of them makes every traced benchmark command fail. This runs
each CLI command once under the span recorder on a tiny world.
"""

from __future__ import annotations

from pathlib import Path

from bmm import generate, save_world, write_features
from bmm.cli import main
from bmm.synth import random_subset_world

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_commands_keep_the_benchmark_contract(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    world = random_subset_world(seed=3, per_sub=30, per_target=40, n_target_modes=2,
                                include_whole_super=False)
    server, target, _ = generate(world)
    server_path, target_path = tmp_path / "server.bmmf", tmp_path / "target.bmmf"
    write_features(server, server_path)
    write_features(target, target_path)
    world_path = tmp_path / "world.json"
    save_world(world, world_path)
    tree, manifest = tmp_path / "tree.bmmt", tmp_path / "sel.manifest"
    features = ["--server-features", str(server_path)]
    commands = [
        ["build-server", *features, "--leaves", "8", "--tree", str(tree)],
        ["match", "--tree", str(tree), *features, "--target-features", str(target_path),
         "--target-clusters", "2", "--out", str(manifest)],
        ["evaluate", "--manifest", str(manifest), *features,
         "--target-features", str(target_path)],
        ["prune", "--manifest", str(manifest), "--budget-frac", "0.5", "--strategy",
         "stratified", "--tree", str(tree), *features, "--out", str(tmp_path / "strat.manifest")],
        ["prune", "--manifest", str(manifest), "--budget-n", "10",
         "--out", str(tmp_path / "uniform.manifest")],
        ["bench", "--world", str(world_path), "--leaves", "8", "--target-clusters", "2",
         "--out", str(tmp_path / "bench.csv")],
    ]

    recorder = spans.Recorder()
    codes = []
    with recorder.install():
        for argv in commands:
            with recorder.span(f"cli.{argv[0]}", "cli"):
                codes.append(main(argv))
    assert codes == [0] * len(commands), capsys.readouterr().err
    assert recorder.check_nesting() == []
    metrics = recorder.layer_metrics()
    for name in ("gap.cost_pairs", "matching.rows_selected", "pruning.rows_kept"):
        assert metrics[name] > 0, name
