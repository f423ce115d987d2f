from __future__ import annotations

import json

import numpy as np
import pytest

from bmm import (
    FormatError,
    ParameterError,
    PlantedWorld,
    SubMode,
    SuperMode,
    TargetMode,
    ValidationError,
    WorldTruth,
    build_hierarchy,
    fit_balanced_kmeans,
    generate,
    load_world,
    matching_precision,
    save_world,
)
from bmm.matching import SelectionResult
from bmm.synth import granularity_probe_world, random_subset_world

from conftest import make_features
from oracles import oracle_assignment, oracle_balanced_partition, oracle_generate


def tiny_world(seed=0) -> PlantedWorld:
    return PlantedWorld(
        dimension=2,
        supers=[SuperMode(center=np.zeros(2), subs=[SubMode(offset=np.zeros(2), scale=0.5, count=10)])],
        targets=[TargetMode(super_idx=0, sub_idx=0, count=8)],
        seed=seed,
    )


def test_single_mode_world_truth():
    server, target, truth = generate(tiny_world())
    assert server.n == 10 and target.n == 8
    assert truth.planted_pairs == [(0, 0)]
    assert (truth.server_super == 0).all()
    assert (truth.target_row_mode == 0).all()


def test_two_by_two_bookkeeping():
    world = PlantedWorld(
        dimension=3,
        supers=[
            SuperMode(
                center=np.array([0.0, 0.0, 0.0]),
                subs=[SubMode(offset=np.array([1.0, 0, 0]), scale=0.3, count=5),
                      SubMode(offset=np.array([-1.0, 0, 0]), scale=0.3, count=7)],
            ),
            SuperMode(
                center=np.array([30.0, 0.0, 0.0]),
                subs=[SubMode(offset=np.array([0, 1.0, 0]), scale=0.3, count=4),
                      SubMode(offset=np.array([0, -1.0, 0]), scale=0.3, count=6)],
            ),
        ],
        targets=[TargetMode(super_idx=0, sub_idx=1, count=5),
                 TargetMode(super_idx=1, sub_idx=0, count=5)],
        seed=1,
    )
    server, target, truth = generate(world)
    assert server.n == 5 + 7 + 4 + 6
    assert target.n == 10
    assert truth.planted_pairs == [(0, 1), (1, 0)]
    assert set(server.dataset_labels) == {"src-0", "src-1"}
    assert set(target.dataset_labels) == {"target"}
    # disjoint id namespaces
    assert not set(server.sample_ids) & set(target.sample_ids)


def test_generation_is_deterministic():
    a_server, a_target, _ = generate(tiny_world(seed=7))
    b_server, b_target, _ = generate(tiny_world(seed=7))
    assert a_server.values.tobytes() == b_server.values.tobytes()
    assert a_target.values.tobytes() == b_target.values.tobytes()
    c_server, _, _ = generate(tiny_world(seed=8))
    assert a_server.values.tobytes() != c_server.values.tobytes()


def test_world_validation_errors():
    world = tiny_world()
    world.supers[0].subs[0].scale = 0.0
    with pytest.raises(ParameterError, match="degenerate"):
        generate(world)

    crowded = PlantedWorld(
        dimension=2,
        supers=[
            SuperMode(center=np.zeros(2), subs=[SubMode(offset=np.zeros(2), scale=1.0, count=5)]),
            SuperMode(center=np.array([2.0, 0.0]), subs=[SubMode(offset=np.zeros(2), scale=1.0, count=5)]),
        ],
        targets=[TargetMode(super_idx=0, sub_idx=0, count=5)],
    )
    with pytest.raises(ValidationError, match="apart"):
        crowded.validate()

    small = tiny_world()
    small.supers[0].subs[0].count = 1
    with pytest.raises(ParameterError, match="count >= 2"):
        small.validate()


def test_unallocatable_world_names_its_rows():
    world = tiny_world()
    world.supers[0].subs[0].count = 10**12  # numpy refuses the allocation at once
    with pytest.raises(ParameterError, match="1000000000000 server and 8 target rows"):
        generate(world)


def test_whole_super_target_mixture():
    world = PlantedWorld(
        dimension=2,
        supers=[
            SuperMode(
                center=np.zeros(2),
                subs=[SubMode(offset=np.array([3.0, 0]), scale=0.3, count=10),
                      SubMode(offset=np.array([-3.0, 0]), scale=0.3, count=30)],
            )
        ],
        targets=[TargetMode(super_idx=0, sub_idx=None, count=200)],
        seed=5,
    )
    _, target, truth = generate(world)
    assert truth.planted_pairs == [(0, None)]
    # mixture respects the 1:3 sub weighting, loosely
    right = (target.values[:, 0] > 0).sum()
    assert 25 <= right <= 75


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
@pytest.mark.parametrize("make_world", [random_subset_world, granularity_probe_world])
def test_generate_matches_row_by_row_oracle(make_world, seed):
    world = make_world(seed)
    assert any(tm.sub_idx is None for tm in world.targets)
    got, want = generate(world), oracle_generate(world)
    for mine, ref in zip(got[:2], want[:2]):
        assert mine.values.tobytes() == ref.values.tobytes()
        assert mine.sample_ids == ref.sample_ids
        assert mine.dataset_labels == ref.dataset_labels
    for name in ("server_super", "server_sub", "target_row_mode"):
        assert np.array_equal(getattr(got[2], name), getattr(want[2], name))
    assert got[2].planted_pairs == want[2].planted_pairs
    assert got[2].target_pairs == want[2].target_pairs


@pytest.mark.parametrize("n_supers", [4, 8])
def test_more_supers_than_dimensions_are_spread_apart(n_supers):
    """Super centers sit at least a grid spacing (four times the validator's
    gap) apart when there are more supers than dimensions."""
    for seed in range(100):
        world = random_subset_world(seed, d=2, n_supers=n_supers, per_sub=4, per_target=4)
        world.validate()
        centers = np.array([sup.center for sup in world.supers])
        gaps = np.sqrt(((centers[:, None] - centers[None]) ** 2).sum(axis=2))
        assert gaps[np.triu_indices(n_supers, 1)].min() >= 4 * 8.0 * 0.7 * (1 - 1e-12)


def test_oracle_assignment_known_cases():
    a = oracle_assignment(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]))
    assert a.sigma == [1, 0] and a.total_cost == 4.0
    b = oracle_assignment(np.array([[7.0]]))
    assert b.sigma == [0] and b.total_cost == 7.0


def test_oracle_assignment_is_minimum(rng):
    cost = rng.random((3, 6))
    best = oracle_assignment(cost)
    for _ in range(50):
        cols = rng.choice(6, size=3, replace=False)
        alternative = sum(cost[i, c] for i, c in enumerate(cols))
        assert best.total_cost <= alternative + 1e-12


def test_oracle_assignment_refuses_large():
    with pytest.raises(ParameterError, match="refuses"):
        oracle_assignment(np.zeros((8, 9)))
    with pytest.raises(ParameterError, match="refuses"):
        oracle_assignment(np.zeros((2, 11)))


def test_oracle_balanced_partition_cases():
    fm = make_features([0.0, 1.0, 10.0, 11.0])
    assert oracle_balanced_partition(fm, 2) == pytest.approx(1.0, abs=1e-12)
    two = make_features([3.0, 9.0])
    assert oracle_balanced_partition(two, 2) == 0.0
    same = make_features([2.0, 2.0, 2.0, 2.0])
    assert oracle_balanced_partition(same, 2) == pytest.approx(0.0, abs=1e-12)


def test_oracle_balanced_partition_refuses_large(rng):
    fm = make_features(rng.normal(size=(9, 2)))
    with pytest.raises(ParameterError, match="refuses"):
        oracle_balanced_partition(fm, 2)


def precision_fixture(rng):
    fm = make_features(rng.normal(size=(16, 2)))
    tree = build_hierarchy(fit_balanced_kmeans(fm, 4, seed=0), fm)
    builder = lambda supers: WorldTruth(
        server_super=np.asarray(supers, dtype=np.int64),
        server_sub=np.zeros(16, dtype=np.int64),
        target_row_mode=np.zeros(1, dtype=np.int64),
        planted_pairs=[(0, 0)] * 4,
        target_pairs=[(0, 0), (0, 0), (1, 0), (1, 0)],
    )
    return tree, builder


def selection_for(tree, node_ids):
    return SelectionResult(
        selected_nodes=list(dict.fromkeys(node_ids)),
        sample_rows=np.unique(np.concatenate([tree.members(n) for n in node_ids])),
        per_target=[(n, 0.0) for n in node_ids],
    )


def test_matching_precision_counts(rng):
    tree, builder = precision_fixture(rng)
    leaf_supers = np.zeros(16, dtype=np.int64)
    for leaf in range(2, 4):  # rows of leaves 2 and 3 belong to super 1
        leaf_supers[tree.members(leaf)] = 1
    truth = builder(leaf_supers)

    all_right = selection_for(tree, [0, 1, 2, 3])
    assert matching_precision(all_right, truth, tree) == 1.0
    all_wrong = selection_for(tree, [2, 3, 0, 1])
    assert matching_precision(all_wrong, truth, tree) == 0.0
    half = selection_for(tree, [0, 3, 2, 1])
    assert matching_precision(half, truth, tree) == 0.5


def test_matching_precision_wrong_node_counts_as_miss(rng):
    tree, builder = precision_fixture(rng)
    leaf_supers = np.zeros(16, dtype=np.int64)
    leaf_supers[tree.members(3)] = 1
    truth = builder(leaf_supers)
    sel = selection_for(tree, [0, 1, 2, 3])
    truth.target_pairs = [(0, 0)] * 4
    assert matching_precision(sel, truth, tree) == 0.75


def test_world_json_roundtrip(tmp_path):
    world = PlantedWorld(
        dimension=2,
        supers=[
            SuperMode(
                center=np.array([1.0, -1.0]),
                subs=[SubMode(offset=np.array([0.5, 0.0]), scale=0.25, count=12)],
            )
        ],
        targets=[
            TargetMode(super_idx=0, sub_idx=None, count=20, mean_shift=np.array([0.1, 0.0]),
                       scale_multiplier=1.1)
        ],
        seed=3,
    )
    path = tmp_path / "world.json"
    save_world(world, path)
    back = load_world(path)
    assert back.dimension == world.dimension and back.seed == world.seed
    assert np.allclose(back.supers[0].center, world.supers[0].center)
    assert back.targets[0].sub_idx is None
    assert back.targets[0].scale_multiplier == 1.1
    a = generate(world)[0].values.tobytes()
    b = generate(back)[0].values.tobytes()
    assert a == b


@pytest.mark.parametrize("key, value", [
    ("dimension", 2.0), ("dimension", True), ("seed", "3"), ("seed", 3.5),
    ("super", False), ("sub", 0.0), ("count", 20.5), ("count", "20"),
])
def test_world_integers_are_json_integers(tmp_path, key, value):
    save_world(tiny_world(), tmp_path / "world.json")
    payload = json.loads((tmp_path / "world.json").read_text())
    record = payload if key in ("dimension", "seed") else payload["target_modes"][0]
    record[key] = value
    (tmp_path / "world.json").write_text(json.dumps(payload))
    with pytest.raises(FormatError, match=f"{key} must be an integer"):
        load_world(tmp_path / "world.json")


@pytest.mark.parametrize("where, key, value, message", [
    ("sub", "scale", "0.7", "scale must be a number"),
    ("sub", "scale", True, "scale must be a number"),
    ("sub", "scale", 10**400, "OverflowError"),
    ("target", "scale_multiplier", True, "scale_multiplier must be a number"),
    ("target", "scale_multiplier", "1.1", "scale_multiplier must be a number"),
    ("super", "center", ["0", 0], "center entry must be a number"),
    ("super", "center", "00", "center entry must be a number"),
    ("sub", "offset", [0, True], "offset entry must be a number"),
    ("target", "mean_shift", ["0.1", 0.0], "mean_shift entry must be a number"),
], ids=["scale-str", "scale-bool", "scale-huge-int", "multiplier-bool", "multiplier-str",
        "center-str-entry", "center-str", "offset-bool-entry", "mean-shift-str-entry"])
def test_world_numbers_are_json_numbers(tmp_path, where, key, value, message):
    save_world(tiny_world(), tmp_path / "world.json")
    payload = json.loads((tmp_path / "world.json").read_text())
    record = {
        "super": payload["super_modes"][0],
        "sub": payload["super_modes"][0]["sub_modes"][0],
        "target": payload["target_modes"][0],
    }[where]
    record[key] = value
    (tmp_path / "world.json").write_text(json.dumps(payload))
    with pytest.raises(FormatError, match=message):
        load_world(tmp_path / "world.json")


@pytest.mark.parametrize("n_target_modes", [0, -1, 17])
def test_random_subset_world_refuses_target_modes_it_cannot_pick(n_target_modes):
    with pytest.raises(ParameterError, match=rf"n_target_modes must be in 1\.\.16 .*got {n_target_modes}"):
        random_subset_world(0, n_target_modes=n_target_modes)


@pytest.mark.parametrize("n_target_modes", [1, 16])
def test_random_subset_world_picks_up_to_every_sub_mode(n_target_modes):
    world = random_subset_world(0, n_target_modes=n_target_modes)
    picked = {(tm.super_idx, tm.sub_idx) for tm in world.targets}
    assert len(world.targets) == len(picked) == n_target_modes
