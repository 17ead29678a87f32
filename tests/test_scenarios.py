"""Scenario generator: determinism, mode shapes and replayability."""

import dataclasses
import hashlib
import json
from collections import Counter
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carriernav.cli import main
from carriernav.graph import CrsgConfig, build_crsg, carrying_predicate
from carriernav.policy import PolicyConfig
from carriernav.scenarios import (
    ATTRIBUTES,
    CARRIER_KINDS,
    GENERATOR_GRID_RESOLUTION,
    ITEM_KINDS,
    MODES,
    Scenario,
    ScenarioError,
    _ScenarioFile,
    build_scenario,
    generate_scenarios,
    load_scenario,
)
from carriernav.scene import (Box3, ObjectInstance, SceneError, SceneParseError, _SceneFile,
                              read_record, record_tree, scene_from_dict)
from carriernav.update import MatchConfig
from carriernav.world import GridWorld, Pose, SensorConfig

import carriernav.scenarios as scenarios_mod
import carriernav.world as world_mod
import oracles


def test_modes_are_registered():
    assert MODES == ("mixed", "probe", "single")


def test_unknown_mode_raises():
    with pytest.raises(ScenarioError):
        build_scenario("cartesian", 0, 1)
    with pytest.raises(ScenarioError):
        generate_scenarios("cartesian", 1, 1)


def test_count_must_be_positive():
    with pytest.raises(ScenarioError):
        generate_scenarios("mixed", 0, 1)


def test_building_twice_is_identical():
    a = build_scenario("mixed", 3, 11)
    b = build_scenario("mixed", 3, 11)
    assert a.to_dict("scene.json") == b.to_dict("scene.json")
    assert a.scene.to_dict() == b.scene.to_dict()


def test_different_indices_differ():
    a = build_scenario("mixed", 0, 11)
    b = build_scenario("mixed", 1, 11)
    assert a.scene.to_dict() != b.scene.to_dict()


def test_generation_to_disk_is_byte_identical(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    generate_scenarios("mixed", 3, 5, out_dir=str(d1))
    generate_scenarios("mixed", 3, 5, out_dir=str(d2))
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    assert len(names) == 6  # a scene and a scenario file per index
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


# sha256 over each file's name, a NUL byte and its bytes, in name order, of
# generate_scenarios(mode, 2, 7, resolution=...): the scene and scenario
# files that the generator and writer of this format version produce.
GENERATED_SHA256 = {
    ("mixed", 0.25): "1ddfee8ce975d16fa111039228d8c1be97373766dc8a69d840e0c1d306921cca",
    ("mixed", 0.05): "339d64ec89bccd2f0d95441e533c35a9df5114cb32100ed00c8e112fae5513b6",
    ("probe", 0.25): "5965f13e332f8777b5bebfa81f3fc378a30a76e3899eec99fcfb12ca383a58fd",
    ("probe", 0.05): "bc7aae45f382d98f8ff9795ec08d581e4ad3ed0ac3cf8a41233b1559be6874b3",
    ("single", 0.25): "2c61b5ad88bdbb0cb38781ecb67de42491383a83aed379d6d9531018a4ef9b86",
    ("single", 0.05): "f1705503e07fc46f3bfba19357bf81450bfe024408d776e14983a3081bafda53",
}


@pytest.mark.parametrize("resolution", [0.25, 0.05])
@pytest.mark.parametrize("mode", MODES)
def test_generated_files_have_the_pinned_bytes(tmp_path, mode, resolution):
    generate_scenarios(mode, 2, 7, out_dir=str(tmp_path), resolution=resolution)
    digest = hashlib.sha256()
    paths = sorted(tmp_path.iterdir())
    assert [p.name for p in paths] == ["scenario_0000.json", "scenario_0001.json",
                                       "scene_0000.json", "scene_0001.json"]
    for p in paths:
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    assert digest.hexdigest() == GENERATED_SHA256[mode, resolution]


def test_no_generated_placement_is_rejected_by_the_carrying_predicate(monkeypatch):
    # no placement that the generator tries, or that a replay of its events
    # makes, is rejected by the carrying predicate, so the generated bytes
    # (GENERATED_SHA256) do not depend on what a rejected move does
    verdicts = []

    def judged(carrier, obj, config):
        verdicts.append(carrying_predicate(carrier, obj, config))
        return verdicts[-1]

    monkeypatch.setattr(world_mod, "carrying_predicate", judged)
    for mode in MODES:
        for resolution, seeds in ((0.25, (0, 1, 2)), (0.05, (0,))):
            for seed in seeds:
                for sc in generate_scenarios(mode, 3, seed, resolution=resolution):
                    world = GridWorld(sc.scene, start_pose=sc.start_pose)
                    for event in sc.events:
                        world.apply_displacement(event, sc.crsg)
    assert len(verdicts) > 100 and all(verdicts)


def test_mixed_events_are_validated_with_the_scenario_config(monkeypatch):
    # every event the generator draws is tried on its world with the config
    # object the scenario carries, not a fresh default that merely equals it
    configs = []
    real = GridWorld.apply_displacement
    monkeypatch.setattr(GridWorld, "apply_displacement", lambda world, event, config: (
        configs.append(config) or real(world, event, config)))
    tried = 0
    for index in range(4):
        configs.clear()
        sc = build_scenario("mixed", index, 1)
        assert all(config is sc.crsg for config in configs)
        tried += len(configs)
    assert tried >= 4


class _RecordingDraft(scenarios_mod._SceneDraft):
    """A generator draft that also keeps its wall segments in order, for
    ``oracles.draft_blocked_cells``."""

    def __post_init__(self):
        super().__post_init__()
        self.wall_calls = []

    def add_wall_segment(self, x0, y0, x1, y1, door_at=None, door_width=1.0):
        self.wall_calls.append((x0, y0, x1, y1, door_at, door_width))
        super().add_wall_segment(x0, y0, x1, y1, door_at, door_width)

    def oracle_cells(self):
        return oracles.draft_blocked_cells(self.width_m, self.height_m, self.resolution,
                                           self.wall_calls, self.objects.values())


@pytest.mark.parametrize("resolution", [0.25, 0.05])
@pytest.mark.parametrize("mode", MODES)
def test_generated_blocked_cells_equal_the_set_rule(monkeypatch, mode, resolution):
    drafts = []

    class Draft(_RecordingDraft):
        def __post_init__(self):
            super().__post_init__()
            drafts.append(self)

    monkeypatch.setattr(scenarios_mod, "_SceneDraft", Draft)
    for seed in (3, 7, 19):
        for index in range(2):
            build_scenario(mode, index, seed, resolution)
    assert len(drafts) >= 6  # rejected layouts too
    for draft in drafts:
        cells = draft.blocked_cells()
        assert cells.dtype == np.intp and cells.tolist() == draft.oracle_cells()
    doors = [c for d in drafts for c in d.wall_calls if c[4] is not None]
    assert bool(doors) == (mode == "mixed")


_COORD = st.floats(-3.0, 9.0)


@settings(max_examples=150, deadline=None)
@given(resolution=st.sampled_from([0.25, 0.05, 0.3]),
       size=st.tuples(st.floats(0.7, 6.0), st.floats(0.7, 6.0)),
       walls=st.lists(st.tuples(st.booleans(), _COORD, _COORD, _COORD,
                                st.none() | _COORD, st.floats(0.0, 3.0)), max_size=4),
       boxes=st.lists(st.tuples(_COORD, _COORD, _COORD, _COORD,
                                st.sampled_from([0.0, 0.05, 0.5])), max_size=5))
# segments and footprints past every border and wholly outside the grid, and
# door-gap edges exactly half a door width from its center
@example(resolution=0.25, size=(2.0, 2.0),
         walls=[(True, 1.0, -3.0, 9.0, 1.0, 0.25), (False, 1.0, -3.0, -1.0, None, 1.0)],
         boxes=[(-1.0, -1.0, 0.6, 0.6, 0.0), (1.5, 1.5, 9.0, 9.0, 0.0),
                (-3.0, 0.5, -0.5, 1.0, 0.0), (0.5, -3.0, 1.0, -0.5, 0.0),
                (5.0, 0.0, 6.0, 1.0, 0.0)])
def test_painted_blocked_cells_equal_the_set_rule(resolution, size, walls, boxes):
    draft = _RecordingDraft(name="t", width_m=size[0], height_m=size[1], resolution=resolution)
    for vertical, fixed, a, b, door_at, door_width in walls:
        if vertical:
            draft.add_wall_segment(fixed, a, fixed, b, door_at, door_width)
        else:
            draft.add_wall_segment(a, fixed, b, fixed, door_at, door_width)
    for i, (x0, y0, x1, y1, z) in enumerate(boxes):
        box = Box3([min(x0, x1), min(y0, y1), z], [max(x0, x1), max(y0, y1), z + 0.5])
        draft.objects[f"box_{i}"] = ObjectInstance(id=f"box_{i}", captions=("box",), box=box,
                                                   centroid=box.center, text_feature=np.ones(4),
                                                   visual_feature=np.ones(4))
    assert draft.blocked_cells().tolist() == draft.oracle_cells()


def test_load_round_trip(tmp_path):
    built = generate_scenarios("single", 2, 9, out_dir=str(tmp_path))
    loaded = load_scenario(str(tmp_path / "scenario_0001.json"))
    original = built[1]
    assert loaded.name == original.name
    assert loaded.mode == "single"
    assert loaded.to_dict("scene_0001.json") == original.to_dict("scene_0001.json")
    assert loaded.scene.to_dict() == original.scene.to_dict()


def indent2_tree(tree):
    """``tree`` as the ``json.dump(..., indent=2, sort_keys=True)`` writer
    wrote it, read back."""
    return json.loads(json.dumps(tree, sort_keys=True, indent=2))


@pytest.mark.parametrize("resolution", [0.25, 0.05])
@pytest.mark.parametrize("mode", MODES)
def test_written_files_load_to_the_indent2_trees(tmp_path, mode, resolution):
    built = generate_scenarios(mode, 2, 13, out_dir=str(tmp_path), resolution=resolution)
    for i, sc in enumerate(built):
        scene_file = f"scene_{i:04d}.json"
        assert (json.loads((tmp_path / scene_file).read_text())
                == indent2_tree(sc.scene.to_dict()))
        assert (json.loads((tmp_path / f"scenario_{i:04d}.json").read_text())
                == indent2_tree(sc.to_dict(scene_file)))


# a scene and a scenario tree that name every key of their records, each
# optional one with a value that is not its default
FULL_SCENE_TREE = {
    "header": {"version": 1, "name": "full", "feature_mode": "embedded", "embedding_dim": 2},
    "grid": {"width": 4, "height": 3, "resolution": 0.5, "origin": [0.5, -1.0],
             "blocked_cells": [[0, 0], [3, 2]]},
    "rooms": [{"id": "room_0", "name": "kitchen",
               "polygon": [[0.5, -1.0], [2.5, -1.0], [2.5, 0.5]]}],
    "objects": [{"id": "cup_0", "captions": ["red cup", "cup"],
                 "box": {"min": [0.5, -1.0, 0.0], "max": [1.0, -0.5, 0.2]},
                 "centroid": [0.75, -0.75, 0.1], "text_feature": [1.0, 0.0],
                 "visual_feature": [0.0, 1.0], "room_id": "room_0"}],
}
FULL_SCENARIO_TREE = {
    "header": {"version": 1, "name": "full", "mode": "single", "seed": 7},
    "scene_file": "scene.json",
    "start_pose": {"position": [1.5, 0.25], "heading": 0.5},
    "tasks": [{"query_text": "red cup", "ground_truth_id": "cup_0", "carrier_text": "table"},
              {"query_text": None, "ground_truth_id": "cup_0", "image": "img:red cup"}],
    "events": [{"kind": "move", "object_id": "cup_0", "target_carrier_id": "table_0",
                "spot_index": 2, "trigger": "before-episode"},
               {"kind": "remove", "object_id": "cup_0", "spot_index": 0,
                "trigger": "after-task-1"}],
    "sensor": dataclasses.asdict(SensorConfig(radius=3.0, occlusion=True)),
    "policy": dataclasses.asdict(PolicyConfig(beta=0.25)),
    "crsg": dataclasses.asdict(CrsgConfig(carrier_reference="furniture")),
    "match": dataclasses.asdict(MatchConfig(min_text_sim=0.5)),
}


@pytest.mark.parametrize("mode", MODES)
def test_the_writer_is_the_readers_inverse(tmp_path, mode):
    """``record_tree`` gives back each tree ``read_record`` reads: the
    generated files (whose bytes are pinned above) and trees that name
    every key.  A field the writer drops, or a default it writes, fails."""
    generate_scenarios(mode, 2, 13, out_dir=str(tmp_path))
    for i in range(2):
        for record, name in ((_SceneFile, f"scene_{i:04d}.json"),
                             (_ScenarioFile, f"scenario_{i:04d}.json")):
            tree = json.loads((tmp_path / name).read_text())
            assert record_tree(read_record(record, tree, name)) == tree
    for record, tree in ((_SceneFile, FULL_SCENE_TREE), (_ScenarioFile, FULL_SCENARIO_TREE)):
        assert record_tree(read_record(record, tree, "full")) == tree


@pytest.mark.parametrize("mode", MODES)
def test_files_in_the_old_layout_still_load(tmp_path, mode):
    """A scene and scenario pair that the ``indent=2`` writer wrote loads
    to the scenario that the current files load to."""
    new, old = tmp_path / "new", tmp_path / "old"
    built = generate_scenarios(mode, 1, 13, out_dir=str(new), resolution=0.05)[0]
    old.mkdir()
    for tree, name in ((built.scene.to_dict(), "scene_0000.json"),
                       (built.to_dict("scene_0000.json"), "scenario_0000.json")):
        (old / name).write_text(json.dumps(tree, sort_keys=True, indent=2) + "\n")
    assert (old / "scene_0000.json").stat().st_size > (new / "scene_0000.json").stat().st_size
    from_old = load_scenario(str(old / "scenario_0000.json"))
    from_new = load_scenario(str(new / "scenario_0000.json"))
    assert from_old.to_dict("scene_0000.json") == from_new.to_dict("scene_0000.json")
    assert from_old.scene.to_dict() == from_new.scene.to_dict() == built.scene.to_dict()


def test_load_rejects_wrong_version(tmp_path):
    generate_scenarios("single", 1, 9, out_dir=str(tmp_path))
    path = tmp_path / "scenario_0000.json"
    tree = json.loads(path.read_text())
    tree["header"]["version"] = 7
    path.write_text(json.dumps(tree))
    with pytest.raises(ScenarioError):
        load_scenario(str(path))


def scenario_events_replay(sc: Scenario):
    """Apply every event in declared order on a fresh world."""
    world = GridWorld(sc.scene, start_pose=sc.start_pose)
    for spec in sc.events_for("before-episode"):
        world.apply_displacement(spec, sc.crsg)
    for k in range(1, len(sc.tasks) + 1):
        for spec in sc.events_for(f"after-task-{k}"):
            world.apply_displacement(spec, sc.crsg)
    return world


@pytest.mark.parametrize("mode,seed", [("single", 42), ("probe", 7), ("mixed", 11)])
def test_events_replay_cleanly(mode, seed):
    for index in range(4):
        sc = build_scenario(mode, index, seed)
        scenario_events_replay(sc)  # must not raise


@pytest.mark.parametrize("mode,seed", [("single", 42), ("probe", 7), ("mixed", 11)])
def test_carriers_reachable_from_start(mode, seed):
    sc = build_scenario(mode, 0, seed)
    world = GridWorld(sc.scene, start_pose=sc.start_pose)
    crsg = build_crsg(sc.scene, sc.crsg)
    for cid in crsg.carriers:
        world.shortest_path(sc.start_pose.position,
                            crsg.carriers[cid].object.centroid[:2])


@pytest.mark.parametrize("resolution,count", [(0.25, 40), (0.05, 8)])
@pytest.mark.parametrize("mode", MODES)
def test_reachability_verdicts_equal_the_distance_rule(monkeypatch, mode, resolution, count):
    # every layout the generator checks, rejected ones included
    verdicts = []
    real = scenarios_mod._reachable_world

    def both(scene, start):
        want = oracles.carriers_reachable_by_distance(scene, start)
        try:
            world = real(scene, start)
        except ScenarioError:
            verdicts.append((False, want))
            raise
        verdicts.append((True, want))
        return world

    monkeypatch.setattr(scenarios_mod, "_reachable_world", both)
    for index in range(count):
        build_scenario(mode, index, 3, resolution)
    assert len(verdicts) >= count
    assert all(got == want for got, want in verdicts)


@pytest.mark.parametrize("mode", MODES)
def test_reachability_verdicts_on_pocketed_worlds(mode):
    # a start walled into a pocket reaches no carrier
    sc = build_scenario(mode, 0, 5)
    tree = sc.scene.to_dict()
    world = GridWorld(sc.scene, start_pose=sc.start_pose)
    ix, iy = world.snap_free_cell(sc.start_pose.position)
    tree["grid"]["blocked_cells"] += [
        [ix + dx, iy + dy] for dx in range(-2, 3) for dy in range(-2, 3)
        if max(abs(dx), abs(dy)) == 2 and 0 <= ix + dx < world.planner.width
        and 0 <= iy + dy < world.planner.height]
    pocketed = scene_from_dict(tree)
    carrier = next(obj for obj in sc.scene.objects.values() if obj.box.min[2] <= 0.05)
    outside = Pose(world.planner.cell_center(world.snap_free_cell(carrier.centroid[:2])))
    assert [oracles.carriers_reachable_by_distance(pocketed, start)
            for start in (sc.start_pose, outside)] == [False, True]
    with pytest.raises(ScenarioError, match=f"^{pocketed.name}: unreachable layout$"):
        scenarios_mod._reachable_world(pocketed, sc.start_pose)
    assert scenarios_mod._reachable_world(pocketed, outside).robot is outside


def test_a_mixed_build_makes_one_world(monkeypatch):
    # the world that passes the reachability check also validates the events
    made = []

    class CountedWorld(GridWorld):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(scenarios_mod, "GridWorld", CountedWorld)
    sc = scenarios_mod._build_mixed(0, "11/0", Random("11/0"), GENERATOR_GRID_RESOLUTION)
    assert len(made) == 1 and sc.events


class TestSingleMode:
    def test_shape(self):
        sc = build_scenario("single", 0, 42)
        crsg = build_crsg(sc.scene, sc.crsg)
        assert len(crsg.carriers) == 5
        assert len(sc.tasks) == 1
        moves = [e for e in sc.events if e.kind == "move"]
        assert len(moves) == 1
        assert moves[0].object_id == sc.tasks[0].ground_truth_id
        assert moves[0].trigger == "before-episode"

    def test_target_belief_goes_stale(self):
        sc = build_scenario("single", 0, 42)
        crsg = build_crsg(sc.scene, sc.crsg)
        gt = sc.tasks[0].ground_truth_id
        believed = crsg.carrier_of(gt)
        world = scenario_events_replay(sc)
        assert believed is not None
        assert gt not in world.ground_truth_carried(believed, sc.crsg)


class TestProbeMode:
    def test_shape(self):
        sc = build_scenario("probe", 0, 7)
        crsg = build_crsg(sc.scene, sc.crsg)
        assert len(crsg.carriers) == 6
        assert all(cid.startswith("table_") for cid in crsg.carriers)
        assert len(sc.tasks) == 5
        moves = sc.events_for("before-episode")
        assert len(moves) == 5
        hubs = {e.target_carrier_id for e in moves}
        assert len(hubs) == 1  # every cup converges on one hub table

    def test_tasks_query_distinct_cups(self):
        sc = build_scenario("probe", 0, 7)
        queried = [t.ground_truth_id for t in sc.tasks]
        assert len(set(queried)) == 5
        texts = [t.query_text for t in sc.tasks]
        assert all("cup" in t for t in texts)
        assert len(set(texts)) == 5

    def test_beliefs_spread_over_distinct_tables(self):
        sc = build_scenario("probe", 0, 7)
        crsg = build_crsg(sc.scene, sc.crsg)
        homes = [crsg.carrier_of(t.ground_truth_id) for t in sc.tasks]
        assert None not in homes
        assert len(set(homes)) == 5


class TestMixedMode:
    @pytest.mark.parametrize("index", range(6))
    def test_shape(self, index):
        sc = build_scenario("mixed", index, 11)
        assert len(sc.scene.objects) <= 25
        crsg = build_crsg(sc.scene, sc.crsg)
        assert 3 <= len(crsg.carriers) <= 6
        assert 1 <= len(sc.tasks) <= 3
        for t in sc.tasks:
            assert t.ground_truth_id in sc.scene.objects
        assert len(sc.scene.rooms) == 2

    def test_items_have_unique_attribute_kind_tags(self):
        sc = build_scenario("mixed", 2, 11)
        tags = []
        for obj in sc.scene.objects.values():
            kind = obj.id.rsplit("_", 1)[0]
            if kind in ITEM_KINDS:
                tags.append(obj.captions[0])
        assert len(tags) == len(set(tags))

    def test_caption_words_stay_in_vocabulary(self):
        vocab = set(ATTRIBUTES) | set(CARRIER_KINDS) | set(ITEM_KINDS)
        sc = build_scenario("mixed", 4, 11)
        for obj in sc.scene.objects.values():
            for caption in obj.captions:
                for word in caption.split():
                    assert word in vocab, word


def test_task_queries_resolve_on_the_belief_graph():
    # before any displacement, each task's query must hit its ground truth
    from carriernav.graph import Query, query_target

    for mode, seed in (("single", 42), ("probe", 7)):
        sc = build_scenario(mode, 0, seed)
        crsg = build_crsg(sc.scene, sc.crsg)
        for t in sc.tasks:
            obj, score = query_target(crsg, Query(text=t.query_text))
            assert obj.id == t.ground_truth_id
            assert score > 0.9


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=5,
)


@pytest.fixture(scope="module")
def scenario_tree(tmp_path_factory):
    d = tmp_path_factory.mktemp("swap")
    generate_scenarios("single", 1, 3, out_dir=str(d))
    tree = json.loads((d / "scenario_0000.json").read_text())
    tree["scene_file"] = str(d / tree["scene_file"])
    return tree, d


def _swap_sites(tree):
    """Every top-level key, and every key one level inside a top-level
    object or inside the first task and event."""
    sites = [(key,) for key in sorted(tree)]
    for key in sorted(tree):
        inner = tree[key][0] if key in ("tasks", "events") else tree[key]
        index = (0,) if key in ("tasks", "events") else ()
        if isinstance(inner, dict):
            sites += [(key,) + index + (sub,) for sub in sorted(inner)]
    return sites


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_value_of_another_json_type_is_loaded_or_rejected(scenario_tree, data):
    tree, d = scenario_tree
    site = data.draw(st.sampled_from(_swap_sites(tree)))
    mutated = json.loads(json.dumps(tree))
    parent = mutated
    for step in site[:-1]:
        parent = parent[step]
    old = parent[site[-1]]
    parent[site[-1]] = data.draw(JSON_VALUES.filter(lambda v: _json_type(v) != _json_type(old)))
    path = d / "mutated.json"
    path.write_text(json.dumps(mutated))
    try:
        load_scenario(str(path))
    except ScenarioError:
        pass


def _with_every_object_key(scene: dict) -> dict:
    """``scene`` with every optional object key written once, in its first
    object: a room id and both features (the derived vector, which the
    writer leaves out)."""
    first = scene["objects"][0]
    first["room_id"] = scene["rooms"][0]["id"]
    first["text_feature"] = first["visual_feature"] = oracles.embed_text_accumulating(
        " ".join(first["captions"]), scene["header"]["embedding_dim"]).tolist()
    return scene


def _scene_sites(value, site=()):
    """Every key of every object and the first entry of every array in a
    scene tree, as paths from its root."""
    if isinstance(value, dict):
        items = sorted(value.items())
    elif isinstance(value, list) and value:
        items = [(0, value[0])]
    else:
        return []
    sites = []
    for key, inner in items:
        sites.append(site + (key,))
        sites += _scene_sites(inner, site + (key,))
    return sites


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_scene_value_of_another_json_type_is_loaded_or_rejected(scenario_tree, data):
    tree, _ = scenario_tree
    with open(tree["scene_file"]) as fh:
        scene = _with_every_object_key(json.load(fh))
    site = data.draw(st.sampled_from(_scene_sites(scene)))
    parent = scene
    for step in site[:-1]:
        parent = parent[step]
    old = parent[site[-1]]
    parent[site[-1]] = data.draw(JSON_VALUES.filter(lambda v: _json_type(v) != _json_type(old)))
    try:
        scene_from_dict(scene)
    except SceneError:
        pass


def _renamed(tree, site):
    """A copy of ``tree`` whose key at ``site`` is renamed (an unknown key,
    and a missing one where the key is required)."""
    tree = json.loads(json.dumps(tree))
    parent = tree
    for step in site[:-1]:
        parent = parent[step]
    parent[site[-1] + "_x"] = parent.pop(site[-1])
    return tree


def test_a_renamed_scene_key_is_bad_input(scenario_tree, tmp_path, capsys):
    tree, _ = scenario_tree
    with open(tree["scene_file"]) as fh:
        scene = _with_every_object_key(json.load(fh))
    scene_from_dict(scene)
    sites = [site for site in _scene_sites(scene) if isinstance(site[-1], str)]
    assert len(sites) == 25
    for site in sites:
        mutated = _renamed(scene, site)
        with pytest.raises(SceneParseError):
            scene_from_dict(mutated)
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(mutated))
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(dict(tree, scene_file="scene.json")))
        capsys.readouterr()
        for argv in (["build-graph", "--scene", str(scene_path)],
                     ["run-episode", "--scenario", str(scenario_path)]):
            assert main(argv) == 1, (site, argv)
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1, (site, err)


def test_a_renamed_scenario_key_is_bad_input(scenario_tree, tmp_path):
    tree, _ = scenario_tree
    sites = _swap_sites(tree)
    assert len(sites) >= 40
    for site in sites:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_renamed(tree, site)))
        with pytest.raises(ScenarioError):
            load_scenario(str(path))


def test_a_scenario_file_that_is_not_json_is_a_scenario_error(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(str(path))
