"""Input boundaries under mutation: a scene tree and a scenario tree, each
with one value replaced by a hostile one or one key dropped, every path
argument set to a directory, and hostile model endpoints, driven through
``cli.main``.  Every run exits 0 with its output, or 1 with one ``error:``
line; none exits 2 (a runtime failure) or lets a warning out."""

import copy
import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carriernav.cli import main
from carriernav.graph import CrsgConfig
from carriernav.llm_adapter import ENDPOINT_VAR
from carriernav.policy import PolicyConfig
from carriernav.update import MatchConfig

from conftest import golden_scene_dict, obj_dict, table_dict

HOSTILE = [None, False, True, 0, -1, 1e308, -1e308, 2**70, "", [], {}, math.nan]


def base_scene() -> dict:
    tree = copy.deepcopy(golden_scene_dict())  # its objects share their boxes
    tree["objects"].append(table_dict("table_1", 4.5, 1.0, attr="white"))
    tree["objects"].append(obj_dict("pen_0", ["blue pen", "pen"], 4.4, 1.0, 0.14, 0.02,
                                    0.75, 0.02))
    tree["grid"]["blocked_cells"] = [[23, 15], [12, 8]]
    return tree


def base_scenario() -> dict:
    return {
        "header": {"version": 1, "name": "fuzz", "mode": "mixed", "seed": "0"},
        "scene_file": "scene.json",
        "start_pose": {"position": [0.5, 0.5], "heading": 0.0},
        "sensor": {"radius": 2.5, "fov": 2 * math.pi, "occlusion": False},
        "policy": asdict(PolicyConfig()),
        "crsg": asdict(CrsgConfig()),
        "match": asdict(MatchConfig()),
        "events": [{"trigger": "before-episode", "kind": "move", "object_id": "cup_0",
                    "target_carrier_id": "table_1", "spot_index": 1},
                   {"trigger": "after-task-1", "kind": "move", "object_id": "pen_0",
                    "target_carrier_id": "table_0"},
                   {"trigger": "after-task-1", "kind": "remove", "object_id": "rug_0"}],
        "tasks": [{"query_text": "red cup", "ground_truth_id": "cup_0"},
                  {"query_text": "pen", "ground_truth_id": "pen_0",
                   "carrier_text": "white table"}],
    }


def paths(tree, prefix=()):
    """The path of every value in ``tree``, containers and leaves."""
    keys = sorted(tree) if isinstance(tree, dict) else range(len(tree))
    for key in keys:
        yield prefix + (key,)
        if isinstance(tree[key], (dict, list)):
            yield from paths(tree[key], prefix + (key,))


@st.composite
def mutated(draw, tree):
    """``tree`` with one value, any one, replaced by a hostile value, or
    dropped if a JSON object holds it."""
    tree = copy.deepcopy(tree)
    *parents, key = draw(st.sampled_from(list(paths(tree))))
    node = tree
    for step in parents:
        node = node[step]
    if isinstance(node, dict) and draw(st.integers(0, len(HOSTILE))) == 0:
        del node[key]
    else:
        node[key] = draw(st.sampled_from(HOSTILE))
    return tree


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return root / "scene.json", root / "scenario.json"


def write(files, scene, scenario):
    for path, tree in zip(files, (scene, scenario)):
        path.write_text(json.dumps(tree))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("error:") and err.count("\n") == 1, err
    return code, out, err


def test_the_base_trees_run(files):
    scene_path, scenario_path = files
    write(files, base_scene(), base_scenario())
    assert run(["build-graph", "--scene", str(scene_path)])[1].startswith("building")
    code, out, _ = run(["run-episode", "--scenario", str(scenario_path)])
    assert code == 0 and out.count("success=True") == 2


def _far_start(scene, scenario):
    scenario["start_pose"]["position"][1] = 1e308


def _carrier_whose_footprint_area_overflows(scene, scenario):
    scene["objects"][3]["box"]["min"] = [-1e308, -1e308, 0.0]


def _carrier_top_too_wide_to_scan(scene, scenario):
    # table_1, where cup_0 moves: 30 km wide, ~5.5e6 spots of 6 cm, the
    # fewest past the cap in steps of 10 km, so a lost check costs ~0.3 GB
    box = scene["objects"][3]["box"]
    box["min"][0], box["max"][0] = -1.5e4, 1.5e4


def _scene_whose_distances_overflow(scene, scenario):
    scene["objects"][3]["box"]["max"][2] = 1e308


@pytest.mark.parametrize("defect, error", [
    (_far_start, "is outside the grid"),
    (_carrier_whose_footprint_area_overflows, "box spans too far"),
    (_carrier_top_too_wide_to_scan, "too many spots"),
    (_scene_whose_distances_overflow, "scene spans too far")])
def test_a_value_past_a_bound_exits_1_with_one_error_line(files, defect, error):
    scene, scenario = base_scene(), base_scenario()
    defect(scene, scenario)
    write(files, scene, scenario)
    code, _, err = run(["run-episode", "--scenario", str(files[1])])
    assert code == 1 and error in err


@settings(derandomize=True, max_examples=250, deadline=None)
@given(st.one_of(st.tuples(mutated(base_scene()), st.just(base_scenario())),
                 st.tuples(st.just(base_scene()), mutated(base_scenario()))))
def test_a_mutated_input_exits_0_or_1_with_one_error_line(files, trees):
    scene_path, scenario_path = files
    write(files, *trees)
    code, out, _ = run(["build-graph", "--scene", str(scene_path)])
    assert code == 1 or out.startswith("building")
    code, out, _ = run(["run-episode", "--scenario", str(scenario_path)])
    assert code == 1 or out.splitlines()[-1].startswith("sequence: sr=")


@pytest.mark.parametrize("argv, expected", [
    (["build-graph", "--scene", "DIR"], 1),
    (["build-graph", "--scene", "SCENE", "--out", "DIR"], 1),
    (["query", "--scene", "DIR", "--text", "red cup"], 1),
    (["run-episode", "--scenario", "DIR"], 1),
    (["run-suite", "--scenarios", "DIR", "--out", "DIR"], 1),  # no scenario_*.json in it
    (["run-suite", "--scenarios", "SCENARIO", "--out", "DIR"], 0),
    (["gen-scenarios", "--count", "1", "--out", "DIR"], 0)])
def test_a_directory_for_each_path_exits_0_or_1_with_one_error_line(files, tmp_path, argv,
                                                                    expected):
    write(files, base_scene(), base_scenario())
    names = {"DIR": str(tmp_path), "SCENE": str(files[0]), "SCENARIO": str(files[1])}
    assert run([names.get(a, a) for a in argv])[0] == expected


@pytest.mark.parametrize("endpoint, expected", [
    ("notaurl", 1), ("ftp://x", 1), ("http://", 1), ("http://x:abc", 1), ("http://[", 1),
    ("", 0), (" \t", 0),  # no endpoint: the keyword oracle
    ("http://127.0.0.1:9/v1", 0)])  # a closed port: each ranking falls back
def test_a_hostile_endpoint_exits_0_or_1_with_one_error_line(files, monkeypatch, endpoint,
                                                             expected):
    write(files, base_scene(), base_scenario())
    monkeypatch.setenv(ENDPOINT_VAR, endpoint)
    code, _, err = run(["run-episode", "--scenario", str(files[1]),
                        "--variant", "only-carriers_LLM"])
    assert code == expected
    assert code == 0 or ENDPOINT_VAR in err
