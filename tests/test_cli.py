"""Command-line entry point: exit codes and printed output."""

import json
import warnings

import pytest

from carriernav import cli
from carriernav.cli import main
from carriernav.graph import build_crsg
from carriernav.priors import KeywordPriorOracle
from carriernav.scenarios import ScenarioError, load_scenario
from carriernav.scene import load_scene
from carriernav.world import GridWorld

from conftest import golden_scene_dict, item_on, scene_dict, table_dict


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(golden_scene_dict()))
    return str(path)


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_scn")
    assert main(["gen-scenarios", "--out", str(d), "--mode", "single",
                 "--count", "2", "--seed", "3"]) == 0
    return d


class TestArgumentHandling:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestGenScenarios:
    def test_writes_files(self, scenario_dir, capsys):
        names = sorted(p.name for p in scenario_dir.iterdir())
        assert names == ["scenario_0000.json", "scenario_0001.json",
                         "scene_0000.json", "scene_0001.json"]

    def test_reports_count(self, tmp_path, capsys):
        assert main(["gen-scenarios", "--out", str(tmp_path), "--mode", "probe",
                     "--count", "1", "--seed", "0"]) == 0
        assert "wrote 1 probe scenarios" in capsys.readouterr().out

    def test_bad_count(self, tmp_path, capsys):
        assert main(["gen-scenarios", "--out", str(tmp_path),
                     "--count", "0"]) == 1


class TestBuildGraph:
    def test_dump_prints_summary(self, scene_file, capsys):
        assert main(["build-graph", "--scene", scene_file, "--dump"]) == 0
        out = capsys.readouterr().out
        assert "carrier table_0" in out
        assert "carries cup_0" in out
        assert "orphan rug_0" in out

    def test_out_writes_json(self, scene_file, tmp_path, capsys):
        out_file = tmp_path / "graph.json"
        assert main(["build-graph", "--scene", scene_file,
                     "--out", str(out_file)]) == 0
        tree = json.loads(out_file.read_text())
        assert [c["id"] for c in tree["carriers"]] == ["table_0"]
        assert tree["carriers"][0]["carried"] == ["cup_0"]

    def test_out_loads_to_the_indent2_tree(self, scene_file, tmp_path, capsys):
        out_file = tmp_path / "graph.json"
        assert main(["build-graph", "--scene", scene_file, "--out", str(out_file)]) == 0
        crsg = build_crsg(load_scene(scene_file), prior=KeywordPriorOracle())
        assert json.loads(out_file.read_text()) == json.loads(
            json.dumps(crsg.to_dict(), sort_keys=True, indent=2))

    def test_missing_scene_file(self, tmp_path, capsys):
        assert main(["build-graph", "--scene", str(tmp_path / "nope.json")]) == 1

    def test_malformed_scene_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["build-graph", "--scene", str(bad)]) == 1

    def test_underflowing_feature_is_a_typed_scene_error(self, tmp_path, capsys):
        tree = golden_scene_dict()
        feature = [0.0] * 256
        feature[0] = 1e-200  # not zero, but its norm underflows to 0
        tree["objects"][0]["text_feature"] = feature
        bad = tmp_path / "underflow.json"
        bad.write_text(json.dumps(tree))
        assert main(["build-graph", "--scene", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: object 'table_0' text_feature norm")
        assert "cosine" not in err

    def test_an_origin_with_no_finite_cell_is_bad_input(self, tmp_path, capsys):
        tree = golden_scene_dict()
        tree["grid"]["origin"] = [1e308, 0.0]
        bad = tmp_path / "far.json"
        bad.write_text(json.dumps(tree))
        assert main(["build-graph", "--scene", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "finite cell" in err

    @pytest.mark.parametrize("defect", [{"grid": {"width": 2**70}},
                                        {"rooms": [{"id": "r", "polygon": [
                                            [0, 0], [1e308, -1e308], [4, 4], [0, 4]]}]}])
    def test_a_scene_past_a_size_bound_is_bad_input(self, tmp_path, capsys, defect):
        tree = golden_scene_dict()
        tree["grid"].update(defect.get("grid", {}))
        tree["rooms"] = defect.get("rooms", tree["rooms"])
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(tree))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["build-graph", "--scene", str(bad), "--dump"]) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_overflowing_feature_prints_only_the_error(self, tmp_path, capsys):
        tree = golden_scene_dict()
        feature = [0.0] * 256
        feature[0] = 1e200  # finite, but its squared norm overflows
        tree["objects"][0]["text_feature"] = feature
        bad = tmp_path / "overflow.json"
        bad.write_text(json.dumps(tree))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["build-graph", "--scene", str(bad)]) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: object 'table_0' text_feature norm inf")
        assert err.count("\n") == 1


class TestQuery:
    def test_carried_target(self, scene_file, capsys):
        assert main(["query", "--scene", scene_file, "--text", "red cup"]) == 0
        assert capsys.readouterr().out == "cup_0 score=0.9806 on table_0\n"

    def test_orphan_target(self, scene_file, capsys):
        assert main(["query", "--scene", scene_file, "--text", "green rug"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("rug_0 ")
        assert "(not carried)" in out

    def test_carrier_scoped(self, scene_file, capsys):
        assert main(["query", "--scene", scene_file, "--text", "brown cup",
                     "--carrier", "brown table"]) == 0
        assert capsys.readouterr().out.startswith("cup_0 ")

    def test_no_match_is_runtime_failure(self, scene_file, capsys):
        assert main(["query", "--scene", scene_file,
                     "--text", "violet walrus"]) == 2
        assert capsys.readouterr().err.startswith("no match:")

    @pytest.mark.parametrize("args", [["--text", "?!"], ["--image", "img:??"],
                                      ["--text", "red cup", "--carrier", "!!"]])
    def test_a_descriptor_without_tokens_is_bad_input(self, scene_file, capsys, args):
        assert main(["query", "--scene", scene_file, *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no usable tokens" in err

    def test_text_and_image_together(self, scene_file, capsys):
        assert main(["query", "--scene", scene_file, "--text", "red cup",
                     "--image", "img:red_cup"]) == 1
        assert capsys.readouterr().err == "error: query needs exactly one of --text or --image\n"

    def test_neither_text_nor_image(self, scene_file, capsys):
        assert main(["query", "--scene", scene_file]) == 1
        assert capsys.readouterr().err == "error: query needs exactly one of --text or --image\n"


class TestRunEpisode:
    def test_single_scenario(self, scenario_dir, capsys):
        path = str(scenario_dir / "scenario_0000.json")
        assert main(["run-episode", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert "task 0: success=" in out
        assert "sequence: sr=" in out

    def test_trace_lines_are_indented(self, scenario_dir, capsys):
        path = str(scenario_dir / "scenario_0000.json")
        assert main(["run-episode", "--scenario", path, "--trace"]) == 0
        traces = [l for l in capsys.readouterr().out.splitlines()
                  if l.startswith("  ")]
        assert traces
        assert all(l.lstrip().startswith("t=") for l in traces)

    def test_unknown_variant(self, scenario_dir, capsys):
        path = str(scenario_dir / "scenario_0000.json")
        assert main(["run-episode", "--scenario", path,
                     "--variant", "nope"]) == 1

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run-episode", "--scenario", str(tmp_path / "x.json")]) == 1


def _drop_scene_file(tree, scene):
    del tree["scene_file"]


def _drop_tasks(tree, scene):
    del tree["tasks"]


def _event_without_kind(tree, scene):
    tree["events"] = [{"trigger": "before-episode", "object_id": "cup_0"}]


def _unknown_config_key(tree, scene):
    tree["policy"]["omega3"] = 1.0


def _unknown_ground_truth(tree, scene):
    tree["tasks"][0]["ground_truth_id"] = "ghost_0"


def _config_fails_its_own_check(tree, scene):
    tree["policy"]["sigma1"] = tree["policy"]["sigma2"] + 0.1


def _list_as_root(tree, scene):
    return [tree]


def _sensor_not_an_object(tree, scene):
    tree["sensor"] = 5


def _sensor_radius_not_a_number(tree, scene):
    tree["sensor"] = {"radius": "big"}


def _task_without_query(tree, scene):
    tree["tasks"][0]["query_text"] = None
    tree["tasks"][0].pop("image", None)


def _query_without_tokens(tree, scene):
    tree["tasks"][0]["query_text"] = "?!"


def _image_without_tokens(tree, scene):
    tree["tasks"][0].update(query_text=None, image="img:--")


def _carrier_without_tokens(tree, scene):
    tree["tasks"][0]["carrier_text"] = ""


def _event_moves_an_unknown_object(tree, scene):
    tree["events"][0]["object_id"] = "ghost_0"


def _event_targets_an_unknown_carrier(tree, scene):
    tree["events"][0]["target_carrier_id"] = "ghost_table"


def _trigger_that_is_no_trigger(tree, scene):
    tree["events"][0]["trigger"] = "whenever"


def _trigger_after_a_task_past_the_last(tree, scene):
    tree["events"][0]["trigger"] = f"after-task-{len(tree['tasks']) + 1}"


def _trigger_after_task_zero(tree, scene):
    tree["events"][0]["trigger"] = "after-task-0"


# defects of the scene file a scenario names


def _grid_not_an_object(tree, scene):
    scene["grid"] = 5


def _blocked_cell_of_one_number(tree, scene):
    scene["grid"]["blocked_cells"] = [[1]]


def _blocked_cell_beyond_any_grid(tree, scene):
    scene["grid"]["blocked_cells"].append([10**30, 0])


def _blocked_cell_outside_the_grid(tree, scene):
    scene["grid"]["blocked_cells"].append([scene["grid"]["width"], 0])


def _objects_not_an_array(tree, scene):
    scene["objects"] = 3


def _resolution_not_a_number(tree, scene):
    scene["grid"]["resolution"] = float("nan")


def _resolution_a_boolean(tree, scene):
    scene["grid"]["resolution"] = True


def _embedding_dim_beyond_the_cap(tree, scene):
    scene["header"]["embedding_dim"] = 2**62


def _origin_with_no_finite_cell(tree, scene):
    scene["grid"]["origin"] = [1e308, 0.0]


def _grid_width_beyond_the_cell_cap(tree, scene):
    scene["grid"]["width"] = 2**70


def _grid_cells_beyond_the_cell_cap(tree, scene):
    scene["grid"]["width"] = scene["grid"]["height"] = 2**11 + 1


def _room_vertex_whose_orientations_overflow(tree, scene):
    scene["rooms"][0]["polygon"][1] = [1e308, -1e308]


@pytest.mark.parametrize("defect", [_drop_scene_file, _drop_tasks, _event_without_kind,
                                    _unknown_config_key, _unknown_ground_truth,
                                    _config_fails_its_own_check, _list_as_root,
                                    _sensor_not_an_object, _sensor_radius_not_a_number,
                                    _task_without_query, _query_without_tokens,
                                    _image_without_tokens, _carrier_without_tokens,
                                    _event_moves_an_unknown_object,
                                    _event_targets_an_unknown_carrier,
                                    _trigger_that_is_no_trigger,
                                    _trigger_after_a_task_past_the_last,
                                    _trigger_after_task_zero, _grid_not_an_object,
                                    _blocked_cell_of_one_number, _blocked_cell_beyond_any_grid,
                                    _blocked_cell_outside_the_grid, _objects_not_an_array,
                                    _resolution_not_a_number, _resolution_a_boolean,
                                    _embedding_dim_beyond_the_cap,
                                    _origin_with_no_finite_cell,
                                    _grid_width_beyond_the_cell_cap,
                                    _grid_cells_beyond_the_cell_cap,
                                    _room_vertex_whose_orientations_overflow])
def test_malformed_scenario_is_bad_input(scenario_dir, tmp_path, capsys, defect):
    tree = json.loads((scenario_dir / "scenario_0000.json").read_text())
    scene = json.loads((scenario_dir / tree["scene_file"]).read_text())
    tree["scene_file"] = "scene.json"
    tree = defect(tree, scene) or tree
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(tree))
    with pytest.raises(ScenarioError):
        load_scenario(str(path))
    assert main(["run-episode", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("below", [(), ("res",)])
@pytest.mark.parametrize("command, work", [
    (["gen-scenarios", "--count", "1"], "generate_scenarios"),
    (["run-suite", "--scenarios", "SCENARIOS"], "run_suite")])
def test_an_out_that_names_a_file_is_bad_input_before_any_work(
        scenario_dir, tmp_path, monkeypatch, capsys, below, command, work):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken.joinpath(*below)
    calls = []
    monkeypatch.setattr(cli, work, lambda *args, **kwargs: calls.append(args))
    argv = [str(scenario_dir) if a == "SCENARIOS" else a for a in command]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --out") and err.count("\n") == 1
    assert calls == []
    assert taken.read_text() == "kept\n"


class TestRunSuite:
    def test_directory_input(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "res"
        assert main(["run-suite", "--scenarios", str(scenario_dir),
                     "--variants", "ours,no-update", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "ours: episodes=" in printed
        assert "no-update: episodes=" in printed
        assert f"results in {out}" in printed
        assert (out / "results.jsonl").exists()
        assert (out / "report.json").exists()

    def test_glob_input(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "res"
        pattern = str(scenario_dir / "scenario_000*.json")
        assert main(["run-suite", "--scenarios", pattern,
                     "--out", str(out)]) == 0

    def test_empty_directory(self, tmp_path, capsys):
        assert main(["run-suite", "--scenarios", str(tmp_path),
                     "--out", str(tmp_path / "res")]) == 1

    def test_unknown_variant(self, scenario_dir, tmp_path, capsys):
        assert main(["run-suite", "--scenarios", str(scenario_dir),
                     "--variants", "ours,bogus",
                     "--out", str(tmp_path / "res")]) == 1

    def test_bad_worker_count(self, scenario_dir, tmp_path, capsys):
        for workers in ("0", "-2"):
            assert main(["run-suite", "--scenarios", str(scenario_dir),
                         "--workers", workers, "--out", str(tmp_path / "res")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1 and "--workers" in err
        assert not (tmp_path / "res").exists()

    def test_runs_and_records_the_resolved_oracle(self, scenario_dir, tmp_path,
                                                  monkeypatch, capsys):
        class Stub(KeywordPriorOracle):
            name = "stub"

        resolved = []

        def oracle_from_env():
            resolved.append(Stub())
            return resolved[-1]

        monkeypatch.setattr(cli, "oracle_from_env", oracle_from_env)
        out = tmp_path / "res"
        assert main(["run-suite", "--scenarios", str(scenario_dir), "--out", str(out)]) == 0
        assert len(resolved) == 1
        assert json.loads((out / "report.json").read_text())["oracle"] == "stub"

    def test_a_query_without_tokens_is_bad_input(self, scenario_dir, tmp_path, capsys):
        tree = json.loads((scenario_dir / "scenario_0000.json").read_text())
        tree["scene_file"] = str(scenario_dir / tree["scene_file"])
        tree["tasks"][0]["query_text"] = "?!"
        (tmp_path / "scenario_0000.json").write_text(json.dumps(tree))
        out = tmp_path / "res"
        assert main(["run-suite", "--scenarios", str(tmp_path), "--out", str(out)]) == 1
        assert "no usable tokens" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("walled", [False, True])
    def test_a_query_that_matches_nothing_writes_the_path_length(self, scenario_dir, tmp_path,
                                                                  capsys, walled):
        # "walrus" shares no token with any object: the query fails at run
        # time, and the row still reads the start-to-target length, or null
        # when column 14 parts the start from the cup
        t1 = table_dict("table_1", 4.6, 2.0)
        scene = scene_dict([table_dict("table_0", 1.6, 2.0), t1, item_on("cup_0", ["red cup"], t1)],
                           blocked=[(14, iy) for iy in range(16)] if walled else ())
        tree = json.loads((scenario_dir / "scenario_0000.json").read_text())
        tree.update(scene_file="scene.json", events=[],
                    start_pose={"position": [0.6, 0.6], "heading": 0.0},
                    tasks=[{"query_text": "walrus", "ground_truth_id": "cup_0"}])
        (tmp_path / "scene.json").write_text(json.dumps(scene))
        (tmp_path / "scenario.json").write_text(json.dumps(tree))
        out = tmp_path / "res"
        assert main(["run-suite", "--scenarios", str(tmp_path / "scenario.json"),
                     "--out", str(out)]) == 0
        rows = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
        scenario = load_scenario(str(tmp_path / "scenario.json"))
        world = GridWorld(scenario.scene, start_pose=scenario.start_pose)
        if walled:
            expected = None
        else:
            _, expected = world.shortest_path(scenario.start_pose.position,
                                              world.object("cup_0").centroid[:2])
            assert expected > 4.0
        assert [(r["success"], r["shortest"], r["traveled"], r["actions"]) for r in rows] == [
            (False, expected, 0.0, 0)]

    def test_a_walled_off_target_writes_a_null_shortest(self, scenario_dir, tmp_path, capsys):
        # column 14 parts the start from table_1 and the cup on it
        t1 = table_dict("table_1", 4.6, 2.0)
        scene = scene_dict([table_dict("table_0", 1.6, 2.0), t1, item_on("cup_0", ["red cup"], t1)],
                           blocked=[(14, iy) for iy in range(16)])
        tree = json.loads((scenario_dir / "scenario_0000.json").read_text())
        tree.update(scene_file="scene.json", events=[],
                    start_pose={"position": [0.6, 0.6], "heading": 0.0},
                    tasks=[{"query_text": "red cup", "ground_truth_id": "cup_0"}])
        (tmp_path / "scene.json").write_text(json.dumps(scene))
        (tmp_path / "scenario.json").write_text(json.dumps(tree))
        out = tmp_path / "res"
        assert main(["run-suite", "--scenarios", str(tmp_path / "scenario.json"),
                     "--out", str(out)]) == 0

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        rows = [json.loads(line, parse_constant=no_constant)
                for line in (out / "results.jsonl").read_text().splitlines()]
        assert [(r["success"], r["shortest"], r["spl"]) for r in rows] == [(False, None, 0.0)]
        report = json.loads((out / "report.json").read_text())["variants"]["ours"]
        assert (report["sr"], report["spl"]) == (0.0, 0.0)
