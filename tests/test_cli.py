"""Command-line entry point: exit codes and printed output."""

import json
import warnings

import pytest

from carriernav.cli import main
from carriernav.scenarios import ScenarioError, load_scenario

from conftest import golden_scene_dict


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

    def test_text_and_image_together(self, scene_file, capsys):
        assert main(["query", "--scene", scene_file, "--text", "red cup",
                     "--image", "img:red_cup"]) == 2

    def test_neither_text_nor_image(self, scene_file, capsys):
        assert main(["query", "--scene", scene_file]) == 2


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


def _event_moves_an_unknown_object(tree, scene):
    tree["events"][0]["object_id"] = "ghost_0"


def _event_targets_an_unknown_carrier(tree, scene):
    tree["events"][0]["target_carrier_id"] = "ghost_table"


# defects of the scene file a scenario names


def _grid_not_an_object(tree, scene):
    scene["grid"] = 5


def _blocked_cell_of_one_number(tree, scene):
    scene["grid"]["blocked_cells"] = [[1]]


def _objects_not_an_array(tree, scene):
    scene["objects"] = 3


def _resolution_not_a_number(tree, scene):
    scene["grid"]["resolution"] = float("nan")


def _resolution_a_boolean(tree, scene):
    scene["grid"]["resolution"] = True


@pytest.mark.parametrize("defect", [_drop_scene_file, _drop_tasks, _event_without_kind,
                                    _unknown_config_key, _unknown_ground_truth,
                                    _config_fails_its_own_check, _list_as_root,
                                    _sensor_not_an_object, _sensor_radius_not_a_number,
                                    _task_without_query, _event_moves_an_unknown_object,
                                    _event_targets_an_unknown_carrier, _grid_not_an_object,
                                    _blocked_cell_of_one_number, _objects_not_an_array,
                                    _resolution_not_a_number, _resolution_a_boolean])
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
        assert main(["run-suite", "--scenarios", str(scenario_dir),
                     "--workers", "0", "--out", str(tmp_path / "res")]) == 2
