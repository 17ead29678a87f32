"""Benchmark harness: metrics, sequence runs, suite artifacts."""

import hashlib
import json
import logging
import math
import re
import shutil
from collections import Counter
from pathlib import Path
from random import Random

import numpy as np
import pytest

from carriernav import bench, facts, update
from carriernav.bench import (
    BenchError,
    _aggregate,
    episode_seed,
    mean_spl,
    run_sequence,
    run_suite,
    spl,
    success_rate,
    tasks_sr,
)
from carriernav.cli import main
from carriernav.graph import build_crsg
from carriernav.planning import WHOLE_GRAPH_CELLS, Planner
from carriernav.policy import VARIANTS, ActionRecord, EpisodeResult
from carriernav.priors import KeywordPriorOracle, OracleError
from carriernav.scenarios import MODES, build_scenario, generate_scenarios, load_scenario
from carriernav.world import GridWorld

from conftest import assert_every_kept_answer_is_its_rule
from oracles import carried_relation, full_coverage_tour, spl_oracle


class TestSpl:
    @pytest.mark.parametrize("success,shortest,traveled,expected", [
        (True, 5.0, 5.0, 1.0),
        (True, 5.0, 10.0, 0.5),
        (True, 0.0, 0.0, 1.0),   # started on the goal
        (True, 5.0, 2.0, 1.0),   # traveled below shortest caps at 1
        (False, 5.0, 5.0, 0.0),
        (False, 0.0, 0.0, 0.0),
    ])
    def test_frozen_cases(self, success, shortest, traveled, expected):
        assert spl(success, shortest, traveled) == expected

    def test_matches_one_line_oracle(self):
        rng = Random(913)
        for _ in range(300):
            success = rng.random() < 0.6
            shortest = rng.choice([0.0, rng.uniform(0.0, 40.0)])
            traveled = rng.choice([0.0, rng.uniform(0.0, 60.0)])
            assert spl(success, shortest, traveled) == spl_oracle(
                success, shortest, traveled)

    def test_negative_lengths_raise(self):
        with pytest.raises(BenchError):
            spl(True, -1.0, 0.0)
        with pytest.raises(BenchError):
            spl(True, 0.0, -1.0)


def episode(success, traveled=4.0, shortest=2.0, task_index=0):
    return EpisodeResult(task_index=task_index, success=success,
                         traveled=traveled, shortest=shortest)


class TestAggregates:
    def test_success_rate(self):
        assert success_rate([]) == 0.0
        assert success_rate([episode(True), episode(False)]) == 0.5
        assert success_rate([episode(True)] * 3) == 1.0

    def test_mean_spl(self):
        assert mean_spl([]) == 0.0
        rows = [episode(True, traveled=4.0, shortest=2.0),
                episode(False, traveled=1.0, shortest=1.0)]
        assert mean_spl(rows) == 0.25

    def test_tasks_sr(self):
        seqs = [[episode(True), episode(True)],
                [episode(True), episode(False)]]
        assert tasks_sr(seqs) == [1.0, 0.5]

    def test_tasks_sr_ragged(self):
        # a short sequence cannot satisfy depths beyond its own length
        seqs = [[episode(True)],
                [episode(True), episode(True)]]
        assert tasks_sr(seqs) == [1.0, 0.5]

    def test_tasks_sr_empty(self):
        assert tasks_sr([]) == []

    def test_action_counters(self):
        def record(kind, unreachable=False):
            return ActionRecord(kind, "", (0.0, 0.0), 0, 0, None, 0.0, unreachable=unreachable)

        walled = EpisodeResult(0, True, 4.0, 2.0, (record("explore", True), record("goto"),
                                                   record("stop")))
        direct = EpisodeResult(1, True, 4.0, 2.0, (record("direct"),))
        out = _aggregate([("a", "ours", walled), ("a", "ours", direct),
                          ("a", "no-update", direct)])
        assert [(agg["unreachable_legs"], agg["mean_actions"]) for agg in out.values()] == [
            (0, 1.0), (1, 2.0)]


class TestEpisodeSeed:
    def test_matches_digest_recompute(self):
        digest = hashlib.sha256(b"probe_0000|ours|2").digest()
        assert episode_seed("probe_0000", "ours", 2) == int.from_bytes(
            digest[:8], "big")

    def test_axes_are_independent(self):
        seeds = {
            episode_seed(name, variant, k)
            for name in ("a", "b")
            for variant in ("ours", "no-update")
            for k in range(3)
        }
        assert len(seeds) == 12

    def test_stable_across_calls(self):
        assert episode_seed("x", "ours", 0) == episode_seed("x", "ours", 0)


class TestRunSequence:
    def test_probe_sequence_yields_five_episodes(self):
        sc = build_scenario("probe", 0, 7)
        results = run_sequence(sc, VARIANTS["ours"])
        assert [r.task_index for r in results] == [0, 1, 2, 3, 4]
        assert all(r.traveled >= 0.0 for r in results)
        assert all(r.shortest >= 0.0 for r in results)
        assert results[0].shortest > 0.0  # first target sits across the room

    def test_repeat_runs_are_identical(self):
        sc = build_scenario("probe", 1, 7)
        a = run_sequence(sc, VARIANTS["ours"])
        b = run_sequence(sc, VARIANTS["ours"])
        assert [(r.success, r.traveled, r.shortest, r.actions) for r in a] == \
               [(r.success, r.traveled, r.shortest, r.actions) for r in b]

    def test_records_compare_by_value(self):
        # a priority-less action holds None, not a nan, so two runs' records
        # are equal; the trace is each record's line
        sc = build_scenario("mixed", 1, 7)
        a, b = run_sequence(sc, VARIANTS["ours"]), run_sequence(sc, VARIANTS["ours"])
        assert [r.records for r in a] == [r.records for r in b]
        kinds = {rec.kind: rec.priority for r in a for rec in r.records}
        assert kinds["stop"] is None and kinds["goto"] is not None
        for r in a:
            assert len(r.actions) == r.action_count
            assert all(r.actions[t] == r.records[t].line(t) for t in range(r.action_count))

    def test_updating_variant_beats_frozen_graph_on_probe(self):
        sc = build_scenario("probe", 0, 7)
        ours = run_sequence(sc, VARIANTS["ours"])
        frozen = run_sequence(sc, VARIANTS["no-update"])
        assert mean_spl(ours[1:]) > mean_spl(frozen[1:])


class TestSearchBudget:
    """Counts, not timings: the scenario's generation and the six variants'
    task sequences share one grid.  The reachability labels build no graph.
    On a grid of fewer than ``WHOLE_GRAPH_CELLS`` cells every search reads
    its whole graph, built once; on a larger grid each search reads a graph
    of its own, never the whole grid's, and they search no (source, box)
    pair twice unless the box is the whole grid.  They search no (source,
    box) pair twice to one limit; a leg whose ends share a cell searches
    nothing, and every search has a finite limit above 0."""

    @pytest.mark.parametrize("mode,index,resolution", [
        ("single", 0, 0.05), ("probe", 0, 0.05), ("mixed", 0, 0.25), ("mixed", 1, 0.25),
        ("mixed", 4, 0.25), ("probe", 0, 0.25)])
    def test_each_search_is_paid_once(self, monkeypatch, mode, index, resolution):
        import carriernav.planning as planning_mod
        graphs, searches, zero_legs, grids = {}, [], [], set()
        real_node_graph, real_dijkstra = Planner._node_graph, planning_mod.dijkstra
        real_init, real_path = GridWorld.__init__, GridWorld.shortest_path

        def init(world, *args, **kwargs):
            real_init(world, *args, **kwargs)
            grids.add(world.planner)

        def node_graph(world, box, nodes):
            graph = real_node_graph(world, box, nodes)
            graphs[id(graph)] = (box, np.flatnonzero(nodes), graph)
            return graph

        def dijkstra(graph, **kwargs):
            box, cells, _ = graphs[id(graph)]
            at = int(cells[kwargs["indices"]])
            source = (box[0] + at % (box[2] - box[0]), box[1] + at // (box[2] - box[0]))
            searches.append((source, box, kwargs["limit"]))
            return real_dijkstra(graph, **kwargs)

        def shortest_path(world, start, goal):
            before = len(searches)
            out = real_path(world, start, goal)
            if world.snap_free_cell(start) == world.snap_free_cell(goal):
                zero_legs.append(len(searches) - before)
            return out

        monkeypatch.setattr(Planner, "_node_graph", node_graph)
        monkeypatch.setattr(planning_mod, "dijkstra", dijkstra)
        monkeypatch.setattr(GridWorld, "__init__", init)
        monkeypatch.setattr(GridWorld, "shortest_path", shortest_path)
        sc = build_scenario(mode, index, 7, resolution)
        for variant in VARIANTS.values():
            run_sequence(sc, variant)
        (grid,) = grids
        whole = (0, 0, grid.occupancy.shape[1], grid.occupancy.shape[0])
        small = grid.occupancy.size < WHOLE_GRAPH_CELLS
        built = [box for box, _, _ in graphs.values()]
        assert zero_legs and set(zero_legs) == {0}
        assert searches and len(set(searches)) == len(searches)
        if small:
            assert built == [whole] and all(box == whole for _, box, _ in searches)
        else:
            assert len(built) == len(searches) and "_graph" not in vars(grid)
            own = [(source, box) for source, box, _ in searches if box != whole]
            assert own and len(set(own)) == len(own)
        assert all(0 < limit < math.inf for _, _, limit in searches)


@pytest.mark.parametrize("resolution", [0.25, 0.05])
@pytest.mark.parametrize("mode", MODES)
def test_sequences_on_a_warm_grid_equal_cold_ones(mode, resolution, monkeypatch):
    # each variant run cold (no grid's or scene's facts kept), then all six
    # in a row sharing one grid's and one scene's facts, and the first
    # again on the warmest facts: every result, actions included, is equal;
    # the shared runs compute each move, leg and pairing once, the last
    # run none, and every answer kept equals the rule it replaced
    sc = build_scenario(mode, 1, 13, resolution)
    calls = {}
    for owner, name in ((GridWorld, "_moved"), (GridWorld, "_first_sightings"),
                        (update, "_pair")):
        def counted(*a, _real=getattr(owner, name), _calls=calls.setdefault(name, [])):
            _calls.append(a)
            return _real(*a)
        monkeypatch.setattr(owner, name, counted)
    moves = calls["_moved"]

    cold = {}
    for name, variant in VARIANTS.items():
        facts.release_facts()
        cold[name] = run_sequence(sc, variant)
    cold_moves = len(moves)
    facts.release_facts()
    before = {name: len(c) for name, c in calls.items()}
    warm = {name: run_sequence(sc, variant) for name, variant in VARIANTS.items()}
    assert warm == cold
    in_warm = {name: len(c) - before[name] for name, c in calls.items()}
    first = next(iter(VARIANTS))
    assert run_sequence(sc, VARIANTS[first]) == cold[first]
    assert {name: len(c) - before[name] for name, c in calls.items()} == in_warm
    kinds = Counter(key[0] for key in facts._scene.answers)
    assert all(kinds[kind] for kind in ("carrier", "match", "move", "leg", "carried"))
    assert cold_moves == len(VARIANTS) * kinds["move"] == len(VARIANTS) * in_warm["_moved"]
    assert in_warm["_first_sightings"] == kinds["leg"]
    assert in_warm["_pair"] == kinds["reconcile"]
    assert before["_first_sightings"] > kinds["leg"]
    assert_every_kept_answer_is_its_rule()


class TestFullCoverageTour:
    @pytest.mark.parametrize("index", range(3))
    def test_tour_converges_to_ground_truth(self, index):
        sc = build_scenario("mixed", index, 11)
        world = GridWorld(sc.scene, start_pose=sc.start_pose)
        crsg = build_crsg(sc.scene, sc.crsg)
        for spec in sc.events:  # displace everything before the tour
            world.apply_displacement(spec, sc.crsg)
        visited = full_coverage_tour(world, crsg, sensor=sc.sensor,
                                     match=sc.match, crsg_cfg=sc.crsg)
        assert visited == sorted(crsg.carriers)
        expected = {
            cid: tuple(sorted(world.ground_truth_carried(cid, sc.crsg)))
            for cid in crsg.carriers
        }
        assert carried_relation(crsg) == expected


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("suite")
    generate_scenarios("mixed", 2, 5, out_dir=str(d))
    return d


def scenario_paths(d):
    return [str(p) for p in sorted(d.rglob("scenario_*.json"))]


class TestRunSuite:
    def test_validation(self, suite_dir):
        paths = scenario_paths(suite_dir)
        with pytest.raises(BenchError):
            run_suite(paths, variant_names=("nope",))
        with pytest.raises(BenchError):
            run_suite(paths, workers=0)
        with pytest.raises(BenchError):
            run_suite([])

    def test_artifacts_and_aggregates(self, suite_dir, tmp_path):
        paths = scenario_paths(suite_dir)
        out = tmp_path / "out"
        report = run_suite(paths, variant_names=("ours", "no-update"),
                           out_dir=str(out))

        rows = [json.loads(line) for line in
                (out / "results.jsonl").read_text().splitlines()]
        assert len(rows) == len(report.rows)
        keys = (lambda r: (r["scenario"], r["variant"], r["task_index"]))
        assert [keys(r) for r in rows] == sorted(keys(r) for r in rows)
        for row in rows:
            assert set(row) == {"scenario", "variant", "task_index", "success",
                                "traveled", "shortest", "spl", "actions"}
            assert row["spl"] == spl_oracle(row["success"], row["shortest"],
                                            row["traveled"])

        tree = json.loads((out / "report.json").read_text())
        assert tree["episodes"] == len(rows)
        # recompute every aggregate from the row file alone
        for variant, agg in tree["variants"].items():
            vrows = [r for r in rows if r["variant"] == variant]
            seqs = {}
            for r in vrows:
                seqs.setdefault(r["scenario"], []).append(r)
            seq_results = [
                [episode(r["success"], r["traveled"], r["shortest"], r["task_index"])
                 for r in sorted(seqs[name], key=lambda r: r["task_index"])]
                for name in sorted(seqs)
            ]
            flat = [r for seq in seq_results for r in seq]
            assert agg["episodes"] == len(vrows)
            assert agg["sr"] == success_rate(flat)
            assert agg["spl"] == mean_spl(flat)
            assert agg["tasks_sr"] == tasks_sr(seq_results)
            assert agg["mean_actions"] == sum(r["actions"] for r in vrows) / len(vrows)

    def test_reruns_are_byte_identical(self, suite_dir, tmp_path):
        paths = scenario_paths(suite_dir)
        out1, out2, out4 = (tmp_path / n for n in ("a", "b", "c"))
        run_suite(paths, variant_names=("ours",), out_dir=str(out1))
        run_suite(paths, variant_names=("ours",), out_dir=str(out2))
        run_suite(paths, variant_names=("ours",), out_dir=str(out4), workers=4)
        for name in ("results.jsonl", "report.json"):
            blob = (out1 / name).read_bytes()
            assert (out2 / name).read_bytes() == blob
            assert (out4 / name).read_bytes() == blob
        assert json.loads((out1 / "report.json").read_text())["oracle"] == "keyword"

    def test_the_pool_has_no_more_processes_than_files(self, suite_dir, monkeypatch):
        sizes = []

        class Pool:
            """Records its size and runs each task in this process."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return [fn(item) for item in items]

        monkeypatch.setattr(bench.multiprocessing, "Pool", Pool)
        paths = scenario_paths(suite_dir)
        assert run_suite(paths, workers=64).rows == run_suite(paths).rows
        assert sizes == [len(paths)]
        run_suite(paths[:1], workers=64)  # one file runs in this process
        assert sizes == [len(paths)]

    def test_a_given_oracle_runs_and_is_recorded(self, suite_dir, tmp_path):
        calls = []

        class Stub(KeywordPriorOracle):
            name = "stub"

            def is_carrier(self, captions):
                calls.append(captions)
                return super().is_carrier(captions)

        paths = scenario_paths(suite_dir)
        run_suite(paths, variant_names=("ours",), out_dir=str(tmp_path), prior=Stub())
        assert calls
        assert json.loads((tmp_path / "report.json").read_text())["oracle"] == "stub"

    def test_oracle_fallbacks_and_reconciliations_are_reported(self, suite_dir, tmp_path,
                                                                 caplog):
        class Failing(KeywordPriorOracle):
            def rank_carriers(self, carriers, target_descriptor):
                raise OracleError("backend down")

        paths, variants = scenario_paths(suite_dir), ("no-update", "ours")
        with caplog.at_level(logging.WARNING, logger="carriernav.policy"):
            run_suite(paths, variant_names=variants, out_dir=str(tmp_path), prior=Failing())
        warnings = len(caplog.records)
        flags = {v: sum(a.fallback for path in paths
                        for r in run_sequence(load_scenario(path), VARIANTS[v], Failing())
                        for a in r.records)
                 for v in variants}
        failing = json.loads((tmp_path / "report.json").read_text())["variants"]
        assert {v: agg["oracle_fallbacks"] for v, agg in failing.items()} == flags
        assert sum(flags.values()) == warnings > 0
        keyword = run_suite(paths, variant_names=variants).variants
        assert [agg["oracle_fallbacks"] for agg in keyword.values()] == [0, 0]
        for agg in (failing, keyword):
            assert agg["no-update"]["reconciled_carriers"] == 0
            assert agg["ours"]["reconciled_carriers"] > 0

    def test_artifact_layout(self, suite_dir, tmp_path):
        """``results.jsonl`` is one compact sorted-key line per row, and
        ``report.json`` loads to the tree the ``indent=2`` writer wrote."""
        report = run_suite(scenario_paths(suite_dir), variant_names=("ours", "no-update"),
                           out_dir=str(tmp_path))
        assert (tmp_path / "results.jsonl").read_text() == "".join(
            json.dumps(row, sort_keys=True) + "\n" for row in report.rows)
        assert json.loads((tmp_path / "report.json").read_text()) == json.loads(
            json.dumps(report.to_dict(), sort_keys=True, indent=2))

    def test_no_timing_fields_leak(self, suite_dir, tmp_path):
        paths = scenario_paths(suite_dir)
        out = tmp_path / "out"
        run_suite(paths[:1], variant_names=("ours",), out_dir=str(out))
        text = (out / "results.jsonl").read_text() + (out / "report.json").read_text()
        assert "wall_time" not in text
        assert "time" not in text


def transformed(src, dst, transform):
    """A copy at ``dst`` of the scenario tree at ``src``, each scene and
    scenario file's tree passed through ``transform`` in place."""
    shutil.copytree(src, dst)
    for path in dst.rglob("*.json"):
        tree = json.loads(path.read_text())
        transform(tree)
        path.write_text(json.dumps(tree))
    return dst


def renaming(rename):
    """The transform that passes every object id, and every reference to
    one (a task's ground truth, an event's object and target carrier),
    through ``rename``."""
    def transform(tree):
        for obj in tree.get("objects", ()):
            obj["id"] = rename(obj["id"])
        for task in tree.get("tasks", ()):
            task["ground_truth_id"] = rename(task["ground_truth_id"])
        for event in tree.get("events", ()):
            for key in ("object_id", "target_carrier_id"):
                if event.get(key) is not None:
                    event[key] = rename(event[key])
    return transform


def traces(d, capsys) -> dict:
    """(scenario file, variant) -> the ``run-episode --trace`` lines of
    every scenario under ``d`` and every variant."""
    out = {}
    for path in scenario_paths(d):
        for variant in sorted(VARIANTS):
            assert main(["run-episode", "--scenario", path, "--variant", variant, "--trace"]) == 0
            out[Path(path).relative_to(d), variant] = capsys.readouterr().out
    return out


def test_the_order_of_a_scenes_objects_and_rooms_changes_no_output_byte(tmp_path, capsys):
    # two seed-1 scenarios of each generated mode, as generated, with the
    # object and room lists of every scene file reversed, and with every
    # object id prefixed (a renaming that keeps the ids' order), run under
    # every variant: the artifacts are byte-identical, and the traces equal
    # once the renaming is applied to them
    plain = tmp_path / "plain"
    for mode in MODES:
        generate_scenarios(mode, 2, 1, out_dir=str(plain / mode))
    sizes = []

    def reverse(tree):
        if "objects" in tree:
            sizes.append((len(tree["objects"]), len(tree["rooms"])))
            tree["objects"].reverse()
            tree["rooms"].reverse()

    flipped = transformed(plain, tmp_path / "reversed", reverse)
    assert min(n for n, _ in sizes) > 1 and max(r for _, r in sizes) > 1
    renamed = transformed(plain, tmp_path / "renamed", renaming(lambda oid: "obj-" + oid))
    for d in (plain, flipped, renamed):
        run_suite(scenario_paths(d), sorted(VARIANTS), out_dir=str(d / "out"))
    for d in (flipped, renamed):
        for name in ("results.jsonl", "report.json"):
            assert (d / "out" / name).read_bytes() == (plain / "out" / name).read_bytes()
    ids = {obj["id"] for path in plain.rglob("scene_*.json")
           for obj in json.loads(path.read_text())["objects"]}
    want = {key: re.sub(r"\w+", lambda m: "obj-" + m[0] if m[0] in ids else m[0], text)
            for key, text in traces(plain, capsys).items()}
    assert any("obj-" in text for text in want.values())
    assert traces(renamed, capsys) == want


def test_reversing_the_table_ids_of_probe_moves_only_the_prior(tmp_path):
    # probe moves every target to its last table id, and the keyword prior
    # explores its six tied tables in id order: relabelling table_i as
    # table_{5-i} puts the targets on the prior's first table.  Only the
    # prior-driven variants may move; only-carriers_Random also moves (its
    # seeded draws index the unexplored carriers in id order), but by no
    # rule, so it is not pinned
    plain = tmp_path / "plain"
    generate_scenarios("probe", 2, 1, out_dir=str(plain))
    tables = {f"table_{i}" for i in range(6)}
    assert all({oid for oid in (obj["id"] for obj in json.loads(path.read_text())["objects"])
                if oid.startswith("table")} == tables for path in plain.glob("scene_*.json"))
    mirrored = transformed(plain, tmp_path / "mirrored", renaming(
        lambda oid: f"table_{5 - int(oid[6:])}" if oid in tables else oid))
    reports = {d: run_suite(scenario_paths(d), sorted(VARIANTS)) for d in (plain, mirrored)}
    for variant in ("ours", "ours-Text", "ours-LLM", "no-update"):
        assert ([row for row in reports[mirrored].rows if row["variant"] == variant]
                == [row for row in reports[plain].rows if row["variant"] == variant])
    actions = {d: report.variants["only-carriers_LLM"]["mean_actions"]
               for d, report in reports.items()}
    assert (actions[plain], actions[mirrored]) == (7.0, 2.0)
