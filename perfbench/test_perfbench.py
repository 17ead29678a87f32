"""Tests of the benchmark's own arithmetic and checks.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402


class TestPercentile:
    def test_nearest_rank(self):
        samples = list(range(10, 0, -1))  # 10 .. 1, unsorted on purpose
        assert checks.percentile(samples, 50) == 5
        assert checks.percentile(samples, 90) == 9
        assert checks.percentile(samples, 100) == 10
        assert checks.percentile([7.5], 90) == 7.5

    def test_value_is_a_sample(self):
        samples = [0.3, 0.1, 0.2, 0.4]
        assert checks.percentile(samples, 50) == 0.2  # no interpolation

    def test_tail_count(self):
        samples = list(range(1, 101))
        assert checks.percentile(samples, 90) == 90
        assert checks.tail_samples(samples, 90) == 10
        assert checks.tail_samples(list(range(1, 100)), 90) == 9

    def test_ties_are_not_beyond(self):
        assert checks.tail_samples([1, 1, 1, 1], 50) == 0

    @pytest.mark.parametrize("q", [0, -5, 101])
    def test_bad_percentile(self, q):
        with pytest.raises(ValueError):
            checks.percentile([1.0], q)

    def test_no_samples(self):
        with pytest.raises(ValueError):
            checks.percentile([], 50)


class TestOpLatencies:
    def test_partition_sums_to_batch(self):
        lat = checks.op_latencies(10.0, 16.0, [12.0, 13.5, 15.0], 3)
        assert lat == [2.0, 1.5, 2.5]  # the last op carries the batch tail
        assert math.isclose(sum(lat), 6.0)

    def test_even_split_without_marks(self):
        assert checks.op_latencies(0.0, 3.0, [], 3) == [1.0, 1.0, 1.0]


class TestSelfTime:
    def test_nested_spans(self):
        # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
        spans = [
            ("root", 0.0, 10.0, -1, 0),
            ("a", 1.0, 4.0, 0, 0),
            ("g", 2.0, 3.0, 1, 0),
            ("b", 5.0, 9.0, 0, 0),
        ]
        got = layers.self_times(spans)
        assert got == {"root": (1, 3.0), "a": (1, 2.0), "g": (1, 1.0), "b": (1, 4.0)}

    def test_calls_and_self_time_accumulate_by_name(self):
        spans = [
            ("run", 0.0, 6.0, -1, 0),
            ("leaf", 1.0, 2.0, 0, 0),
            ("leaf", 3.0, 5.0, 0, 0),
            ("run", 10.0, 11.0, -1, 1),
        ]
        got = layers.self_times(spans)
        assert got["leaf"] == (2, 3.0)
        assert got["run"] == (2, 4.0)

    def test_scales_apply_per_sequence(self):
        spans = [("a", 0.0, 2.0, -1, 0), ("a", 5.0, 7.0, -1, 1), ("b", 5.5, 6.5, 1, 1)]
        got = layers.self_times(spans, {1: 0.5})
        assert got == {"a": (2, 2.0 + 0.5), "b": (1, 0.5)}

    def test_self_times_sum_to_root_durations(self):
        spans = [("r", 0.0, 8.0, -1, 0), ("x", 1.0, 7.0, 0, 0), ("y", 2.0, 3.0, 1, 0)]
        assert math.isclose(sum(t for _, t in layers.self_times(spans).values()), 8.0)


class TestEpisodeInvariants:
    def test_sound_episode(self):
        assert checks.episode_problems(True, 5.0, 4.0, 3, 4, 0.8) == []
        assert checks.episode_problems(False, 9.0, math.inf, 5, 4, 0.0) == []

    def test_doctored_action_count(self):
        problems = checks.episode_problems(True, 5.0, 4.0, 6, 4, 0.8)
        assert len(problems) == 1 and "budget" in problems[0]

    def test_doctored_spl(self):
        assert checks.episode_problems(True, 5.0, 4.0, 2, 4, 1.25)
        assert checks.episode_problems(True, 5.0, 4.0, 2, 4, math.nan)

    def test_success_needs_finite_lengths(self):
        assert checks.episode_problems(True, 5.0, math.inf, 2, 4, 0.0)


class TestDigest:
    def test_order_and_float_sensitive(self):
        a = [("s|ours", 0, True, 1.0), ("s|ours", 1, False, 2.0)]
        assert checks.digest(a) == checks.digest(list(a))
        assert checks.digest(a) != checks.digest(a[::-1])
        assert checks.digest(a) != checks.digest([("s|ours", 0, True, 1.0 + 1e-15), a[1]])


class TestTracer:
    def test_wraps_every_binding_and_restores_it(self):
        from carriernav import bench, graph, policy, scenarios
        from carriernav.world import GridWorld

        originals = (bench.run_task, policy.query_target, graph.query_target,
                     GridWorld.__dict__["shortest_path"])
        tracer = layers.Tracer()
        assert tracer.absent == []
        tracer.install()
        try:
            assert bench.run_task is not originals[0]
            assert policy.run_task is bench.run_task
            assert policy.query_target is graph.query_target is not originals[1]
            sc = scenarios.build_scenario("single", 0, 3)
            results = bench.run_sequence(sc, policy.VARIANTS["ours"])
        finally:
            tracer.uninstall()
        assert (bench.run_task, policy.query_target, graph.query_target,
                GridWorld.__dict__["shortest_path"]) == originals

        names = {s[0] for s in tracer.spans}
        assert {"policy.run_task", "graph.build_crsg", "world.shortest_path",
                "world.travel", "world.GridWorld"} <= names
        times = layers.self_times(tracer.spans)
        assert times["policy.run_task"][0] == len(results)
        assert all(t >= 0.0 for _, t in times.values())
        assert tracer.counts["policy.actions"] == sum(r.action_count for r in results)

    def test_missing_function_is_absent(self, monkeypatch):
        from carriernav import world

        monkeypatch.delattr(world.GridWorld, "distance_field")
        tracer = layers.Tracer()
        assert tracer.absent == ["world.distance_field"]
