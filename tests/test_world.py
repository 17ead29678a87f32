"""Simulator checks: planning against an independent Dijkstra, sensing,
travel bookkeeping and ground-truth displacement."""

import math
from dataclasses import replace
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carriernav.bench import run_sequence
from carriernav.graph import CrsgConfig
from carriernav.scenarios import MODES, build_scenario
from carriernav.scene import Box3, scene_from_dict
from carriernav.world import (
    STEP_ORDER,
    DisplacementError,
    DisplacementEvent,
    GridWorld,
    Pose,
    SensorConfig,
    UnreachableGoalError,
    WorldError,
)

import oracles
from conftest import assert_every_write_raises, item_on, obj_dict, scene_dict, table_dict

SQRT2 = math.sqrt(2.0)


def empty_world(width=16, height=12, blocked=(), resolution=0.25, start=None):
    scene = scene_from_dict(scene_dict([], width=width, height=height,
                                       resolution=resolution, blocked=blocked))
    return GridWorld(scene, start_pose=start)


def random_world(rng: Random, width=18, height=14, p_block=0.3):
    blocked = [(ix, iy) for ix in range(width) for iy in range(height)
               if rng.random() < p_block]
    # keep at least one free cell
    if len(blocked) == width * height:
        blocked.pop()
    scene = scene_from_dict(scene_dict([], width=width, height=height,
                                       blocked=blocked))
    return GridWorld(scene)


class TestGridGeometry:
    def test_cell_round_trip(self):
        w = empty_world()
        assert w.cell_of([0.0, 0.0]) == (0, 0)
        assert w.cell_of([0.26, 0.51]) == (1, 2)
        center = w.cell_center((3, 2))
        assert np.allclose(center, [0.875, 0.625])
        assert w.cell_of(center) == (3, 2)

    def test_cell_of_out_of_bounds_raises(self):
        w = empty_world()
        with pytest.raises(WorldError):
            w.cell_of([-0.1, 0.5])
        with pytest.raises(WorldError):
            w.cell_of([99.0, 0.5])

    def test_snap_free_cell_prefers_nearest(self):
        w = empty_world(blocked=[(2, 2)])
        # dead center of the blocked cell: the four orthogonal neighbors tie
        # on distance, (ix, iy) order picks the west one
        assert w.snap_free_cell([0.625, 0.625]) == (1, 2)
        # already free: identity
        assert w.snap_free_cell([0.875, 0.625]) == (3, 2)

    @pytest.mark.parametrize("resolution", [0.25, 0.05, 0.3])
    def test_snap_out_of_a_blocked_square_matches_the_ring_search(self, resolution):
        # on a square's diagonals, free cells mirrored across the diagonal are
        # equally near, up to the last bit of the norm: ties must break on
        # the bits the per-cell scan computes
        rng = Random(resolution)
        for k in range(2, 8):
            w = empty_world(blocked=[(ix, iy) for ix in range(5, 5 + k) for iy in range(5, 5 + k)],
                            resolution=resolution)
            lo, side = 5 * resolution, k * resolution
            for _ in range(40):
                t = rng.random() * side
                for point in ([lo + t, lo + t], [lo + t, lo + side - t]):
                    assert w.snap_free_cell(point) == oracles.snap_free_cell_rings(
                        w.occupancy, w.origin, resolution, point), (k, point)

    @pytest.mark.parametrize("resolution", [0.25, 0.05])
    @pytest.mark.parametrize("mode", MODES)
    def test_snap_free_cell_matches_the_ring_search(self, mode, resolution):
        sc = build_scenario(mode, 0, 5, resolution)
        w = GridWorld(sc.scene, start_pose=sc.start_pose)
        rng = Random(f"{mode}/{resolution}")
        lo = w.origin
        hi = w.origin + resolution * np.array([w.width, w.height])
        points = [obj.centroid[:2] for obj in sc.scene.objects.values()]
        points += [lo + rng.random() * (hi - lo) for _ in range(40)]
        # on cell edges and corners, where center distances tie
        points += [lo + resolution * np.array([rng.randrange(w.width + 1),
                                               rng.randrange(w.height + 1)])
                   for _ in range(20)]
        # beyond the grid on every side and corner, near and far
        mid = (lo + hi) / 2.0
        for pad in (0.3 * resolution, 1.0):
            for x in (lo[0] - pad, mid[0], hi[0] + pad):
                for y in (lo[1] - pad, mid[1], hi[1] + pad):
                    points.append(np.array([x, y]))
        # each point again, as a tuple, in interleaved order: the memo's
        # repeats must answer as the search does
        points += [tuple(float(v) for v in p) for p in points]
        rng.shuffle(points)
        for point in points:
            assert w.snap_free_cell(point) == oracles.snap_free_cell_rings(
                w.occupancy, w.origin, resolution, point), point

    def test_blocked_start_pose_rejected(self):
        with pytest.raises(WorldError):
            empty_world(blocked=[(0, 0)], start=Pose([0.125, 0.125]))


def walk_back(w, dist, start, goal):
    """The written tie-break rule re-run on ``dist`` (cell -> meters): from
    the goal, step to the first allowed ``STEP_ORDER`` neighbour whose
    distance plus the step equals the current cell's.  Start to goal."""
    def allowed(a, b):
        dx, dy = b[0] - a[0], b[1] - a[1]
        return w.is_free(b) and (dx == 0 or dy == 0 or (
            w.is_free((a[0] + dx, a[1])) and w.is_free((a[0], a[1] + dy))))

    path = [goal]
    while path[-1] != start:
        here = path[-1]
        path.append(next(
            (here[0] + dx, here[1] + dy) for dx, dy in STEP_ORDER
            if allowed(here, (here[0] + dx, here[1] + dy))
            and abs(dist((here[0] + dx, here[1] + dy)) + math.hypot(dx, dy) * w.resolution
                    - dist(here)) <= 1e-9 * w.resolution))
    return path[::-1]


def pocketed_world(mode, resolution):
    """A generated world plus a walled-in 3x3 pocket around the free cell
    farthest from the start, so some free cells are unreachable."""
    sc = build_scenario(mode, 0, 5, resolution)
    w = GridWorld(sc.scene, start_pose=sc.start_pose)
    start = w.snap_free_cell(w.robot.position)
    full, index = oracles.full_grid_distances(w.occupancy, resolution, start)
    iy, ix = (int(v) for v in np.argwhere(index == int(np.argmax(full)))[0])
    tree = sc.scene.to_dict()
    tree["grid"]["blocked_cells"] += [
        [ix + dx, iy + dy] for dx in range(-2, 3) for dy in range(-2, 3)
        if max(abs(dx), abs(dy)) == 2 and 0 <= ix + dx < w.width and 0 <= iy + dy < w.height]
    return GridWorld(scene_from_dict(tree), start_pose=sc.start_pose)


def sample_cells(rng, mask, k):
    """k distinct (ix, iy) cells where the [iy, ix] ``mask`` holds."""
    cells = np.argwhere(mask)
    return [(int(cells[i][1]), int(cells[i][0])) for i in rng.sample(range(len(cells)), k)]


class TestPlanning:
    def test_trivial_and_straight_paths(self):
        w = empty_world()
        path, length = w.shortest_path([0.125, 0.125], [0.125, 0.125])
        assert path == [(0, 0)] and length == 0.0
        path, length = w.shortest_path([0.125, 0.125], [1.125, 0.125])
        assert length == pytest.approx(4 * 0.25)
        assert path[0] == (0, 0) and path[-1] == (4, 0)

    def test_diagonal_costs_sqrt2(self):
        w = empty_world()
        _, length = w.shortest_path([0.125, 0.125], [1.125, 1.125])
        assert length == pytest.approx(4 * SQRT2 * 0.25)

    def test_no_corner_cutting(self):
        # start boxed in by its two orthogonal neighbors: squeezing out
        # through the diagonal gap would be corner cutting
        w = empty_world(width=3, height=3, blocked=[(1, 0), (0, 1)],
                        start=Pose([0.125, 0.125]))
        with pytest.raises(UnreachableGoalError):
            w.shortest_path(w.cell_center((0, 0)), w.cell_center((2, 2)))

    def test_detour_around_blocked_diagonal(self):
        w = empty_world(width=4, height=4, blocked=[(1, 1)])
        path, length = w.shortest_path(w.cell_center((0, 0)), w.cell_center((2, 2)))
        # every diagonal past the blocked cell is corner cutting, so the
        # detour is four axis steps
        assert length == pytest.approx(4 * 0.25)
        for a, b in zip(path, path[1:]):
            dx, dy = b[0] - a[0], b[1] - a[1]
            assert max(abs(dx), abs(dy)) == 1
            if dx != 0 and dy != 0:
                assert w.is_free((a[0] + dx, a[1])) and w.is_free((a[0], a[1] + dy))

    def test_unreachable_raises(self):
        # wall column splits the grid
        blocked = [(2, iy) for iy in range(6)]
        w = empty_world(width=6, height=6, blocked=blocked)
        with pytest.raises(UnreachableGoalError):
            w.shortest_path(w.cell_center((0, 0)), w.cell_center((5, 0)))

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_independent_dijkstra(self, seed):
        rng = Random(f"world/{seed}")
        w = random_world(rng)
        occ = [[bool(w.occupancy[iy, ix]) for ix in range(w.width)]
               for iy in range(w.height)]
        free = [(ix, iy) for ix in range(w.width) for iy in range(w.height)
                if w.is_free((ix, iy))]
        for _ in range(6):
            start = rng.choice(free)
            goal = rng.choice(free)
            expected = oracles.dijkstra_grid_length(occ, w.resolution, start, goal)
            if math.isinf(expected):
                with pytest.raises(UnreachableGoalError):
                    w.shortest_path(w.cell_center(start), w.cell_center(goal))
                continue
            path, length = w.shortest_path(w.cell_center(start), w.cell_center(goal))
            assert length == pytest.approx(expected, abs=1e-9)
            assert path[0] == start and path[-1] == goal
            for cell in path:
                assert w.is_free(cell)

    def test_symmetric_lengths(self):
        w = random_world(Random("world/sym"))
        free = [(ix, iy) for ix in range(w.width) for iy in range(w.height)
                if w.is_free((ix, iy))]
        rng = Random(0)
        for _ in range(5):
            a, b = rng.choice(free), rng.choice(free)
            try:
                _, l_ab = w.shortest_path(w.cell_center(a), w.cell_center(b))
                _, l_ba = w.shortest_path(w.cell_center(b), w.cell_center(a))
            except UnreachableGoalError:
                continue
            assert l_ab == pytest.approx(l_ba, abs=1e-12)

    def test_distance_field_matches_independent_dijkstra(self):
        rng = Random("world/field")
        for _ in range(3):
            w = random_world(rng, p_block=0.25)
            occ = [[bool(w.occupancy[iy, ix]) for ix in range(w.width)]
                   for iy in range(w.height)]
            free = [(ix, iy) for ix in range(w.width) for iy in range(w.height)
                    if w.is_free((ix, iy))]
            start = rng.choice(free)
            field = w.distance_field(w.cell_center(start))
            for goal in rng.sample(free, 12):
                expected = oracles.dijkstra_grid_length(occ, w.resolution, start, goal)
                if math.isinf(expected):
                    assert math.isinf(field.to_cell(goal))
                else:
                    assert field.to_cell(goal) == pytest.approx(expected, abs=1e-9)

    def test_tie_break_on_an_open_grid(self):
        # (0,0) -> (4,2) has six optimal paths (two diagonals, two axis
        # steps in any order).  Walking back from the goal, the first
        # STEP_ORDER neighbour on a shortest path wins, so axis steps
        # (tried first) end up next to the goal.
        w = empty_world(width=8, height=8)
        a, b = w.cell_center((0, 0)), w.cell_center((4, 2))
        assert w.shortest_path(a, b)[0] == [(0, 0), (1, 1), (2, 2), (3, 2), (4, 2)]
        assert w.shortest_path(b, a)[0] == [(4, 2), (3, 1), (2, 0), (1, 0), (0, 0)]

    def test_tie_break_rule_against_oracle_distances(self):
        # the written rule, re-run on oracle distances, gives the same paths
        rng = Random("world/tiebreak")
        w = random_world(rng, p_block=0.2)
        occ = [[bool(w.occupancy[iy, ix]) for ix in range(w.width)]
               for iy in range(w.height)]
        free = [(ix, iy) for ix in range(w.width) for iy in range(w.height)
                if w.is_free((ix, iy))]

        for _ in range(4):
            start, goal = rng.choice(free), rng.choice(free)
            dist = lambda c: oracles.dijkstra_grid_length(occ, w.resolution, start, c)
            if math.isinf(dist(goal)):
                continue
            path, _ = w.shortest_path(w.cell_center(start), w.cell_center(goal))
            assert path == walk_back(w, dist, start, goal)

    def test_distance_field_blocked_cell_is_inf(self):
        w = empty_world(blocked=[(2, 2)])
        field = w.distance_field([0.125, 0.125])
        assert math.isinf(field.to_cell((2, 2)))
        assert field.to_point([0.125, 0.125]) == 0.0


class TestBoundedSearch:
    """Bounded searches against one unbounded undirected search over the
    planner's former one-direction graph: every read must be bit-equal."""

    @pytest.mark.parametrize("resolution", [0.25, 0.05])
    @pytest.mark.parametrize("mode", MODES)
    def test_graph_is_the_former_graph_made_symmetric(self, mode, resolution):
        w = pocketed_world(mode, resolution)
        graph, index, _ = w._free_graph()
        old, old_index = oracles.one_direction_graph(w.occupancy, resolution)
        assert np.array_equal(index, old_index)
        assert graph.shape == old.shape
        assert (graph != old + old.T).nnz == 0

    @pytest.mark.parametrize("order", ["random", "near-first", "far-first"])
    @pytest.mark.parametrize("resolution", [0.25, 0.05])
    @pytest.mark.parametrize("mode", MODES)
    def test_bounded_reads_equal_the_full_search(self, mode, resolution, order):
        # one source's reads are split by another's, so the memo changes
        # source and a field reads on after a later source's search
        w = pocketed_world(mode, resolution)
        rng = Random(f"{mode}/{resolution}/{order}")
        reads = []
        for source in (w.snap_free_cell(w.robot.position), sample_cells(rng, ~w.occupancy, 1)[0]):
            full, index = oracles.full_grid_distances(w.occupancy, resolution, source)
            unreachable = (index >= 0) & np.isinf(full[index])
            assert unreachable.any()  # the pocket
            cells = (sample_cells(rng, ~w.occupancy, 40) + sample_cells(rng, unreachable, 2)
                     + [source])
            points = [w.cell_center(c) for c in cells]
            points += [obj.centroid[:2] for obj in w.scene.objects.values()]
            expected = []
            for point in points:
                ix, iy = w.snap_free_cell(point)
                expected.append(full[index[iy, ix]])
            # blocked cells have no distance
            points += [None] * 5
            cells = [None] * len(expected) + sample_cells(rng, w.occupancy, 5)
            expected += [math.inf] * 5
            order_key = {"random": lambda e: rng.random(),
                         "near-first": lambda e: e, "far-first": lambda e: -e}[order]
            ranked = sorted(zip(expected, points, cells), key=lambda t: order_key(t[0]))
            reads.append((w.distance_field(w.cell_center(source)), ranked))
        (field_a, reads_a), (field_b, reads_b) = reads
        half = len(reads_a) // 2
        for field, batch in ((field_a, reads_a[:half]), (field_b, reads_b),
                             (field_a, reads_a[half:])):
            for exp, point, cell in batch:
                got = field.to_cell(cell) if point is None else field.to_point(point)
                assert got == exp, (point, cell)

    @pytest.mark.parametrize("resolution", [0.25, 0.05])
    @pytest.mark.parametrize("mode", MODES)
    def test_bounded_paths_equal_the_full_search(self, mode, resolution):
        w = pocketed_world(mode, resolution)
        rng = Random(f"{mode}/{resolution}/paths")
        start = w.snap_free_cell(w.robot.position)
        full, index = oracles.full_grid_distances(w.occupancy, resolution, start)
        dist = lambda c: full[index[c[1], c[0]]]
        goals = [w.snap_free_cell(obj.centroid[:2]) for obj in w.scene.objects.values()]
        goals += sample_cells(rng, ~w.occupancy, 6)
        goals += sample_cells(rng, (index >= 0) & np.isinf(full[index]), 1)
        rng.shuffle(goals)
        for goal in goals:
            if math.isinf(dist(goal)):
                with pytest.raises(UnreachableGoalError):
                    w.shortest_path(w.cell_center(start), w.cell_center(goal))
                continue
            path, length = w.shortest_path(w.cell_center(start), w.cell_center(goal))
            assert path == walk_back(w, dist, start, goal)
            assert length == pytest.approx(dist(goal), abs=1e-9)
            assert type(length) is float and {type(v) for cell in path for v in cell} == {int}

    def test_searches_stop_at_the_distance_read(self, monkeypatch):
        import carriernav.world as world_mod
        limits = []
        real = world_mod.dijkstra
        monkeypatch.setattr(world_mod, "dijkstra",
                            lambda *a, **k: limits.append(k["limit"]) or real(*a, **k))
        w = empty_world(width=64, height=64)
        field = w.distance_field(w.cell_center((0, 0)))
        assert field.to_cell((3, 0)) == 0.75
        assert limits == [pytest.approx(2 * 0.75)]
        assert math.isinf(w._search_memo[2][w._free_graph()[1][0, 10]])
        assert field.to_cell((2, 1)) == pytest.approx(0.25 + SQRT2 * 0.25)
        assert len(limits) == 1  # nearer than the limit: the memo answers
        assert field.to_cell((10, 0)) == 2.5
        assert limits[1] == pytest.approx(max(2 * limits[0], 2 * 2.5))
        # twice the octile distance to (63, 63) covers the whole grid
        assert field.to_cell((63, 63)) == pytest.approx(63 * SQRT2 * 0.25)
        assert math.isinf(limits[2]) and len(limits) == 3
        assert field.to_cell((0, 63)) == 63 * 0.25 and len(limits) == 3

    def test_a_detour_grows_the_search_until_it_is_reached(self, monkeypatch):
        # the cell right across a wall is 0.5 m away as the crow flies, but
        # the way round the wall's end is far longer
        import carriernav.world as world_mod
        limits = []
        real = world_mod.dijkstra
        monkeypatch.setattr(world_mod, "dijkstra",
                            lambda *a, **k: limits.append(k["limit"]) or real(*a, **k))
        wall = [(5, iy) for iy in range(60)]
        w = empty_world(width=64, height=64, blocked=wall)
        occ = [[bool(w.occupancy[iy, ix]) for ix in range(w.width)] for iy in range(w.height)]
        expected = oracles.dijkstra_grid_length(occ, w.resolution, (4, 0), (6, 0))
        assert w.distance_field(w.cell_center((4, 0))).to_cell((6, 0)) == pytest.approx(
            expected, abs=1e-9)
        assert limits[0] == pytest.approx(1.0)
        assert all(b == pytest.approx(2 * a) for a, b in zip(limits, limits[1:-1]))
        assert math.isinf(limits[-1]) and limits[-2] < expected


def sensing_world():
    table = table_dict("table_0", 2.0, 2.0)
    objs = [
        table,
        item_on("cup_0", ["red cup", "red cup", "cup"], table),
        obj_dict("cup_far", ["blue cup", "blue cup", "cup"], 5.0, 2.0, 0.08, 0.08, 0.0, 0.12),
    ]
    scene = scene_from_dict(scene_dict(objs, width=28, height=20))
    return GridWorld(scene, start_pose=Pose([2.0, 3.5]))


class TestSensing:
    def test_radius_gate(self):
        w = sensing_world()
        seen = {o.object_id for o in w.observe(Pose([2.0, 3.5]), SensorConfig(radius=2.5))}
        assert seen == {"table_0", "cup_0"}
        seen_all = {o.object_id for o in w.observe(Pose([2.0, 3.5]), SensorConfig(radius=25.0))}
        assert seen_all == {"table_0", "cup_0", "cup_far"}

    def test_field_of_view_gate(self):
        w = sensing_world()
        # heading east with a quarter-circle fov: the cup 1.5 m north is out
        pose = Pose([2.0, 0.5], heading=0.0)
        seen = {o.object_id for o in w.observe(pose, SensorConfig(radius=25.0, fov=math.pi / 2))}
        assert "cup_far" in seen  # 27 degrees off-axis, inside the cone
        assert "table_0" not in seen  # straight north, outside
        pose_north = Pose([2.0, 0.5], heading=math.pi / 2)
        seen_north = {o.object_id for o in w.observe(pose_north, SensorConfig(radius=25.0, fov=math.pi / 2))}
        assert "table_0" in seen_north

    def test_occlusion_blocks_line_of_sight(self):
        wall = [(8, iy) for iy in range(20)]
        table = table_dict("table_0", 4.0, 2.0)
        scene = scene_from_dict(scene_dict([table], width=28, height=20, blocked=wall))
        w = GridWorld(scene, start_pose=Pose([0.5, 2.0]))
        pose = Pose([0.5, 2.0])
        assert w.observe(pose, SensorConfig(radius=25.0, occlusion=True)) == []
        assert [o.object_id for o in w.observe(pose, SensorConfig(radius=25.0))] == ["table_0"]

    def test_observation_payload(self):
        w = sensing_world()
        obs = {o.object_id: o for o in w.observe(Pose([2.0, 3.5]), SensorConfig())}
        cup = obs["cup_0"]
        truth = w.object("cup_0")
        # the sighting shares the world's frozen instance
        assert cup.object is truth
        assert cup.object.captions == ("red cup", "red cup", "cup")
        assert cup.mean_depth == pytest.approx(
            float(np.linalg.norm(cup.object.centroid[:2] - np.array([2.0, 3.5]))))
        # no write through the sighting can touch ground truth: every one raises
        before = truth.to_dict()
        assert_every_write_raises(cup.object)
        assert truth.to_dict() == before

    def test_skipped_ids_get_no_snapshot(self, monkeypatch):
        w = sensing_world()
        pose, sensor = Pose([2.0, 3.5]), SensorConfig(radius=25.0)
        everything = [o.object_id for o in w.observe(pose, sensor)]
        # a skipped id gets no Observation built
        import carriernav.world as world_mod
        built = []
        real = world_mod.Observation
        monkeypatch.setattr(world_mod, "Observation",
                            lambda obj, depth: built.append(obj.id) or real(obj, depth))
        rest = [o.object_id for o in w.observe(pose, sensor, {"cup_0"})]
        assert rest == [oid for oid in everything if oid != "cup_0"]
        assert built == rest

    def test_sensor_config_validation(self):
        with pytest.raises(WorldError):
            SensorConfig(radius=0.0)
        with pytest.raises(WorldError):
            SensorConfig(fov=0.0)


class TestTravel:
    def test_travel_moves_robot_and_measures(self):
        w = sensing_world()
        path, length = w.shortest_path(w.robot.position, [5.0, 2.0])
        log = assert_travel_matches_oracle(w, path, SensorConfig())
        assert log.length == pytest.approx(length)
        assert np.allclose(w.robot.position, w.cell_center(path[-1]))

    def test_travel_dedupes_observations(self, monkeypatch):
        w = sensing_world()
        path, _ = w.shortest_path(w.robot.position, [5.0, 2.0])
        first = {}
        for cell in path:  # the full-circle sensor ignores heading
            for obs in w.observe(Pose(w.cell_center(cell)), SensorConfig()):
                first.setdefault(obs.object_id, obs.mean_depth)
        import carriernav.world as world_mod
        built = []
        real = world_mod.Observation
        monkeypatch.setattr(world_mod, "Observation",
                            lambda obj, depth: built.append(obj.id) or real(obj, depth))
        log = w.travel(path, SensorConfig())
        assert sorted(log.observations) == ["cup_0", "cup_far", "table_0"]
        # only first sightings become Observations
        assert sorted(built) == sorted(log.observations)
        # each object keeps its first sighting's depth
        assert {oid: o.mean_depth for oid, o in log.observations.items()} == first

    def test_empty_path_is_a_noop(self):
        w = sensing_world()
        before = w.robot.position.copy()
        log = w.travel([], SensorConfig())
        assert log.length == 0.0 and log.observations == {}
        assert np.array_equal(w.robot.position, before)


SENSORS = {
    "default": SensorConfig(),
    "fov-half-pi": SensorConfig(fov=math.pi / 2),
    "fov-third-pi": SensorConfig(fov=math.pi / 3),
    "occlusion": SensorConfig(occlusion=True),
    "radius-25": SensorConfig(radius=25.0),
}


def sightings(observations):
    return [(o.object_id, o.mean_depth) for o in observations]


def assert_travel_matches_oracle(w, path, sensor, travel=GridWorld.travel):
    """``travel`` (by default the method as defined, even while a test
    patches it) against the per-cell loop: the same ids in the same order,
    bit-equal depths, the world's own instances, the same length and the
    same final pose."""
    expected, length, pose = oracles.travel_per_cell(w, path, sensor)
    log = travel(w, path, sensor)
    assert sightings(log.observations.values()) == sightings(expected.values())
    assert all(log.observations[oid].object is obs.object for oid, obs in expected.items())
    assert log.length == length
    assert np.array_equal(w.robot.position, pose.position)
    assert w.robot.heading == pose.heading
    return log


def assert_observe_matches_oracle(w, pose, sensor, skip=()):
    got = w.observe(pose, sensor, skip)
    assert sightings(got) == sightings(oracles.observe_per_cell(w, pose, sensor, skip))
    return got


def free_walk(w, rng, n):
    """n cells from a random free cell, each a random free 8-neighbour of
    the one before (corners may be cut: travel senses any cell sequence)."""
    path = sample_cells(rng, ~w.occupancy, 1)
    for _ in range(n - 1):
        x, y = path[-1]
        nbrs = [(x + dx, y + dy) for dx, dy in STEP_ORDER if w.is_free((x + dx, y + dy))]
        if not nbrs:
            break
        path.append(rng.choice(nbrs))
    return path


class TestSweptSensing:
    """One pass per leg against the per-cell loop it replaced."""

    @pytest.mark.parametrize("sensor", SENSORS.values(), ids=SENSORS.keys())
    @pytest.mark.parametrize("resolution", [0.25, 0.05])
    @pytest.mark.parametrize("mode", MODES)
    def test_legs_equal_the_per_cell_loop(self, mode, resolution, sensor):
        sc = build_scenario(mode, 0, 5, resolution)
        w = GridWorld(sc.scene, start_pose=sc.start_pose)
        rng = Random(f"{mode}/{resolution}")
        legs = []
        for a, b in zip(*[iter(sample_cells(rng, ~w.occupancy, 8))] * 2):
            try:
                legs.append(w.shortest_path(w.cell_center(a), w.cell_center(b))[0])
            except UnreachableGoalError:
                pass
        legs += [free_walk(w, rng, 40) for _ in range(4)]
        legs += [sample_cells(rng, ~w.occupancy, 1)]
        assert len(legs) >= 6
        for path in legs:
            assert_travel_matches_oracle(w, path, sensor)

    @pytest.mark.parametrize("resolution", [0.25, 0.05])
    @pytest.mark.parametrize("mode", MODES)
    def test_episode_legs_equal_the_per_cell_loop(self, mode, resolution, monkeypatch):
        # every leg an episode travels, sensed with every sensor from the
        # same pose; the run itself goes on with the scenario's sensor
        real = GridWorld.travel
        legs = []

        def checked(world, path, sensor):
            for other in SENSORS.values():
                before = world.robot.copy()
                assert_travel_matches_oracle(world, path, other)
                world.robot = before
            legs.append(len(path))
            return real(world, path, sensor)

        monkeypatch.setattr(GridWorld, "travel", checked)
        run_sequence(build_scenario(mode, 1, 3, resolution))
        assert len(legs) >= 3 and max(legs) > 1

    def test_skip_sets(self):
        w = sensing_world()
        sensor = SensorConfig(radius=25.0)
        pose = Pose([2.0, 3.5], heading=1.0)
        ids = sorted(w.scene.objects)
        for k in range(len(ids) + 1):
            for skip in ({*ids[:k]}, {*ids[k:]}, {"no_such_id"}):
                got = assert_observe_matches_oracle(w, pose, sensor, skip)
                assert [o.object_id for o in got] == [oid for oid in ids if oid not in skip]

    def test_an_object_exactly_at_the_radius_is_seen(self):
        # centers and centroid are exact binary fractions: the distance is 2.5
        cup = obj_dict("cup_0", ["red cup"], 3.375, 0.625, 0.08, 0.08, 0.0, 0.12)
        w = GridWorld(scene_from_dict(scene_dict([cup], width=28, height=20)),
                      start_pose=Pose([0.125, 0.625]))
        at = Pose(w.cell_center((3, 2)))
        assert sightings(assert_observe_matches_oracle(w, at, SensorConfig())) == [("cup_0", 2.5)]
        assert assert_observe_matches_oracle(w, at, SensorConfig(radius=2.4999)) == []
        log = assert_travel_matches_oracle(w, [(ix, 2) for ix in range(8)], SensorConfig())
        assert sightings(log.observations.values()) == [("cup_0", 2.5)]

    def test_an_object_at_zero_distance_is_in_any_field_of_view(self):
        cup = obj_dict("cup_0", ["red cup"], 0.875, 0.625, 0.08, 0.08, 0.0, 0.12)
        w = GridWorld(scene_from_dict(scene_dict([cup], width=28, height=20)),
                      start_pose=Pose([0.125, 0.625]))
        narrow = SensorConfig(fov=math.pi / 3)
        # heading west, away from the cup: seen only from its own cell
        got = assert_observe_matches_oracle(w, Pose(w.cell_center((3, 2)), math.pi), narrow)
        assert sightings(got) == [("cup_0", 0.0)]
        assert assert_observe_matches_oracle(w, Pose(w.cell_center((2, 2)), math.pi), narrow) == []
        log = assert_travel_matches_oracle(w, [(3, 2), (2, 2), (1, 2)], narrow)
        assert sightings(log.observations.values()) == [("cup_0", 0.0)]

    def test_an_off_grid_centroid_is_never_seen_under_occlusion(self):
        w = sensing_world()
        far = w.object("cup_far")
        shift = np.array([3.0, 0.0, 0.0])  # to x = 8 m, east of the 7 m wide grid
        w.scene.objects["cup_far"] = replace(far, box=Box3(far.box.min + shift, far.box.max + shift),
                                             centroid=far.centroid + shift)
        path = w.shortest_path(w.robot.position, [6.5, 2.0])[0]
        for sensor, seen in ((SensorConfig(radius=25.0), True),
                             (SensorConfig(radius=25.0, occlusion=True), False)):
            got = assert_observe_matches_oracle(w, Pose([6.5, 2.0]), sensor)
            assert ("cup_far" in [o.object_id for o in got]) is seen
            log = assert_travel_matches_oracle(w, path, sensor)
            assert ("cup_far" in log.observations) is seen

    def test_a_pose_or_path_off_the_grid_raises(self):
        w = sensing_world()
        with pytest.raises(WorldError):
            w.observe(Pose([-0.1, 2.0]), SensorConfig())
        with pytest.raises(WorldError):
            w.travel([(0, 0), (-1, 0)], SensorConfig())
        with pytest.raises(WorldError):
            w.travel([(w.width - 1, 0), (w.width, 0)], SensorConfig())


@pytest.fixture(scope="module")
def walled_world():
    sc = build_scenario("mixed", 0, 5, 0.25)
    return GridWorld(sc.scene, start_pose=sc.start_pose)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(0.0, 0.999), y=st.floats(0.0, 0.999),
       heading=st.floats(-2 * math.pi, 2 * math.pi),
       radius=st.sampled_from([0.5, 2.5, 25.0]),
       fov=st.sampled_from([2 * math.pi, math.pi, math.pi / 2, math.pi / 3, 0.1]),
       occlusion=st.booleans(), skip=st.sets(st.integers(0, 40), max_size=6))
def test_observe_equals_the_per_cell_rule(walled_world, x, y, heading, radius, fov, occlusion,
                                          skip):
    w = walled_world
    pose = Pose(w.origin + np.array([x * w.width, y * w.height]) * w.resolution, heading)
    ids = sorted(w.scene.objects)
    assert_observe_matches_oracle(w, pose, SensorConfig(radius, fov, occlusion),
                                  {ids[k] for k in skip if k < len(ids)})


class TestGroundTruth:
    def test_ground_truth_carried_matches_oracle(self):
        cfg = CrsgConfig()
        t0 = table_dict("table_0", 2.0, 2.0)
        t1 = table_dict("table_1", 5.0, 2.0)
        objs = [t0, t1,
                item_on("cup_0", ["red cup"], t0),
                item_on("cup_1", ["blue cup"], t1, dx=0.2),
                obj_dict("cup_2", ["green cup"], 3.5, 4.0, 0.08, 0.08, 0.0, 0.12)]
        w = GridWorld(scene_from_dict(scene_dict(objs, width=32, height=20)))
        for cid in ("table_0", "table_1"):
            carrier = w.object(cid)
            expected = set()
            for oid, obj in w.scene.objects.items():
                if oid == cid or not oracles.rests_on(carrier, obj, cfg):
                    continue
                best = None
                for other_id, other in w.scene.objects.items():
                    if other_id == oid or not oracles.geometric_base(other, cfg):
                        continue
                    if not oracles.rests_on(other, obj, cfg):
                        continue
                    d = float(np.linalg.norm(obj.centroid - other.centroid))
                    if best is None or (d, other_id) < best:
                        best = (d, other_id)
                if best and best[1] == cid:
                    expected.add(oid)
            assert set(w.ground_truth_carried(cid, cfg)) == expected

    def test_stacked_items_do_not_capture_each_other(self):
        # two near-coincident lamps: each one's nearest predicate-satisfying
        # object is the other lamp, but items are never bases, so the table
        # must keep both
        cfg = CrsgConfig()
        t0 = table_dict("table_0", 2.0, 2.0)
        objs = [t0,
                item_on("lamp_0", ["white lamp"], t0, dx=0.01, ex=0.18, ey=0.18, h=0.4),
                item_on("lamp_1", ["black lamp"], t0, dx=-0.01, ex=0.18, ey=0.18, h=0.4)]
        w = GridWorld(scene_from_dict(scene_dict(objs, width=32, height=20)))
        assert oracles.rests_on(w.object("lamp_0"), w.object("lamp_1"), cfg)
        assert w.ground_truth_carried("table_0", cfg) == ["lamp_0", "lamp_1"]

    def test_carried_observations_cover_the_carrier(self):
        cfg = CrsgConfig()
        w = sensing_world()
        obs = w.carried_observations("table_0", Pose([2.0, 3.5]), cfg)
        assert [o.object_id for o in obs] == ["cup_0"]

    def test_unknown_object_raises(self):
        w = sensing_world()
        with pytest.raises(WorldError):
            w.object("ghost_0")
        assert not w.has_object("ghost_0")


class TestDisplacement:
    CFG = CrsgConfig()

    def two_table_world(self):
        t0 = table_dict("table_0", 2.0, 2.0)
        t1 = table_dict("table_1", 5.0, 2.0)
        objs = [t0, t1, item_on("cup_0", ["red cup", "red cup", "cup"], t0)]
        return GridWorld(scene_from_dict(scene_dict(objs, width=32, height=20)))

    def test_move_reseats_object(self):
        w = self.two_table_world()
        w.apply_displacement(DisplacementEvent(kind="move", object_id="cup_0",
                                               target_carrier_id="table_1"), self.CFG)
        assert w.ground_truth_carried("table_0", self.CFG) == []
        assert w.ground_truth_carried("table_1", self.CFG) == ["cup_0"]
        cup = w.object("cup_0")
        assert cup.box.min[2] == pytest.approx(0.75)  # resting on the new top

    def test_a_move_leaves_earlier_sightings_and_the_scene_alone(self):
        w = self.two_table_world()
        scene = w.scene
        w = GridWorld(scene)
        before = w.object("cup_0")
        seen = {o.object_id: o for o in w.observe(Pose(before.centroid[:2]), SensorConfig())}
        centroid, box_min = before.centroid.copy(), before.box.min.copy()
        w.apply_displacement(DisplacementEvent(kind="move", object_id="cup_0",
                                               target_carrier_id="table_1"), self.CFG)
        moved = w.object("cup_0")
        assert moved is not before and not np.array_equal(moved.centroid, centroid)
        # the earlier sighting and the parsed scene keep the old instance
        assert seen["cup_0"].object is before
        assert scene.objects["cup_0"] is before
        assert np.array_equal(seen["cup_0"].object.centroid, centroid)
        assert np.array_equal(seen["cup_0"].object.box.min, box_min)

    def test_move_spot_index_varies_placement(self):
        w1 = self.two_table_world()
        w2 = self.two_table_world()
        ev = DisplacementEvent(kind="move", object_id="cup_0", target_carrier_id="table_1")
        w1.apply_displacement(ev, self.CFG, spot_index=0)
        w2.apply_displacement(ev, self.CFG, spot_index=7)
        p1 = w1.object("cup_0").centroid
        p2 = w2.object("cup_0").centroid
        assert not np.allclose(p1, p2)

    def test_remove_deletes_object(self):
        w = self.two_table_world()
        w.apply_displacement(DisplacementEvent(kind="remove", object_id="cup_0"), self.CFG)
        assert not w.has_object("cup_0")
        assert w.ground_truth_carried("table_0", self.CFG) == []

    def test_add_places_new_object(self):
        w = self.two_table_world()
        w.apply_displacement(DisplacementEvent(
            kind="add", object_id="",
            target_carrier_id="table_1",
            new_object={"id": "phone_0", "captions": ["black phone", "phone"],
                        "extents": [0.15, 0.07, 0.02]}), self.CFG)
        assert w.ground_truth_carried("table_1", self.CFG) == ["phone_0"]
        assert w.object("phone_0").text_feature.any()

    def test_event_validation(self):
        with pytest.raises(DisplacementError):
            DisplacementEvent(kind="teleport", object_id="cup_0")
        with pytest.raises(DisplacementError):
            DisplacementEvent(kind="move", object_id="cup_0")  # no target
        with pytest.raises(DisplacementError):
            DisplacementEvent(kind="add")  # no payload
        w = self.two_table_world()
        with pytest.raises(DisplacementError):
            w.apply_displacement(DisplacementEvent(kind="remove", object_id="ghost"), self.CFG)
        with pytest.raises(DisplacementError):
            w.apply_displacement(DisplacementEvent(
                kind="add", target_carrier_id="table_1",
                new_object={"id": "cup_0"}), self.CFG)  # id collision

    def test_no_free_spot_raises(self):
        # a carrier already paved edge to edge with trays has no room left
        t0 = table_dict("table_0", 2.0, 2.0)
        objs = [t0]
        for i in range(4):
            objs.append(item_on(f"tray_{i}", ["white tray"], t0,
                                dx=-0.45 + 0.3 * i, ex=0.30, ey=0.78, h=0.02))
        objs.append(obj_dict("cup_0", ["red cup"], 5.0, 2.0, 0.08, 0.08, 0.0, 0.12))
        w = GridWorld(scene_from_dict(scene_dict(objs, width=32, height=20)))
        with pytest.raises(DisplacementError):
            w.apply_displacement(DisplacementEvent(
                kind="move", object_id="cup_0", target_carrier_id="table_0"), self.CFG)

    def test_world_copies_scene(self):
        # displacements must never leak back into the parsed scene object
        scene = scene_from_dict(scene_dict([
            table_dict("table_0", 2.0, 2.0),
            table_dict("table_1", 5.0, 2.0),
            item_on("cup_0", ["red cup"], table_dict("table_0", 2.0, 2.0)),
        ], width=32, height=20))
        original = scene.objects["cup_0"].centroid.copy()
        w = GridWorld(scene)
        w.apply_displacement(DisplacementEvent(kind="move", object_id="cup_0",
                                               target_carrier_id="table_1"), self.CFG)
        assert np.array_equal(scene.objects["cup_0"].centroid, original)


class TestMemos:
    """The world's memos against the rules they replaced, run afresh."""

    def check_relation(self, w, cfg):
        for cid in sorted(w.scene.objects):
            assert w.ground_truth_carried(cid, cfg) == oracles.ground_truth_carried_per_call(
                w, cid, cfg), cid

    @pytest.mark.parametrize("resolution", [0.25, 0.05])
    @pytest.mark.parametrize("mode", MODES)
    def test_carrying_relation_follows_every_displacement(self, mode, resolution):
        sc = build_scenario(mode, 0, 5, resolution)
        w = GridWorld(sc.scene, start_pose=sc.start_pose)
        cfg = sc.crsg
        carriers = sorted(oid for oid, obj in w.scene.objects.items()
                          if oracles.geometric_base(obj, cfg))
        items = [oid for cid in carriers for oid in w.ground_truth_carried(cid, cfg)]
        events = [DisplacementEvent(kind="move", object_id=oid,
                                    target_carrier_id=carriers[k % len(carriers)])
                  for k, oid in enumerate(items)]
        events += [DisplacementEvent(kind="add", target_carrier_id=cid,
                                     new_object={"id": f"added_{k}", "captions": ["blue mug"]})
                   for k, cid in enumerate(carriers)]
        events += [DisplacementEvent(kind="remove", object_id=oid)
                   for oid in items[::2] + ["added_0"]]
        self.check_relation(w, cfg)
        done = []
        for k, event in enumerate(events):
            try:
                w.apply_displacement(event, cfg, spot_index=k % 4)
                done.append(event.kind)
            except DisplacementError:
                pass  # a rejected move may already have re-seated its object
            self.check_relation(w, cfg)
        assert set(done) == {"move", "add", "remove"}

    def test_carrying_relation_follows_the_config(self):
        # a cup 10 cm above the table top rests on it only under the
        # looser gap; the memo must answer for the config passed in
        t0 = table_dict("table_0", 2.0, 2.0)
        cup = obj_dict("cup_0", ["red cup"], 2.0, 2.0, 0.08, 0.08, 0.85, 0.12)
        w = GridWorld(scene_from_dict(scene_dict([t0, cup], width=32, height=20)))
        tight, loose = CrsgConfig(z_gap_max=0.05), CrsgConfig(z_gap_max=0.15)
        for cfg, expected in ((tight, []), (loose, ["cup_0"]), (tight, []), (loose, ["cup_0"])):
            assert w.ground_truth_carried("table_0", cfg) == expected
            self.check_relation(w, cfg)
        # the same config object, changed in place
        tight.z_gap_max = 0.15
        assert w.ground_truth_carried("table_0", tight) == ["cup_0"]

    def test_a_rejected_move_still_changes_the_relation(self):
        # a crate on the floor is a base holding a cup; moved onto a table
        # it is re-seated, then rejected as too large to be carried, and
        # it no longer holds the cup
        cfg = CrsgConfig()
        crate = obj_dict("crate_0", ["wooden crate"], 2.0, 2.0, 0.6, 0.5, 0.0, 0.3)
        objs = [crate, table_dict("table_1", 5.0, 2.0), item_on("cup_0", ["red cup"], crate)]
        w = GridWorld(scene_from_dict(scene_dict(objs, width=32, height=20)))
        assert w.ground_truth_carried("crate_0", cfg) == ["cup_0"]
        with pytest.raises(DisplacementError):
            w.apply_displacement(DisplacementEvent(kind="move", object_id="crate_0",
                                                   target_carrier_id="table_1"), cfg)
        assert w.ground_truth_carried("crate_0", cfg) == []
        self.check_relation(w, cfg)

    def test_an_item_on_two_tops_blocks_spots_only_on_its_nearest_carrier(self):
        t0 = table_dict("table_0", 2.0, 2.0)
        t1 = table_dict("table_1", 2.6, 2.0)
        cup = item_on("cup_0", ["red cup"], t1, dx=-0.15)  # on both tops
        w = GridWorld(scene_from_dict(scene_dict([t0, t1, cup], width=32, height=20)))
        cfg = CrsgConfig()
        assert w.ground_truth_carried("table_0", cfg) == []
        assert w.ground_truth_carried("table_1", cfg) == ["cup_0"]
        extents = np.array([0.5, 0.5, 0.1])
        for carrier in (w.object("table_0"), w.object("table_1")):
            for k in range(6):
                expected = oracles.free_spot_sorted_tuples(w, carrier, extents, cfg, "", k)
                got = w._free_spot_on(carrier, extents, cfg, "", k)
                assert np.array_equal(got, expected), (carrier.id, k)

    @pytest.mark.parametrize("resolution", [0.25, 0.05])
    @pytest.mark.parametrize("mode", MODES)
    def test_placements_equal_the_sorted_scan(self, mode, resolution):
        sc = build_scenario(mode, 0, 5, resolution)
        w = GridWorld(sc.scene, start_pose=sc.start_pose)
        cfg = sc.crsg
        carriers = [obj for obj in w.scene.objects.values() if oracles.geometric_base(obj, cfg)]
        item = next(w.object(oid) for c in carriers for oid in w.ground_truth_carried(c.id, cfg))
        for carrier in carriers:
            for extents, skip_id in ((item.box.extents, item.id),
                                     (np.array([0.1, 0.1, 0.12]), ""),
                                     (np.array([0.45, 0.3, 0.2]), "")):
                for k in range(4):
                    expected = oracles.free_spot_sorted_tuples(w, carrier, extents, cfg,
                                                               skip_id, k)
                    if expected is None:
                        with pytest.raises(DisplacementError):
                            w._free_spot_on(carrier, extents, cfg, skip_id, k)
                    else:
                        got = w._free_spot_on(carrier, extents, cfg, skip_id, k)
                        assert np.array_equal(got, expected), (carrier.id, extents, k)

