"""Simulator checks: planning against an independent Dijkstra, on planners
built by worlds or straight from occupancy arrays, sensing, travel
bookkeeping and ground-truth displacement."""

import gc
import math
import weakref
from dataclasses import FrozenInstanceError, replace
from random import Random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from carriernav import facts
from carriernav.bench import run_sequence
from carriernav.facts import release_facts
from carriernav.graph import CrsgConfig
from carriernav.planning import (SEARCHES_PER_GRID, SLACK_CELLS, STEP_CELLS, STEP_ORDER,
                                 WHOLE_GRAPH_CELLS, Planner)
from carriernav.policy import VARIANTS
from carriernav.scenarios import MODES, build_scenario, generate_scenarios
from carriernav.scene import Box3, scene_from_dict
from carriernav.world import (
    DisplacementError,
    DisplacementEvent,
    GridWorld,
    Pose,
    SensorConfig,
    UnreachableGoalError,
    WorldError,
)

import oracles
from conftest import (assert_every_kept_answer_is_its_rule, assert_every_write_raises, item_on,
                      obj_dict, scene_dict, table_dict)

SQRT2 = math.sqrt(2.0)


def grid_scene(width=16, height=12, blocked=(), resolution=0.25, origin=(0.0, 0.0)):
    """A scene with no objects on a grid with ``blocked`` cells."""
    return scene_from_dict(scene_dict([], width=width, height=height, resolution=resolution,
                                      origin=origin, blocked=blocked))


def empty_world(width=16, height=12, blocked=(), resolution=0.25, start=None, origin=(0.0, 0.0)):
    return GridWorld(grid_scene(width, height, blocked, resolution, origin), start_pose=start)


def grid_planner(width=16, height=12, blocked=(), resolution=0.25):
    """The planner of a grid with ``blocked`` cells, built straight from its
    occupancy array: no scene and no world."""
    return Planner.of(oracles.occupancy_per_cell(blocked, width, height), resolution, (0.0, 0.0))


def is_free(w, cell):
    """Whether ``cell`` lies on planner ``w``'s grid and is not blocked."""
    ix, iy = cell
    return 0 <= ix < w.width and 0 <= iy < w.height and not w.occupancy[iy, ix]


def random_blocked(rng: Random, width, height, p_block):
    """Each cell of a grid, blocked with probability ``p_block``; at least
    one cell is left free."""
    blocked = [(ix, iy) for ix in range(width) for iy in range(height)
               if rng.random() < p_block]
    if len(blocked) == width * height:
        blocked.pop()
    return blocked


def random_planner(rng: Random, width=18, height=14, p_block=0.3, resolution=0.25):
    return grid_planner(width, height, random_blocked(rng, width, height, p_block), resolution)


class TestGridGeometry:
    def test_cell_round_trip(self):
        w = grid_planner()
        assert w.cell_of([0.0, 0.0]) == (0, 0)
        assert w.cell_of([0.26, 0.51]) == (1, 2)
        center = w.cell_center((3, 2))
        assert np.allclose(center, [0.875, 0.625])
        assert w.cell_of(center) == (3, 2)

    def test_cell_of_out_of_bounds_raises(self):
        w = grid_planner()
        with pytest.raises(WorldError):
            w.cell_of([-0.1, 0.5])
        with pytest.raises(WorldError):
            w.cell_of([99.0, 0.5])
        # points whose index is inf or NaN, which ``floor`` would not take
        for point in ([0.5, 1e308], [-1e308, 0.5], [math.nan, 0.5]):
            with pytest.raises(WorldError, match="outside the grid"):
                w.cell_of(point)

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
            w = grid_planner(blocked=[(ix, iy) for ix in range(5, 5 + k) for iy in range(5, 5 + k)],
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
        w = GridWorld(sc.scene, start_pose=sc.start_pose).planner
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

    def test_occupancy_is_read_only(self):
        # worlds on one grid share its occupancy array
        w = empty_world(blocked=[(2, 3), (5, 1)]).planner
        assert w.occupancy[3, 2] and w.occupancy[1, 5] and w.occupancy.sum() == 2
        with pytest.raises(ValueError):
            w.occupancy[0, 0] = True
        with pytest.raises(ValueError):
            w.occupancy[3, 2] = False
        assert not w.occupancy[0, 0] and w.occupancy[3, 2]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_blocked_cells_in_any_order_and_repeats_equal_the_set_rule(data):
    width, height = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
    cells = data.draw(st.lists(st.tuples(st.integers(0, width - 1), st.integers(0, height - 1)),
                               max_size=50))
    cells += data.draw(st.lists(st.sampled_from(cells), max_size=5)) if cells else []
    cells = data.draw(st.permutations(cells))
    assume(len(set(cells)) < width * height)  # a world needs a free cell
    scene = scene_from_dict(scene_dict([], width=width, height=height, blocked=cells))
    assert scene.to_dict()["grid"]["blocked_cells"] == oracles.sorted_unique_cells(cells)
    assert np.array_equal(GridWorld(scene).planner.occupancy,
                          oracles.occupancy_per_cell(cells, width, height))


def walk_back(w, dist, start, goal):
    """The written tie-break rule re-run on planner ``w``'s grid and ``dist``
    (cell -> meters): from the goal, step to the first allowed
    ``STEP_ORDER`` neighbour whose distance plus the step equals the current
    cell's.  Start to goal."""
    def allowed(a, b):
        dx, dy = b[0] - a[0], b[1] - a[1]
        return is_free(w, b) and (dx == 0 or dy == 0 or (
            is_free(w, (a[0] + dx, a[1])) and is_free(w, (a[0], a[1] + dy))))

    path = [goal]
    while path[-1] != start:
        here = path[-1]
        path.append(next(
            (here[0] + dx, here[1] + dy) for dx, dy in STEP_ORDER
            if allowed(here, (here[0] + dx, here[1] + dy))
            and abs(dist((here[0] + dx, here[1] + dy)) + math.hypot(dx, dy) * w.resolution
                    - dist(here)) <= 1e-9 * w.resolution))
    return path[::-1]


def walk_length(w, path):
    """``path_length`` of ``path``'s step counts: the length ``travel``
    walks along it, and the distance read of its goal."""
    n_diag = sum(a[0] != b[0] and a[1] != b[1] for a, b in zip(path, path[1:]))
    return w.path_length(len(path) - 1, n_diag)


def oracle_read(w, full, index, source, cell):
    """The distance read from ``source`` to ``cell`` by the written rule:
    the length of the oracle walk-back over the full search ``full``, inf
    when ``cell`` is unreachable.  It equals the raw float to 1e-9."""
    want = full[index[cell[1], cell[0]]]
    if math.isinf(want):
        return want
    walked = walk_length(w, walk_back(w, lambda c: full[index[c[1], c[0]]], source, cell))
    assert walked == pytest.approx(want, abs=1e-9)
    return walked


def pocketed_scene(mode, resolution):
    """(scene, start pose): a generated scene plus a walled-in 3x3 pocket
    around the free cell farthest from the start, so some free cells are
    unreachable."""
    sc = build_scenario(mode, 0, 5, resolution)
    w = GridWorld(sc.scene, start_pose=sc.start_pose).planner
    start = w.snap_free_cell(sc.start_pose.position)
    full, index = oracles.full_grid_distances(w.occupancy, resolution, start)
    iy, ix = (int(v) for v in np.argwhere(index == int(np.argmax(full)))[0])
    tree = sc.scene.to_dict()
    tree["grid"]["blocked_cells"] += [
        [ix + dx, iy + dy] for dx in range(-2, 3) for dy in range(-2, 3)
        if max(abs(dx), abs(dy)) == 2 and 0 <= ix + dx < w.width and 0 <= iy + dy < w.height]
    return scene_from_dict(tree), sc.start_pose


def pocketed_world(mode, resolution):
    return GridWorld(*pocketed_scene(mode, resolution))


def sample_cells(rng, mask, k):
    """k distinct (ix, iy) cells where the [iy, ix] ``mask`` holds."""
    cells = np.argwhere(mask)
    return [(int(cells[i][1]), int(cells[i][0])) for i in rng.sample(range(len(cells)), k)]


class TestPlanning:
    def test_trivial_and_straight_paths(self):
        w = grid_planner()
        path, length = w.shortest_path([0.125, 0.125], [0.125, 0.125])
        assert path == [(0, 0)] and length == 0.0
        path, length = w.shortest_path([0.125, 0.125], [1.125, 0.125])
        assert length == pytest.approx(4 * 0.25)
        assert path[0] == (0, 0) and path[-1] == (4, 0)

    def test_diagonal_costs_sqrt2(self):
        w = grid_planner()
        _, length = w.shortest_path([0.125, 0.125], [1.125, 1.125])
        assert length == pytest.approx(4 * SQRT2 * 0.25)

    def test_no_corner_cutting(self):
        # start boxed in by its two orthogonal neighbors: squeezing out
        # through the diagonal gap would be corner cutting
        w = grid_planner(width=3, height=3, blocked=[(1, 0), (0, 1)])
        with pytest.raises(UnreachableGoalError):
            w.shortest_path(w.cell_center((0, 0)), w.cell_center((2, 2)))

    def test_detour_around_blocked_diagonal(self):
        w = grid_planner(width=4, height=4, blocked=[(1, 1)])
        path, length = w.shortest_path(w.cell_center((0, 0)), w.cell_center((2, 2)))
        # every diagonal past the blocked cell is corner cutting, so the
        # detour is four axis steps
        assert length == pytest.approx(4 * 0.25)
        for a, b in zip(path, path[1:]):
            dx, dy = b[0] - a[0], b[1] - a[1]
            assert max(abs(dx), abs(dy)) == 1
            if dx != 0 and dy != 0:
                assert is_free(w, (a[0] + dx, a[1])) and is_free(w, (a[0], a[1] + dy))

    def test_unreachable_raises(self):
        # wall column splits the grid
        blocked = [(2, iy) for iy in range(6)]
        w = grid_planner(width=6, height=6, blocked=blocked)
        with pytest.raises(UnreachableGoalError):
            w.shortest_path(w.cell_center((0, 0)), w.cell_center((5, 0)))

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_independent_dijkstra(self, seed):
        rng = Random(f"world/{seed}")
        w = random_planner(rng)
        occ = [[bool(w.occupancy[iy, ix]) for ix in range(w.width)]
               for iy in range(w.height)]
        free = [(ix, iy) for ix in range(w.width) for iy in range(w.height)
                if is_free(w, (ix, iy))]
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
                assert is_free(w, cell)

    def test_symmetric_lengths(self):
        w = random_planner(Random("world/sym"))
        free = [(ix, iy) for ix in range(w.width) for iy in range(w.height)
                if is_free(w, (ix, iy))]
        rng = Random(0)
        for _ in range(5):
            a, b = rng.choice(free), rng.choice(free)
            try:
                _, l_ab = w.shortest_path(w.cell_center(a), w.cell_center(b))
                _, l_ba = w.shortest_path(w.cell_center(b), w.cell_center(a))
            except UnreachableGoalError:
                continue
            assert l_ab == pytest.approx(l_ba, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_travel_is_exactly_as_long_as_the_path_searched(self, seed):
        # SPL compares the walk-back's length with the legs' travel: the
        # same cells must give the same float, at any resolution
        rng = Random(f"world/travel-length/{seed}")
        blocked = [(ix, iy) for ix in range(18) for iy in range(14) if rng.random() < 0.2]
        w = empty_world(width=18, height=14, blocked=blocked,
                        resolution=rng.choice([0.05, 0.07, 0.1, 0.3]))
        p = w.planner
        cells = sample_cells(rng, ~p.occupancy, 10)
        walked = 0
        for a, b in zip(cells, cells[1:]):
            try:
                path, length = w.shortest_path(p.cell_center(a), p.cell_center(b))
            except UnreachableGoalError:
                continue
            assert w.travel(path, SensorConfig()).length == length
            walked += 1
        assert walked

    def test_distance_field_matches_independent_dijkstra(self):
        rng = Random("world/field")
        for _ in range(3):
            w = random_planner(rng, p_block=0.25)
            occ = [[bool(w.occupancy[iy, ix]) for ix in range(w.width)]
                   for iy in range(w.height)]
            free = [(ix, iy) for ix in range(w.width) for iy in range(w.height)
                    if is_free(w, (ix, iy))]
            start = rng.choice(free)
            field = w.distance_field(w.cell_center(start))
            for goal in rng.sample(free, 12):
                expected = oracles.dijkstra_grid_length(occ, w.resolution, start, goal)
                if math.isinf(expected):
                    assert math.isinf(field(w.cell_center(goal)))
                else:
                    assert field(w.cell_center(goal)) == pytest.approx(expected, abs=1e-9)

    def test_tie_break_on_an_open_grid(self):
        # (0,0) -> (4,2) has six optimal paths (two diagonals, two axis
        # steps in any order).  Walking back from the goal, the first
        # STEP_ORDER neighbour on a shortest path wins, so axis steps
        # (tried first) end up next to the goal.
        w = grid_planner(width=8, height=8)
        a, b = w.cell_center((0, 0)), w.cell_center((4, 2))
        assert w.shortest_path(a, b)[0] == [(0, 0), (1, 1), (2, 2), (3, 2), (4, 2)]
        assert w.shortest_path(b, a)[0] == [(4, 2), (3, 1), (2, 0), (1, 0), (0, 0)]

    def test_tie_break_rule_against_oracle_distances(self):
        # the written rule, re-run on oracle distances, gives the same paths
        rng = Random("world/tiebreak")
        w = random_planner(rng, p_block=0.2)
        occ = [[bool(w.occupancy[iy, ix]) for ix in range(w.width)]
               for iy in range(w.height)]
        free = [(ix, iy) for ix in range(w.width) for iy in range(w.height)
                if is_free(w, (ix, iy))]

        for _ in range(4):
            start, goal = rng.choice(free), rng.choice(free)
            dist = lambda c: oracles.dijkstra_grid_length(occ, w.resolution, start, c)
            if math.isinf(dist(goal)):
                continue
            path, _ = w.shortest_path(w.cell_center(start), w.cell_center(goal))
            assert path == walk_back(w, dist, start, goal)


def counting_searches(monkeypatch):
    """(source node, limit) of every Dijkstra search the planners run; a
    node is a cell's index among the nodes of the graph searched
    (:meth:`Planner._node_graph`), in grid order."""
    import carriernav.planning as planning_mod
    searches = []
    real = planning_mod.dijkstra
    monkeypatch.setattr(planning_mod, "dijkstra", lambda *a, **k: searches.append(
        (k["indices"], k["limit"])) or real(*a, **k))
    return searches


def counting_graphs(monkeypatch):
    """(box, nodes) of every graph the planners build, the whole grid's
    included, with ``nodes`` a copy of the builder's node mask."""
    graphs = []
    real = Planner._node_graph
    monkeypatch.setattr(Planner, "_node_graph", lambda w, box, nodes: graphs.append(
        (box, nodes.copy())) or real(w, box, nodes))
    return graphs


def counting_boxes(monkeypatch):
    """The box of every graph the planners build, the whole grid's included."""
    boxes = []
    real = Planner._node_graph
    monkeypatch.setattr(Planner, "_node_graph",
                        lambda w, box, nodes: boxes.append(box) or real(w, box, nodes))
    return boxes


def node_of(box, nodes, cell):
    """``cell``'s node in a graph over ``nodes`` of ``box``: the number of
    nodes before it in grid order."""
    x0, y0, x1, _ = box
    return int(np.count_nonzero(nodes.reshape(-1)[:(cell[1] - y0) * (x1 - x0) + cell[0] - x0]))


def search_read(w, source, cell):
    """The distance of ``cell`` in the search :meth:`Planner._search` gives
    for the read from ``source`` to ``cell``; inf when it refuses the read
    as unreachable."""
    try:
        (x0, y0, x1, _), dist = w._search(source, cell)
    except UnreachableGoalError:
        return math.inf
    return dist[(cell[1] - y0) * (x1 - x0) + cell[0] - x0]


def graph_moves(graph):
    """The entries of ``graph`` that are not self-loops, as a matrix of its
    shape."""
    rows = np.repeat(np.arange(graph.shape[0]), np.diff(graph.indptr))
    moves = rows != graph.indices
    return csr_matrix((graph.data[moves], (rows[moves], graph.indices[moves])), shape=graph.shape)


class TestBoundedSearch:
    """Bounded searches against one unbounded undirected search over the
    planner's former one-direction graph: every read must be bit-equal."""

    @pytest.mark.parametrize("resolution", [0.25, 0.05])
    @pytest.mark.parametrize("mode", MODES)
    def test_graph_is_the_former_graph_made_symmetric(self, mode, resolution):
        w = pocketed_world(mode, resolution).planner
        graph = w._graph
        old, old_index = oracles.one_direction_graph(w.occupancy, resolution)
        n, width = int(np.count_nonzero(~w.occupancy)), len(STEP_ORDER)
        # node i is the former graph's free cell i: the moves are both
        # directions of every former edge
        assert graph.shape == (n, n)
        sym = old + old.T
        assert (graph_moves(graph) != sym).nnz == 0
        # the move table holds the same moves, for every cell of the grid
        iy, ix = np.divmod(np.arange(w.width * w.height), w.width)
        moves = w.moves.reshape(-1, width)
        edges = []
        for k, (dx, dy) in enumerate(STEP_ORDER):
            nx, ny = ix + dx, iy + dy
            edge = np.zeros(len(ix), dtype=bool)
            inside = (nx >= 0) & (nx < w.width) & (ny >= 0) & (ny < w.height)
            here, there = old_index[iy[inside], ix[inside]], old_index[ny[inside], nx[inside]]
            both = (here >= 0) & (there >= 0)
            edge[np.flatnonzero(inside)[both]] = np.asarray(
                sym[here[both], there[both]]).ravel() > 0
            assert np.array_equal(moves[:, k], edge)
            edges.append((edge, np.where(inside, old_index[ny % w.height, nx % w.width], -1)))
        # every row has one slot per STEP_ORDER move, a self-loop where the
        # move is not allowed
        assert np.array_equal(graph.indptr, np.arange(0, width * n + 1, width))
        free = ~w.occupancy.reshape(-1)
        for k, (edge, there) in enumerate(edges):
            assert np.array_equal(graph.indices[k::width],
                                  np.where(edge[free], there[free], np.arange(n)))
            assert np.all(graph.data[k::width] == STEP_CELLS[k] * resolution)
        # the self-loops join nothing: the free cells' components are the
        # former graph's
        n_old, want = connected_components(old, directed=False)
        got = connected_components(graph, directed=False)[1]
        assert n_old > 1  # the pocket
        assert len(set(zip(got.tolist(), want.tolist()))) == n_old == len(set(got.tolist()))

    @pytest.mark.parametrize("resolution", [0.25, 0.05])
    def test_a_box_graph_is_the_whole_graph_cut_to_the_box(self, resolution):
        # over any free cells of any box, slot k of a node holds its
        # STEP_ORDER[k] neighbour's node when the whole graph has that move
        # and the neighbour is a node, else the node itself
        w = pocketed_world("mixed", resolution).planner
        whole = w._graph
        free = np.flatnonzero(~w.occupancy)
        width = len(STEP_ORDER)
        rng = Random(f"box graph/{resolution}")
        for keep in (1.0, 0.7, 0.3):
            for _ in range(4):
                x0, x1 = sorted(rng.sample(range(w.width + 1), 2))
                y0, y1 = sorted(rng.sample(range(w.height + 1), 2))
                nodes = ~w.occupancy[y0:y1, x0:x1] & np.array(
                    [[rng.random() < keep for _ in range(x0, x1)] for _ in range(y0, y1)],
                    dtype=bool).reshape(y1 - y0, x1 - x0)
                graph = w._node_graph((x0, y0, x1, y1), nodes)
                n = int(nodes.sum())
                assert graph.shape == (n, n)
                # each node's cell, and its node in the whole graph
                iy, ix = np.nonzero(nodes)
                iy, ix = iy + y0, ix + x0
                at = np.searchsorted(free, iy * w.width + ix)
                index = np.full((w.height, w.width), -1)
                index[iy, ix] = np.arange(n)
                for k, (dx, dy) in enumerate(STEP_ORDER):
                    nx, ny = ix + dx, iy + dy
                    move = whole.indices[at * width + k] != at
                    move &= (x0 <= nx) & (nx < x1) & (y0 <= ny) & (ny < y1)
                    move[move] &= index[ny[move], nx[move]] >= 0
                    there = np.where(move, index[ny % w.height, nx % w.width], np.arange(n))
                    assert np.array_equal(graph.indices[k::width], there)
                    assert np.all(graph.data[k::width] == STEP_CELLS[k] * resolution)

    @pytest.mark.parametrize("p_block", [0.0, 0.2])
    def test_the_box_holds_every_path_within_the_limit(self, p_block):
        # every cell of every path of length at most L between the ends,
        # by the oracle distances from both ends, lies in the box of L
        rng = Random(f"box/{p_block}")
        w = random_planner(rng, width=40, height=30, p_block=p_block)
        free = ~w.occupancy
        checked = 0
        for _ in range(12):
            source, goal = sample_cells(rng, free, 2)
            from_s, index = oracles.full_grid_distances(w.occupancy, w.resolution, source)
            from_g, _ = oracles.full_grid_distances(w.occupancy, w.resolution, goal)
            through = np.full(w.occupancy.shape, math.inf)
            through[free] = (from_s + from_g)[index[free]]
            if math.isinf(through[goal[1], goal[0]]):
                continue
            for factor in (1.0, 1.25, 1.6, 3.0):
                limit = through[goal[1], goal[0]] * factor
                x0, y0, x1, y1 = w._box(source, goal, limit)
                iy, ix = np.nonzero(through <= limit)
                assert ix.min() >= x0 and ix.max() < x1 and iy.min() >= y0 and iy.max() < y1
                checked += 1
        assert checked > 20

    @pytest.mark.parametrize("order", ["random", "near-first", "far-first"])
    @pytest.mark.parametrize("resolution", [0.25, 0.05])
    @pytest.mark.parametrize("mode", MODES)
    def test_bounded_reads_equal_the_full_search(self, mode, resolution, order):
        # three sources' reads are interleaved and each source is revisited,
        # so a field and a search read on after later sources have searched;
        # a search is bit-equal to the full search at every cell it reads,
        # and a distance read to the length of the oracle walk-back
        world = pocketed_world(mode, resolution)
        w = world.planner
        rng = Random(f"{mode}/{resolution}/{order}")
        reads = []
        sources = [w.snap_free_cell(world.robot.position)] + sample_cells(rng, ~w.occupancy, 2)
        for source in sources:
            full, index = oracles.full_grid_distances(w.occupancy, resolution, source)
            unreachable = (index >= 0) & np.isinf(full[index])
            assert unreachable.any()  # the pocket
            cells = (sample_cells(rng, ~w.occupancy, 40) + sample_cells(rng, unreachable, 2)
                     + [source])
            points = [w.cell_center(c) for c in cells]
            points += [obj.centroid[:2] for obj in world.objects.values()]
            # a blocked cell's center reads the free cell nearest it
            points += [w.cell_center(c) for c in sample_cells(rng, w.occupancy, 5)]
            expected = []
            for point in points:
                cell = w.snap_free_cell(point)
                expected.append((full[index[cell[1], cell[0]]],
                                 oracle_read(w, full, index, source, cell), cell, point))
            order_key = {"random": lambda e: rng.random(),
                         "near-first": lambda e: e, "far-first": lambda e: -e}[order]
            ranked = sorted(expected, key=lambda t: order_key(t[0]))
            reads.append((source, w.distance_field(w.cell_center(source)), ranked))
        (a, field_a, reads_a), (b, field_b, reads_b), (c, field_c, reads_c) = reads
        third, half = len(reads_a) // 3, len(reads_b) // 2
        for source, field, batch in (
                (a, field_a, reads_a[:third]), (b, field_b, reads_b[:half]),
                (c, field_c, reads_c), (a, field_a, reads_a[third:2 * third]),
                (b, field_b, reads_b[half:]), (a, field_a, reads_a[2 * third:])):
            for exp, walked, (ix, iy), point in batch:
                assert field(point) == walked, point
                assert search_read(w, source, (ix, iy)) == exp, point

    @pytest.mark.parametrize("resolution", [0.25, 0.05])
    @pytest.mark.parametrize("mode", MODES)
    def test_bounded_paths_equal_the_full_search(self, mode, resolution):
        world = pocketed_world(mode, resolution)
        w = world.planner
        rng = Random(f"{mode}/{resolution}/paths")
        start = w.snap_free_cell(world.robot.position)
        full, index = oracles.full_grid_distances(w.occupancy, resolution, start)
        dist = lambda c: full[index[c[1], c[0]]]
        goals = [w.snap_free_cell(obj.centroid[:2]) for obj in world.objects.values()]
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
        # on a grid of WHOLE_GRAPH_CELLS cells or more, each search reads
        # a graph of its own ellipse's free cells, to its limit, even when
        # its box is the whole grid: the whole grid's graph is never built
        searches = counting_searches(monkeypatch)
        boxes = counting_boxes(monkeypatch)
        w = grid_planner(width=64, height=64)
        assert w.width * w.height >= WHOLE_GRAPH_CELLS
        margin = 1.0 + 1e-9

        def limit(goal):
            return 1.25 * w._octile((0, 0), goal) * margin

        assert search_read(w, (0, 0), (3, 0)) == 0.75
        # 3.75 cells: one row more, no column more
        assert boxes == [w._box((0, 0), (3, 0), limit((3, 0)))] == [(0, 0, 4, 2)]
        assert searches == [(0, limit((3, 0)))]
        assert w.searches[(0, 0)][1:3] == (boxes[0], w.searches[(0, 0)][2])
        # in the box, and in the ellipse the search kept: no search
        assert search_read(w, (0, 0), (2, 0)) == 0.5
        assert len(searches) == 1
        # in the box, but (2, 1) + octile((2, 1), (3, 0)) passes the limit:
        # the search does not vouch for it
        assert not w._answers(w.searches[(0, 0)], (2, 1))
        # outside the box: a search over its own box
        assert search_read(w, (0, 0), (10, 0)) == 2.5
        assert boxes[1] == w._box((0, 0), (10, 0), limit((10, 0))) and len(boxes) == 2
        assert searches[1] == (0, limit((10, 0)))
        # a box of most of the grid still gets its own graph, to its limit:
        # a read of 8 * SLACK_CELLS cells or more first allows SLACK_CELLS
        # cells of detour
        assert search_read(w, (0, 0), (50, 50)) == pytest.approx(50 * SQRT2 * 0.25)
        tight = (w._octile((0, 0), (50, 50)) + SLACK_CELLS * 0.25) * margin
        box = w._box((0, 0), (50, 50), tight)
        assert boxes[2:] == [box] and box != (0, 0, 64, 64)
        assert searches[2] == (0, tight)
        # the first limit for (63, 63) passes the farthest corner's octile
        # distance: the labels join the two ends, the limit stays, and its
        # box is the whole grid
        assert search_read(w, (0, 0), (63, 63)) == pytest.approx(63 * SQRT2 * 0.25)
        far = (w._octile((0, 0), (63, 63)) + SLACK_CELLS * 0.25) * margin
        assert searches[3] == (0, far) and boxes[3:] == [(0, 0, 64, 64)]
        # (0, 63) lies within that limit but off its ellipse: a search of
        # its own, over its own graph
        assert not w._answers(w.searches[(0, 0)], (0, 63))
        assert search_read(w, (0, 0), (0, 63)) == 63 * 0.25 and len(searches) == 5
        assert len(boxes) == 5 and "_graph" not in vars(w)

    def test_a_long_read_first_allows_slack_cells_of_detour(self, monkeypatch):
        # on a grid of WHOLE_GRAPH_CELLS cells or more, a read shorter than
        # 8 * SLACK_CELLS cells first searches to 1.25 times its octile
        # distance, and a longer one first to its octile distance plus
        # SLACK_CELLS cells, then to 1.25 times it, then doubling
        searches = counting_searches(monkeypatch)
        margin = 1.0 + 1e-9
        reach = 8 * SLACK_CELLS
        w = grid_planner(width=reach + 40, height=32)
        assert w.width * w.height >= WHOLE_GRAPH_CELLS
        assert search_read(w, (0, 0), (reach - 1, 0)) == (reach - 1) * 0.25
        assert searches == [(0, 1.25 * (reach - 1) * 0.25 * margin)]
        searches.clear()
        assert search_read(w, (0, 5), (reach, 5)) == reach * 0.25
        assert [limit for _, limit in searches] == [(reach + SLACK_CELLS) * 0.25 * margin]
        # a wall across the straight way: the way round its end at row 0
        # is more than SLACK_CELLS cells longer, and less than 1.25 times
        wall = [(reach // 2, iy) for iy in range(1, 32)]
        w = grid_planner(width=reach + 40, height=32, blocked=wall)
        occ = [[bool(w.occupancy[iy, ix]) for ix in range(w.width)] for iy in range(w.height)]
        source, goal = (0, 12), (reach, 12)
        expected = oracles.dijkstra_grid_length(occ, w.resolution, source, goal)
        octile = w._octile(source, goal)
        assert octile + SLACK_CELLS * 0.25 < expected < 1.25 * octile
        searches.clear()
        assert search_read(w, source, goal) == pytest.approx(expected, abs=1e-9)
        assert [limit for _, limit in searches] == [
            (octile + SLACK_CELLS * 0.25) * margin, 1.25 * octile * margin]

    def test_a_small_grid_searches_its_whole_graph(self, monkeypatch):
        # the other side of the rule: a grid of fewer than WHOLE_GRAPH_CELLS
        # cells searches its whole graph, built once, to each read's limit
        searches = counting_searches(monkeypatch)
        boxes = counting_boxes(monkeypatch)
        w = grid_planner(width=48, height=48)
        assert w.width * w.height < WHOLE_GRAPH_CELLS
        margin = 1.0 + 1e-9
        assert search_read(w, (0, 0), (3, 0)) == 0.75
        # 1.25 times the octile distance read, node iy * 48 + ix
        assert searches == [(0, 1.25 * 0.75 * margin)]
        assert math.isinf(w.searches[(0, 0)][2][10])
        assert search_read(w, (0, 0), (2, 1)) == pytest.approx(0.25 + SQRT2 * 0.25)
        assert len(searches) == 1  # nearer than the limit: the search answers
        assert search_read(w, (0, 0), (10, 0)) == 2.5
        # max(2 * limit, 1.25 * octile)
        assert searches[1] == (0, 1.25 * 2.5 * margin)
        # past the farthest corner the limit stays finite
        assert search_read(w, (0, 0), (47, 47)) == pytest.approx(47 * SQRT2 * 0.25)
        assert searches[2] == (0, 1.25 * w._octile((0, 0), (47, 47)) * margin)
        assert len(searches) == 3
        assert search_read(w, (0, 0), (0, 47)) == 47 * 0.25 and len(searches) == 3
        assert boxes == [(0, 0, 48, 48)]
        # the labels build no graph
        assert w.connected(w.cell_center((0, 0)), w.cell_center((47, 0)))
        assert boxes == [(0, 0, 48, 48)]

    def test_a_detour_grows_the_search_until_it_is_reached(self, monkeypatch):
        # the cell right across a wall is 0.5 m away as the crow flies, but
        # the way round the wall's end is far longer
        searches = counting_searches(monkeypatch)
        graphs = counting_graphs(monkeypatch)
        side = 64
        wall = [(5, iy) for iy in range(side - 4)]
        w = grid_planner(width=side, height=side, blocked=wall)
        occ = [[bool(w.occupancy[iy, ix]) for ix in range(w.width)] for iy in range(w.height)]
        expected = oracles.dijkstra_grid_length(occ, w.resolution, (4, 0), (6, 0))
        assert w.distance_field(w.cell_center((4, 0)))(w.cell_center((6, 0))) == pytest.approx(
            expected, abs=1e-9)
        # 1.25 * 0.5 m first, then doubled until the goal is reached: past
        # the octile distance to the farthest corner the labels join the
        # two ends, and the limit goes on doubling
        corner = (4 + (side - 5) * SQRT2) * 0.25
        limits, limit = [], 1.25 * 0.5 * (1.0 + 1e-9)
        while not limits or limits[-1] < expected:
            limits.append(limit)
            limit *= 2.0
        assert limits[:3] == [pytest.approx(0.625), pytest.approx(1.25), pytest.approx(2.5)]
        assert limits[-2] < corner <= limits[-1]
        assert [limit for _, limit in searches] == limits
        # each search reads a graph of its limit's box, the last one's box
        # the whole grid, and starts at the source's node in it
        want = [w._box((4, 0), (6, 0), limit) for limit in limits]
        assert want[-1] == (0, 0, side, side)
        assert [box for box, _ in graphs] == want and len(set(want)) == len(want)
        assert [node for node, _ in searches] == [
            node_of(box, nodes, (4, 0)) for box, nodes in graphs]
        assert "_graph" not in vars(w)

    def test_a_revisited_source_searches_no_more(self, monkeypatch):
        # A -> B -> A: the revisit reads A's own search
        searches = counting_searches(monkeypatch)
        w = grid_planner(width=64, height=64, blocked=[(5, iy) for iy in range(40)])
        a, b = w.cell_center((0, 0)), w.cell_center((30, 30))
        first = w.distance_field(a)(w.cell_center((20, 10)))
        path, length = w.shortest_path(a, w.cell_center((12, 3)))
        w.distance_field(b)(w.cell_center((40, 50)))
        w.shortest_path(b, a)
        n = len(searches)
        assert set(w.searches) == {(0, 0), (30, 30)}
        assert w.distance_field(a)(w.cell_center((20, 10))) == first
        assert w.shortest_path(a, w.cell_center((12, 3))) == (path, length)
        assert w.distance_field(a)(w.cell_center((12, 3))) == pytest.approx(length, abs=1e-9)
        assert len(searches) == n

    def test_a_zero_length_leg_runs_no_search(self, monkeypatch):
        searches = counting_searches(monkeypatch)
        w = grid_planner(blocked=[(2, 2)])
        # two points of one cell, and a blocked cell's center, which snaps
        # to its west neighbour
        for start, goal in (([0.3, 0.3], [0.45, 0.26]), (w.cell_center((1, 2)),
                                                         w.cell_center((2, 2)))):
            path, length = w.shortest_path(start, goal)
            cell = w.snap_free_cell(start)
            assert path == [cell] and length == 0.0
            assert type(length) is float and {type(v) for v in path[0]} == {int}
        assert searches == []

    @pytest.mark.parametrize("resolution", [0.25, 0.05])
    @pytest.mark.parametrize("mode", MODES)
    def test_connected_equals_the_full_search(self, mode, resolution):
        world = pocketed_world(mode, resolution)
        w = world.planner
        rng = Random(f"{mode}/{resolution}/connected")
        start = w.snap_free_cell(world.robot.position)
        full, index = oracles.full_grid_distances(w.occupancy, resolution, start)
        unreachable = (index >= 0) & np.isinf(full[index])
        cells = sample_cells(rng, ~w.occupancy, 30) + sample_cells(rng, unreachable, 3)
        for ix, iy in cells:
            got = w.connected(world.robot.position, w.cell_center((ix, iy)))
            assert got == (not math.isinf(full[index[iy, ix]]))
            assert w.connected(w.cell_center((ix, iy)), world.robot.position) == got


class TestComponentLabels:
    """The component labels against ``oracles.move_components``, and the
    refusal they give an unreachable read on a large grid."""

    @pytest.mark.parametrize("p_block", [0.0, 0.1, 0.3, 0.45, 0.6])
    def test_labels_split_the_free_cells_as_the_moves_do(self, p_block):
        rng = Random(f"labels/{p_block}")
        diagonal_only = 0
        for width, height in ((1, 1), (1, 9), (9, 1), (2, 2), (18, 14), (40, 30), (64, 50)):
            w = random_planner(rng, width, height, p_block)
            got, want = w._labels, oracles.move_components(w)
            free = ~w.occupancy.reshape(-1)
            assert got.shape == want.shape and np.all(got[~free] == -1)
            pairs = set(zip(got[free].tolist(), want[free].tolist()))
            assert len(pairs) == len(set(got[free].tolist())) == len(set(want[free].tolist()))
            # free cells that touch only at a corner, both orthogonal cells blocked
            occ = w.occupancy
            diagonal_only += int((~occ[:-1, :-1] & ~occ[1:, 1:] & occ[:-1, 1:] & occ[1:, :-1]).sum()
                                 + (occ[:-1, :-1] & occ[1:, 1:] & ~occ[:-1, 1:] & ~occ[1:, :-1]).sum())
        assert (diagonal_only > 0) == (p_block > 0.0)

    def test_cells_that_touch_only_at_corners_are_apart(self):
        # a checkerboard over a free bottom row: its free cells touch each
        # other only at corners, so each is alone, but for those of the row
        # right above the bottom row, which join it
        width, height = 12, 9
        blocked = [(ix, iy) for ix in range(width) for iy in range(height - 1) if (ix + iy) % 2]
        w = grid_planner(width, height, blocked)
        labels, want = w._labels, oracles.move_components(w)
        free = ~w.occupancy.reshape(-1)
        assert len(set(labels[free].tolist())) == len(set(want[free].tolist()))
        bottom = {int(labels[(height - 1) * width + ix]) for ix in range(width)}
        assert len(bottom) == 1
        for iy in range(height - 1):
            for ix in range(width):
                if not w.occupancy[iy, ix]:
                    label = int(labels[iy * width + ix])
                    assert (label in bottom) == (iy == height - 2)
                    assert w.connected(w.cell_center((ix, iy)),
                                       w.cell_center((0, height - 1))) == (iy == height - 2)
        assert len(set(labels[free].tolist())) == 1 + sum(
            1 for iy in range(height - 2) for ix in range(width) if not (ix + iy) % 2)

    def test_an_unreachable_read_on_a_split_grid_searches_no_whole_grid(self, monkeypatch):
        # a mostly free grid of WHOLE_GRAPH_CELLS cells or more, split by one
        # wall: a read across it raises, or reads inf, after searches of
        # finite limits over box graphs only, and once the labels are built
        # with no search; the labels build no graph.  Each source reads on
        # a planner of its own, so each first read searches
        import carriernav.planning as planning_mod
        rng = Random("split grid")
        width, height, wall = 80, 60, 47
        blocked = set(random_blocked(rng, width, height, 0.05))
        blocked = sorted(blocked | {(wall, iy) for iy in range(height)})
        w = grid_planner(width, height, blocked)
        assert w.width * w.height >= WHOLE_GRAPH_CELLS
        boxes = counting_boxes(monkeypatch)
        searches = []
        real = planning_mod.dijkstra

        def dijkstra(graph, **kwargs):
            searches.append((graph.shape[0], kwargs["limit"]))
            return real(graph, **kwargs)

        monkeypatch.setattr(planning_mod, "dijkstra", dijkstra)
        free = ~w.occupancy
        left, right, near = free.copy(), free.copy(), free.copy()
        left[:, wall:] = False
        right[:, :wall] = False
        near[:, :wall] = near[:, wall + 4:] = False
        goals = sample_cells(rng, near, 3) + sample_cells(rng, right, 6)
        for source in sample_cells(rng, left, 6):
            release_facts()
            w = grid_planner(width, height, blocked)
            field = w.distance_field(w.cell_center(source))
            for k, goal in enumerate(goals):
                n = len(searches)
                with pytest.raises(UnreachableGoalError):
                    w.shortest_path(w.cell_center(source), w.cell_center(goal))
                assert math.isinf(field(w.cell_center(goal)))
                assert "_labels" in vars(w) and (len(searches) > n) == (k == 0)
            assert "_graph" not in vars(w)
        assert searches and boxes
        assert all(n < width * height and math.isfinite(limit) for n, limit in searches)
        assert (0, 0, width, height) not in boxes
        # a fresh planner's labels build no graph
        release_facts()
        w = grid_planner(width, height, blocked)
        boxes.clear()
        assert not w.connected(w.cell_center(goals[0]), w.cell_center((0, 0)))
        assert w.connected(w.cell_center(goals[0]), w.cell_center(goals[1]))
        assert boxes == []


def random_pocketed_scene(rng, width, height, p_block):
    """(scene, pocket cell): a random grid plus a walled-in 3x3 pocket around
    a random cell."""
    cx, cy = rng.randrange(2, width - 2), rng.randrange(2, height - 2)
    blocked = {(ix, iy) for ix in range(width) for iy in range(height) if rng.random() < p_block}
    blocked -= {(cx + dx, cy + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
    blocked |= {(cx + dx, cy + dy) for dx in range(-2, 3) for dy in range(-2, 3)
                if max(abs(dx), abs(dy)) == 2}
    return grid_scene(width=width, height=height, blocked=sorted(blocked)), (cx, cy)


class TestBoxSearch:
    """Reads over box graphs against the oracle walk-back over one full
    search: paths and lengths equal whichever box a read searched, grew or
    found kept, an unreachable goal is refused by the component labels and
    is not kept, and no search is unbounded.  Here a world builds each
    planner."""

    def planner(self, scene):
        return GridWorld(scene).planner

    def check_reads(self, monkeypatch, w, sources, goals_of):
        """Read each source's goals as paths and distances against the
        oracle; returns (searches per read that searched, reads answered by
        a kept box, boxes built).  Every search has a finite limit."""
        searches = counting_searches(monkeypatch)
        boxes = counting_boxes(monkeypatch)
        grown, kept = [], 0
        real = Planner._search

        def search(planner, source, goal):
            before = len(searches)
            out = real(planner, source, goal)
            if len(searches) > before:
                grown.append(len(searches) - before)
            return out

        monkeypatch.setattr(Planner, "_search", search)
        for source in sources:
            full, index = oracles.full_grid_distances(w.occupancy, w.resolution, source)
            dist = lambda c: full[index[c[1], c[0]]]
            field = w.distance_field(w.cell_center(source))
            for goal in goals_of(source):
                n_before = len(grown)
                if math.isinf(dist(goal)):
                    with pytest.raises(UnreachableGoalError):
                        w.shortest_path(w.cell_center(source), w.cell_center(goal))
                    assert goal not in w.searches[source][3]
                    assert math.isinf(field(w.cell_center(goal)))
                    continue
                path, length = w.shortest_path(w.cell_center(source), w.cell_center(goal))
                assert path == walk_back(w, dist, source, goal)
                assert length == walk_length(w, path) == pytest.approx(dist(goal), abs=1e-9)
                assert field(w.cell_center(goal)) == length
                if goal != source and w._certified_walk(source, goal) is None and len(
                        grown) == n_before:
                    kept += 1
        assert all(math.isfinite(limit) for _, limit in searches)
        return grown, kept, boxes

    @pytest.mark.parametrize("seed", range(3))
    def test_random_grids_with_a_pocket(self, monkeypatch, seed):
        rng = Random(f"box search/{seed}")
        scene, pocket = random_pocketed_scene(rng, 96, 80, 0.2)
        w = self.planner(scene)
        free = ~w.occupancy
        sources = sample_cells(rng, free, 3)

        def goals_of(source):
            # near goals give small boxes, and a farther one grows its box
            # past cells a nearer read searched; the pocket is unreachable
            sx, sy = source
            near = free.copy()
            near[max(sy - 6, 0):sy + 7, max(sx - 6, 0):sx + 7] = False
            near = free & ~near
            goals = sample_cells(rng, near, min(8, int(near.sum())))
            return goals + sample_cells(rng, free, 4) + [pocket] + goals[:3]

        grown, kept, boxes = self.check_reads(monkeypatch, w, sources, goals_of)
        assert any(box != (0, 0, w.width, w.height) for box in boxes)
        assert max(grown) > 1 and kept > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_every_goal_a_search_answers_reads_the_oracle(self, seed):
        # a search over a box keeps a cell's distance only where that
        # distance plus the cell's octile distance to the read's goal stays
        # within the limit, so every goal it answers, not only the one it
        # was searched for, reads the oracle's distance and walk-back
        rng = Random(f"ellipse search/{seed}")
        w = self.planner(random_pocketed_scene(rng, 96, 80, 0.2)[0])
        free = ~w.occupancy
        accepted = refused = 0
        for source in sample_cells(rng, free, 3):
            full, index = oracles.full_grid_distances(w.occupancy, w.resolution, source)
            oracle = lambda c: full[index[c[1], c[0]]]
            for goal in sample_cells(rng, free, 6):
                if goal == source:
                    continue
                if math.isinf(oracle(goal)):
                    with pytest.raises(UnreachableGoalError):
                        w._search(source, goal)
                    continue
                (x0, y0, x1, y1), dist = w._search(source, goal)
                search = w.searches[source]
                for iy in range(y0, y1):
                    for ix in range(x0, x1):
                        cell = (ix, iy)
                        if not free[iy, ix] or cell == source:
                            continue
                        if not w._answers(search, cell):
                            refused += 1
                            continue
                        accepted += 1
                        assert dist[(iy - y0) * (x1 - x0) + ix - x0] == pytest.approx(
                            oracle(cell), abs=1e-9)
                        if accepted % 97 == 0:
                            path, _ = w._walk_back((x0, y0, x1, y1), dist, source, cell)
                            assert list(path) == walk_back(w, oracle, source, cell)
        assert accepted > 1000 and refused > 1000

    @pytest.mark.parametrize("resolution", [0.25, 0.05])
    @pytest.mark.parametrize("mode", MODES)
    def test_generated_scenes(self, monkeypatch, mode, resolution):
        scene, start = pocketed_scene(mode, resolution)
        w = self.planner(scene)
        rng = Random(f"box search/{mode}/{resolution}")
        points = [start.position] + [obj.centroid[:2] for obj in scene.objects.values()]
        cells = sorted({w.snap_free_cell(p) for p in points})
        sources = rng.sample(cells, 3)
        grown, _, boxes = self.check_reads(monkeypatch, w, sources, lambda source: cells)
        small = [box for box in boxes if box != (0, 0, w.width, w.height)]
        assert grown and bool(small) == (w.width * w.height >= WHOLE_GRAPH_CELLS)


class TestBoxSearchOnAnOccupancyArray(TestBoxSearch):
    """The same reads on planners built straight from the grid's occupancy
    array, with no world."""

    def planner(self, scene):
        return Planner.of(scene.grid.occupancy(), scene.grid.resolution, scene.grid.origin)


class TestNodeGraphs:
    """Each search's graph against oracles built cell by cell: its nodes are
    the free cells of the read's octile ellipse at the search's limit (on a
    grid of fewer than ``WHOLE_GRAPH_CELLS`` cells, every free cell), its
    moves are exactly the move table's between two of its nodes
    (``oracles.move_edges``), each in its ``STEP_ORDER`` slot, and every
    distance the search keeps is the whole-grid Dijkstra's."""

    def check(self, monkeypatch, w, reads):
        """Checks every search the ``(source, goal)`` reads run on planner
        ``w``; returns the number of kept distances checked."""
        import carriernav.planning as planning_mod
        built, searched = {}, []
        real_graph, real_dijkstra = Planner._node_graph, planning_mod.dijkstra

        def node_graph(planner, box, nodes):
            graph = real_graph(planner, box, nodes)
            built[id(graph)] = (box, nodes.copy(), graph)
            return graph

        def dijkstra(graph, **kwargs):
            searched.append((built[id(graph)], kwargs["indices"], kwargs["limit"]))
            return real_dijkstra(graph, **kwargs)

        monkeypatch.setattr(Planner, "_node_graph", node_graph)
        monkeypatch.setattr(planning_mod, "dijkstra", dijkstra)
        small = w.width * w.height < WHOLE_GRAPH_CELLS
        free = [(ix, iy) for iy in range(w.height) for ix in range(w.width)
                if not w.occupancy[iy, ix]]
        free_x, free_y = (np.array(v) for v in zip(*free))

        def octiles(cell):
            # to every free cell, in the float operations of the read's mask
            ax, ay = np.abs(free_x - cell[0]), np.abs(free_y - cell[1])
            return np.minimum(ax, ay) * (SQRT2 - 2.0) + (ax + ay)

        moves = {}  # cell -> the cells its allowed moves reach
        for a, b in oracles.move_edges(w):
            moves.setdefault(a, []).append(b)
        kept_checked = n_searches = 0
        for source, goal in reads:
            full, index = oracles.full_grid_distances(w.occupancy, w.resolution, source)
            searched.clear()
            try:
                (x0, y0, x1, y1), dist = w._search(source, goal)
            except UnreachableGoalError:
                assert math.isinf(full[index[goal[1], goal[0]]])
                continue
            n_searches += len(searched)
            for (box, nodes, graph), node, limit in searched:
                iy, ix = np.nonzero(nodes)
                cells = list(zip((ix + box[0]).tolist(), (iy + box[1]).tolist()))
                reach = limit / w.resolution + 2e-9
                want = free if small else [
                    free[i] for i in np.flatnonzero(octiles(source) + octiles(goal) <= reach)]
                assert sorted(cells, key=lambda c: (c[1], c[0])) == cells == want
                assert graph.shape == (len(cells), len(cells)) and cells[node] == source
                # slot k of a row holds its STEP_ORDER[k] neighbour or itself
                slots = graph.indices.reshape(len(cells), len(STEP_ORDER))
                moved = slots != np.arange(len(cells))[:, None]
                cx, cy = ix + box[0], iy + box[1]
                steps = np.array(STEP_ORDER)
                assert np.array_equal(cx[slots][moved], (cx[:, None] + steps[:, 0])[moved])
                assert np.array_equal(cy[slots][moved], (cy[:, None] + steps[:, 1])[moved])
                kept = set(cells)
                rows, cols = np.nonzero(moved)
                got = set(zip((cells[i] for i in rows), (cells[j] for j in slots[rows, cols])))
                assert len(got) == len(rows) and got == {
                    (a, b) for a in cells for b in moves.get(a, ()) if b in kept}
            bw = x1 - x0
            for k in np.flatnonzero(np.isfinite(dist)).tolist():
                ix, iy = x0 + k % bw, y0 + k // bw
                assert dist[k] == full[index[iy, ix]]
                kept_checked += 1
        assert n_searches > 0
        return kept_checked

    @pytest.mark.parametrize("size", [(40, 30), (96, 80)])
    @pytest.mark.parametrize("p_block", [0.05, 0.25])
    def test_random_grids(self, monkeypatch, size, p_block):
        rng = Random(f"node graphs/{size}/{p_block}")
        scene, pocket = random_pocketed_scene(rng, *size, p_block)
        w = Planner.of(scene.grid.occupancy(), scene.grid.resolution, scene.grid.origin)
        free = ~w.occupancy
        reads = [(source, goal) for source in sample_cells(rng, free, 3)
                 for goal in sample_cells(rng, free, 5) + [pocket] if goal != source]
        assert self.check(monkeypatch, w, reads) > 100

    @pytest.mark.parametrize("resolution", [0.25, 0.05])
    @pytest.mark.parametrize("mode", MODES)
    def test_generated_scenes(self, monkeypatch, mode, resolution):
        scene, start = pocketed_scene(mode, resolution)
        w = Planner.of(scene.grid.occupancy(), scene.grid.resolution, scene.grid.origin)
        rng = Random(f"node graphs/{mode}/{resolution}")
        cells = sorted({w.snap_free_cell(p) for p in
                        [start.position] + [obj.centroid[:2] for obj in scene.objects.values()]})
        reads = [(source, goal) for source in rng.sample(cells, 2)
                 for goal in rng.sample(cells, 4) if goal != source]
        assert self.check(monkeypatch, w, reads) > 10


class TestOctileCertificate:
    """The octile sweep against the oracles: it answers, with no search,
    exactly when the geodesic is the octile distance, and then with the
    oracle walk-back's path and the length of its step counts."""

    @pytest.mark.parametrize("resolution", [0.25, 0.05])
    @pytest.mark.parametrize("p_block", [0.0, 0.05, 0.15, 0.3])
    def test_the_sweep_answers_iff_the_geodesic_is_octile(self, p_block, resolution):
        rng = Random(f"certificate/{p_block}/{resolution}")
        answered = refused = 0
        for _ in range(8):
            w = random_planner(rng, width=rng.randint(1, 24), height=rng.randint(1, 24),
                               p_block=p_block, resolution=resolution)
            occupancy, free = w.occupancy.tolist(), ~w.occupancy
            for source in sample_cells(rng, free, min(3, int(free.sum()))):
                full, index = oracles.full_grid_distances(w.occupancy, resolution, source)
                for goal in sample_cells(rng, free, min(12, int(free.sum()))):
                    if goal == source:
                        continue
                    walk = w._certified_walk(source, goal)
                    length = oracles.dijkstra_grid_length(occupancy, resolution, source, goal)
                    if walk is None:
                        assert length != pytest.approx(w._octile(source, goal), abs=1e-9)
                        refused += 1
                        continue
                    assert length == pytest.approx(w._octile(source, goal), abs=1e-9)
                    path, walked = walk
                    assert list(path) == walk_back(
                        w, lambda c: full[index[c[1], c[0]]], source, goal)
                    assert walked == walk_length(w, path) == w._octile(source, goal)
                    answered += 1
        assert answered > 30 and (refused > 30 or p_block == 0.0)

    def test_a_certified_read_runs_no_search_and_is_kept(self, monkeypatch):
        searches = counting_searches(monkeypatch)
        w = grid_planner(width=64, height=64, blocked=[(30, iy) for iy in range(20, 64)])
        a = w.cell_center((0, 0))
        field = w.distance_field(a)
        assert field(w.cell_center((40, 3))) == (37 + 3 * SQRT2) * 0.25
        path, length = w.shortest_path(a, w.cell_center((40, 3)))
        assert searches == [] and length == (37 + 3 * SQRT2) * 0.25
        assert w.searches[(0, 0)] == (0.0, None, None, {(40, 3): (tuple(path), length)})
        # the wall refuses the sweep: the read searches, and its walk is kept
        assert field(w.cell_center((40, 40))) == w.shortest_path(a, w.cell_center((40, 40)))[1]
        assert len(searches) == 1 and (40, 40) in w.searches[(0, 0)][3]

    def test_a_probe_sequence_searches_around_obstacles_only(self, monkeypatch):
        # seed 1's first probe scenario on the 0.05 m grid, all six variants
        # from a cold grid: 23 searches before the sweep, 13 with it over
        # whole boxes (138,387 cells settled), and 17 over the octile
        # ellipses of their limits, long reads first allowing SLACK_CELLS of
        # detour, which settle fewer than 90,000 cells
        import carriernav.planning as planning_mod
        release_facts()
        searches, settled = [], []
        real = planning_mod.dijkstra

        def counting(graph, **kwargs):
            dist = real(graph, **kwargs)
            searches.append(kwargs["limit"])
            settled.append(int(np.isfinite(dist).sum()))
            return dist

        monkeypatch.setattr(planning_mod, "dijkstra", counting)
        scenario = build_scenario("probe", 0, 1, 0.05)
        for variant in VARIANTS.values():
            run_sequence(scenario, variant)
        assert len(searches) == 17 and sum(settled) < 90_000


@st.composite
def grids_and_reads(draw):
    width, height = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    cells = [(ix, iy) for iy in range(height) for ix in range(width)]
    blocked = draw(st.sets(st.sampled_from(cells), max_size=len(cells) - 1))
    free = [c for c in cells if c not in blocked]
    sources = draw(st.lists(st.sampled_from(free), min_size=1, max_size=3))
    reads = draw(st.lists(st.tuples(st.integers(0, len(sources) - 1), st.sampled_from(cells),
                                    st.booleans()), min_size=1, max_size=25))
    return width, height, sorted(blocked), sources, reads


@settings(max_examples=150, deadline=None)
@given(case=grids_and_reads())
def test_any_read_sequence_equals_the_full_search(case):
    # distance reads and paths from a few sources, in any order, on any grid
    width, height, blocked, sources, reads = case
    w = grid_planner(width=width, height=height, blocked=blocked)
    fields = [w.distance_field(w.cell_center(s)) for s in sources]
    fulls = [oracles.full_grid_distances(w.occupancy, w.resolution, s) for s in sources]
    for k, cell, as_path in reads:
        full, index = fulls[k]
        center = w.cell_center(cell)
        ix, iy = w.snap_free_cell(center)  # a blocked cell's center reads a free neighbour
        want = full[index[iy, ix]]
        if not as_path:
            assert fields[k](center) == oracle_read(w, full, index, sources[k], (ix, iy))
        elif math.isinf(want):
            with pytest.raises(UnreachableGoalError):
                w.shortest_path(w.cell_center(sources[k]), center)
        else:
            path, length = w.shortest_path(w.cell_center(sources[k]), center)
            assert path[0] == sources[k] and path[-1] == (ix, iy)
            assert length == pytest.approx(want, abs=1e-9)


class TestSharedGridFacts:
    """Worlds built on equal grids share one planner and its facts; worlds on
    grids that differ in anything share none, and only the last grid's
    planner outlives its worlds."""

    BLOCKED = [(3, 2), (4, 2), (5, 2), (9, 7), (9, 8), (2, 10)]

    def world(self, **kwargs):
        args = dict(width=16, height=12, blocked=self.BLOCKED, resolution=0.25)
        args.update(kwargs)
        return empty_world(**args)

    def test_equal_grids_share_one_graph(self):
        a = self.world()
        moves, graph = a.planner.moves, a.planner._graph
        # an equal grid from another scene object, its cells in another order
        b = self.world(blocked=self.BLOCKED[::-1] + self.BLOCKED[:2])
        for w in (b, self.world()):
            assert w.planner is a.planner and w.planner.moves is moves
            assert w.planner._graph is graph and w.planner.occupancy is a.planner.occupancy
        center = a.planner.cell_center
        a.distance_field(center((0, 0)))(center((15, 11)))
        assert set(b.planner.searches) == {(0, 0)}
        assert b.snap_free_cell(center((4, 2))) == a.snap_free_cell(center((4, 2)))

    @pytest.mark.parametrize("change", [
        {"origin": (0.25, 0.0)}, {"resolution": 0.2}, {"blocked": BLOCKED + [(0, 11)]},
        {"blocked": BLOCKED[1:]}, {"width": 17}])
    def test_grids_that_differ_share_nothing(self, change):
        a = self.world()
        b = self.world(**change)
        for w in (a, b):
            w.shortest_path(w.planner.cell_center((0, 0)), w.planner.cell_center((12, 9)))
        pa, pb = a.planner, b.planner
        assert pb is not pa and pb.occupancy is not pa.occupancy
        assert pb.moves is not pa.moves and pb._graph is not pa._graph
        assert pb.snaps is not pa.snaps
        (_, _, dist_a, _), = pa.searches.values()
        (_, _, dist_b, _), = pb.searches.values()
        assert dist_b is not dist_a

    def test_another_grid_frees_the_last_grids_facts(self):
        a = self.world()
        a.shortest_path(a.planner.cell_center((0, 0)), a.planner.cell_center((12, 9)))
        moves = weakref.ref(a.planner.moves)
        search = weakref.ref(next(iter(a.planner.searches.values()))[2])
        del a
        gc.collect()
        # the last grid's facts outlive its worlds, for the next world on it
        assert moves() is not None
        b = self.world()
        assert b.planner.moves is moves()
        other = self.world(blocked=self.BLOCKED[1:])
        gc.collect()
        assert moves() is not None  # b holds them
        del b
        gc.collect()
        assert moves() is None and search() is None
        assert self.world(blocked=self.BLOCKED[1:]).planner is other.planner
        release_facts()
        assert self.world(blocked=self.BLOCKED[1:]).planner is not other.planner

    @pytest.mark.parametrize("resolution", [0.25, 0.05])
    @pytest.mark.parametrize("mode", MODES)
    def test_warm_reads_equal_cold_reads(self, mode, resolution):
        # paths and distances from the start and from every carrier, in a
        # world whose grid another world has searched in another order, to
        # other limits, are bit-equal to those of a world on a cold grid
        sc = build_scenario(mode, 0, 5, resolution)
        points = [sc.start_pose.position] + [obj.centroid[:2]
                                             for obj in sc.scene.objects.values()]
        rng = Random(f"{mode}/{resolution}/warm")
        pairs = [(points[rng.randrange(len(points))], points[rng.randrange(len(points))])
                 for _ in range(40)]

        def reads(w):
            out = []
            for a, b in pairs:
                out.append(w.shortest_path(a, b))
                out.append(w.distance_field(a)(b))
            return out

        cold = reads(GridWorld(sc.scene, start_pose=sc.start_pose))
        release_facts()
        warmer = GridWorld(sc.scene, start_pose=sc.start_pose)
        for a, b in pairs[::-3]:  # a few reads, in another order
            warmer.distance_field(b)(a)
        p = warmer.planner
        far_corner = p.cell_center((p.width - 1, p.height - 1))
        warmer.distance_field(points[0])(far_corner)
        warm = GridWorld(sc.scene, start_pose=sc.start_pose)
        assert warm.planner is p and p.searches
        assert reads(warm) == cold

    def test_the_searches_kept_are_capped_and_reads_stay_exact(self, monkeypatch):
        searches = counting_searches(monkeypatch)
        searched = []  # the source of each search
        real = Planner._search

        def search(planner, source, goal):
            before = len(searches)
            out = real(planner, source, goal)
            searched.extend([source] * (len(searches) - before))
            return out

        monkeypatch.setattr(Planner, "_search", search)
        rng = Random("cap")
        w = random_planner(rng, width=20, height=16, p_block=0.2)
        free = ~w.occupancy
        sources = sample_cells(rng, free, SEARCHES_PER_GRID + 6)
        fulls = {s: oracles.full_grid_distances(w.occupancy, w.resolution, s)
                 for s in sources}
        read = []
        for order in (sources, sources[::-1]):
            for source in order:
                full, index = fulls[source]
                for ix, iy in sample_cells(rng, free, 3):
                    assert w.distance_field(w.cell_center(source))(
                        w.cell_center((ix, iy))) == oracle_read(w, full, index, source, (ix, iy))
                    if not math.isinf(full[index[iy, ix]]):
                        _, length = w.shortest_path(w.cell_center(source),
                                                    w.cell_center((ix, iy)))
                        assert length == pytest.approx(full[index[iy, ix]], abs=1e-9)
                    assert len(w.searches) <= SEARCHES_PER_GRID
                read.append(source)
        # the least recently read went first: the kept ones are the latest
        assert list(w.searches) == read[-SEARCHES_PER_GRID:]
        # the first turn dropped the first sources read, so the second
        # turn searches them again
        assert set(searched) == set(sources)
        dropped = set(sources[:6])
        assert sum(s in dropped for s in searched) >= 2 * len(dropped)


    def test_the_paths_kept_never_outlive_their_search(self, monkeypatch):
        searches = counting_searches(monkeypatch)
        rng = Random("kept paths")
        w = random_planner(rng, width=20, height=16, p_block=0.15)
        free = ~w.occupancy
        sources = sample_cells(rng, free, SEARCHES_PER_GRID + 4)
        goals = sample_cells(rng, free, 3)
        reads = {}
        for source in sources:
            for goal in goals:
                try:
                    reads[source, goal] = w.shortest_path(w.cell_center(source),
                                                          w.cell_center(goal))
                except UnreachableGoalError:
                    pass
                kept = w.searches
                assert len(kept) <= SEARCHES_PER_GRID
                # a path is kept only with its source's search, for a goal reached
                for (start, end), path in reads.items():
                    if start in kept and start != end:
                        assert kept[start][3][end] == (tuple(path[0]), path[1])
        assert len(reads) > 2 * SEARCHES_PER_GRID
        dropped = [s for s in sources if s not in w.searches]
        assert dropped == sources[:4]
        # a dropped source searches and walks anew, to the same path
        n = len(searches)
        goal = next(g for g in goals if (dropped[0], g) in reads and g != dropped[0])
        assert w.shortest_path(w.cell_center(dropped[0]), w.cell_center(goal)) == reads[
            dropped[0], goal]
        assert len(searches) > n and goal in w.searches[dropped[0]][3]

    def test_a_kept_path_is_handed_out_as_a_fresh_list(self):
        w = grid_planner()
        a, b = w.cell_center((0, 0)), w.cell_center((12, 9))
        path, length = w.shortest_path(a, b)
        path.append((99, 99))
        again, again_length = w.shortest_path(a, b)
        assert again == path[:-1] and again_length == length and again is not path

    def test_an_unreachable_goal_is_not_kept(self, monkeypatch):
        # a wall across the grid: every read raises, and none is kept; the
        # first limit already passes the farthest corner, so the labels
        # refuse the read before any search
        w = grid_planner(blocked=[(8, iy) for iy in range(12)])
        searches = counting_searches(monkeypatch)
        for _ in range(2):
            with pytest.raises(UnreachableGoalError):
                w.shortest_path(w.cell_center((0, 0)), w.cell_center((12, 9)))
        assert w.searches[(0, 0)][3] == {} and searches == []


def sensing_scene():
    table = table_dict("table_0", 2.0, 2.0)
    objs = [
        table,
        item_on("cup_0", ["red cup", "red cup", "cup"], table),
        obj_dict("cup_far", ["blue cup", "blue cup", "cup"], 5.0, 2.0, 0.08, 0.08, 0.0, 0.12),
    ]
    return scene_from_dict(scene_dict(objs, width=28, height=20))


def sensing_world():
    return GridWorld(sensing_scene(), start_pose=Pose([2.0, 3.5]))


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
        def arrays():
            return [truth.centroid, truth.text_feature, truth.visual_feature,
                    truth.box.min, truth.box.max]

        before = [a.copy() for a in arrays()]
        assert_every_write_raises(cup.object)
        assert all(map(np.array_equal, before, arrays()))
        assert truth.captions == ("red cup", "red cup", "cup")

    def test_an_observation_is_frozen(self):
        # sightings are shared by every world on the scene, so none changes
        obs = sensing_world().observe(Pose([2.0, 3.5]), SensorConfig())[0]
        for name in ("object", "mean_depth"):
            with pytest.raises(FrozenInstanceError):
                setattr(obs, name, None)

    def test_sensor_config_validation(self):
        with pytest.raises(WorldError):
            SensorConfig(radius=0.0)
        with pytest.raises(WorldError):
            SensorConfig(fov=0.0)


SENSORS = {
    "default": SensorConfig(),
    "fov-half-pi": SensorConfig(fov=math.pi / 2),
    "fov-third-pi": SensorConfig(fov=math.pi / 3),
    "occlusion": SensorConfig(occlusion=True),
    "radius-25": SensorConfig(radius=25.0),
}


class TestTravel:
    def test_travel_moves_robot_and_measures(self):
        w = sensing_world()
        path, length = w.shortest_path(w.robot.position, [5.0, 2.0])
        log = assert_travel_matches_oracle(w, path, SensorConfig())
        assert log.length == pytest.approx(length)
        assert np.allclose(w.robot.position, w.planner.cell_center(path[-1]))

    def test_travel_dedupes_observations(self, monkeypatch):
        w = sensing_world()
        path, _ = w.shortest_path(w.robot.position, [5.0, 2.0])
        first = {}
        for cell in path:  # the full-circle sensor ignores heading
            for obs in w.observe(Pose(w.planner.cell_center(cell)), SensorConfig()):
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

    @pytest.mark.parametrize("path", [
        [(1, 1), (1, 1)],          # a repeated cell
        [(1, 1), (6, 1)],          # a jump
        [(1, 1), (2, 2), (2, 2)],  # a repeated cell after a step
        [(4, 4), (4, 4)],          # a repeated cell whose row has a self slot
        [(3, 3), (4, 4), (5, 5)],  # into a blocked cell
        [(5, 5)],                  # a one-cell path on a blocked cell
        [(4, 5), (5, 4)],          # a diagonal cutting the blocked corner (5, 5)
        [(6, 5), (5, 6)],          # the same corner from the other side
        [(1.0, 1.0), (2.0, 1.0)],  # cells that are not integers
        [(1, 1, 0), (2, 1, 0)],    # cells that are not pairs
        [5, 6],                    # cells that are not sequences
        [(1, 1), None],            # a cell that is None
        [[[1], [2]], [[1], [3]]],  # cells of lists
    ])
    def test_a_malformed_path_raises_and_moves_nothing(self, path):
        tree = sensing_scene().to_dict()
        tree["grid"]["blocked_cells"] = [[5, 5]]
        w = GridWorld(scene_from_dict(tree), start_pose=Pose([2.0, 3.5]))
        before = w.robot
        with pytest.raises(WorldError):
            w.travel(path, SensorConfig())
        assert np.array_equal(w.robot.position, before.position)
        assert w.robot.heading == before.heading

    @pytest.mark.parametrize("path", [
        [(True, True), (True, False)],  # cells of bools
        [(1.0, 1.0), (2.0, 1.0)],       # cells of floats
        [(1, 1, 0), (2, 1, 0)],         # cells of three
        [(1, 1), (2,)],                 # cells of unequal arity
        [5, 6],                         # cells of ints
        [(1, 1), None],                 # a cell of None
        [[[1], [2]], [[1], [3]]],       # cells of lists
        5,                              # no sequence at all
    ], ids=["bools", "floats", "triples", "ragged", "ints", "none", "nested", "int"])
    def test_a_path_not_of_integer_pairs_raises_its_own_message(self, path):
        w = sensing_world()
        with pytest.raises(WorldError, match=r"a path is a sequence of \(ix, iy\) integer cells"):
            w.travel(path, SensorConfig())

    @pytest.mark.parametrize("sensor", SENSORS.values(), ids=SENSORS.keys())
    def test_a_path_of_tuples_numpy_rows_or_lists_travels_alike(self, sensor):
        # each form is read cold: the leg of one form is not kept for the next
        w = sensing_world()
        path = w.shortest_path(w.robot.position, [5.0, 2.0])[0]
        start = w.robot
        forms = {"tuples": path, "numpy rows": np.array(path, dtype=np.int64),
                 "numpy int32 rows": np.array(path, dtype=np.int32),
                 "lists": [list(c) for c in path]}
        got = {}
        for name, form in forms.items():
            release_facts()
            w.robot = start
            log = w.travel(form, sensor)
            got[name] = (sightings(log.observations.values()),
                         [o.object for o in log.observations.values()], log.length,
                         w.robot.position.tolist(), w.robot.heading)
        assert all(value == got["tuples"] for value in got.values())
        w.robot = start
        assert_travel_matches_oracle(w, path, sensor)

    def test_a_narrow_field_of_view_reads_each_cells_heading(self):
        # east along y = 0.625, then one step north: facing east, the far
        # cup (bearing about 27 degrees at the start) is in a 90 degree view;
        # facing the last step's north, it is not from any cell of the leg
        w = sensing_world()
        path = [(x, 2) for x in range(0, 9)] + [(8, 3)]
        sensor = SensorConfig(radius=25.0, fov=math.pi / 2)
        north = {obs.object_id for cell in path
                 for obs in w.observe(Pose(w.planner.cell_center(cell), math.pi / 2), sensor)}
        assert "cup_far" not in north
        log = assert_travel_matches_oracle(w, path, sensor)
        assert "cup_far" in log.observations
        assert w.robot.heading == math.pi / 2

    def test_the_cells_around_a_malformed_step_travel(self):
        # the same cells as the malformed paths above, stepped one by one
        w = sensing_world()
        log = assert_travel_matches_oracle(w, [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1)],
                                           SensorConfig())
        assert log.length == 5 * 0.25
        assert assert_travel_matches_oracle(w, [(1, 1)], SensorConfig()).length == 0.0


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


def assert_observe_matches_oracle(w, pose, sensor):
    got = w.observe(pose, sensor)
    assert sightings(got) == sightings(oracles.observe_per_cell(w, pose, sensor))
    return got


def free_walk(w, rng, n):
    """n cells from a random free cell of planner ``w``'s grid, each a random
    free 8-neighbour of the one before whose diagonal step cuts no corner:
    the moves travel accepts.  A walk may come back to a cell."""
    path = sample_cells(rng, ~w.occupancy, 1)
    for _ in range(n - 1):
        x, y = path[-1]
        nbrs = [(x + dx, y + dy) for dx, dy in STEP_ORDER
                if is_free(w, (x + dx, y + dy)) and is_free(w, (x + dx, y)) and is_free(w, (x, y + dy))]
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
        p = w.planner
        rng = Random(f"{mode}/{resolution}")
        legs = []
        for a, b in zip(*[iter(sample_cells(rng, ~p.occupancy, 8))] * 2):
            try:
                legs.append(w.shortest_path(p.cell_center(a), p.cell_center(b))[0])
            except UnreachableGoalError:
                pass
        legs += [free_walk(p, rng, 40) for _ in range(4)]
        legs += [sample_cells(rng, ~p.occupancy, 1)]
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
                before = world.robot
                assert_travel_matches_oracle(world, path, other)
                world.robot = before
            legs.append(len(path))
            return real(world, path, sensor)

        monkeypatch.setattr(GridWorld, "travel", checked)
        run_sequence(build_scenario(mode, 1, 3, resolution))
        assert len(legs) >= 3 and max(legs) > 1

    def test_an_object_exactly_at_the_radius_is_seen(self):
        # centers and centroid are exact binary fractions: the distance is 2.5
        cup = obj_dict("cup_0", ["red cup"], 3.375, 0.625, 0.08, 0.08, 0.0, 0.12)
        w = GridWorld(scene_from_dict(scene_dict([cup], width=28, height=20)),
                      start_pose=Pose([0.125, 0.625]))
        at = Pose(w.planner.cell_center((3, 2)))
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
        center = w.planner.cell_center
        got = assert_observe_matches_oracle(w, Pose(center((3, 2)), math.pi), narrow)
        assert sightings(got) == [("cup_0", 0.0)]
        assert assert_observe_matches_oracle(w, Pose(center((2, 2)), math.pi), narrow) == []
        log = assert_travel_matches_oracle(w, [(3, 2), (2, 2), (1, 2)], narrow)
        assert sightings(log.observations.values()) == [("cup_0", 0.0)]

    def test_an_off_grid_centroid_is_never_seen_under_occlusion(self):
        w = sensing_world()
        far = w.object("cup_far")
        shift = np.array([3.0, 0.0, 0.0])  # to x = 8 m, east of the 7 m wide grid
        w._set_objects({**w.objects, "cup_far": replace(
            far, box=Box3(far.box.min + shift, far.box.max + shift), centroid=far.centroid + shift)})
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
            w.travel([(w.planner.width - 1, 0), (w.planner.width, 0)], SensorConfig())


@pytest.fixture(scope="module")
def walled_world():
    sc = build_scenario("mixed", 0, 5, 0.25)
    return GridWorld(sc.scene, start_pose=sc.start_pose)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(0.0, 0.999), y=st.floats(0.0, 0.999),
       heading=st.floats(-2 * math.pi, 2 * math.pi),
       radius=st.sampled_from([0.5, 2.5, 25.0]),
       fov=st.sampled_from([2 * math.pi, math.pi, math.pi / 2, math.pi / 3, 0.1]),
       occlusion=st.booleans())
def test_observe_equals_the_per_cell_rule(walled_world, x, y, heading, radius, fov, occlusion):
    p = walled_world.planner
    pose = Pose(p.origin + np.array([x * p.width, y * p.height]) * p.resolution, heading)
    assert_observe_matches_oracle(walled_world, pose, SensorConfig(radius, fov, occlusion))


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
            for oid, obj in w.objects.items():
                if oid == cid or not oracles.rests_on(carrier, obj, cfg):
                    continue
                best = None
                for other_id, other in w.objects.items():
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
        obs = w.carried_observations("table_0", cfg)
        assert [o.object_id for o in obs] == ["cup_0"]
        # each seen from the robot's pose
        cup = w.object("cup_0").centroid[:2]
        assert obs[0].mean_depth == float(np.hypot(*(cup - w.robot.position)))

    def test_unknown_object_raises(self):
        w = sensing_world()
        with pytest.raises(WorldError):
            w.object("ghost_0")
        assert "ghost_0" not in w.objects


class TestDisplacement:
    CFG = CrsgConfig()

    def two_table_scene(self):
        t0 = table_dict("table_0", 2.0, 2.0)
        t1 = table_dict("table_1", 5.0, 2.0)
        objs = [t0, t1, item_on("cup_0", ["red cup", "red cup", "cup"], t0)]
        return scene_from_dict(scene_dict(objs, width=32, height=20))

    def two_table_world(self):
        return GridWorld(self.two_table_scene())

    def test_move_reseats_object(self):
        w = self.two_table_world()
        w.apply_displacement(DisplacementEvent(kind="move", object_id="cup_0",
                                               target_carrier_id="table_1"), self.CFG)
        assert w.ground_truth_carried("table_0", self.CFG) == []
        assert w.ground_truth_carried("table_1", self.CFG) == ["cup_0"]
        cup = w.object("cup_0")
        assert cup.box.min[2] == pytest.approx(0.75)  # resting on the new top

    def test_a_move_leaves_earlier_sightings_and_the_scene_alone(self):
        scene = self.two_table_scene()
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
        w1.apply_displacement(ev, self.CFG)
        w2.apply_displacement(replace(ev, spot_index=7), self.CFG)
        p1 = w1.object("cup_0").centroid
        p2 = w2.object("cup_0").centroid
        assert not np.allclose(p1, p2)

    def test_remove_deletes_object(self):
        w = self.two_table_world()
        w.apply_displacement(DisplacementEvent(kind="remove", object_id="cup_0"), self.CFG)
        assert "cup_0" not in w.objects
        assert w.ground_truth_carried("table_0", self.CFG) == []

    def test_event_validation(self):
        with pytest.raises(DisplacementError):
            DisplacementEvent(kind="teleport", object_id="cup_0")
        with pytest.raises(DisplacementError):
            DisplacementEvent(kind="move", object_id="cup_0")  # no target
        with pytest.raises(DisplacementError):
            DisplacementEvent(kind="add", object_id="cup_9", target_carrier_id="table_1")
        for kind in ("move", "remove"):
            with pytest.raises(DisplacementError):
                DisplacementEvent(kind=kind, object_id="", target_carrier_id="table_1")
        w = self.two_table_world()
        with pytest.raises(DisplacementError):
            w.apply_displacement(DisplacementEvent(kind="remove", object_id="ghost"), self.CFG)
        with pytest.raises(WorldError):
            w.apply_displacement(DisplacementEvent(
                kind="move", object_id="ghost", target_carrier_id="table_1"), self.CFG)

    @pytest.mark.parametrize("spot_index", [1.5, "2", True, False, None, np.int64(2)],
                             ids=["float", "str", "True", "False", "None", "numpy-int"])
    def test_a_spot_index_that_is_not_an_int_is_refused(self, spot_index):
        with pytest.raises(DisplacementError, match="spot_index must be an int"):
            DisplacementEvent("move", "cup_0", "table_1", spot_index)
        with pytest.raises(DisplacementError, match="spot_index must be an int"):
            DisplacementEvent("remove", "cup_0", spot_index=spot_index)

    def test_any_int_spot_index_wraps(self):
        # negative and huge indices count round the scan's n spots
        ev = DisplacementEvent(kind="move", object_id="cup_0", target_carrier_id="table_1")
        w = self.two_table_world()
        n = spot_count(w.object("table_1"), w.object("cup_0").box.extents)
        for k, same in ((-1, n - 1), (-n - 2, n - 2), (10 ** 30, 10 ** 30 % n), (n + 3, 3)):
            w1, w2 = self.two_table_world(), self.two_table_world()
            w1.apply_displacement(replace(ev, spot_index=k), self.CFG)
            w2.apply_displacement(replace(ev, spot_index=same), self.CFG)
            assert np.array_equal(w1.object("cup_0").box.min, w2.object("cup_0").box.min), k

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

    @pytest.mark.parametrize("event, reason", [
        (DisplacementEvent(kind="move", object_id="crate_0", target_carrier_id="table_1"),
         "violates the carrying predicate"),
        (DisplacementEvent(kind="move", object_id="cup_1", target_carrier_id="table_0"),
         "no free spot"),
        (DisplacementEvent(kind="remove", object_id="ghost_0"), "unknown object"),
    ], ids=["rejected-by-the-predicate", "no-free-spot", "unknown-id"])
    def test_an_event_that_raises_changes_nothing(self, event, reason):
        # a crate on the floor holding a cup, a table paved edge to edge
        # with trays, a free table and a cup on the floor
        t0 = table_dict("table_0", 5.0, 4.0)
        crate = obj_dict("crate_0", ["wooden crate"], 2.0, 2.0, 0.6, 0.5, 0.0, 0.3)
        objs = [t0, crate, item_on("cup_0", ["red cup"], crate), table_dict("table_1", 5.0, 2.0),
                obj_dict("cup_1", ["blue cup"], 2.0, 4.0, 0.08, 0.08, 0.0, 0.12)]
        objs += [item_on(f"tray_{i}", ["white tray"], t0, dx=-0.45 + 0.3 * i, ex=0.30,
                         ey=0.78, h=0.02) for i in range(4)]
        w = GridWorld(scene_from_dict(scene_dict(objs, width=32, height=20)))

        def state():
            relation = {cid: w.ground_truth_carried(cid, self.CFG) for cid in sorted(w.objects)}
            return dict(w.objects), w._items, relation, dict(facts._scene.answers)

        objects, items, relation, kept = state()
        assert relation["crate_0"] == ["cup_0"] and len(relation["table_0"]) == 4
        with pytest.raises(DisplacementError, match=reason):
            w.apply_displacement(event, self.CFG)
        objects_after, items_after, relation_after, kept_after = state()
        assert objects_after == objects  # instances compare by identity
        assert items_after is items and relation_after == relation
        assert kept_after.keys() == kept.keys()
        assert all(kept_after[key] is answer for key, answer in kept.items())

    def test_a_top_with_too_many_spots_is_refused_before_any_array(self, monkeypatch):
        # a table 2000 km wide would hold ~1e9 spots of 5 cm
        objs = [obj_dict("table_0", ["brown table", "table"], 2.0, 2.0, 2e6, 2e6, 0.0, 0.75),
                obj_dict("cup_0", ["red cup"], 5.0, 2.0, 0.08, 0.08, 0.0, 0.12)]
        w = GridWorld(scene_from_dict(scene_dict(objs, width=32, height=20)))
        for name in ("arange", "meshgrid"):  # no scan is built
            monkeypatch.setattr(np, name, None)
        with pytest.raises(DisplacementError, match="too many spots"):
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
        for cid in sorted(w.objects):
            assert w.ground_truth_carried(cid, cfg) == oracles.ground_truth_carried_per_call(
                w, cid, cfg), cid

    @pytest.mark.parametrize("resolution", [0.25, 0.05])
    @pytest.mark.parametrize("mode", MODES)
    def test_carrying_relation_follows_every_displacement(self, mode, resolution):
        sc = build_scenario(mode, 0, 5, resolution)
        w = GridWorld(sc.scene, start_pose=sc.start_pose)
        cfg = sc.crsg
        carriers = sorted(oid for oid, obj in w.objects.items()
                          if oracles.geometric_base(obj, cfg))
        items = [oid for cid in carriers for oid in w.ground_truth_carried(cid, cfg)]
        # every item moved twice (onto tops that fill up), then half the
        # items and a carrier removed
        events = [DisplacementEvent(kind="move", object_id=oid,
                                    target_carrier_id=carriers[(k + shift) % len(carriers)])
                  for shift in (0, 1) for k, oid in enumerate(items)]
        events += [DisplacementEvent(kind="remove", object_id=oid)
                   for oid in items[::2] + carriers[:1]]
        self.check_relation(w, cfg)
        done = []
        for k, event in enumerate(events):
            before = w._items
            try:
                w.apply_displacement(replace(event, spot_index=k % 4), cfg)
                done.append(event.kind)
            except DisplacementError:
                assert w._items is before  # a rejected event changes nothing
            self.check_relation(w, cfg)
        assert set(done) == {"move", "remove"}
        assert_every_kept_answer_is_its_rule()

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
        # a replaced config asks anew
        assert w.ground_truth_carried("table_0", replace(tight, z_gap_max=0.15)) == ["cup_0"]

    def test_a_rejected_move_leaves_the_relation(self):
        # a crate on the floor is a base holding a cup; its move onto a
        # table is rejected as too large to be carried, so it stays where
        # it was and still holds the cup
        cfg = CrsgConfig()
        crate = obj_dict("crate_0", ["wooden crate"], 2.0, 2.0, 0.6, 0.5, 0.0, 0.3)
        objs = [crate, table_dict("table_1", 5.0, 2.0), item_on("cup_0", ["red cup"], crate)]
        w = GridWorld(scene_from_dict(scene_dict(objs, width=32, height=20)))
        before = w.object("crate_0")
        assert w.ground_truth_carried("crate_0", cfg) == ["cup_0"]
        with pytest.raises(DisplacementError, match="carrying predicate"):
            w.apply_displacement(DisplacementEvent(kind="move", object_id="crate_0",
                                                   target_carrier_id="table_1"), cfg)
        assert w.object("crate_0") is before
        assert w.ground_truth_carried("crate_0", cfg) == ["cup_0"]
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
        carriers = [obj for obj in w.objects.values() if oracles.geometric_base(obj, cfg)]
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



def spot_count(carrier, extents):
    """How many spots the scan of ``carrier``'s top holds for an object of
    ``extents``: one per step of each axis's range, 2 cm in from the edges."""
    n = 1
    step = max(0.05, float(min(extents[0], extents[1])) / 2.0)
    for k in range(2):
        half = float(extents[k]) / 2.0
        lo, hi = carrier.box.lo[k] + half + 0.02, carrier.box.hi[k] - half - 0.02
        n *= len(np.arange(lo, hi + 1e-9, step))
    return n


class TestSpotOrder:
    """The placement scan against the meshgrid-and-lexsort scan it replaced
    (``oracles.free_spot_lexsort``): the same spot, bit for bit, or the same
    refusal."""

    @staticmethod
    def assert_same_spot(w, carrier, extents, cfg, skip_id, k):
        try:
            expected = oracles.free_spot_lexsort(w, carrier, extents, cfg, skip_id, k)
        except DisplacementError as exc:
            with pytest.raises(DisplacementError) as got:
                w._free_spot_on(carrier, extents, cfg, skip_id, k)
            assert str(got.value) == str(exc)
            return
        got = w._free_spot_on(carrier, extents, cfg, skip_id, k)
        assert got.tolist() == expected.tolist(), (carrier.id, extents, skip_id, k)

    @pytest.mark.parametrize("resolution", [0.25, 0.05])
    def test_every_generated_move(self, resolution):
        # the seed-1 scenarios' events, fired in the order a sequence fires
        # them; a move depends only on the objects, not on the tasks
        moves = 0
        for mode in MODES:
            for sc in generate_scenarios(mode, 8, 1, resolution=resolution):
                w = GridWorld(sc.scene, start_pose=sc.start_pose)
                triggers = ["before-episode"] + [f"after-task-{k}"
                                                 for k in range(1, len(sc.tasks) + 1)]
                for event in (e for t in triggers for e in sc.events_for(t)):
                    if event.kind == "move":
                        obj = w.object(event.object_id)
                        self.assert_same_spot(w, w.object(event.target_carrier_id),
                                              obj.box.extents, sc.crsg, obj.id,
                                              event.spot_index)
                        moves += 1
                    w.apply_displacement(event, sc.crsg)
        assert moves >= 24

    @pytest.mark.parametrize("seed", range(3))
    def test_random_tops_with_ties_and_occupants(self, seed):
        # square and oblong tops on the diagonal x = y, so a square top's
        # spots mirror in it and their distances tie exactly; each top holds
        # up to four occupants at random, some across its edges; every
        # spot_index from -2 to n + 2 over a scan of n spots
        rng = Random(seed)
        cfg = CrsgConfig()
        objs = []
        for t in range(4):
            c = 1.5 + 2.5 * t
            ex = rng.choice([0.6, 0.8, 1.0, 1.2])
            ey = ex if t % 2 == 0 else rng.choice([0.6, 0.8, 1.0])
            table = obj_dict(f"table_{t}", ["brown table", "table"], c, c, ex, ey, 0.0, 0.75)
            objs.append(table)
            for i in range(rng.randrange(5)):
                objs.append(item_on(f"item_{t}_{i}", ["red cup"], table,
                                    dx=rng.uniform(-ex / 2, ex / 2), dy=rng.uniform(-ey / 2, ey / 2),
                                    ex=rng.choice([0.05, 0.1, 0.2]), ey=rng.choice([0.05, 0.1, 0.2])))
        w = GridWorld(scene_from_dict(scene_dict(objs, width=44, height=44)))
        ties = 0
        for t in range(4):
            carrier = w.object(f"table_{t}")
            held = w.ground_truth_carried(carrier.id, cfg)
            for extents in (np.array([0.2, 0.2, 0.1]), np.array([0.3, 0.3, 0.1]),
                            np.array([0.3, 0.2, 0.1])):
                n = spot_count(carrier, extents)
                xs, ys = np.meshgrid(*(np.arange(carrier.box.lo[k] + extents[k] / 2 + 0.02,
                                                 carrier.box.hi[k] - extents[k] / 2 - 0.02 + 1e-9,
                                                 max(0.05, float(min(extents[:2])) / 2.0))
                                       for k in range(2)), indexing="ij")
                dists = np.hypot(xs - carrier.centroid[0], ys - carrier.centroid[1]).ravel()
                ties += dists.size - np.unique(dists).size
                for skip_id in [""] + held[:1]:
                    for k in range(-2, n + 3):
                        self.assert_same_spot(w, carrier, extents, cfg, skip_id, k)
        assert ties > 0
