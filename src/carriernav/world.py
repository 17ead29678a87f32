"""Deterministic 2-D grid world: planning, sensing, displacement.

Objects are frozen values (``scene.ObjectInstance``), shared by the scene,
the world, the belief graph and every sighting.  The world owns only its
id -> object dict (it never changes the grid or rooms): a displacement
stores a new instance there, so ground-truth changes (displaced or
removed objects) never leak into the parsed scene, the belief graph a
robot carries around or an earlier sighting.

Planning runs Dijkstra searches over one symmetric 8-connected graph of the
free cells, with unit/diagonal step costs.  The searches are bounded: each
stops at the distance its caller reads, and a farther read from the same
source searches again with a larger limit, so every distance read is exact.
Each source cell keeps its own search and the paths walked on it, so paths
and distance fields from a source already searched (a carrier the robot
returns to) reuse them, and a leg whose ends share a cell searches nothing.
Reachability alone reads the connected components of the same graph.  A
leg may only take the moves of that graph: ``travel`` refuses any other.

Sensing is a radius + field-of-view model with optional wall occlusion.  A
leg senses at the center of every path cell, facing the step to the next
cell (the last cell keeps the last step's heading), and keeps the first
sighting of each object: the first cell that sees it, and the depth from
there.  One array pass over (path cells x objects) finds every first
sighting of a leg, and ``observe`` is that pass for a single pose.  An
``Observation`` is the sighted object, as the world held it at that moment,
plus its depth.

Each derived fact is computed once per change to its inputs.  The facts of
the grid and of the scene are kept by ``carriernav.facts``, which says what
is kept, how it is matched and when it is dropped.  The objects' ``(id,
instance)`` items (the objects part of the keys of kept answers) and their
centroids live and die with the world: ``apply_displacement``, the only
place objects change, clears both when it returns or raises.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from . import facts
from .graph import CrsgConfig, assign_carried, carrying_predicate, geometric_carrier_filter
from .scene import MAX_GRID_CELLS, Box3, ObjectInstance, SceneMap, _frozen, distance

SQRT2 = math.sqrt(2.0)

Cell = Tuple[int, int]

# Path walk-back tie-break order: axis steps first, then diagonals.
STEP_ORDER: Tuple[Cell, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1),
                                (1, 1), (1, -1), (-1, 1), (-1, -1))
# Step length in cells per STEP_ORDER slot.
STEP_CELLS: Tuple[float, ...] = tuple(SQRT2 if dx != 0 and dy != 0 else 1.0
                                      for dx, dy in STEP_ORDER)


class WorldError(ValueError):
    pass


class UnreachableGoalError(WorldError):
    """No free-cell path exists between the requested endpoints."""


class DisplacementError(WorldError):
    pass


@dataclass(frozen=True, eq=False)
class Pose:
    """A frozen value: a move is a new pose, so holders share poses.  The
    position is the pose's own read-only copy of the array it is given."""

    position: np.ndarray  # (x, y) meters
    heading: float = 0.0  # radians

    def __post_init__(self):
        position = _frozen(np.array(self.position, dtype=np.float64))
        if position.shape != (2,):
            raise WorldError("pose position must be a 2-vector")
        object.__setattr__(self, "position", position)


@dataclass(frozen=True)
class SensorConfig:
    radius: float = 2.5
    fov: float = 2.0 * math.pi
    occlusion: bool = False

    def __post_init__(self):
        if self.radius <= 0:
            raise WorldError(f"sensor radius must be positive, got {self.radius}")
        if not (0.0 < self.fov <= 2.0 * math.pi + 1e-9):
            raise WorldError(f"sensor fov must be in (0, 2*pi], got {self.fov}")


@dataclass(frozen=True)
class Observation:
    """One sighting: the world's object instance when it was seen, and its
    depth.  Frozen, like the instance, so a later move never changes it and
    worlds may share it."""

    object: ObjectInstance
    mean_depth: float

    @property
    def object_id(self) -> str:
        return self.object.id


@dataclass
class DisplacementEvent:
    """Ground-truth scene change.

    ``move`` re-seats ``object_id`` on ``target_carrier_id``, at the free
    spot ``spot_index`` places along the carrier top's scan (so seeded
    callers vary placements deterministically); ``remove`` deletes it.
    """

    kind: str
    object_id: str
    target_carrier_id: Optional[str] = None
    spot_index: int = 0

    def __post_init__(self):
        if self.kind not in ("move", "remove"):
            raise DisplacementError(f"unknown displacement kind {self.kind!r}")
        if not self.object_id:
            raise DisplacementError(f"{self.kind} event needs object_id")
        if self.kind == "move" and not self.target_carrier_id:
            raise DisplacementError("move event needs target_carrier_id")


@dataclass
class TravelLog:
    observations: Dict[str, Observation]  # first sighting per object id
    length: float


class GridWorld:
    """Simulator state: occupancy grid, object ground truth, robot pose."""

    def __init__(self, scene: SceneMap, start_pose: Optional[Pose] = None):
        facts.keep_scene(scene)
        self.scene = copy.copy(scene)
        self.scene.objects = dict(scene.objects)
        grid = self.scene.grid
        self.resolution = float(grid.resolution)
        self.width = int(grid.width)
        self.height = int(grid.height)
        self.origin = np.asarray(grid.origin, dtype=np.float64)
        occupancy = grid.occupancy()  # painted from the bulk-checked cell array
        occupancy.flags.writeable = False  # worlds share it
        self._grid = facts.keep_grid(occupancy, self.resolution, self.origin)
        self.occupancy = self._grid.occupancy

        if start_pose is None:
            start_pose = Pose(self._first_free_center())
        self.robot = start_pose
        start_cell = self.cell_of(self.robot.position)
        if self.occupancy[start_cell[1], start_cell[0]]:
            raise WorldError(f"robot start cell {start_cell} is blocked")

        self._centroid_cache: Optional[tuple] = None
        self._items: Optional[tuple] = None

    # ----- grid geometry -------------------------------------------------

    def _first_free_center(self) -> np.ndarray:
        free = np.argwhere(~self.occupancy)
        if free.size == 0:
            raise WorldError("grid has no free cells")
        iy, ix = free[0]
        return self.cell_center((int(ix), int(iy)))

    def cell_of(self, point: Sequence[float]) -> Cell:
        # the index is bounded as a Python float, before ``floor``: a far
        # point's is inf, and a NaN fails the bound
        x, y = float(point[0]), float(point[1])
        fx = (x - float(self.origin[0])) / self.resolution
        fy = (y - float(self.origin[1])) / self.resolution
        if not (0.0 <= fx < self.width and 0.0 <= fy < self.height):
            raise WorldError(f"point ({x}, {y}) is outside the grid")
        return (math.floor(fx), math.floor(fy))

    def cell_center(self, cell: Cell) -> np.ndarray:
        ix, iy = cell
        return np.array(
            [
                self.origin[0] + (ix + 0.5) * self.resolution,
                self.origin[1] + (iy + 0.5) * self.resolution,
            ]
        )

    def snap_free_cell(self, point: Sequence[float]) -> Cell:
        """Nearest free cell to ``point`` by center distance, ties by (ix, iy).

        Memoized per (x, y) on the grid's facts.
        """
        key = (float(point[0]), float(point[1]))
        snaps = self._grid.snaps
        cell = snaps.get(key)
        if cell is None:
            cell = snaps[key] = self._snap(np.array(key))
        return cell

    def _snap(self, target: np.ndarray) -> Cell:
        """Search square windows around the point's (clamped) cell, doubling
        the half-width r until the best free cell lies within r * resolution:
        every cell outside the window is at least (r + 0.5) * resolution away.

        Each window is one numpy pass.  ``np.hypot`` may differ from the
        distance rule (``scene.distance``, whose dot may fuse its
        multiply-adds) in the last ulp, so the vector form only shortlists
        the cells within 1e-9 * resolution of the nearest, and the
        shortlist is measured by the rule, one 2-vector each: the keys are
        bit-equal to a per-cell scan's.
        """
        res = self.resolution
        ox, oy = self.origin.tolist()
        tx, ty = float(target[0]), float(target[1])
        cx = min(max(int(math.floor((tx - ox) / res)), 0), self.width - 1)
        cy = min(max(int(math.floor((ty - oy) / res)), 0), self.height - 1)
        r = 1
        while True:
            x0, y0 = max(cx - r, 0), max(cy - r, 0)
            x1, y1 = min(cx + r + 1, self.width), min(cy + r + 1, self.height)
            jy, jx = np.nonzero(~self.occupancy[y0:y1, x0:x1])
            whole = x1 - x0 == self.width and y1 - y0 == self.height
            if jx.size:
                # center minus point per axis, in the float operations of cell_center
                dx = (ox + (np.arange(x0, x1) + 0.5) * res - tx)[jx]
                dy = (oy + (np.arange(y0, y1) + 0.5) * res - ty)[jy]
                near = np.hypot(dx, dy)
                best = min((distance(np.array([dx[k], dy[k]])),
                            x0 + int(jx[k]), y0 + int(jy[k]))
                           for k in np.flatnonzero(near <= near.min() + 1e-9 * res))
                if whole or best[0] <= r * res:
                    return (best[1], best[2])
            elif whole:
                raise WorldError("no free cell in grid")
            r *= 2

    # ----- planning -------------------------------------------------------

    def shortest_path(self, start: Sequence[float], goal: Sequence[float]) -> Tuple[List[Cell], float]:
        """Length-optimal path; returns (cells incl. endpoints, length m).

        Ends that snap to one cell give that one cell and 0.0, with no
        search.  Otherwise the path is walked back over the distance field
        from ``start`` (:meth:`_walk_back`) and kept with that search, as
        the grid's facts keep paths; each read gets a new list.  An
        unreachable goal raises on every read.
        """
        start_cell = self.snap_free_cell(start)
        goal_cell = self.snap_free_cell(goal)
        if start_cell == goal_cell:
            return [start_cell], 0.0
        dist = self._search(start_cell, goal_cell)
        paths = self._grid.searches[start_cell][2]
        kept = paths.get(goal_cell)
        if kept is None:
            kept = paths[goal_cell] = self._walk_back(dist, start_cell, goal_cell)
        return list(kept[0]), kept[1]

    def _walk_back(self, dist: np.ndarray, start_cell: Cell,
                   goal_cell: Cell) -> Tuple[tuple, float]:
        """(path cells, length) from ``start_cell`` to ``goal_cell`` over the
        distance field ``dist`` from ``start_cell``.

        From the goal, each step goes to the first neighbour in
        ``STEP_ORDER`` that the movement rule allows and whose distance plus
        the step cost equals the current cell's distance (within 1e-9 *
        resolution).  Slot k of a cell's graph row holds its
        ``STEP_ORDER[k]`` neighbour, or the cell itself where the move is
        not allowed, which never matches (the step cost is far above the
        tolerance), so the walk reads rows.  Length is reconstructed from
        the (axis, diagonal) step counts so it is exactly symmetric.  The
        search only has to reach the goal: every cell of the walk is nearer.
        """
        graph, index, cells = self._free_graph()
        source = int(index[start_cell[1], start_cell[0]])
        i = int(index[goal_cell[1], goal_cell[0]])
        if math.isinf(dist[i]):
            raise UnreachableGoalError(f"no path from {start_cell} to {goal_cell}")
        # memoryviews read items as Python numbers, much faster than arrays
        dist, nbrs, cells = (memoryview(a) for a in (dist, graph.indices, cells))

        def cell(i: int) -> Cell:
            iy, ix = divmod(cells[i], self.width)
            return (ix, iy)

        steps = [c * self.resolution for c in STEP_CELLS]
        slots = range(len(STEP_ORDER))
        tol = 1e-9 * self.resolution
        walk = [i]
        n_diag = 0
        while i != source:
            here = dist[i]
            row = i * len(STEP_ORDER)
            for k in slots:
                j = nbrs[row + k]
                if abs(dist[j] + steps[k] - here) <= tol:
                    i = j
                    walk.append(i)
                    if STEP_CELLS[k] != 1.0:
                        n_diag += 1
                    break
            else:
                raise WorldError(f"distance field has no predecessor for {cell(i)}")
        path = tuple(cell(i) for i in reversed(walk))
        n_axis = len(path) - 1 - n_diag
        length = (n_axis + n_diag * SQRT2) * self.resolution
        return path, length

    def _free_graph(self) -> Tuple[csr_matrix, np.ndarray, np.ndarray]:
        """(symmetric 8-neighbour graph over the free cells, free-cell
        index, flat cell per row).

        ``index[iy, ix]`` is a free cell's row, or -1 for a blocked cell,
        and ``cells[i]`` is row i's cell as ``iy * width + ix``.  Every row
        has exactly one slot per ``STEP_ORDER`` move, in that order,
        weighted by the step length.  A diagonal step needs both
        orthogonal cells free (no corner cutting); a move the rule does not
        allow points back at the row's own cell, a self-loop that no
        search can relax.  This is the one place the movement rule lives.
        Built once per grid.
        """
        grid = self._grid
        if grid.graph is None:
            free = ~self.occupancy
            h, w = free.shape
            n = int(free.sum())
            cells = np.flatnonzero(free).astype(np.int32)
            index = np.full(free.shape, -1, dtype=np.int32)
            index[free] = np.arange(n, dtype=np.int32)
            # a one-cell blocked border makes every neighbour a slice view
            pad_free = np.pad(free, 1)
            pad_index = np.pad(index, 1, constant_values=-1)

            def shifted(a: np.ndarray, dx: int, dy: int) -> np.ndarray:
                return a[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]

            slots = len(STEP_ORDER)
            cols = np.empty((n, slots), dtype=np.int32)
            for k, (dx, dy) in enumerate(STEP_ORDER):
                allowed = shifted(pad_free, dx, dy)
                if dx != 0 and dy != 0:
                    allowed = allowed & shifted(pad_free, dx, 0) & shifted(pad_free, 0, dy)
                cols[:, k] = np.where(allowed, shifted(pad_index, dx, dy), index)[free]
            steps = np.tile(np.array(STEP_CELLS) * self.resolution, n)
            indptr = np.arange(0, slots * n + 1, slots, dtype=np.int32)
            graph = csr_matrix((steps, cols.ravel(), indptr), shape=(n, n))
            grid.graph = (graph, index, cells)
        return grid.graph

    def connected(self, a: Sequence[float], b: Sequence[float]) -> bool:
        """Whether a free-cell path joins the free cells nearest ``a`` and
        ``b``: one connected-component label lookup, no search.  The labels
        are computed once per grid."""
        graph, index, _ = self._free_graph()
        grid = self._grid
        if grid.labels is None:
            # the graph is symmetric, so its strong components are its
            # components, found without the transpose a weak search builds
            grid.labels = connected_components(
                graph, directed=True, connection="strong")[1]
        labels = grid.labels
        (ax, ay), (bx, by) = self.snap_free_cell(a), self.snap_free_cell(b)
        return bool(labels[index[ay, ax]] == labels[index[by, bx]])

    def _octile(self, a: Cell, b: Cell) -> float:
        """Obstacle-free 8-connected distance (m): a lower bound on the geodesic."""
        dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
        return (abs(dx - dy) + SQRT2 * min(dx, dy)) * self.resolution

    def _search(self, source: Cell, cell: Cell) -> np.ndarray:
        """Distance (m) per free-cell index from ``source``, exact at the
        free ``cell`` and at every cell nearer than it; inf beyond the limit.

        Searches are bounded: Dijkstra with ``limit=L`` gives the exact
        distance of every cell at or below L and inf for the rest.  The
        grid's facts keep ``(limit, dist, paths)`` of each source cell's
        latest search, for the latest ``facts.SEARCHES_PER_GRID`` sources
        read; a read from a dropped source searches anew, and its kept paths
        went with it.  A read that finds no search
        from ``source``, or inf under a finite limit, searches again from
        ``source`` with the limit ``max(2 * limit, 1.25 * octile(source,
        cell))`` plus a 1e-9 relative margin (the first limit is 1.25 *
        octile), until the cell is reached.  The octile distance is a lower
        bound, and 1.25 of it settled the fewest cells of the factors tried
        on the generated houses (1.1, 1.25, 1.5 and 2): a smaller factor
        misses detours more often and searches again, a larger one settles
        area no read needs.  Once the limit reaches the octile distance to
        the grid's farthest corner, the search is unbounded, so only an inf
        under an unbounded search means "unreachable".

        No world changes its grid, so no search goes stale.  A search that
        another world on the same grid grew further reads the same
        distances: a cell's distance is its nearer neighbours' plus a
        positive step, whatever the limit.
        """
        graph, index, _ = self._free_graph()
        target = index[cell[1], cell[0]]
        limit, dist, paths = self._grid.searches.get(source) or (0.0, None, {})
        farthest_corner = (0 if 2 * source[0] >= self.width else self.width - 1,
                           0 if 2 * source[1] >= self.height else self.height - 1)
        while dist is None or (math.isinf(dist[target]) and not math.isinf(limit)):
            limit = max(2.0 * limit, 1.25 * self._octile(source, cell)) * (1.0 + 1e-9)
            if limit >= self._octile(source, farthest_corner):
                limit = math.inf
            dist = dijkstra(graph, directed=True, indices=int(index[source[1], source[0]]),
                            limit=limit)
        self._grid.keep_search(source, (limit, dist, paths))
        return dist

    def distance_field(self, start: Sequence[float]) -> Callable[[Sequence[float]], float]:
        """Point -> geodesic distance (m) from the free cell nearest ``start``
        to the free cell nearest the point, searched only as far as the
        cells read."""
        source = self.snap_free_cell(start)

        def distance(point: Sequence[float]) -> float:
            cell = self.snap_free_cell(point)
            if cell == source:  # no search, as for a zero-length shortest_path leg
                return 0.0
            index = self._free_graph()[1]
            return float(self._search(source, cell)[index[cell[1], cell[0]]])

        return distance

    # ----- sensing --------------------------------------------------------

    def _objects(self) -> tuple:
        """The world's ``(id, instance)`` items in order: the objects part of
        the keys of kept answers, built once per displacement."""
        if self._items is None:
            self._items = tuple(self.scene.objects.items())
        return self._items

    def _centroids(self):
        if self._centroid_cache is None:
            ids = sorted(self.scene.objects)
            arr = np.array([self.scene.objects[i].centroid[:2] for i in ids]) if ids else np.zeros((0, 2))
            self._centroid_cache = (ids, arr)
        return self._centroid_cache

    def _ray_clear(self, a: Cell, b: Cell) -> bool:
        """Bresenham walk from a to b; intermediate blocked cell occludes."""
        x0, y0 = a
        x1, y1 = b
        dx = abs(x1 - x0)
        dy = -abs(y1 - y0)
        sx = 1 if x0 < x1 else -1
        sy = 1 if y0 < y1 else -1
        err = dx + dy
        x, y = x0, y0
        while True:
            if (x, y) != a and (x, y) != b and self.occupancy[y, x]:
                return False
            if (x, y) == b:
                return True
            e2 = 2 * err
            if e2 >= dy:
                err += dy
                x += sx
            if e2 <= dx:
                err += dx
                y += sy

    def observe(self, pose: Pose, sensor: SensorConfig) -> List[Observation]:
        """Objects within radius and field of view, sorted by id.  A pose
        outside the grid raises :class:`WorldError`."""
        return self._first_sightings(pose.position[None, :], [pose.heading],
                                     [self.cell_of(pose.position)], sensor)

    def travel(self, path: Sequence[Cell], sensor: SensorConfig) -> TravelLog:
        """Advance cell-by-cell along ``path``, sensing at every cell center.

        Each object keeps its first sighting on the leg and that sighting's
        depth.  The heading at a cell is that of the step to the next cell;
        the last cell keeps the last step's heading (a one-cell path keeps
        the robot's).  A zero-length path produces an empty trajectory and
        moves nothing.  A path that is not a sequence of integer cells,
        leaves the grid, enters a blocked cell or takes a step the movement
        rule does not allow raises :class:`WorldError` and moves nothing.

        One leg per (objects, grid, path cells, one-cell heading, sensor)
        is kept with the scene's facts: a kept leg only sets the pose.
        """
        if len(path) == 0:
            return TravelLog(observations={}, length=0.0)
        cells = tuple(map(tuple, path))
        key = ("leg", self._objects(), self._grid.key, cells,
               self.robot.heading if len(cells) == 1 else None, sensor)
        seen, length, heading = facts.answer(key, self._leg, cells, sensor)
        self.robot = Pose(self.cell_center(cells[-1]), heading)
        return TravelLog(observations={obs.object_id: obs for obs in seen}, length=length)

    def _leg(self, path: Tuple[Cell, ...], sensor: SensorConfig) -> Tuple[tuple, float, float]:
        """(first sightings, length, final heading) of a leg along ``path``
        from the robot's heading, after checking the path."""
        cells = np.asarray(path)
        if cells.ndim != 2 or cells.shape[1] != 2 or cells.dtype.kind not in "iu":
            raise WorldError("a path is a sequence of (ix, iy) integer cells")
        if np.any((cells < 0) | (cells >= (self.width, self.height))):
            raise WorldError("path leaves the grid")
        self._check_moves(cells)
        steps = np.diff(cells, axis=0).tolist()
        headings = [math.atan2(dy, dx) for dx, dy in steps]
        headings.append(headings[-1] if headings else self.robot.heading)
        # cell centers in the float operations of cell_center
        centers = self.origin + (cells + 0.5) * self.resolution
        seen = self._first_sightings(centers, headings, path, sensor)
        n_diag = sum(1 for dx, dy in steps if dx != 0 and dy != 0)
        length = (len(steps) - n_diag + n_diag * SQRT2) * self.resolution
        return tuple(seen), length, headings[-1]

    def _check_moves(self, cells: np.ndarray) -> None:
        """Raise :class:`WorldError` unless every cell of the (n, 2) on-grid
        ``cells`` is free and each step to the next is a move of its
        ``_free_graph`` row.  A slot the rule does not allow holds the row's
        own cell, so a step that stays in its cell matches no move."""
        graph, index, _ = self._free_graph()
        rows = index[cells[:, 1], cells[:, 0]]
        if np.any(rows < 0):
            raise WorldError(f"path cell {cells[np.argmax(rows < 0)].tolist()} is blocked")
        slots = graph.indices.reshape(-1, len(STEP_ORDER))[rows[:-1]]
        allowed = (slots == rows[1:, None]).any(axis=1) & (rows[1:] != rows[:-1])
        if not allowed.all():
            k = int(np.argmin(allowed))
            raise WorldError(f"path step {cells[k].tolist()} -> {cells[k + 1].tolist()} "
                             f"is not an allowed move")

    def _first_sightings(self, positions: np.ndarray, headings: Sequence[float],
                         cells: Sequence[Cell], sensor: SensorConfig) -> List[Observation]:
        """The first sighting of each object from a sequence of poses, in the
        order (pose, id): the one rule of what a pose sees.

        ``positions`` (m, 2), ``headings`` and ``cells`` describe the poses.
        An object is in view of a pose when its centroid lies within the
        radius and, under a narrower field of view, within half the field
        of the heading (an object at zero distance is always in view); with
        occlusion, a Bresenham ray from the pose's cell to the centroid's
        cell must also be clear, and an object whose centroid is off the
        grid is never seen.  The depth is the distance from the first pose
        that sees it.  All poses are tested in one (poses x objects) pass
        whose centroid deltas keep one pose's (objects, 2) layout, so each
        distance and angle takes the float operations, on the same strides,
        of a pass for that pose alone.
        """
        ids, centroids = self._centroids()
        if not ids:
            return []
        deltas = centroids - positions[:, None, :]
        dists = np.hypot(deltas[..., 0], deltas[..., 1])
        in_view = dists <= sensor.radius
        if sensor.fov < 2.0 * math.pi - 1e-9:
            angles = np.arctan2(deltas[..., 1], deltas[..., 0])
            heading = np.asarray(headings, dtype=np.float64)[:, None]
            diff = np.abs((angles - heading + math.pi) % (2.0 * math.pi) - math.pi)
            in_view &= (diff <= sensor.fov / 2.0 + 1e-12) | (dists < 1e-12)
        cols = np.flatnonzero(in_view.any(axis=0)).tolist()
        objects = self.scene.objects
        if sensor.occlusion:
            firsts = []
            for j in cols:
                try:
                    target = self.cell_of(objects[ids[j]].centroid[:2])
                except WorldError:
                    continue
                for i in np.flatnonzero(in_view[:, j]).tolist():
                    if self._ray_clear(tuple(cells[i]), target):
                        firsts.append((i, j))
                        break
        else:
            firsts = zip(in_view[:, cols].argmax(axis=0).tolist(), cols)
        return [Observation(objects[ids[j]], float(dists[i, j])) for i, j in sorted(firsts)]

    # ----- ground truth ---------------------------------------------------

    def object(self, object_id: str) -> ObjectInstance:
        try:
            return self.scene.objects[object_id]
        except KeyError:
            raise WorldError(f"unknown object {object_id!r}") from None

    def has_object(self, object_id: str) -> bool:
        return object_id in self.scene.objects

    def ground_truth_carried(self, carrier_id: str, config: CrsgConfig) -> List[str]:
        """Ids currently resting on ``carrier_id`` per the carrying predicate.

        Exclusive like graph construction: an object counts for its nearest
        satisfying base only, and only furniture-scale ground-contact boxes
        qualify as bases, so stacked items never capture each other.  One
        whole relation per (objects, ``config``) is kept with the scene's
        facts.
        """
        self.object(carrier_id)
        relation = facts.answer(("carried", self._objects(), config),
                                self._carried_relation, config)
        return list(relation.get(carrier_id, ()))

    def _carried_relation(self, config: CrsgConfig) -> Dict[str, List[str]]:
        """Base id -> sorted ids of the objects whose nearest carrier it is:
        ``graph.assign_carried`` over the bases and the objects in id order,
        bases that hold nothing left out."""
        objects = self.scene.objects
        bases = geometric_carrier_filter(list(objects.values()), config)
        carried, _ = assign_carried(bases, [objects[oid] for oid in sorted(objects)], config)
        return {cid: [obj.id for obj in held] for cid, held in carried.items() if held}

    def carried_observations(self, carrier_id: str, pose: Pose, config: CrsgConfig) -> List[Observation]:
        """Full view of a carrier's current occupants, granted at its side."""
        out = []
        for oid in self.ground_truth_carried(carrier_id, config):
            obj = self.scene.objects[oid]
            depth = distance(obj.centroid[:2] - pose.position)
            out.append(Observation(obj, depth))
        return out

    # ----- displacement ---------------------------------------------------

    def _free_spot_on(self, carrier: ObjectInstance, extents: np.ndarray,
                      config: CrsgConfig, skip_id: str, start_index: int) -> np.ndarray:
        """Deterministic spiral scan over the carrier top for a free spot,
        ``start_index`` spots in, clear of every occupant but ``skip_id``."""
        half = extents[:2] / 2.0
        margin = 0.02
        # the scan's bounds and size in Python floats, before any array: a
        # far top's bounds may overflow, and a wide one holds too many spots
        hx, hy = half.tolist()
        lo = (carrier.box.lo[0] + hx + margin, carrier.box.lo[1] + hy + margin)
        hi = (carrier.box.hi[0] - hx - margin, carrier.box.hi[1] - hy - margin)
        if hi[0] < lo[0] or hi[1] < lo[1]:
            raise DisplacementError(
                f"object too large for carrier {carrier.id!r} footprint"
            )
        step = max(0.05, float(min(extents[0], extents[1])) / 2.0)
        nx, ny = ((hi[k] + 1e-9 - lo[k]) / step for k in range(2))
        if not math.isfinite(nx * ny) or math.ceil(nx) * math.ceil(ny) > MAX_GRID_CELLS:
            raise DisplacementError(f"carrier {carrier.id!r} top holds too many spots "
                                    f"to scan ({nx:.3g} x {ny:.3g})")
        xs, ys = np.meshgrid(np.arange(lo[0], hi[0] + 1e-9, step),
                             np.arange(lo[1], hi[1] + 1e-9, step), indexing="ij")
        xs, ys = xs.ravel(), ys.ravel()
        center = carrier.centroid[:2]
        # nearest the center first, ties by x then y
        order = np.lexsort((ys, xs, np.hypot(xs - center[0], ys - center[1])))
        occupants = [self.scene.objects[oid] for oid in self.ground_truth_carried(carrier.id, config)
                     if oid != skip_id]
        n = len(order)
        for k in range(n):
            i = order[(start_index + k) % n]
            x, y = round(float(xs[i]), 6), round(float(ys[i]), 6)
            box_min = np.array([x - half[0], y - half[1]])
            box_max = np.array([x + half[0], y + half[1]])
            clear = True
            for occ in occupants:
                if (box_min[0] < occ.box.max[0] + margin and box_max[0] > occ.box.min[0] - margin
                        and box_min[1] < occ.box.max[1] + margin and box_max[1] > occ.box.min[1] - margin):
                    clear = False
                    break
            if clear:
                return np.array([x, y])
        raise DisplacementError(f"no free spot on carrier {carrier.id!r}")

    def apply_displacement(self, event: DisplacementEvent, config: CrsgConfig) -> None:
        """Mutate ground truth per the event; belief graphs are untouched.

        This is the only place objects change, so it clears the object
        memos when it returns or raises (a rejected move has already
        re-seated its object).
        """
        try:
            if event.kind == "remove":
                if event.object_id not in self.scene.objects:
                    raise DisplacementError(f"cannot remove unknown object {event.object_id!r}")
                del self.scene.objects[event.object_id]
            else:
                # a move is a pure function of the world's objects and the event
                key = ("move", self._objects(), event.object_id, event.target_carrier_id,
                       event.spot_index, config)
                self.scene.objects[event.object_id] = facts.answer(key, self._moved, event, config)
        finally:
            self._centroid_cache = None
            self._items = None

    def _moved(self, event: DisplacementEvent, config: CrsgConfig) -> ObjectInstance:
        """The moved object, re-seated on a free spot of the target carrier's
        top.  A placement the carrying predicate rejects still re-seats it."""
        obj = self.object(event.object_id)
        carrier = self.object(event.target_carrier_id)
        extents = obj.box.extents
        xy = self._free_spot_on(carrier, extents, config, obj.id, event.spot_index)
        new_min = np.array([xy[0] - extents[0] / 2.0, xy[1] - extents[1] / 2.0, carrier.box.hi[2]])
        box = Box3(new_min, new_min + extents)
        obj = replace(obj, box=box, centroid=box.center)
        if not carrying_predicate(carrier, obj, config):
            self.scene.objects[obj.id] = obj
            raise DisplacementError(
                f"placement of {obj.id!r} on {carrier.id!r} violates the carrying predicate"
            )
        return obj
