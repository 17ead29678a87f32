"""Deterministic 2-D grid world: planning, sensing, displacement.

Objects are frozen values (``scene.ObjectInstance``), shared by the scene,
the world, the belief graph and every sighting.  The world owns only its
id -> object dict (it never changes the grid or rooms): a displacement
stores a new instance there, so ground-truth changes (displaced objects,
additions, removals) never leak into the parsed scene, the belief graph a
robot carries around or an earlier sighting.

Planning runs Dijkstra searches over one symmetric 8-connected graph of the
free cells, with unit/diagonal step costs.  The searches are bounded: each
stops at the distance its caller reads, and a farther read from the same
pose searches again with a larger limit, so every distance read is exact.
Paths and distance fields both read the latest pose's search.

Sensing is a radius + field-of-view model with optional wall occlusion.  A
leg senses at the center of every path cell, facing the step to the next
cell (the last cell keeps the last step's heading), and keeps the first
sighting of each object: the first cell that sees it, and the depth from
there.  One array pass over (path cells x objects) finds every first
sighting of a leg, and ``observe`` is that pass for a single pose.  An
``Observation`` is the sighted object, as the world held it at that moment,
plus its depth.

Each derived fact is computed once per change to its inputs, in memos that
live and die with the world:

* facts of the grid, which never changes: the free-cell graph, the latest
  pose's search and the snap of every point asked for;
* facts of the objects: their centroids (for sensing) and the carrying
  relation per set of ``CrsgConfig`` values.  Objects change only in
  ``apply_displacement``, which clears both when it returns or raises.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Container, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .graph import CrsgConfig, carrying_predicate, geometric_carrier_filter, nearest_carrier
from .scene import Box3, ObjectInstance, SceneMap

SQRT2 = math.sqrt(2.0)

Cell = Tuple[int, int]

# The memo key of a carrying relation: the config's field values.
_crsg_values = attrgetter(*(f.name for f in fields(CrsgConfig)))

# Path walk-back tie-break order: axis steps first, then diagonals.
STEP_ORDER: Tuple[Cell, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1),
                                (1, 1), (1, -1), (-1, 1), (-1, -1))


class WorldError(ValueError):
    pass


class UnreachableGoalError(WorldError):
    """No free-cell path exists between the requested endpoints."""


class DisplacementError(WorldError):
    pass


@dataclass
class Pose:
    position: np.ndarray  # (x, y) meters
    heading: float = 0.0  # radians

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)
        if self.position.shape != (2,):
            raise WorldError("pose position must be a 2-vector")

    def copy(self) -> "Pose":
        return Pose(self.position.copy(), self.heading)


@dataclass
class SensorConfig:
    radius: float = 2.5
    fov: float = 2.0 * math.pi
    occlusion: bool = False

    def __post_init__(self):
        if self.radius <= 0:
            raise WorldError(f"sensor radius must be positive, got {self.radius}")
        if not (0.0 < self.fov <= 2.0 * math.pi + 1e-9):
            raise WorldError(f"sensor fov must be in (0, 2*pi], got {self.fov}")


@dataclass
class Observation:
    """One sighting: the world's object instance when it was seen, and its
    depth.  Instances are frozen, so a later move never changes it."""

    object: ObjectInstance
    mean_depth: float

    @property
    def object_id(self) -> str:
        return self.object.id


@dataclass
class DisplacementEvent:
    """Ground-truth scene change.

    ``move`` re-seats an existing object on ``target_carrier_id``; ``add``
    introduces ``new_object`` there; ``remove`` deletes the object.
    """

    kind: str
    object_id: str = ""
    target_carrier_id: Optional[str] = None
    new_object: Optional[dict] = None

    def __post_init__(self):
        if self.kind not in ("move", "add", "remove"):
            raise DisplacementError(f"unknown displacement kind {self.kind!r}")
        if self.kind in ("move", "remove") and not self.object_id:
            raise DisplacementError(f"{self.kind} event needs object_id")
        if self.kind == "move" and not self.target_carrier_id:
            raise DisplacementError("move event needs target_carrier_id")
        if self.kind == "add" and not self.new_object:
            raise DisplacementError("add event needs new_object payload")


@dataclass
class TravelLog:
    observations: Dict[str, Observation]  # first sighting per object id
    length: float


class GridWorld:
    """Simulator state: occupancy grid, object ground truth, robot pose."""

    def __init__(self, scene: SceneMap, start_pose: Optional[Pose] = None):
        self.scene = copy.copy(scene)
        self.scene.objects = dict(scene.objects)
        grid = self.scene.grid
        self.resolution = float(grid.resolution)
        self.width = int(grid.width)
        self.height = int(grid.height)
        self.origin = np.asarray(grid.origin, dtype=np.float64)
        self.occupancy = np.zeros((self.height, self.width), dtype=bool)
        for ix, iy in grid.blocked_cells:
            self.occupancy[iy, ix] = True

        if start_pose is None:
            start_pose = Pose(self._first_free_center())
        self.robot = start_pose.copy()
        start_cell = self.cell_of(self.robot.position)
        if self.occupancy[start_cell[1], start_cell[0]]:
            raise WorldError(f"robot start cell {start_cell} is blocked")

        self._graph_cache: Optional[tuple] = None
        self._search_memo: Optional[Tuple[Cell, float, np.ndarray]] = None
        self._snap_memo: Dict[Tuple[float, float], Cell] = {}
        self._centroid_cache: Optional[tuple] = None
        self._carried_memo: Dict[tuple, Dict[str, List[str]]] = {}

    # ----- grid geometry -------------------------------------------------

    def _first_free_center(self) -> np.ndarray:
        free = np.argwhere(~self.occupancy)
        if free.size == 0:
            raise WorldError("grid has no free cells")
        iy, ix = free[0]
        return self.cell_center((int(ix), int(iy)))

    def cell_of(self, point: Sequence[float]) -> Cell:
        ix = int(math.floor((float(point[0]) - self.origin[0]) / self.resolution))
        iy = int(math.floor((float(point[1]) - self.origin[1]) / self.resolution))
        if not (0 <= ix < self.width and 0 <= iy < self.height):
            raise WorldError(f"point {tuple(point)} is outside the grid")
        return (ix, iy)

    def cell_center(self, cell: Cell) -> np.ndarray:
        ix, iy = cell
        return np.array(
            [
                self.origin[0] + (ix + 0.5) * self.resolution,
                self.origin[1] + (iy + 0.5) * self.resolution,
            ]
        )

    def is_free(self, cell: Cell) -> bool:
        ix, iy = cell
        return 0 <= ix < self.width and 0 <= iy < self.height and not self.occupancy[iy, ix]

    def snap_free_cell(self, point: Sequence[float]) -> Cell:
        """Nearest free cell to ``point`` by center distance, ties by (ix, iy).

        Memoized per (x, y): the grid never changes.
        """
        key = (float(point[0]), float(point[1]))
        cell = self._snap_memo.get(key)
        if cell is None:
            cell = self._snap_memo[key] = self._snap(np.array(key))
        return cell

    def _snap(self, target: np.ndarray) -> Cell:
        """Search square windows around the point's (clamped) cell, doubling
        the half-width r until the best free cell lies within r * resolution:
        every cell outside the window is at least (r + 0.5) * resolution away.

        Each window is one numpy pass.  ``np.linalg.norm`` of a 2-vector may
        fuse its multiply-adds, so the vector form only shortlists the cells
        within 1e-9 * resolution of the nearest, and the shortlist is
        measured as one 2-vector each: the keys are bit-equal to a per-cell
        scan's.
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
                best = min((float(np.linalg.norm(np.array([dx[k], dy[k]]))),
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

        The path is walked back over the distance field from ``start``:
        from the goal, each step goes to the first neighbour in
        ``STEP_ORDER`` that the movement rule allows and whose distance
        plus the step cost equals the current cell's distance (within
        1e-9 * resolution).  The graph row of a cell lists exactly those
        allowed neighbours, in ``STEP_ORDER``, so the walk reads rows.
        Length is reconstructed from the (axis, diagonal) step counts so
        it is exactly symmetric.  The search only has to reach the goal:
        every cell of the walk is nearer.
        """
        start_cell = self.snap_free_cell(start)
        goal_cell = self.snap_free_cell(goal)
        dist = self._search(start_cell, goal_cell)
        graph, index, cells = self._free_graph()
        source = int(index[start_cell[1], start_cell[0]])
        i = int(index[goal_cell[1], goal_cell[0]])
        if math.isinf(dist[i]):
            raise UnreachableGoalError(f"no path from {start_cell} to {goal_cell}")
        # memoryviews read items as Python numbers, much faster than arrays
        dist, indptr, nbrs, steps, cells = (
            memoryview(a) for a in (dist, graph.indptr, graph.indices, graph.data, cells))

        def cell(i: int) -> Cell:
            iy, ix = divmod(cells[i], self.width)
            return (ix, iy)

        tol = 1e-9 * self.resolution
        walk = [i]
        n_diag = 0
        while i != source:
            here = dist[i]
            for j in range(indptr[i], indptr[i + 1]):
                if abs(dist[nbrs[j]] + steps[j] - here) <= tol:
                    i = nbrs[j]
                    walk.append(i)
                    if steps[j] > self.resolution:
                        n_diag += 1
                    break
            else:
                raise WorldError(f"distance field has no predecessor for {cell(i)}")
        path = [cell(i) for i in reversed(walk)]
        n_axis = len(path) - 1 - n_diag
        length = (n_axis + n_diag * SQRT2) * self.resolution
        return path, length

    def _free_graph(self) -> Tuple[csr_matrix, np.ndarray, np.ndarray]:
        """(symmetric 8-neighbour graph over the free cells, free-cell
        index, flat cell per row).

        ``index[iy, ix]`` is a free cell's row, or -1 for a blocked cell,
        and ``cells[i]`` is row i's cell as ``iy * width + ix``.  Row i
        lists cell i's neighbours in ``STEP_ORDER``, weighted by the step
        length; a diagonal step needs both orthogonal cells free (no corner
        cutting).  This is the one place the movement rule lives.  Built
        once: the grid never changes.
        """
        if self._graph_cache is None:
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

            cols = np.empty((n, len(STEP_ORDER)), dtype=np.int32)
            for k, (dx, dy) in enumerate(STEP_ORDER):
                nbr = shifted(pad_index, dx, dy)[free]
                if dx != 0 and dy != 0:
                    corner_ok = shifted(pad_free, dx, 0) & shifted(pad_free, 0, dy)
                    nbr[~corner_ok[free]] = -1
                cols[:, k] = nbr
            edge = cols >= 0
            step = np.array([(SQRT2 if dx != 0 and dy != 0 else 1.0) * self.resolution
                             for dx, dy in STEP_ORDER])
            indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(edge.sum(axis=1), out=indptr[1:])
            graph = csr_matrix((np.broadcast_to(step, cols.shape)[edge], cols[edge], indptr),
                               shape=(n, n))
            self._graph_cache = (graph, index, cells)
        return self._graph_cache

    def _octile(self, a: Cell, b: Cell) -> float:
        """Obstacle-free 8-connected distance (m): a lower bound on the geodesic."""
        dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
        return (abs(dx - dy) + SQRT2 * min(dx, dy)) * self.resolution

    def _search(self, source: Cell, cell: Cell) -> np.ndarray:
        """Distance (m) per free-cell index from ``source``, exact at the
        free ``cell`` and at every cell nearer than it; inf beyond the limit.

        Searches are bounded: Dijkstra with ``limit=L`` gives the exact
        distance of every cell at or below L and inf for the rest.  The
        memo keeps ``(source, limit, dist)`` of the latest search.  A read
        the memo cannot answer (another source, or inf under a finite
        limit) searches again from ``source`` with the limit
        ``max(2 * limit, 2 * octile(source, cell))`` plus a 1e-9 relative
        margin, until the cell is reached.  Once the limit reaches the
        octile distance to the grid's farthest corner, the search is
        unbounded, so only an inf under an unbounded search means
        "unreachable".  The grid never changes after ``__init__``, so the
        memo never goes stale.
        """
        graph, index, _ = self._free_graph()
        target = index[cell[1], cell[0]]
        memo = self._search_memo
        limit, dist = (0.0, None) if memo is None or memo[0] != source else memo[1:]
        farthest_corner = (0 if 2 * source[0] >= self.width else self.width - 1,
                           0 if 2 * source[1] >= self.height else self.height - 1)
        while dist is None or (math.isinf(dist[target]) and not math.isinf(limit)):
            limit = max(2.0 * limit, 2.0 * self._octile(source, cell)) * (1.0 + 1e-9)
            if limit >= self._octile(source, farthest_corner):
                limit = math.inf
            dist = dijkstra(graph, directed=True, indices=int(index[source[1], source[0]]),
                            limit=limit)
            self._search_memo = (source, limit, dist)
        return dist

    def distance_field(self, start: Sequence[float]) -> "DistanceField":
        """Geodesic distance from ``start`` to every free cell (meters),
        searched only as far as the cells read."""
        return DistanceField(self, self.snap_free_cell(start))

    # ----- sensing --------------------------------------------------------

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

    def observe(self, pose: Pose, sensor: SensorConfig,
                skip: Container[str] = ()) -> List[Observation]:
        """Objects within radius and field of view, sorted by id; objects
        whose id is in ``skip`` are left out before any ray is traced.  A
        pose outside the grid raises :class:`WorldError`."""
        return self._first_sightings(pose.position[None, :], [pose.heading],
                                     [self.cell_of(pose.position)], sensor, skip)

    def travel(self, path: Sequence[Cell], sensor: SensorConfig) -> TravelLog:
        """Advance cell-by-cell along ``path``, sensing at every cell center.

        Each object keeps its first sighting on the leg and that sighting's
        depth.  The heading at a cell is that of the step to the next cell;
        the last cell keeps the last step's heading (a one-cell path keeps
        the robot's).  A zero-length path produces an empty trajectory and
        moves nothing.
        """
        if len(path) == 0:
            return TravelLog(observations={}, length=0.0)
        cells = np.asarray(path)
        if np.any((cells < 0) | (cells >= (self.width, self.height))):
            raise WorldError("path leaves the grid")
        steps = np.diff(cells, axis=0).tolist()
        headings = [math.atan2(dy, dx) for dx, dy in steps]
        headings.append(headings[-1] if headings else self.robot.heading)
        # cell centers in the float operations of cell_center
        centers = self.origin + (cells + 0.5) * self.resolution
        seen = self._first_sightings(centers, headings, path, sensor)
        self.robot = Pose(self.cell_center(path[-1]), headings[-1])
        n_diag = sum(1 for dx, dy in steps if dx != 0 and dy != 0)
        length = (len(steps) - n_diag + n_diag * SQRT2) * self.resolution
        return TravelLog(observations={obs.object_id: obs for obs in seen}, length=length)

    def _first_sightings(self, positions: np.ndarray, headings: Sequence[float],
                         cells: Sequence[Cell], sensor: SensorConfig,
                         skip: Container[str] = ()) -> List[Observation]:
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
        if skip:
            in_view[:, [j for j, oid in enumerate(ids) if oid in skip]] = False
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

    def position_of(self, object_id: str) -> np.ndarray:
        return self.object(object_id).centroid.copy()

    def ground_truth_carried(self, carrier_id: str, config: CrsgConfig) -> List[str]:
        """Ids currently resting on ``carrier_id`` per the carrying predicate.

        Exclusive like graph construction: an object counts for its nearest
        satisfying base only, and only furniture-scale ground-contact boxes
        qualify as bases, so stacked items never capture each other.  The
        whole relation is built once per displacement and per set of
        ``config`` values.
        """
        self.object(carrier_id)
        key = _crsg_values(config)
        relation = self._carried_memo.get(key)
        if relation is None:
            relation = self._carried_memo[key] = self._carried_relation(config)
        return list(relation.get(carrier_id, ()))

    def _carried_relation(self, config: CrsgConfig) -> Dict[str, List[str]]:
        """Base id -> sorted ids of the objects whose nearest carrier it is."""
        objects = self.scene.objects
        bases = geometric_carrier_filter(list(objects.values()), config)
        relation: Dict[str, List[str]] = {}
        for oid in sorted(objects):
            cid = nearest_carrier(objects[oid], bases, config)
            if cid is not None:
                relation.setdefault(cid, []).append(oid)
        return relation

    def _occupants(self, carrier: ObjectInstance, config: CrsgConfig) -> List[ObjectInstance]:
        """The objects resting on ``carrier``: the carrying relation of
        :meth:`_carried_relation` restricted to one base.  Only objects the
        carrier satisfies the carrying predicate for can have it as their
        nearest carrier, so only those pay a :func:`nearest_carrier` call."""
        objects = self.scene.objects
        held = [obj for obj in objects.values()
                if obj.id != carrier.id and carrying_predicate(carrier, obj, config)]
        if not held:
            return []
        bases = geometric_carrier_filter(list(objects.values()), config)
        return [obj for obj in held if nearest_carrier(obj, bases, config) == carrier.id]

    def carried_observations(self, carrier_id: str, pose: Pose, config: CrsgConfig) -> List[Observation]:
        """Full view of a carrier's current occupants, granted at its side."""
        out = []
        for oid in self.ground_truth_carried(carrier_id, config):
            obj = self.scene.objects[oid]
            depth = float(np.linalg.norm(obj.centroid[:2] - pose.position))
            out.append(Observation(obj, depth))
        return out

    # ----- displacement ---------------------------------------------------

    def _free_spot_on(self, carrier: ObjectInstance, extents: np.ndarray,
                      config: CrsgConfig, skip_id: str = "",
                      start_index: int = 0) -> np.ndarray:
        """Deterministic spiral scan over the carrier top for a free spot."""
        half = extents[:2] / 2.0
        margin = 0.02
        lo = carrier.box.min[:2] + half + margin
        hi = carrier.box.max[:2] - half - margin
        if np.any(hi < lo):
            raise DisplacementError(
                f"object too large for carrier {carrier.id!r} footprint"
            )
        step = max(0.05, float(min(extents[0], extents[1])) / 2.0)
        xs, ys = np.meshgrid(np.arange(lo[0], hi[0] + 1e-9, step),
                             np.arange(lo[1], hi[1] + 1e-9, step), indexing="ij")
        xs, ys = xs.ravel(), ys.ravel()
        center = carrier.centroid[:2]
        # nearest the center first, ties by x then y
        order = np.lexsort((ys, xs, np.hypot(xs - center[0], ys - center[1])))
        occupants = [obj for obj in self._occupants(carrier, config) if obj.id != skip_id]
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

    def apply_displacement(self, event: DisplacementEvent, config: CrsgConfig,
                           spot_index: int = 0) -> None:
        """Mutate ground truth per the event; belief graphs are untouched.

        ``spot_index`` rotates the spiral scan so seeded callers can vary
        placements deterministically.  This is the only place objects
        change, so it clears the object memos when it returns or raises
        (a rejected move has already re-seated its object).
        """
        try:
            self._displace(event, config, spot_index)
        finally:
            self._centroid_cache = None
            self._carried_memo.clear()

    def _displace(self, event: DisplacementEvent, config: CrsgConfig, spot_index: int) -> None:
        if event.kind == "remove":
            if event.object_id not in self.scene.objects:
                raise DisplacementError(f"cannot remove unknown object {event.object_id!r}")
            del self.scene.objects[event.object_id]
            return

        if event.kind == "move":
            obj = self.object(event.object_id)
            carrier = self.object(event.target_carrier_id)
            extents = obj.box.extents
            xy = self._free_spot_on(carrier, extents, config,
                                    skip_id=obj.id, start_index=spot_index)
            zmin = float(carrier.box.max[2])
            new_min = np.array([xy[0] - extents[0] / 2.0, xy[1] - extents[1] / 2.0, zmin])
            new_max = new_min + extents
            # stored before the check: a rejected move still re-seats it
            obj = self.scene.objects[obj.id] = replace(
                obj, box=Box3(new_min, new_max), centroid=(new_min + new_max) / 2.0)
            if not carrying_predicate(carrier, obj, config):
                raise DisplacementError(
                    f"placement of {obj.id!r} on {carrier.id!r} violates the carrying predicate"
                )
            return

        # add
        payload = dict(event.new_object)
        oid = payload.get("id")
        if not oid:
            raise DisplacementError("add event payload needs an id")
        if oid in self.scene.objects:
            raise DisplacementError(f"add event id {oid!r} already exists")
        carrier_id = event.target_carrier_id or payload.get("carrier_id")
        if not carrier_id:
            raise DisplacementError("add event needs target_carrier_id")
        carrier = self.object(carrier_id)
        extents = np.asarray(payload.get("extents", [0.1, 0.1, 0.12]), dtype=np.float64)
        xy = self._free_spot_on(carrier, extents, config, start_index=spot_index)
        zmin = float(carrier.box.max[2])
        new_min = np.array([xy[0] - extents[0] / 2.0, xy[1] - extents[1] / 2.0, zmin])
        new_max = new_min + extents
        captions = payload.get("captions") or [oid]
        from .features import embed_text  # local import avoids cycle at module load

        joined = " ".join(captions)
        dim = self.scene.embedding_dim
        obj = ObjectInstance(
            id=oid,
            captions=tuple(captions),
            box=Box3(new_min, new_max),
            centroid=(new_min + new_max) / 2.0,
            text_feature=embed_text(joined, dim),
            visual_feature=embed_text(joined, dim),
        )
        self.scene.objects[oid] = obj


class DistanceField:
    """Read-only geodesic distances from one source cell over the free cells.

    A view: each read goes through the world's search memo, which extends
    the bounded search from the source only as far as the cell read.
    """

    def __init__(self, world: GridWorld, source: Cell):
        self._world = world
        self._source = source

    def to_point(self, point: Sequence[float]) -> float:
        return self.to_cell(self._world.snap_free_cell(point))

    def to_cell(self, cell: Cell) -> float:
        world = self._world
        if not world.is_free(cell):
            return math.inf
        index = world._free_graph()[1]
        return float(world._search(self._source, cell)[index[cell[1], cell[0]]])
