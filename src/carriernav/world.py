"""Deterministic 2-D grid world: sensing and displacement.

Objects are frozen values (``scene.ObjectInstance``), shared by the scene,
the world, the belief graph and every sighting.  The world owns one
read-only id -> object table, ``objects``, its ground truth (it never
changes the grid or rooms).  A displacement that succeeds replaces the
table with a new one holding the new instance, and one that raises
changes nothing, so ground-truth changes (displaced or removed objects)
never leak into the parsed scene, the belief graph a robot carries
around or an earlier sighting.

Planning is ``carriernav.planning``'s: a world reads its grid's geometry,
move table and paths from the planner of its grid, ``GridWorld.planner``.

Sensing is a radius + field-of-view model with optional wall occlusion.  A
leg senses at the center of every path cell, facing the step to the next
cell (the last cell keeps the last step's heading), and keeps the first
sighting of each object: the first cell that sees it, and the depth from
there.  One array pass over (path cells x objects) finds every first
sighting of a leg, and ``observe`` is that pass for a single pose; a leg
builds per-cell headings only under a field of view narrower than a full
circle, the one case that reads them.  An ``Observation`` is the sighted
object, as the world held it at that moment, plus its depth.

A move seats an object on the first clear spot of its carrier's top,
``spot_index`` spots into the top's scan, wrapping: the spots are a grid
over the top, nearest the carrier's centroid first, ties by x, then by y.

Each derived fact is computed once per change to its inputs.  The grid's
planner and the facts of the scene are kept by ``carriernav.facts``, which
says what is kept, how it is matched and when it is dropped.  The objects'
``(id, instance)`` items (the objects part of the keys of kept answers) and
their centroids are views of the table: ``_set_objects``, the one writer of
the table, sets the items with it and drops the centroids, which the next
sighting builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import facts
from .graph import CrsgConfig, assign_carried, carrying_predicate, geometric_carrier_filter
# the errors are re-exported: planning raises them, and callers import them from here
from .planning import STEP_ORDER, Cell, Planner, UnreachableGoalError, WorldError  # noqa: F401
from .scene import MAX_GRID_CELLS, Box3, ObjectInstance, SceneMap, _frozen, distance

# slot of the move (dx, dy) at index 3 * dx + dy (negative indices wrap), -1 for no move
_STEP_SLOT = np.full(9, -1)
_STEP_SLOT[[3 * dx + dy for dx, dy in STEP_ORDER]] = np.arange(len(STEP_ORDER))

_NOT_CELLS = "a path is a sequence of (ix, iy) integer cells"


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

    @property
    def narrow(self) -> bool:
        """Whether the field of view is narrower than a full circle, so
        that a pose's heading decides what it sees."""
        return self.fov < 2.0 * math.pi - 1e-9


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


@dataclass(frozen=True)
class DisplacementEvent:
    """Ground-truth scene change.

    ``move`` re-seats ``object_id`` on ``target_carrier_id``, at the first
    clear spot ``spot_index`` places along the carrier top's scan (nearest
    the carrier's centroid first, ties by x, then by y), wrapping, so
    seeded callers vary placements deterministically; ``remove`` deletes
    it.  ``spot_index`` is any ``int`` but a ``bool``, negative ones too.
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
        if not isinstance(self.spot_index, int) or isinstance(self.spot_index, bool):
            raise DisplacementError(f"spot_index must be an int, got {self.spot_index!r}")


@dataclass
class TravelLog:
    observations: Dict[str, Observation]  # first sighting per object id
    length: float


class GridWorld:
    """Simulator state: object ground truth and robot pose, on the planner
    of the scene's occupancy grid."""

    def __init__(self, scene: SceneMap, start_pose: Optional[Pose] = None):
        facts.keep_scene(scene)
        self._set_objects(dict(scene.objects))
        # occupancy painted from the bulk-checked cell array
        self.planner = Planner.of(scene.grid.occupancy(), scene.grid.resolution, scene.grid.origin)
        if start_pose is None:  # the first free cell, by (iy, ix)
            free = np.argwhere(~self.planner.occupancy)
            if free.size == 0:
                raise WorldError("grid has no free cells")
            start_pose = Pose(self.planner.cell_center((int(free[0][1]), int(free[0][0]))))
        self.robot = start_pose
        start_cell = self.planner.cell_of(self.robot.position)
        if self.planner.occupancy[start_cell[1], start_cell[0]]:
            raise WorldError(f"robot start cell {start_cell} is blocked")

    def _set_objects(self, objects: Dict[str, ObjectInstance]) -> None:
        """Make ``objects``, a dict no one else holds, the world's object
        table, read-only, with its ``(id, instance)`` items in order (the
        objects part of the keys of kept answers); the centroids are built
        on their next read."""
        self.objects: Mapping[str, ObjectInstance] = MappingProxyType(objects)
        self._items = tuple(objects.items())
        self._centroid_cache: Optional[tuple] = None

    # ----- planning: the grid's planner's, documented there --------------

    def snap_free_cell(self, point: Sequence[float]) -> Cell:
        return self.planner.snap_free_cell(point)

    def shortest_path(self, start: Sequence[float], goal: Sequence[float]) -> Tuple[List[Cell], float]:
        return self.planner.shortest_path(start, goal)

    def connected(self, a: Sequence[float], b: Sequence[float]) -> bool:
        return self.planner.connected(a, b)

    def distance_field(self, start: Sequence[float]) -> Callable[[Sequence[float]], float]:
        return self.planner.distance_field(start)

    # ----- sensing --------------------------------------------------------

    def _centroids(self):
        if self._centroid_cache is None:
            ids = sorted(self.objects)
            arr = np.array([self.objects[i].centroid[:2] for i in ids]) if ids else np.zeros((0, 2))
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
            if (x, y) != a and (x, y) != b and self.planner.occupancy[y, x]:
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
                                     [self.planner.cell_of(pose.position)], sensor)

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
        try:
            cells = tuple(map(tuple, path))
            hash(cells)  # the kept leg's key holds them
        except TypeError:  # a path or cell that is no sequence, or a cell that holds a list
            raise WorldError(_NOT_CELLS) from None
        if not cells:
            return TravelLog(observations={}, length=0.0)
        key = ("leg", self._items, self.planner.key, cells,
               self.robot.heading if len(cells) == 1 else None, sensor)
        seen, length, heading = facts.answer(key, self._leg, cells, sensor)
        self.robot = Pose(self.planner.cell_center(cells[-1]), heading)
        return TravelLog(observations={obs.object_id: obs for obs in seen}, length=length)

    def _leg(self, path: Tuple[Cell, ...], sensor: SensorConfig) -> Tuple[tuple, float, float]:
        """(first sightings, length, final heading) of a leg along ``path``
        from the robot's heading, after checking the path."""
        planner = self.planner
        try:
            cells = np.asarray(path)
            pairs = cells.ndim == 2 and cells.shape[1] == 2 and cells.dtype.kind in "iu"
        except ValueError:  # cells of unequal lengths
            pairs = False
        if not pairs:
            raise WorldError(_NOT_CELLS)
        cells = cells.astype(np.int64, copy=False)  # unsigned steps back would wrap
        # read as unsigned, a negative index lies beyond the grid too
        if (cells.view(np.uint64) >= (planner.width, planner.height)).any():
            raise WorldError("path leaves the grid")
        steps = cells[1:] - cells[:-1]
        self._check_moves(cells, steps)
        if len(steps):
            dx, dy = steps[-1].tolist()
            heading = math.atan2(dy, dx)
        else:
            heading = self.robot.heading
        headings = None
        if sensor.narrow:
            headings = [math.atan2(dy, dx) for dx, dy in steps.tolist()]
            headings.append(heading)
        # cell centers in the float operations of cell_center
        centers = planner.origin + (cells + 0.5) * planner.resolution
        seen = self._first_sightings(centers, headings, path, sensor)
        n_diag = int(np.count_nonzero(steps.all(axis=1)))
        return tuple(seen), planner.path_length(len(steps), n_diag), heading

    def _check_moves(self, cells: np.ndarray, steps: np.ndarray) -> None:
        """Raise :class:`WorldError` unless every cell of the (n, 2) on-grid
        int64 ``cells`` is free and each of its ``steps`` to the next cell is
        a move the move table allows.  The table allows moves between free
        cells only, so a path of allowed moves has only free cells."""
        # a step of more than one cell, or none, reads a slot it may not take
        slots = _STEP_SLOT.take(steps @ (3, 1), mode="wrap")
        allowed = ((np.abs(steps).max(axis=1) == 1)
                   & self.planner.moves[cells[:-1, 1], cells[:-1, 0], slots])
        if allowed.all() and (len(steps) or not self.planner.occupancy[cells[0, 1], cells[0, 0]]):
            return
        blocked = self.planner.occupancy[cells[:, 1], cells[:, 0]]
        if blocked.any():
            raise WorldError(f"path cell {cells[np.argmax(blocked)].tolist()} is blocked")
        k = int(np.argmin(allowed))
        raise WorldError(f"path step {cells[k].tolist()} -> {cells[k + 1].tolist()} "
                         f"is not an allowed move")

    def _first_sightings(self, positions: np.ndarray, headings: Optional[Sequence[float]],
                         cells: Sequence[Cell], sensor: SensorConfig) -> List[Observation]:
        """The first sighting of each object from a sequence of poses, in the
        order (pose, id): the one rule of what a pose sees.

        ``positions`` (m, 2), ``headings`` and ``cells`` describe the poses;
        the headings are read only under a narrow field of view (they may be
        None otherwise).
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
        # one subtraction per axis: broadcasting the (objects, 2) layout
        # itself would run one two-element loop per (pose, object)
        deltas = np.empty((len(positions), len(ids), 2))
        for k in range(2):
            np.subtract(centroids[:, k], positions[:, k, None], out=deltas[..., k])
        dists = np.hypot(deltas[..., 0], deltas[..., 1])
        in_view = dists <= sensor.radius
        if sensor.narrow:
            angles = np.arctan2(deltas[..., 1], deltas[..., 0])
            heading = np.asarray(headings, dtype=np.float64)[:, None]
            diff = np.abs((angles - heading + math.pi) % (2.0 * math.pi) - math.pi)
            in_view &= (diff <= sensor.fov / 2.0 + 1e-12) | (dists < 1e-12)
        cols = np.flatnonzero(in_view.any(axis=0)).tolist()
        objects = self.objects
        if sensor.occlusion:
            firsts = []
            for j in cols:
                try:
                    target = self.planner.cell_of(objects[ids[j]].centroid[:2])
                except WorldError:
                    continue
                for i in np.flatnonzero(in_view[:, j]).tolist():
                    if self._ray_clear(tuple(cells[i]), target):
                        firsts.append((i, j))
                        break
        else:
            first = in_view.argmax(axis=0).tolist()
            firsts = [(first[j], j) for j in cols]
        return [Observation(objects[ids[j]], float(dists[i, j])) for i, j in sorted(firsts)]

    # ----- ground truth ---------------------------------------------------

    def object(self, object_id: str) -> ObjectInstance:
        try:
            return self.objects[object_id]
        except KeyError:
            raise WorldError(f"unknown object {object_id!r}") from None

    def ground_truth_carried(self, carrier_id: str, config: CrsgConfig) -> List[str]:
        """Ids currently resting on ``carrier_id`` per the carrying predicate.

        Exclusive like graph construction: an object counts for its nearest
        satisfying base only, and only furniture-scale ground-contact boxes
        qualify as bases, so stacked items never capture each other.  One
        whole relation per (objects, ``config``) is kept with the scene's
        facts.
        """
        self.object(carrier_id)
        relation = facts.answer(("carried", self._items, config),
                                self._carried_relation, config)
        return list(relation.get(carrier_id, ()))

    def _carried_relation(self, config: CrsgConfig) -> Dict[str, List[str]]:
        """Base id -> sorted ids of the objects whose nearest carrier it is:
        ``graph.assign_carried`` over the bases and the objects in id order,
        bases that hold nothing left out."""
        objects = self.objects
        bases = geometric_carrier_filter(list(objects.values()), config)
        carried, _ = assign_carried(bases, [objects[oid] for oid in sorted(objects)], config)
        return {cid: [obj.id for obj in held] for cid, held in carried.items() if held}

    def carried_observations(self, carrier_id: str, config: CrsgConfig) -> List[Observation]:
        """Full view of a carrier's current occupants, granted at its side:
        each seen at its distance from the robot's pose."""
        out = []
        for oid in self.ground_truth_carried(carrier_id, config):
            obj = self.objects[oid]
            depth = distance(obj.centroid[:2] - self.robot.position)
            out.append(Observation(obj, depth))
        return out

    # ----- displacement ---------------------------------------------------

    def _free_spot_on(self, carrier: ObjectInstance, extents: np.ndarray,
                      config: CrsgConfig, skip_id: str, start_index: int) -> np.ndarray:
        """The first spot of the carrier top's scan, ``start_index`` spots in
        (wrapping), whose box keeps a 2 cm margin from every occupant but
        ``skip_id``.  The spots are a grid over the top, clear of its edges
        by the margin; the scan takes them nearest the carrier's centroid
        first, ties by x, then by y."""
        margin = 0.02
        # the scan's bounds and size in Python floats, before any array: a
        # far top's bounds may overflow, and a wide one holds too many spots
        hx, hy = (extents[:2] / 2.0).tolist()
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
        xs = np.arange(lo[0], hi[0] + 1e-9, step)
        ys = np.arange(lo[1], hi[1] + 1e-9, step)
        cx, cy = carrier.centroid[:2].tolist()
        # both ranges increase, so a stable sort of the (x, y)-major distances
        # breaks their ties by x, then by y
        order = np.argsort(np.hypot((xs - cx)[:, None], (ys - cy)[None, :]).ravel(),
                           kind="stable")
        xs, ys, n_y = xs.tolist(), ys.tolist(), len(ys)
        boxes = [self.objects[oid].box for oid in self.ground_truth_carried(carrier.id, config)
                 if oid != skip_id]
        # each occupant's bounds, widened by the margin
        occupants = [(b.lo[0] - margin, b.hi[0] + margin, b.lo[1] - margin, b.hi[1] + margin)
                     for b in boxes]
        n = len(order)
        for k in range(n):
            ix, iy = divmod(order.item((start_index + k) % n), n_y)
            x, y = round(xs[ix], 6), round(ys[iy], 6)
            if not any(x - hx < x1 and x + hx > x0 and y - hy < y1 and y + hy > y0
                       for x0, x1, y0, y1 in occupants):
                return np.array([x, y])
        raise DisplacementError(f"no free spot on carrier {carrier.id!r}")

    def apply_displacement(self, event: DisplacementEvent, config: CrsgConfig) -> None:
        """Change ground truth per the event; belief graphs are untouched.

        The only place objects change: an event that succeeds sets a new
        object table, and one that raises (an unknown object or carrier,
        no free spot, a placement the carrying predicate rejects) leaves
        the world as it was.
        """
        objects = dict(self.objects)
        if event.kind == "remove":
            if event.object_id not in objects:
                raise DisplacementError(f"cannot remove unknown object {event.object_id!r}")
            del objects[event.object_id]
        else:
            # a move is a pure function of the world's objects and the event
            key = ("move", self._items, event.object_id, event.target_carrier_id,
                   event.spot_index, config)
            objects[event.object_id] = facts.answer(key, self._moved, event, config)
        self._set_objects(objects)

    def _moved(self, event: DisplacementEvent, config: CrsgConfig) -> ObjectInstance:
        """The moved object, re-seated on a free spot of the target carrier's
        top; a placement the carrying predicate rejects raises."""
        obj = self.object(event.object_id)
        carrier = self.object(event.target_carrier_id)
        extents = obj.box.extents
        xy = self._free_spot_on(carrier, extents, config, obj.id, event.spot_index)
        new_min = np.array([xy[0] - extents[0] / 2.0, xy[1] - extents[1] / 2.0, carrier.box.hi[2]])
        box = Box3(new_min, new_min + extents)
        obj = replace(obj, box=box, centroid=box.center)
        if not carrying_predicate(carrier, obj, config):
            raise DisplacementError(
                f"placement of {obj.id!r} on {carrier.id!r} violates the carrying predicate"
            )
        return obj
