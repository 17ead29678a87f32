"""Deterministic 2-D grid world: planning, sensing, displacement.

Objects are frozen values (``scene.ObjectInstance``), shared by the scene,
the world, the belief graph and every sighting.  The world owns one
read-only id -> object table, ``objects``, its ground truth (it never
changes the grid or rooms).  A displacement that succeeds replaces the
table with a new one holding the new instance, and one that raises
changes nothing, so ground-truth changes (displaced or removed objects)
never leak into the parsed scene, the belief graph a robot carries
around or an earlier sighting.

Planning reads paths over the free cells, 8-connected, with unit/diagonal
step costs: the path from a source cell to a goal cell is the one the
``STEP_ORDER`` walk-back takes over a Dijkstra search from the source.  One
per-grid table of allowed moves holds the movement rule; every graph is
sliced from it, and ``travel`` refuses any move it does not allow.  Most
reads need no search: the generated houses are open rooms, and a sweep of
the cells between the two ends finds, exactly, when the geodesic equals the
obstacle-free octile distance, and then the same path.  Only the reads it
refuses search around the obstacles, and only over the cells a path within
the search's limit between the two ends can visit, the octile ellipse of
the limit, in a graph of the box that holds it (a small grid searches its
whole graph, ``WHOLE_GRAPH_CELLS``): each search stops at a limit, and a
read it does not answer searches again with a larger one.  A
distance read is the length of the path ``shortest_path`` gives, the
length ``travel`` walks along it, so no raw search float leaves the
world.  Each source cell keeps its latest search and the paths walked
from it, so paths and distances from a source already read (a carrier the
robot returns to) reuse them, and a leg whose ends share a cell searches
nothing.  Reachability alone reads the connected components of the whole
grid's graph.

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
centroids are views of the table: ``_set_objects``, the one writer of the
table, sets the items with it and drops the centroids, which the next
sighting builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from . import facts
from .graph import CrsgConfig, assign_carried, carrying_predicate, geometric_carrier_filter
from .scene import MAX_GRID_CELLS, Box3, ObjectInstance, SceneMap, _frozen, distance

SQRT2 = math.sqrt(2.0)

Cell = Tuple[int, int]
# (x0, y0, x1, y1): the cells x0 <= ix < x1, y0 <= iy < y1
Box = Tuple[int, int, int, int]

# Path walk-back tie-break order: axis steps first, then diagonals.
STEP_ORDER: Tuple[Cell, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1),
                                (1, 1), (1, -1), (-1, 1), (-1, -1))
# Step length in cells per STEP_ORDER slot.
STEP_CELLS: Tuple[float, ...] = tuple(SQRT2 if dx != 0 and dy != 0 else 1.0
                                      for dx, dy in STEP_ORDER)
# A grid of fewer cells than this searches its whole graph, built once and
# kept, to each read's limit; a larger grid builds a graph for each read's
# box.  Each box graph costs about 35 us to build, as much as a Dijkstra
# call's own overhead.  Planning time per grid size on generated houses,
# every search over box graphs against every search over the whole graph:
# the whole graph was 13-21% faster at 2,016 cells, the two were even at
# 2,880 and 3,150 cells, and box graphs were 8-15% faster at 3,840 cells
# and more.
WHOLE_GRAPH_CELLS = 3000
# On a grid of WHOLE_GRAPH_CELLS cells or more, a read at least 8 times this
# many cells long first searches to its octile distance plus this many
# cells.  Planning time per warm fine-0.05m pass (seeds 1-4) was even, within
# the host's noise, from 2 to 16 cells, and about 30% lower than with no
# first try; 8 is the middle of that range.
SLACK_CELLS = 8
_STEP_DX = np.array([dx for dx, _ in STEP_ORDER], dtype=np.int32)
_STEP_DY = np.array([dy for _, dy in STEP_ORDER], dtype=np.int32)
# (axis, sign) -> the STEP_ORDER slots that step that way along that axis
_LEAVING = {(axis, sign): np.array([k for k, step in enumerate(STEP_ORDER) if step[axis] == sign])
            for axis in (0, 1) for sign in (-1, 1)}
# slot of the move (dx, dy) at index 3 * dx + dy (negative indices wrap), -1 for no move
_STEP_SLOT = np.full(9, -1)
_STEP_SLOT[[3 * dx + dy for dx, dy in STEP_ORDER]] = np.arange(len(STEP_ORDER))


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


@dataclass(frozen=True)
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
        self._set_objects(dict(scene.objects))
        grid = scene.grid
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

    def _set_objects(self, objects: Dict[str, ObjectInstance]) -> None:
        """Make ``objects``, a dict no one else holds, the world's object
        table, read-only, with its ``(id, instance)`` items in order (the
        objects part of the keys of kept answers); the centroids are built
        on their next read."""
        self.objects: Mapping[str, ObjectInstance] = MappingProxyType(objects)
        self._items = tuple(objects.items())
        self._centroid_cache: Optional[tuple] = None

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
        search.  Otherwise the path is :meth:`_walk`'s, kept with the grid's
        facts; each read gets a new list.  An unreachable goal raises on
        every read.
        """
        start_cell = self.snap_free_cell(start)
        goal_cell = self.snap_free_cell(goal)
        if start_cell == goal_cell:
            return [start_cell], 0.0
        path, length = self._walk(start_cell, goal_cell)
        return list(path), length

    def _walk(self, source: Cell, goal: Cell) -> Tuple[tuple, float]:
        """(path cells, length) from ``source`` to another cell ``goal``:
        the path :meth:`_walk_back` walks over a search from ``source``.

        The path is kept in ``source``'s entry of the grid's searches, which
        this read makes the most recently read.  A goal not kept yet is
        swept first (:meth:`_certified_walk`), which answers with no search
        when the geodesic equals the octile distance; a goal it refuses is
        searched and walked back at once, so no pair is swept twice while
        its source is kept.  An unbounded search has refused, or reached,
        every goal already, so none is swept on it.  An unreachable goal
        raises and is not kept.
        """
        search = self._grid.searches.get(source) or (0.0, None, None, {})
        self._grid.keep_search(source, search)
        limit, _, _, paths = search
        kept = paths.get(goal)
        if kept is None:
            if not math.isinf(limit):
                kept = self._certified_walk(source, goal)
            if kept is None:
                kept = self._walk_back(*self._search(source, goal), source, goal)
            paths[goal] = kept
        return kept

    def _certified_walk(self, source: Cell, goal: Cell) -> Optional[Tuple[tuple, float]]:
        """(path cells, length) from ``source`` to another cell ``goal`` when
        the geodesic between them equals their octile distance, found with
        no search; else None.

        The sweep runs along the major axis u of ``goal - source`` (x on a
        tie), one line of the other axis v at a time, each a Python-int
        bitmask of the cells between the ends' v.  A cell is marked when it
        is free and one of its octile predecessors is marked with the move
        allowed: the u step back, or the diagonal step back with both
        corner cells free.  No geodesic is shorter than the octile
        distance, so a cell's geodesic equals its octile distance exactly
        when it is marked, and the neighbours that :meth:`_walk_back` may
        step to from a marked cell are its marked predecessors (any other
        neighbour's distance misses by a gap between lengths a + b * sqrt(2)
        far above the walk-back's tolerance).  So when the goal is marked,
        the walk back takes the u step when that cell is marked and the
        diagonal otherwise: the ``STEP_ORDER`` rule, whose axis slots come
        before its diagonal ones.  Its length is :meth:`_path_length` of the
        step counts, as for a walk over a search.
        """
        (sx, sy), (gx, gy) = source, goal
        by_column = abs(gx - sx) >= abs(gy - sy)
        lines = self._free_lines()[0 if by_column else 1]
        (su, sv), (gu, gv) = (source, goal) if by_column else ((sy, sx), (gy, gx))
        du, dv = (1 if gu > su else -1), (1 if gv > sv else -1)
        lo, hi = min(sv, gv), max(sv, gv)
        window = ((2 << (hi - lo)) - 1) << lo
        marks = [1 << sv]
        last = lines[su]
        for u in range(su + du, gu + du, du):
            free = lines[u] & window
            # the u step, and the diagonal from the cell whose corner in line u is free
            ahead = marks[-1] & free
            marked = ahead | ((ahead << 1 if dv > 0 else ahead >> 1) & last & free)
            if not marked:
                return None
            marks.append(marked)
            last = free
        if not marks[-1] >> gv & 1:
            return None
        v, vs = gv, [gv]
        for marked in reversed(marks[:-1]):
            if not marked >> v & 1:
                v -= dv
            vs.append(v)
        us = range(gu, su - du, -du)
        path = tuple(zip(us, vs) if by_column else zip(vs, us))[::-1]
        return path, self._path_length(len(path) - 1, hi - lo)

    def _walk_back(self, box: Box, dist: np.ndarray, start_cell: Cell,
                   goal_cell: Cell) -> Tuple[tuple, float]:
        """(path cells, length) from ``start_cell`` to ``goal_cell`` over the
        distance field ``dist`` of a search from ``start_cell`` over ``box``.

        From the goal, each step goes to the first neighbour in
        ``STEP_ORDER`` that the move table allows, that lies in the box and
        whose distance plus the step cost equals the current cell's distance
        (within 1e-9 * resolution).  Length is :meth:`_path_length` of the
        step counts, as for a walked leg, so it is exactly symmetric.  The
        search only has to keep the goal's exact distance with every path
        of that length among the cells it searched (:meth:`_search`): every
        cell of the walk lies on such a path, and a cell of the box off
        every shortest path reads no nearer than its true distance, or inf,
        so the walk makes the matches a walk over the whole grid's search
        makes.
        """
        x0, y0, x1, y1 = box
        gx, gy = goal_cell
        bw = x1 - x0
        i = (gy - y0) * bw + gx - x0
        if not (x0 <= gx < x1 and y0 <= gy < y1) or math.isinf(dist[i]):
            raise UnreachableGoalError(f"no path from {start_cell} to {goal_cell}")
        # memoryviews read items as Python numbers, much faster than arrays
        dist, moves = memoryview(dist), memoryview(self._moves().reshape(-1))
        slots = [(k, dx, dy, dy * bw + dx, c * self.resolution)
                 for k, ((dx, dy), c) in enumerate(zip(STEP_ORDER, STEP_CELLS))]
        width, n_slots = self.width, len(STEP_ORDER)
        tol = 1e-9 * self.resolution
        x, y = goal_cell
        walk = [goal_cell]
        n_diag = 0
        while (x, y) != start_cell:
            here = dist[i]
            row = (y * width + x) * n_slots
            inner = x0 < x < x1 - 1 and y0 < y < y1 - 1
            for k, dx, dy, offset, step in slots:
                if (moves[row + k] and (inner or (x0 <= x + dx < x1 and y0 <= y + dy < y1))
                        and abs(dist[i + offset] + step - here) <= tol):
                    x, y, i = x + dx, y + dy, i + offset
                    walk.append((x, y))
                    if dx and dy:
                        n_diag += 1
                    break
            else:
                raise WorldError(f"distance field has no predecessor for {(x, y)}")
        path = tuple(reversed(walk))
        return path, self._path_length(len(path) - 1, n_diag)

    def _path_length(self, n_steps: int, n_diag: int) -> float:
        """Length (m) of ``n_steps`` steps, ``n_diag`` of them diagonal."""
        return (n_steps - n_diag + n_diag * SQRT2) * self.resolution

    def _moves(self) -> np.ndarray:
        """Read-only (height, width, 8) table: ``[iy, ix, k]`` is whether the
        cell may take the ``STEP_ORDER[k]`` move.  A move goes from a free
        cell to a free cell of the grid, and a diagonal one needs both
        orthogonal cells free (no corner cutting).  This is the one place
        the movement rule lives.  Built once per grid."""
        grid = self._grid
        if grid.moves is None:
            free = ~self.occupancy
            h, w = free.shape
            # a one-cell blocked border makes every neighbour a slice view
            pad = np.pad(free, 1)

            def shifted(dx: int, dy: int) -> np.ndarray:
                return pad[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]

            moves = np.empty((h, w, len(STEP_ORDER)), dtype=bool)
            for k, (dx, dy) in enumerate(STEP_ORDER):
                allowed = free & shifted(dx, dy)
                if dx != 0 and dy != 0:
                    allowed &= shifted(dx, 0) & shifted(0, dy)
                moves[:, :, k] = allowed
            moves.flags.writeable = False
            grid.moves = moves
        return grid.moves

    def _box_graph(self, box: Box, keep: Optional[np.ndarray] = None) -> csr_matrix:
        """Graph over the cells of ``box``: node ``(iy - y0) * (x1 - x0) + ix
        - x0`` for cell (ix, iy).  Every row has one slot per ``STEP_ORDER``
        move, in that order, weighted by the step length: the neighbour
        where the move table allows the move and it stays in the box, else
        the row's own node, a self-loop that no search can relax.  A
        blocked cell's row is all self-loops, and so is the row of a cell
        outside ``keep``, a (box height, box width) bool array when given:
        a search may reach that cell but leaves it by no move.  The step
        weights and row pointers are built per call, sized to the box."""
        x0, y0, x1, y1 = box
        bw, bh = x1 - x0, y1 - y0
        n = bw * bh
        nbrs = self._moves()[y0:y1, x0:x1] * (_STEP_DY * bw + _STEP_DX)
        # moves that leave the box through a side inside the grid are cut
        if y0 > 0:
            nbrs[0, :, _LEAVING[1, -1]] = 0
        if y1 < self.height:
            nbrs[-1, :, _LEAVING[1, 1]] = 0
        if x0 > 0:
            nbrs[:, 0, _LEAVING[0, -1]] = 0
        if x1 < self.width:
            nbrs[:, -1, _LEAVING[0, 1]] = 0
        if keep is not None:
            nbrs *= keep[:, :, None]
        nbrs += np.arange(n, dtype=np.int32).reshape(bh, bw, 1)
        steps = np.tile(np.array(STEP_CELLS) * self.resolution, n)
        indptr = np.arange(0, len(STEP_ORDER) * n + 1, len(STEP_ORDER), dtype=np.int32)
        return csr_matrix((steps, nbrs.reshape(-1), indptr), shape=(n, n))

    def _graph(self) -> csr_matrix:
        """The box graph of the whole grid, node ``iy * width + ix``, that a
        search over the whole grid reads.  Built once per grid, on its first
        read.  It has a row for every cell, blocked ones included: 8 int32
        neighbours and 8 float64 step weights each, about 100
        bytes per cell, so 400 MB on a grid of ``MAX_GRID_CELLS`` however
        few of its cells are free."""
        grid = self._grid
        if grid.graph is None:
            grid.graph = self._box_graph((0, 0, self.width, self.height))
        return grid.graph

    def _free_lines(self) -> Tuple[List[int], List[int]]:
        """(per column, the bits iy of its free cells; per row, the bits ix
        of its free cells), as Python ints.  Built once per grid."""
        grid = self._grid
        if grid.lines is None:
            free = ~self.occupancy
            columns = np.packbits(free, axis=0, bitorder="little").T.copy()
            rows = np.packbits(free, axis=1, bitorder="little")
            grid.lines = tuple([int.from_bytes(line.tobytes(), "little") for line in bits]
                               for bits in (columns, rows))
        return grid.lines

    def connected(self, a: Sequence[float], b: Sequence[float]) -> bool:
        """Whether a free-cell path joins the free cells nearest ``a`` and
        ``b``: one connected-component label lookup, no search.  The labels
        are computed once per grid, on the whole grid's box graph: the kept
        one (:meth:`_graph`) on a grid of fewer than ``WHOLE_GRAPH_CELLS``
        cells, whose searches all read it, or when a search built it; else
        one built for the labels alone and not kept, since a larger grid
        asked only about reachability (a generated house being checked) may
        never read it.  That graph costs about 100 bytes per cell while the
        labels are computed; the labels keep 4 bytes per cell.  The
        transient graph sets the set-up's peak memory on a large grid, but
        labels computed without it (from runs of free cells per row) made
        the later warm passes slower: freeing so large a block likely raises
        glibc's mmap and trim thresholds, so the passes after it take no
        minor page faults (ROADMAP "Settled")."""
        grid = self._grid
        if grid.labels is None:
            if self.width * self.height < WHOLE_GRAPH_CELLS or grid.graph is not None:
                graph = self._graph()
            else:
                graph = self._box_graph((0, 0, self.width, self.height))
            # the graph is symmetric, so its strong components are its
            # components, found without the transpose a weak search builds
            grid.labels = connected_components(graph, directed=True, connection="strong")[1]
        labels = grid.labels
        (ax, ay), (bx, by) = self.snap_free_cell(a), self.snap_free_cell(b)
        return bool(labels[ay * self.width + ax] == labels[by * self.width + bx])

    def _octile(self, a: Cell, b: Cell) -> float:
        """Obstacle-free 8-connected distance (m): a lower bound on the geodesic."""
        dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
        return self._path_length(max(dx, dy), min(dx, dy))

    def _octiles(self, cell: Cell, box: Box) -> np.ndarray:
        """(box height, box width) octile distances, in cells, from ``cell``
        to the cells of ``box``: |dx| + |dy| - (2 - sqrt(2)) * min(|dx|, |dy|)."""
        x0, y0, x1, y1 = box
        ax = np.abs(np.arange(x0 - cell[0], x1 - cell[0]))
        ay = np.abs(np.arange(y0 - cell[1], y1 - cell[1]))[:, None]
        near = np.minimum(ax, ay) * (SQRT2 - 2.0)
        near += ax + ay
        return near

    def _box(self, source: Cell, goal: Cell, limit: float) -> Box:
        """(x0, y0, x1, y1), ends exclusive, clipped to the grid: the box that
        holds every cell of every path of length at most ``limit`` (m)
        between ``source`` and ``goal``.

        A cell (x, y) on such a path lies within ``limit`` of both ends
        together, and the octile distance is at least the Chebyshev one and
        at least (|dx| + |dy|) / sqrt(2).  So, in cells, |x - sx| + |x - gx|
        <= min(L, sqrt(2) * L - |sy - gy|), and the same with x and y
        swapped.  A margin of 1e-9 cells keeps float rounding from cutting
        a cell on the bound.
        """
        reach = limit / self.resolution + 1e-9
        (sx, sy), (gx, gy) = source, goal
        span_x, span_y = abs(gx - sx), abs(gy - sy)
        ex = math.floor((min(reach, SQRT2 * reach - span_y) - span_x) / 2)
        ey = math.floor((min(reach, SQRT2 * reach - span_x) - span_y) / 2)
        return (max(min(sx, gx) - ex, 0), max(min(sy, gy) - ey, 0),
                min(max(sx, gx) + ex + 1, self.width), min(max(sy, gy) + ey + 1, self.height))

    def _answers(self, search: tuple, goal: Cell) -> bool:
        """Whether ``search``, ``(limit, box, dist, paths)``, gives ``goal``
        its exact distance with every shortest path among the cells it
        searched, or shows it unreachable: the goal lies in its box at a
        distance it kept (:meth:`_search` keeps only such distances).  An
        unbounded search answers every goal.
        """
        limit, box, dist, _ = search
        if box is None:
            return False
        if math.isinf(limit):
            return True
        x0, y0, x1, y1 = box
        gx, gy = goal
        return (x0 <= gx < x1 and y0 <= gy < y1
                and not math.isinf(dist[(gy - y0) * (x1 - x0) + gx - x0]))

    def _search(self, source: Cell, goal: Cell) -> Tuple[Box, np.ndarray]:
        """(box, distance per cell of the box from ``source``) of a search
        that answers ``goal`` (:meth:`_answers`): exact at the goal when it
        is reachable, inf over the whole grid when it is not.
        :meth:`_walk` asks only for the goals the octile sweep refuses, and
        only :meth:`_answers` and :meth:`_walk_back` read the distances.

        Searches are bounded by a limit L, and one written rule picks the
        graph.  A grid of fewer than ``WHOLE_GRAPH_CELLS`` cells searches
        its whole graph (:meth:`_graph`), kept with the grid, to L: every
        cell within L gets its distance.  On a small grid a box graph costs
        more to build than the cells it leaves out save, and a search of the
        whole graph answers later goals in every direction.  A larger grid
        searches the octile ellipse of L, the cells x with octile(source, x)
        + octile(x, goal) <= L, in a graph of the box that holds it
        (:meth:`_box`, :meth:`_box_graph`); the octile distance is a lower
        bound on the geodesic, so every path of length at most L between
        the two ends lies in the ellipse.  Of that search's distances it
        keeps d(x) only where d(x) + octile(x, goal) <= L, inf elsewhere:
        then every shortest path to x, and to each cell on it, lies in the
        ellipse, so every kept distance is exact, and a walk back from x
        makes the matches a walk over the whole grid's search makes.  A
        box that is the whole grid searches the whole graph.

        L is 1.25 * octile(source, goal) plus a 1e-9 relative margin,
        doubled until the search answers.  The octile distance is a lower
        bound, and 1.25 of it settled the fewest cells of the factors tried
        on the generated houses (1.1, 1.25, 1.5 and 2).  On a larger grid,
        a read of at least 8 * ``SLACK_CELLS`` cells first searches to its
        octile distance plus ``SLACK_CELLS`` cells: an ellipse's width
        grows with the square root of its slack, so that first ellipse is
        a fraction of the one at 1.25 * octile, and it answers the long
        reads that detour round an obstacle by a few cells.  On a small
        grid a source's limits grow at least twofold: an L under twice the
        kept search's limit is raised to twice it, since the kept search
        answers every goal a smaller L would.  Once L reaches the octile
        distance to the grid's farthest corner, the search is unbounded,
        over the whole grid, so only an inf under an unbounded search means
        "unreachable".

        The grid's facts keep ``(limit, box, dist, paths)`` of each source
        cell's latest search, ``(0.0, None, None, paths)`` before its
        first, for the latest ``facts.SEARCHES_PER_GRID`` sources read; a
        read from a dropped source searches anew, and its kept paths went
        with it.  A read the kept search does not answer searches again
        from ``source``.  No world changes its grid, so no search goes
        stale.  A search that another world on the same grid made toward
        another goal reads the same path: the walk-back's matches do not
        depend on the cells searched.
        """
        search = self._grid.searches.get(source) or (0.0, None, None, {})
        if not self._answers(search, goal):
            kept_limit, _, _, paths = search
            whole = (0, 0, self.width, self.height)
            farthest_corner = (0 if 2 * source[0] >= self.width else self.width - 1,
                               0 if 2 * source[1] >= self.height else self.height - 1)
            octile = self._octile(source, goal)
            small = self.width * self.height < WHOLE_GRAPH_CELLS
            first = 1.25 * octile * (1.0 + 1e-9)
            slack = SLACK_CELLS * self.resolution
            if small:
                limit = max(first, 2.0 * kept_limit)
            else:
                limit = first if 8.0 * slack > octile else (octile + slack) * (1.0 + 1e-9)
            while True:
                if limit >= self._octile(source, farthest_corner):
                    limit, box = math.inf, whole
                else:
                    box = whole if small else self._box(source, goal, limit)
                x0, y0, x1, _ = box
                if box == whole:
                    graph = self._graph()
                else:
                    # in cells; a margin of 2e-9 cells keeps every cell a
                    # kept distance vouches for, whatever the float rounding
                    reach = limit / self.resolution
                    to_goal = self._octiles(goal, box)
                    graph = self._box_graph(box, self._octiles(source, box) + to_goal
                                            <= reach + 2e-9)
                dist = dijkstra(graph, directed=True, limit=limit,
                                indices=(source[1] - y0) * (x1 - x0) + source[0] - x0)
                if box != whole:
                    dist[dist / self.resolution + to_goal.reshape(-1) > reach + 1e-9] = math.inf
                search = (limit, box, dist, paths)
                if self._answers(search, goal):
                    break
                limit = 2.0 * limit if limit >= first else first
        self._grid.keep_search(source, search)
        return search[1], search[2]

    def distance_field(self, start: Sequence[float]) -> Callable[[Sequence[float]], float]:
        """Point -> length (m) of the path :meth:`shortest_path` gives from
        the free cell nearest ``start`` to the free cell nearest the point,
        inf when it is unreachable: the length ``travel`` walks along it."""
        source = self.snap_free_cell(start)

        def distance(point: Sequence[float]) -> float:
            goal = self.snap_free_cell(point)
            if goal == source:  # no search, as for a zero-length shortest_path leg
                return 0.0
            try:
                return self._walk(source, goal)[1]
            except UnreachableGoalError:
                return math.inf

        return distance

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
        key = ("leg", self._items, self._grid.key, cells,
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
        return tuple(seen), self._path_length(len(steps), n_diag), headings[-1]

    def _check_moves(self, cells: np.ndarray) -> None:
        """Raise :class:`WorldError` unless every cell of the (n, 2) on-grid
        ``cells`` is free and each step to the next is a move the move
        table allows.  The table allows moves between free cells only, so
        a path of allowed moves has only free cells."""
        cells = cells.astype(np.int64, copy=False)  # unsigned steps back would wrap
        steps = np.diff(cells, axis=0)
        # a step of more than one cell, or none, reads a slot it may not take
        slots = _STEP_SLOT.take(steps @ (3, 1), mode="wrap")
        allowed = ((np.abs(steps).max(axis=1) == 1)
                   & self._moves()[cells[:-1, 1], cells[:-1, 0], slots])
        if allowed.all() and (len(steps) or not self.occupancy[cells[0, 1], cells[0, 0]]):
            return
        blocked = self.occupancy[cells[:, 1], cells[:, 0]]
        if blocked.any():
            raise WorldError(f"path cell {cells[np.argmax(blocked)].tolist()} is blocked")
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
        objects = self.objects
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

    def carried_observations(self, carrier_id: str, pose: Pose, config: CrsgConfig) -> List[Observation]:
        """Full view of a carrier's current occupants, granted at its side."""
        out = []
        for oid in self.ground_truth_carried(carrier_id, config):
            obj = self.objects[oid]
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
        occupants = [self.objects[oid] for oid in self.ground_truth_carried(carrier.id, config)
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
