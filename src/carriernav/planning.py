"""Planning on one occupancy grid: snaps, paths, distance reads, reachability.

Paths run over the free cells, 8-connected, with unit/diagonal step costs:
a path is the one the ``STEP_ORDER`` walk-back takes over a Dijkstra search
from its source, and one table of allowed moves holds the movement rule.
Most reads need no search: in the generated open rooms a sweep of the
cells between the two ends mostly finds the geodesic equal to the octile
distance, and then the same path.  Only the reads it refuses search, each
in a graph of the free cells of the octile ellipse of its limit (or, on a
small grid, of all the grid's free cells), and a distance read is the
length of the path, as ``GridWorld.travel`` walks it.  Reachability reads
component labels of the free cells, found from their runs with no graph of
the grid.  No search is unbounded: a read to a goal in another component
is refused by the labels, and a reachable goal is answered at a finite
limit.

A :class:`Planner` holds the facts of its grid, which no world changes,
each computed on its first read: the move table, the whole grid's graph
(only on a grid small enough that every search reads it), the component
labels, the free cells per line, the snap of every point asked for, and
each source's latest search with the paths read from it, by the sweep or
walked back over a search.  Every world built on an equal grid (same
resolution, origin and occupancy, compared by content) shares one planner
(:meth:`Planner.of`; ``carriernav.facts`` keeps the last grid's only), so
the worlds a task sequence builds in one house, one per variant, build one
move table and search each source once per box.  A planner keeps the
searches of the latest ``SEARCHES_PER_GRID`` sources read, a source with
paths but no search yet among them, and a path goes with its source's
search.  Sharing cannot change a result: a snap and a component label are
pure functions of the grid, a search is read for a goal only at a distance
it kept, and it keeps one only where every shortest path to the cell lies
among the cells it searched, the walk-back's matches do not depend on the
cells searched, and the sweep gives the walk-back's path, so a kept path is
the one any later search would give.  An unreachable goal is not kept.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from . import facts
from .scene import distance

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
# ellipse.  A graph of a generated 0.25 m house's ellipse costs about 50 us
# to build, more than a Dijkstra call's own overhead of about 30 us.
# Planning time per grid size on generated houses, every search over a
# graph of its box's cells against every search over the whole graph: the
# whole graph was 13-21% faster at 2,016 cells, the two were even at 2,880
# and 3,150 cells, and box graphs were 8-15% faster at 3,840 cells and
# more.  Ellipse graphs on every grid still lost at 0.25 m.
WHOLE_GRAPH_CELLS = 3000
# On a grid of WHOLE_GRAPH_CELLS cells or more, a read at least 8 times this
# many cells long first searches to its octile distance plus this many
# cells.  Planning time per warm fine-0.05m pass (seeds 1-4) was even, within
# the host's noise, from 2 to 16 cells, and about 30% lower than with no
# first try; 8 is the middle of that range.
SLACK_CELLS = 8
# Sources whose searches and paths one grid keeps, the least recently read
# dropped first: a long run of scenarios in one house adds sources, and a
# field costs 8 bytes per cell of its box.  The generated task sequences
# read at most 11 per grid (seeds 1, 2, 3 and 7, 8 scenarios per mode at
# 0.25 m and 0.05 m, all six variants, re-counted with box searches), a
# source read only by the sweep included, so none of theirs is dropped.
SEARCHES_PER_GRID = 16


class WorldError(ValueError):
    pass


class UnreachableGoalError(WorldError):
    """No free-cell path exists between the requested endpoints."""


class Planner:
    """The planner of one occupancy grid and the facts it keeps, shared by
    every world built on an equal grid."""

    def __init__(self, occupancy: np.ndarray, resolution: float, origin: np.ndarray, key: tuple):
        occupancy.flags.writeable = False  # every world on an equal grid reads it
        self.occupancy = occupancy
        self.resolution = resolution
        self.origin = origin
        self.height, self.width = occupancy.shape
        self.key = key  # the grid by content: matched, and in the keys of kept legs
        self.snaps: Dict[Tuple[float, float], Cell] = {}
        # source -> (limit, box, dist over the box's cells, goal cell -> (path
        # cells, length)), the least recently read first (:meth:`_kept`)
        self.searches: Dict[Cell, tuple] = {}

    @classmethod
    def of(cls, occupancy: np.ndarray, resolution: float, origin: Sequence[float]) -> Planner:
        """The kept planner if it plans this grid, ``(height, width)`` bool
        ``occupancy`` at ``resolution`` (m) from ``origin``, else a new one,
        kept in its place, that makes ``occupancy`` its own, read-only."""
        resolution, origin = float(resolution), np.asarray(origin, dtype=np.float64)
        key = (resolution, tuple(origin.tolist()), occupancy.shape, occupancy.tobytes())
        return facts.keep_grid(key, lambda: cls(occupancy, resolution, origin, key))

    def _kept(self, source: Cell) -> tuple:
        """``source``'s entry of ``searches``, now the most recently read: its
        latest search, ``(limit, box, dist, paths)``, or ``(0.0, None, None,
        {})`` before its first.  Past ``SEARCHES_PER_GRID`` sources the least
        recently read is dropped, with its paths."""
        search = self.searches[source] = self.searches.pop(source, None) or (0.0, None, None, {})
        if len(self.searches) > SEARCHES_PER_GRID:
            del self.searches[next(iter(self.searches))]
        return search

    # ----- grid geometry -------------------------------------------------

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

        Memoized per (x, y).
        """
        key = (float(point[0]), float(point[1]))
        cell = self.snaps.get(key)
        if cell is None:
            cell = self.snaps[key] = self._snap(np.array(key))
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

    # ----- paths ------------------------------------------------------------

    def shortest_path(self, start: Sequence[float], goal: Sequence[float]) -> Tuple[List[Cell], float]:
        """Length-optimal path; returns (cells incl. endpoints, length m).

        Ends that snap to one cell give that one cell and 0.0, with no
        search.  Otherwise the path is :meth:`_walk`'s, kept with the
        source's search; each read gets a new list.  An unreachable goal
        raises on every read.
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

        The path is kept in ``source``'s entry of ``searches``, which this
        read makes the most recently read.  A goal not kept yet is swept
        first (:meth:`_certified_walk`), which answers with no search when
        the geodesic equals the octile distance; a goal it refuses is
        searched and walked back at once, so no pair is swept twice while
        its source is kept.  An unreachable goal raises (:meth:`_search`)
        and is not kept.
        """
        paths = self._kept(source)[3]
        kept = paths.get(goal)
        if kept is None:
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
        before its diagonal ones.  Its length is :meth:`path_length` of the
        step counts, as for a walk over a search.
        """
        (sx, sy), (gx, gy) = source, goal
        by_column = abs(gx - sx) >= abs(gy - sy)
        lines = self._free_lines[0 if by_column else 1]
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
        return path, self.path_length(len(path) - 1, hi - lo)

    def _walk_back(self, box: Box, dist: np.ndarray, start_cell: Cell,
                   goal_cell: Cell) -> Tuple[tuple, float]:
        """(path cells, length) from ``start_cell`` to ``goal_cell`` over the
        distance field ``dist`` of a search from ``start_cell`` over ``box``
        that answers the goal (:meth:`_answers`).

        From the goal, each step goes to the first neighbour in
        ``STEP_ORDER`` that the move table allows, that lies in the box and
        whose distance plus the step cost equals the current cell's distance
        (within 1e-9 * resolution).  Length is :meth:`path_length` of the
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
        # memoryviews read items as Python numbers, much faster than arrays
        dist, moves = memoryview(dist), memoryview(self.moves.reshape(-1))
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
        return path, self.path_length(len(path) - 1, n_diag)

    def path_length(self, n_steps: int, n_diag: int) -> float:
        """Length (m) of ``n_steps`` steps, ``n_diag`` of them diagonal."""
        return (n_steps - n_diag + n_diag * SQRT2) * self.resolution

    @cached_property
    def moves(self) -> np.ndarray:
        """Read-only (height, width, 8) table: ``[iy, ix, k]`` is whether the
        cell may take the ``STEP_ORDER[k]`` move.  A move goes from a free
        cell to a free cell of the grid, and a diagonal one needs both
        orthogonal cells free (no corner cutting).  This is the one place
        the movement rule lives."""
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
        return moves

    def _node_graph(self, box: Box, nodes: np.ndarray) -> csr_matrix:
        """Graph over the cells of ``box`` that ``nodes``, a (box height, box
        width) bool array of free cells, holds: node i is its i-th cell in
        grid order.  Every row has one slot per ``STEP_ORDER`` move, in that
        order, weighted by the step length: the neighbour's node where the
        move table allows the move and the neighbour is a node, else the
        row's own node, a self-loop that no search can relax.  It holds
        about 100 bytes per node, and its build 4 per cell of the box."""
        x0, y0, x1, y1 = box
        bw, bh, width = x1 - x0, y1 - y0, len(STEP_ORDER)
        n = int(np.count_nonzero(nodes))
        # node per cell of the box, else -1, and a border of -1: each move is a slice
        index = np.full((bh + 2, bw + 2), -1, dtype=np.int32)
        index[1:-1, 1:-1][nodes] = np.arange(n, dtype=np.int32)
        nbrs = np.empty((n, width), dtype=np.int32)
        for k, (dx, dy) in enumerate(STEP_ORDER):
            nbrs[:, k] = index[1 + dy:1 + dy + bh, 1 + dx:1 + dx + bw][nodes]
        # a cell's 8 move flags read as one 8-byte item, one copy per node
        allowed = self.moves.view(np.uint64)[y0:y1, x0:x1, 0][nodes].view(bool).reshape(n, width)
        allowed &= nbrs >= 0
        # each move not allowed becomes the row's own node
        own = np.repeat(np.arange(n, dtype=np.int32), width).reshape(n, width)
        nbrs -= own
        nbrs *= allowed
        nbrs += own
        steps = np.empty((n, width))
        steps[:] = np.array(STEP_CELLS) * self.resolution
        indptr = np.arange(0, width * n + 1, width, dtype=np.int32)
        return csr_matrix((steps.reshape(-1), nbrs.reshape(-1), indptr), shape=(n, n))

    @cached_property
    def _graph(self) -> csr_matrix:
        """The graph of the whole grid's free cells (:meth:`_node_graph`),
        that every search on a grid of fewer than ``WHOLE_GRAPH_CELLS``
        cells reads, built on its first read and kept with the grid."""
        return self._node_graph((0, 0, self.width, self.height), ~self.occupancy)

    @cached_property
    def _free_lines(self) -> Tuple[List[int], List[int]]:
        """(per column, the bits iy of its free cells; per row, the bits ix
        of its free cells), as Python ints."""
        free = ~self.occupancy
        columns = np.packbits(free, axis=0, bitorder="little").T.copy()
        rows = np.packbits(free, axis=1, bitorder="little")
        return tuple([int.from_bytes(line.tobytes(), "little") for line in bits]
                     for bits in (columns, rows))

    @cached_property
    def _labels(self) -> np.ndarray:
        """Component label per cell, node ``iy * width + ix``, -1 for a
        blocked cell.  Under the move table's corner rule an allowed
        diagonal joins two cells its two orthogonal cells already join, so
        the components of the moves are the 4-neighbour components of the
        free cells.  Each row's free cells split into runs, numbered in
        grid order, and a free cell right above a free cell joins their two
        runs: the components of that graph of runs label their cells.  No
        graph of the cells is built: the labels keep 4 bytes per cell, and
        take about 1 ms at 96,000 cells and 0.06 s at ``MAX_GRID_CELLS``."""
        free = ~self.occupancy
        starts = free.copy()
        starts[:, 1:] &= ~free[:, :-1]
        runs = np.cumsum(starts.reshape(-1), dtype=np.int32) - 1
        # one pair per two runs that touch, at the first cell of the contact:
        # a run starts only after a blocked cell, which ends a contact
        joins = free[:-1] & free[1:]
        joins[:, 1:] &= ~(free[:-1, :-1] & free[1:, :-1])
        upper = np.flatnonzero(joins)
        n = int(runs[-1]) + 1
        graph = csr_matrix((np.ones(len(upper)), (runs[upper], runs[upper + self.width])),
                           shape=(n, n))
        labels = connected_components(graph, directed=False)[1][runs]
        labels[~free.reshape(-1)] = -1
        return labels

    def connected(self, a: Sequence[float], b: Sequence[float]) -> bool:
        """Whether a free-cell path joins the free cells nearest ``a`` and
        ``b``: one lookup of :attr:`_labels`, no search."""
        return self._joined(self.snap_free_cell(a), self.snap_free_cell(b))

    def _joined(self, a: Cell, b: Cell) -> bool:
        """Whether free cells ``a`` and ``b`` share a component."""
        labels = self._labels
        return bool(labels[a[1] * self.width + a[0]] == labels[b[1] * self.width + b[0]])

    def _octile(self, a: Cell, b: Cell) -> float:
        """Obstacle-free 8-connected distance (m): a lower bound on the geodesic."""
        dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
        return self.path_length(max(dx, dy), min(dx, dy))

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
        searched: the goal lies in its box at a distance it kept
        (:meth:`_search` keeps only such distances).
        """
        _, box, dist, _ = search
        if box is None:
            return False
        x0, y0, x1, y1 = box
        gx, gy = goal
        return (x0 <= gx < x1 and y0 <= gy < y1
                and not math.isinf(dist[(gy - y0) * (x1 - x0) + gx - x0]))

    def _search(self, source: Cell, goal: Cell) -> Tuple[Box, np.ndarray]:
        """(box, distance per cell of the box from ``source``) of a search
        that answers ``goal`` (:meth:`_answers`), exact at the goal; a goal
        in another component raises :class:`UnreachableGoalError`.
        :meth:`_walk` asks only for the goals the octile sweep refuses, and
        only :meth:`_answers` and :meth:`_walk_back` read the distances.

        Searches are bounded by a limit L, and one written rule picks the
        graph.  A grid of fewer than ``WHOLE_GRAPH_CELLS`` cells searches
        its whole graph (:attr:`_graph`), kept with the grid, to L: every
        cell within L gets its distance.  On a small grid a graph per read
        costs more to build than the cells it leaves out save, and a search
        of the whole graph answers later goals in every direction.  A larger
        grid searches the octile ellipse of L, the cells x with
        octile(source, x) + octile(x, goal) <= L, in a graph of the
        ellipse's free cells (:meth:`_node_graph`), built for the read, even
        when the box that holds the ellipse (:meth:`_box`) is the whole
        grid; the octile distance is a lower bound on the geodesic, so every
        path of length at most L between the two ends lies in the ellipse.
        Of that search's distances it keeps d(x) only where d(x) +
        octile(x, goal) <= L, inf elsewhere: then every shortest path to x,
        and to each cell on it, lies in the ellipse, so every kept distance
        is exact, and a walk back from x makes the matches a walk over the
        whole grid's search makes.  Either graph's distances are spread
        over the box's cells, inf off its nodes, for :meth:`_answers` and
        :meth:`_walk_back`.

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
        answers every goal a smaller L would.

        No search is unbounded.  Once L reaches the octile distance from
        ``source`` to the grid's farthest corner, the component labels
        (:attr:`_labels`) are read: a goal in another component raises,
        with the latest search kept, and a reachable goal keeps its finite
        L, doubled until a search answers it.  Labels a grid has built
        already are read before the first search, so a repeated
        unreachable read searches nothing.  The corner is the trigger, not
        the first search, because a planner built cold for a 0.05 m house
        would pay about 1 ms for labels that its generated reads, all
        reachable, seldom need: no ``fine-0.05m`` read passes the corner.

        A read the kept search (:meth:`_kept`) does not answer searches
        again from ``source``, and a read from a dropped source searches
        anew.  No world changes its grid, so no search goes stale.
        """
        search = self._kept(source)
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
            # labels built already are read before the first search
            refuse_at = 0.0 if "_labels" in vars(self) else self._octile(source, farthest_corner)
            while True:
                if limit >= refuse_at:
                    if not self._joined(source, goal):
                        self.searches[source] = search
                        raise UnreachableGoalError(f"no path from {source} to {goal}")
                    refuse_at = math.inf  # a reachable goal: no second read
                box = whole if small else self._box(source, goal, limit)
                x0, y0, x1, y1 = box
                nodes = ~self.occupancy[y0:y1, x0:x1]
                if small:
                    graph = self._graph
                else:
                    # in cells; a margin of 2e-9 cells keeps every cell a
                    # kept distance vouches for, whatever the float rounding
                    reach = limit / self.resolution
                    to_goal = self._octiles(goal, box)
                    nodes &= self._octiles(source, box) + to_goal <= reach + 2e-9
                    graph = self._node_graph(box, nodes)
                nodes = nodes.reshape(-1)
                at = (source[1] - y0) * (x1 - x0) + source[0] - x0
                dist = np.full(nodes.size, math.inf)
                dist[nodes] = dijkstra(graph, directed=True, limit=limit,
                                       indices=int(np.count_nonzero(nodes[:at])))
                if not small:
                    dist[dist / self.resolution + to_goal.reshape(-1) > reach + 1e-9] = math.inf
                search = (limit, box, dist, paths)
                if self._answers(search, goal):
                    break
                limit = 2.0 * limit if limit >= first else first
            self.searches[source] = search
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
