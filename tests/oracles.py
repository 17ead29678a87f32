"""Independent reference implementations used to cross-check the package.

Everything here is written in the plainest possible style from the public
contracts, avoiding the package's own helpers wherever the helper is the
thing under test: path lengths come from a textbook Dijkstra instead of
the package's scipy search, distance fields from one unbounded search over
the planner's former one-direction graph instead of bounded searches over
its symmetric one, similarities from exact token counts instead of hashed
vectors, the carried relation from a quadratic scan instead of the
construction funnel, and a leg's sightings one pose at a time instead of
in one pass.  The world's memos are checked against the rules they
replaced, computed afresh on every call.  A bug would have to be made twice
to go unnoticed.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from carriernav.graph import carrying_predicate, geometric_carrier_filter, nearest_carrier
from carriernav.world import Observation, Pose, WorldError

SQRT2 = math.sqrt(2.0)

_WORD_RE = re.compile(r"[a-z0-9]+")

# Furniture words the prior accepts, frozen here on purpose: if the
# package's keyword table drifts, the graph tests should fail loudly.
FURNITURE_WORDS = frozenset(
    {
        "table", "desk", "shelf", "shelves", "bookshelf", "cabinet", "counter",
        "countertop", "bed", "nightstand", "dresser", "sofa", "couch", "bench",
        "stand", "rack", "chair", "stool",
    }
)


def words(text: str) -> list:
    return _WORD_RE.findall(text.lower())


def bag_cosine(text_a: str, text_b: str) -> float:
    """Cosine of exact token-count vectors (no hashing anywhere).

    Equals the package's hashed-feature cosine whenever the involved
    tokens are collision-free under the hashing embedder, which the
    vocabulary freeze test guarantees for every generator word.
    """
    a = Counter(words(text_a))
    b = Counter(words(text_b))
    if not a or not b:
        return 0.0
    dot = sum(a[t] * b[t] for t in a)
    na = math.sqrt(sum(v * v for v in a.values()))
    nb = math.sqrt(sum(v * v for v in b.values()))
    return dot / (na * nb)


def exact_bag_cosine_squared(text_a: str, text_b: str) -> Fraction:
    """cos^2 as an exact rational, for pinning constants without float error."""
    a = Counter(words(text_a))
    b = Counter(words(text_b))
    dot = sum(a[t] * b[t] for t in a)
    na2 = sum(v * v for v in a.values())
    nb2 = sum(v * v for v in b.values())
    if na2 == 0 or nb2 == 0:
        return Fraction(0)
    return Fraction(dot * dot, na2 * nb2)


# --- grid path lengths


def dijkstra_grid_length(occupancy, resolution: float, start, goal) -> float:
    """Shortest 8-connected path length in meters, or inf.

    occupancy is indexed [iy][ix] and truthy means blocked.  Diagonal
    steps cost sqrt(2) cells and are allowed only when both orthogonal
    neighbors are free, matching the planner's movement rule.
    """
    height = len(occupancy)
    width = len(occupancy[0])

    def free(ix: int, iy: int) -> bool:
        return 0 <= ix < width and 0 <= iy < height and not occupancy[iy][ix]

    if not free(*start) or not free(*goal):
        return math.inf
    dist = {start: 0.0}
    heap = [(0.0, start)]
    while heap:
        d, cell = heapq.heappop(heap)
        if cell == goal:
            return d * resolution
        if d > dist.get(cell, math.inf):
            continue
        ix, iy = cell
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nx, ny = ix + dx, iy + dy
                if not free(nx, ny):
                    continue
                if dx != 0 and dy != 0:
                    if not (free(ix + dx, iy) and free(ix, iy + dy)):
                        continue
                step = math.sqrt(2.0) if dx != 0 and dy != 0 else 1.0
                nd = d + step
                if nd < dist.get((nx, ny), math.inf):
                    dist[(nx, ny)] = nd
                    heapq.heappush(heap, (nd, (nx, ny)))
    return math.inf


def one_direction_graph(occupancy, resolution: float):
    """(free-cell graph holding each 8-neighbour edge once, free-cell index).

    The planner's graph before it held both directions: four forward
    directions built with ``np.roll``, searched with ``directed=False``.
    occupancy is a boolean [iy, ix] array, True meaning blocked.
    """
    free = ~np.asarray(occupancy, dtype=bool)
    index = np.full(free.shape, -1, dtype=np.int64)
    index[free] = np.arange(int(free.sum()))
    rows, cols, weights = [], [], []
    for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
        src_free = free.copy()
        dst_free = np.roll(np.roll(free, -dy, axis=0), -dx, axis=1)
        # mask wrap-around rows/cols introduced by roll
        if dx > 0:
            src_free[:, -dx:] = False
        if dy > 0:
            src_free[-dy:, :] = False
        if dy < 0:
            src_free[:-dy, :] = False
        ok = src_free & dst_free
        if dx != 0 and dy != 0:
            ortho_x = np.roll(free, -dx, axis=1)
            if dx > 0:
                ortho_x[:, -dx:] = False
            ortho_y = np.roll(free, -dy, axis=0)
            if dy > 0:
                ortho_y[-dy:, :] = False
            if dy < 0:
                ortho_y[:-dy, :] = False
            ok &= ortho_x & ortho_y
        src_idx = index[ok]
        dst_iy, dst_ix = np.nonzero(ok)
        dst_idx = index[dst_iy + dy, dst_ix + dx]
        w = (math.sqrt(2.0) if dx != 0 and dy != 0 else 1.0) * resolution
        rows.append(src_idx)
        cols.append(dst_idx)
        weights.append(np.full(src_idx.shape, w))
    n = int(free.sum())
    graph = csr_matrix((np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
                       shape=(n, n))
    return graph, index


def full_grid_distances(occupancy, resolution: float, source):
    """Distance (m) from free cell ``source`` to every free cell (by index),
    from one unbounded undirected search over ``one_direction_graph``."""
    graph, index = one_direction_graph(occupancy, resolution)
    return dijkstra(graph, directed=False, indices=int(index[source[1], source[0]])), index


def snap_free_cell_rings(occupancy, origin, resolution: float, point):
    """Nearest free cell to ``point`` by center distance, ties by (ix, iy).

    The square-ring search the planner used before its early stop: rings
    around the point's (clamped) cell grow until two full rings past the
    first hit, far beyond where a nearer cell could still appear.
    occupancy is indexed [iy][ix] and truthy means blocked.
    """
    height = len(occupancy)
    width = len(occupancy[0])
    target = np.asarray(point[:2], dtype=np.float64)
    cx = min(max(int(math.floor((target[0] - origin[0]) / resolution)), 0), width - 1)
    cy = min(max(int(math.floor((target[1] - origin[1]) / resolution)), 0), height - 1)
    best = None
    for ring in range(max(width, height)):
        cells = {(cx + d, cy + e) for d in range(-ring, ring + 1) for e in (-ring, ring)}
        cells |= {(cx + e, cy + d) for d in range(-ring, ring + 1) for e in (-ring, ring)}
        for ix, iy in cells:
            if not (0 <= ix < width and 0 <= iy < height) or occupancy[iy][ix]:
                continue
            center = np.array([origin[0] + (ix + 0.5) * resolution,
                               origin[1] + (iy + 0.5) * resolution])
            key = (float(np.linalg.norm(center - target)), ix, iy)
            if best is None or key < best:
                best = key
        if best is not None and ring > best[0] / resolution + 2:
            break
    if best is None:
        raise ValueError("no free cell in grid")
    return (best[1], best[2])


# --- carried relation, from raw geometry


def _xy_overlap(amin, amax, bmin, bmax) -> float:
    dx = min(amax[0], bmax[0]) - max(amin[0], bmin[0])
    dy = min(amax[1], bmax[1]) - max(amin[1], bmin[1])
    if dx <= 0.0 or dy <= 0.0:
        return 0.0
    return dx * dy


def rests_on(carrier, obj, cfg) -> bool:
    """Quadratic-scan twin of the carrying predicate, from raw box arrays."""
    cmin, cmax = [float(x) for x in carrier.box.min], [float(x) for x in carrier.box.max]
    omin, omax = [float(x) for x in obj.box.min], [float(x) for x in obj.box.max]
    footprint = (omax[0] - omin[0]) * (omax[1] - omin[1])
    if footprint > cfg.max_carried_footprint:
        return False
    if _xy_overlap(cmin, cmax, omin, omax) < cfg.overlap_rate * footprint:
        return False
    gap = omin[2] - cmax[2]
    on_top = 0.0 <= gap <= cfg.z_gap_max
    mid_z = (cmin[2] + cmax[2]) / 2.0
    inside_upper = omin[2] < cmax[2] and omax[2] > mid_z
    if not (on_top or inside_upper):
        return False
    dx = float(obj.centroid[0]) - float(carrier.centroid[0])
    dy = float(obj.centroid[1]) - float(carrier.centroid[1])
    half_diag = math.hypot(cmax[0] - cmin[0], cmax[1] - cmin[1]) / 2.0
    return math.hypot(dx, dy) <= half_diag


def geometric_base(obj, cfg) -> bool:
    """Furniture-scale ground-contact box: the world's base-eligibility gate."""
    fx = float(obj.box.max[0] - obj.box.min[0])
    fy = float(obj.box.max[1] - obj.box.min[1])
    fz = float(obj.box.max[2] - obj.box.min[2])
    return (fx * fy >= cfg.min_footprint_area and fz >= cfg.min_height
            and float(obj.box.min[2]) <= cfg.ground_contact_eps)


def funnel_carrier_ids(scene, cfg) -> set:
    """Carrier set per the three construction gates, recomputed by hand."""
    out = set()
    for oid, obj in scene.objects.items():
        joined = " ".join(obj.captions)
        if bag_cosine(joined, cfg.carrier_reference) <= cfg.sigma:
            continue
        if not any(
            w in FURNITURE_WORDS
            for caption in obj.captions[:3]
            for w in words(caption)
        ):
            continue
        fx = float(obj.box.max[0] - obj.box.min[0])
        fy = float(obj.box.max[1] - obj.box.min[1])
        fz = float(obj.box.max[2] - obj.box.min[2])
        if fx * fy < cfg.min_footprint_area or fz < cfg.min_height:
            continue
        if float(obj.box.min[2]) > cfg.ground_contact_eps:
            continue
        out.add(oid)
    return out


def brute_force_relation(scene, cfg):
    """(carrier ids, {carrier: carried id set}, orphan id set), exhaustively."""
    carriers = funnel_carrier_ids(scene, cfg)
    relation = {cid: set() for cid in carriers}
    orphans = set()
    for oid, obj in scene.objects.items():
        if oid in carriers:
            continue
        best = None
        for cid in carriers:
            carrier = scene.objects[cid]
            if not rests_on(carrier, obj, cfg):
                continue
            d = math.sqrt(
                sum(
                    (float(obj.centroid[k]) - float(carrier.centroid[k])) ** 2
                    for k in range(3)
                )
            )
            if best is None or (d, cid) < best:
                best = (d, cid)
        if best is None:
            orphans.add(oid)
        else:
            relation[best[1]].add(oid)
    return carriers, relation, orphans


# --- world ground truth, without memos


def ground_truth_carried_per_call(world, carrier_id, cfg) -> list:
    """Sorted ids resting on ``carrier_id``, scanned afresh: objects that
    satisfy the carrying predicate with it and whose nearest satisfying
    base it is.  The world's rule before it kept one relation per change."""
    carrier = world.scene.objects[carrier_id]
    bases = geometric_carrier_filter(list(world.scene.objects.values()), cfg)
    return sorted(
        oid for oid, obj in world.scene.objects.items()
        if carrying_predicate(carrier, obj, cfg)
        and nearest_carrier(obj, bases, cfg) == carrier_id
    )


def free_spot_sorted_tuples(world, carrier, extents, cfg, skip_id="", start_index=0):
    """(x, y) of the first clear spot on ``carrier``, or None.

    The placement scan before its one-sort rewrite: every spot of the
    carrier top becomes a (center distance, rounded x, rounded y) tuple,
    the tuples are sorted, and the scan starts at ``start_index`` (mod the
    spot count) and takes the first spot whose box keeps a 2 cm margin
    from every other occupant.  None when the object does not fit or no
    spot is clear.
    """
    half = extents[:2] / 2.0
    margin = 0.02
    lo = carrier.box.min[:2] + half + margin
    hi = carrier.box.max[:2] - half - margin
    if np.any(hi < lo):
        return None
    step = max(0.05, float(min(extents[0], extents[1])) / 2.0)
    xs = np.arange(lo[0], hi[0] + 1e-9, step)
    ys = np.arange(lo[1], hi[1] + 1e-9, step)
    center = carrier.centroid[:2]
    spots = sorted(
        (float(np.hypot(x - center[0], y - center[1])), round(float(x), 6), round(float(y), 6))
        for x in xs for y in ys
    )
    occupants = [world.scene.objects[oid]
                 for oid in ground_truth_carried_per_call(world, carrier.id, cfg)
                 if oid != skip_id]
    for k in range(len(spots)):
        _, x, y = spots[(start_index + k) % len(spots)]
        if all(not (x - half[0] < occ.box.max[0] + margin and x + half[0] > occ.box.min[0] - margin
                    and y - half[1] < occ.box.max[1] + margin
                    and y + half[1] > occ.box.min[1] - margin)
               for occ in occupants):
            return np.array([x, y])
    return None


# --- sensing, one pose at a time


def observe_per_cell(world, pose, sensor, skip=()):
    """Sightings from one pose, sorted by id: the world's one-pose rule
    before sensing became one pass per leg.  Radius by ``np.hypot`` of the
    centroid deltas; under a field of view narrower than a full circle, the
    bearing must lie within half of it of the heading unless the object is
    at zero distance; under occlusion, a Bresenham ray from the pose's cell
    to the centroid's cell must be clear, and an off-grid centroid is never
    seen.  Ids in ``skip`` are left out."""
    objects = world.scene.objects
    ids = sorted(objects)
    if not ids:
        return []
    centroids = np.array([objects[oid].centroid[:2] for oid in ids])
    deltas = centroids - pose.position
    dists = np.hypot(deltas[:, 0], deltas[:, 1])
    mask = dists <= sensor.radius
    if sensor.fov < 2.0 * math.pi - 1e-9:
        angles = np.arctan2(deltas[:, 1], deltas[:, 0])
        diff = np.abs((angles - pose.heading + math.pi) % (2.0 * math.pi) - math.pi)
        mask &= (diff <= sensor.fov / 2.0 + 1e-12) | (dists < 1e-12)
    out = []
    robot_cell = world.cell_of(pose.position)
    for i in np.nonzero(mask)[0]:
        oid = ids[int(i)]
        if oid in skip:
            continue
        obj = objects[oid]
        if sensor.occlusion:
            try:
                obj_cell = world.cell_of(obj.centroid[:2])
            except WorldError:
                continue
            if not world._ray_clear(robot_cell, obj_cell):
                continue
        out.append(Observation(obj, float(dists[i])))
    return out


def travel_per_cell(world, path, sensor):
    """(first sightings by id, leg length, final pose) of ``path`` sensed one
    cell at a time with :func:`observe_per_cell`, each cell skipping the ids
    already seen; the heading at a cell is the step to the next one, and the
    last cell keeps the last step's.  The world is left as it was."""
    seen = {}
    heading = world.robot.heading
    position = world.robot.position
    n_axis = n_diag = 0
    for i, cell in enumerate(path):
        if i + 1 < len(path):
            nxt = path[i + 1]
            step = (nxt[0] - cell[0], nxt[1] - cell[1])
            heading = math.atan2(step[1], step[0])
            if step[0] != 0 and step[1] != 0:
                n_diag += 1
            else:
                n_axis += 1
        position = world.cell_center(cell)
        for obs in observe_per_cell(world, Pose(position, heading), sensor, seen):
            seen[obs.object_id] = obs
    return seen, (n_axis + n_diag * SQRT2) * world.resolution, Pose(position, heading)


# --- scoring


def spl_oracle(success: bool, shortest: float, traveled: float) -> float:
    return (shortest / max(shortest, traveled) if max(shortest, traveled) > 0 else 1.0) if success else 0.0
