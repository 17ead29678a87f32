"""Independent reference implementations used to cross-check the package.

Everything here is written in the plainest possible style from the public
contracts, avoiding the package's own helpers wherever the helper is the
thing under test: path lengths come from a textbook Dijkstra instead of
the package's scipy search, distance fields from one unbounded search over
the planner's former one-direction graph instead of searches bounded by a
limit and a box over its move table, reachability from that search instead of component
labels, component labels from one edge per allowed move instead of runs of
free cells, similarities from exact token counts instead of hashed
vectors, cosines from one dot product per call instead of bucket
supports, embeddings from counts added into the vector one at a time
instead of counted tokens, the carried relation from a quadratic scan
instead of the construction funnel, a leg's sightings one pose at a
time instead of in one pass, blocked cells from sets of tuples instead of
painted arrays, and the geometry predicates on numpy scalars instead of
Python floats.  The memos of the world and of a scene's kept facts are checked
against the rules they replaced, computed afresh on every call.  A bug
would have to be made twice to go unnoticed.  Criterion 8's full-coverage
tour lives here too: only the tests run it, over the episode's own leg.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from carriernav.features import (DEFAULT_EMBEDDING_DIM, Feature, cosine, strip_image_prefix,
                                 token_bucket)
from carriernav.graph import carrying_predicate, geometric_carrier_filter
from carriernav.planning import STEP_ORDER
from carriernav.policy import walk_leg
from carriernav.scene import MAX_GRID_CELLS
from carriernav.world import DisplacementError, GridWorld, Observation, Pose, WorldError

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


# --- text features, by the rules before a feature knew its buckets


def embed_text_accumulating(text: str, dim: int = DEFAULT_EMBEDDING_DIM) -> np.ndarray:
    """The vector of ``features.text_feature`` by the embedder before the
    token path: each token's count added into the vector one at a time,
    then the vector divided by its ``np.linalg.norm``; no token leaves the
    zero vector as it is.  The suite's reference embedder."""
    vec = np.zeros(dim, dtype=np.float64)
    for token in words(text):
        vec[token_bucket(token, dim)] += 1.0
    norm = float(np.linalg.norm(vec))
    return vec if norm == 0.0 else vec / norm


def cosine_per_call_dot(a, b) -> float:
    """``features.cosine`` before the support skip: the dot product of the
    two features' vectors divided by their norm product, on every call."""
    return float(np.dot(a.vec, b.vec) / (a.norm * b.norm))


def support_bits(vec) -> int:
    """The buckets ``vec`` may share with another vector: one bit per
    entry that is not zero, set one at a time, or -1 (every bit) when an
    entry has its sign bit set or the norm is not finite."""
    vec = np.asarray(vec, dtype=np.float64)
    if any(math.copysign(1.0, x) < 0 for x in vec.tolist()):
        return -1
    if not math.isfinite(float(np.linalg.norm(vec))):
        return -1
    bits = 0
    for i, x in enumerate(vec.tolist()):
        if x != 0.0:
            bits |= 1 << i
    return bits


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


def move_edges(planner) -> list:
    """(cell, neighbour) of every move ``planner``'s move table allows, read
    cell by cell, one per (cell, ``STEP_ORDER`` slot), in grid order."""
    moves = planner.moves.tolist()
    return [((ix, iy), (ix + dx, iy + dy))
            for iy in range(planner.height) for ix in range(planner.width)
            for k, (dx, dy) in enumerate(STEP_ORDER) if moves[iy][ix][k]]


def move_components(planner) -> np.ndarray:
    """Component label per cell of ``planner``'s grid, node ``iy * width +
    ix``, -1 for a blocked cell: the components of a graph built cell by
    cell, with one edge per (cell, ``STEP_ORDER`` slot) its move table
    allows (:func:`move_edges`)."""
    width, n = planner.width, planner.width * planner.height
    edges = move_edges(planner)
    rows = [iy * width + ix for (ix, iy), _ in edges]
    cols = [iy * width + ix for _, (ix, iy) in edges]
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    labels = connected_components(graph, directed=False)[1]
    labels[planner.occupancy.reshape(-1)] = -1
    return labels


def full_grid_distances(occupancy, resolution: float, source):
    """Distance (m) from free cell ``source`` to every free cell (by index),
    from one unbounded undirected search over ``one_direction_graph``."""
    graph, index = one_direction_graph(occupancy, resolution)
    return dijkstra(graph, directed=False, indices=int(index[source[1], source[0]])), index


def carried_relation(crsg) -> dict:
    """Carrier id -> sorted ids of the objects the graph ``crsg`` says it
    carries, read from its one listing, ``Crsg.to_dict()``."""
    return {c["id"]: tuple(c["carried"]) for c in crsg.to_dict()["carriers"]}


def full_coverage_tour(world, crsg, sensor, match, crsg_cfg) -> list:
    """Visit every carrier in id order, reconciling the graph at each stop,
    and return the ids visited.  Each stop is one ``policy.walk_leg``, the
    same leg an episode walks, with the carrier's full carried view, so
    after the tour the graph's carried relation is the live world's."""
    visited = []
    for cid in sorted(crsg.carriers):
        dest = crsg.carriers[cid].object.centroid
        assert walk_leg(world, crsg, dest, sensor, match, crsg_cfg, cid) is not None, (
            f"carrier {cid} unreachable during coverage tour")
        visited.append(cid)
    return visited


def carriers_reachable_by_distance(scene, start) -> bool:
    """The scenario generator's reachability rule before component labels:
    every carrier-sized object (box bottom at most 0.05 m up) lies at a
    finite distance from the start, each end snapped to its nearest free
    cell, here by one unbounded search.  A blocked start is unreachable."""
    try:
        world = GridWorld(scene, start_pose=start)
    except WorldError:
        return False
    dist, index = full_grid_distances(world.planner.occupancy, world.planner.resolution,
                                      world.snap_free_cell(start.position))
    for obj in scene.objects.values():
        if obj.box.min[2] <= 0.05:
            ix, iy = world.snap_free_cell(obj.centroid[:2])
            if math.isinf(dist[index[iy, ix]]):
                return False
    return True


def sorted_unique_cells(cells) -> list:
    """Blocked cells as scene files list them, by the rule before cell
    arrays: each ``(ix, iy)`` once, sorted, from a set of tuples."""
    return [[ix, iy] for ix, iy in sorted(set((int(c[0]), int(c[1])) for c in cells))]


def occupancy_per_cell(cells, width: int, height: int) -> np.ndarray:
    """``(height, width)`` occupancy, blocked cells set one at a time."""
    occ = np.zeros((height, width), dtype=bool)
    for ix, iy in cells:
        occ[iy, ix] = True
    return occ


def draft_blocked_cells(width_m: float, height_m: float, resolution: float,
                        walls, objects) -> list:
    """The scenario generator's blocked cells by its set-based rule before
    painted occupancy.  Each cell is added to a set one at a time: the
    grid's border cells, then the cells of each wall segment in ``walls``,
    ``(x0, y0, x1, y1, door_at, door_width)`` as the draft got them, a door
    gap skipping the cells whose center lies within ``door_width / 2`` of
    ``door_at``, then the footprint of every object instance in ``objects``
    whose box bottom is at most 0.05 m up, clipped to the grid."""
    w, h = int(round(width_m / resolution)), int(round(height_m / resolution))
    cells = {(ix, iy) for ix in range(w) for iy in (0, h - 1)}
    cells.update((ix, iy) for ix in (0, w - 1) for iy in range(h))
    for x0, y0, x1, y1, door_at, door_width in walls:
        vertical = abs(x1 - x0) < 1e-9
        fixed, along, size, length = (x0, (y0, y1), w, h) if vertical else (y0, (x0, x1), h, w)
        at = min(max(int(fixed / resolution), 0), size - 1)
        lo, hi = sorted(along)
        for k in range(max(int(lo / resolution), 0), min(int(hi / resolution), length - 1) + 1):
            center = (k + 0.5) * resolution
            if door_at is not None and abs(center - door_at) <= door_width / 2.0:
                continue
            cells.add((at, k) if vertical else (k, at))
    for obj in objects:
        lo, hi = obj.box.lo, obj.box.hi
        if lo[2] > 0.05:
            continue
        for ix in range(max(int(lo[0] / resolution), 0),
                        min(int(math.ceil(hi[0] / resolution)) - 1, w - 1) + 1):
            for iy in range(max(int(lo[1] / resolution), 0),
                            min(int(math.ceil(hi[1] / resolution)) - 1, h - 1) + 1):
                cells.add((ix, iy))
    return [list(c) for c in sorted(cells)]


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


# --- geometry predicates on numpy scalars, as the package computed them
# before it read Python floats: each index of a corner or centroid array is
# a numpy scalar, and the floats must give the same bits


def xy_intersection_area_numpy(a, b) -> float:
    """``Box3.xy_intersection_area`` of boxes ``a`` and ``b``."""
    dx = min(a.max[0], b.max[0]) - max(a.min[0], b.min[0])
    dy = min(a.max[1], b.max[1]) - max(a.min[1], b.min[1])
    if dx <= 0.0 or dy <= 0.0:
        return 0.0
    return float(dx * dy)


def carrying_predicate_numpy(carrier, obj, config) -> bool:
    """``graph.carrying_predicate``."""
    if obj.box.footprint_area > config.max_carried_footprint:
        return False

    overlap = xy_intersection_area_numpy(carrier.box, obj.box)
    if overlap < config.overlap_rate * obj.box.footprint_area:
        return False

    gap = float(obj.box.min[2]) - float(carrier.box.max[2])
    rests_on_top = 0.0 <= gap <= config.z_gap_max
    carrier_mid_z = float(carrier.box.min[2]) + carrier.box.height / 2.0
    inside_upper_half = (
        float(obj.box.min[2]) < float(carrier.box.max[2])
        and float(obj.box.max[2]) > carrier_mid_z
    )
    if not (rests_on_top or inside_upper_half):
        return False

    dx = float(obj.centroid[0] - carrier.centroid[0])
    dy = float(obj.centroid[1] - carrier.centroid[1])
    if math.hypot(dx, dy) > carrier.box.footprint_diagonal / 2.0:
        return False
    return True


def point_in_polygon_numpy(point, polygon) -> bool:
    """Whether ``scene.assign_rooms`` finds ``point`` in a room of
    ``polygon``: even-odd ray casting; boundary points count as inside."""
    x, y = float(point[0]), float(point[1])
    poly = np.asarray(polygon, dtype=np.float64)
    n = poly.shape[0]
    inside = False
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        # on-segment check keeps boundary objects assigned deterministically
        if min(x1, x2) - 1e-12 <= x <= max(x1, x2) + 1e-12:
            cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
            if abs(cross) < 1e-12 and min(y1, y2) - 1e-12 <= y <= max(y1, y2) + 1e-12:
                return True
        if (y1 > y) != (y2 > y):
            x_at = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_at:
                inside = not inside
    return inside


def assign_rooms_numpy(objects, rooms) -> dict:
    """``scene.assign_rooms``: the first room whose polygon holds an
    object's centroid, else the hallway."""
    out = {}
    for obj in objects:
        assigned = "hallway"
        for room in rooms:
            if point_in_polygon_numpy(obj.centroid[:2], room.polygon):
                assigned = room.id
                break
        out[obj.id] = assigned
    return out


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


def brute_force_relation(scene, cfg, carriers=None):
    """(carrier ids, {carrier: carried id set}, orphan id set), exhaustively.

    By default the carriers are the construction funnel's, and a carrier is
    never carried, as in a graph.  Given ``carriers`` (the world's bases),
    every object may rest on any carrier but itself, as in the world."""
    carried_too = carriers is not None
    if carriers is None:
        carriers = funnel_carrier_ids(scene, cfg)
    relation = {cid: set() for cid in carriers}
    orphans = set()
    for oid, obj in scene.objects.items():
        if oid in carriers and not carried_too:
            continue
        best = None
        for cid in carriers:
            carrier = scene.objects[cid]
            if cid == oid or not rests_on(carrier, obj, cfg):
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


# --- world ground truth and carrier answers, without memos


def nearest_carrier_per_call(obj, candidates, cfg):
    """Id of the candidate with the nearest centroid among those ``obj``
    rests on (ties to the smaller id), or None; never ``obj`` itself.
    ``graph.nearest_carrier`` before it kept one answer per key."""
    best = None
    for carrier in candidates:
        if carrier.id == obj.id or not carrying_predicate(carrier, obj, cfg):
            continue
        key = (float(np.linalg.norm(obj.centroid - carrier.centroid)), carrier.id)
        if best is None or key < best:
            best = key
    return best[1] if best else None


def match_carrier_per_call(seen, carriers, cfg):
    """Id of the carrier instance in ``carriers`` that sighting ``seen``
    matches, or None: within ``max_center_dist``, every extent within the
    ratio tolerance, and both features at least as similar as their
    thresholds (a zero feature on either side passes); nearest center
    first, ties to the smaller id.  ``update.match_carrier`` before it
    kept one answer per key."""

    best = None
    for other in carriers:
        cid = other.id
        dist = float(np.linalg.norm(seen.centroid - other.centroid))
        if (dist <= cfg.max_center_dist and _sizes_ok(seen, other, cfg)
                and _similar(seen.text, other.text, cfg.min_text_sim)
                and _similar(seen.visual, other.visual, cfg.min_visual_sim)
                and (best is None or (dist, cid) < best)):
            best = (dist, cid)
    return best[1] if best else None


def _sizes_ok(a, b, cfg):
    """Every extent of ``a`` within the ratio tolerance of ``b``'s; a zero
    extent only matches a zero extent."""
    for ea, eb in zip(a.box.extents.tolist(), b.box.extents.tolist()):
        if ea <= 0 or eb <= 0:
            if abs(ea - eb) > 1e-9:
                return False
        elif not 1.0 - cfg.max_size_ratio_dev <= ea / eb <= 1.0 + cfg.max_size_ratio_dev:
            return False
    return True


def _similar(a, b, threshold):
    """At least ``threshold`` similar; a zero feature on either side passes."""
    if a.zero or b.zero:
        return True
    return a.vec.shape == b.vec.shape and cosine(a, b) >= threshold


def reconcile_pairs_per_call(seen, entries, cfg):
    """(sighted id -> entry id, frozenset of matched entry ids) pairing the
    sighted instances ``seen`` with the id -> instance dict ``entries``:
    among the pairs within ``carried_match_center_dist`` with compatible
    sizes and similar text, the nearest pair whose sighting and entry are
    both still free is taken, ties to the smaller sighted id, then entry
    id, until none is left.  ``update.reconcile_carried`` before it kept
    one pairing per key."""
    matched, taken = {}, set()
    while True:
        best = None
        for obj in seen:
            if obj.id in matched:
                continue
            for eid, entry in entries.items():
                if eid in taken:
                    continue
                dist = float(np.linalg.norm(obj.centroid - entry.centroid))
                if (dist <= cfg.carried_match_center_dist and _sizes_ok(obj, entry, cfg)
                        and _similar(obj.text, entry.text, cfg.min_text_sim)
                        and (best is None or (dist, obj.id, eid) < best)):
                    best = (dist, obj.id, eid)
        if best is None:
            return matched, frozenset(taken)
        matched[best[1]] = best[2]
        taken.add(best[2])


def all_objects(crsg) -> dict:
    """Id -> instance of every object in the graph: carriers, then the
    objects they carry, orphans and missing objects.  The graph's former
    ``all_objects``, whose values were an unscoped query's pool."""
    out = {cid: node.object for cid, node in crsg.carriers.items()}
    for node in crsg.carriers.values():
        out.update(node.carried)
    out.update(crsg.orphan_objects)
    out.update(crsg.missing)
    return out


def compare_images_per_call(candidate_token: str, target_token: str) -> float:
    """The keyword prior's image score before it read kept text features:
    both tokens embedded afresh, 0 when either has no feature, else their
    cosine clamped to [0, 1]."""
    a = embed_text_accumulating(strip_image_prefix(candidate_token))
    b = embed_text_accumulating(strip_image_prefix(target_token))
    if not a.any() or not b.any():
        return 0.0
    return max(0.0, min(1.0, cosine(Feature.of(a), Feature.of(b))))


def ground_truth_carried_per_call(world, carrier_id, cfg) -> list:
    """Sorted ids resting on ``carrier_id``, scanned afresh: objects that
    satisfy the carrying predicate with it and whose nearest satisfying
    base it is.  The world's rule before it kept one relation per change."""
    carrier = world.objects[carrier_id]
    bases = geometric_carrier_filter(list(world.objects.values()), cfg)
    return sorted(
        oid for oid, obj in world.objects.items()
        if carrying_predicate(carrier, obj, cfg)
        and nearest_carrier_per_call(obj, bases, cfg) == carrier_id
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
    occupants = [world.objects[oid]
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


def free_spot_lexsort(world, carrier, extents, cfg, skip_id="", start_index=0):
    """(x, y) of the first clear spot on ``carrier``, or the
    ``DisplacementError`` the world raises.

    The placement scan before its one-argsort rewrite, with its refusals:
    the spots are a ``meshgrid`` of the two ranges, ordered by
    ``lexsort((ys, xs, distance))`` (nearest the centroid first, ties by x,
    then by y), and each visited spot is tested as a pair of numpy corners
    against every other occupant's numpy corners widened by a 2 cm margin.
    """
    half = extents[:2] / 2.0
    margin = 0.02
    hx, hy = half.tolist()
    lo = (carrier.box.lo[0] + hx + margin, carrier.box.lo[1] + hy + margin)
    hi = (carrier.box.hi[0] - hx - margin, carrier.box.hi[1] - hy - margin)
    if hi[0] < lo[0] or hi[1] < lo[1]:
        raise DisplacementError(f"object too large for carrier {carrier.id!r} footprint")
    step = max(0.05, float(min(extents[0], extents[1])) / 2.0)
    nx, ny = ((hi[k] + 1e-9 - lo[k]) / step for k in range(2))
    if not math.isfinite(nx * ny) or math.ceil(nx) * math.ceil(ny) > MAX_GRID_CELLS:
        raise DisplacementError(f"carrier {carrier.id!r} top holds too many spots "
                                f"to scan ({nx:.3g} x {ny:.3g})")
    xs, ys = np.meshgrid(np.arange(lo[0], hi[0] + 1e-9, step),
                         np.arange(lo[1], hi[1] + 1e-9, step), indexing="ij")
    xs, ys = xs.ravel(), ys.ravel()
    center = carrier.centroid[:2]
    order = np.lexsort((ys, xs, np.hypot(xs - center[0], ys - center[1])))
    occupants = [world.objects[oid]
                 for oid in ground_truth_carried_per_call(world, carrier.id, cfg)
                 if oid != skip_id]
    n = len(order)
    for k in range(n):
        i = order[(start_index + k) % n]
        x, y = round(float(xs[i]), 6), round(float(ys[i]), 6)
        box_min = np.array([x - half[0], y - half[1]])
        box_max = np.array([x + half[0], y + half[1]])
        if all(not (box_min[0] < occ.box.max[0] + margin and box_max[0] > occ.box.min[0] - margin
                    and box_min[1] < occ.box.max[1] + margin
                    and box_max[1] > occ.box.min[1] - margin)
               for occ in occupants):
            return np.array([x, y])
    raise DisplacementError(f"no free spot on carrier {carrier.id!r}")


def moved_per_call(objects, object_id, target_id, spot_index, cfg):
    """(box min, box max) of a move onto ``target_id`` computed afresh from
    the id -> instance dict ``objects``, by the placement scan above."""
    world = GridWorld.__new__(GridWorld)
    world._set_objects(dict(objects))
    obj, carrier = objects[object_id], objects[target_id]
    ext = obj.box.extents
    xy = free_spot_sorted_tuples(world, carrier, ext, cfg, skip_id=object_id,
                                 start_index=spot_index)
    new_min = np.array([xy[0] - ext[0] / 2.0, xy[1] - ext[1] / 2.0, float(carrier.box.max[2])])
    return new_min, new_min + ext


# --- sensing, one pose at a time


def observe_per_cell(world, pose, sensor):
    """Sightings from one pose, sorted by id: the world's one-pose rule
    before sensing became one pass per leg.  Radius by ``np.hypot`` of the
    centroid deltas; under a field of view narrower than a full circle, the
    bearing must lie within half of it of the heading unless the object is
    at zero distance; under occlusion, a Bresenham ray from the pose's cell
    to the centroid's cell must be clear, and an off-grid centroid is never
    seen."""
    objects = world.objects
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
    robot_cell = world.planner.cell_of(pose.position)
    for i in np.nonzero(mask)[0]:
        obj = objects[ids[int(i)]]
        if sensor.occlusion:
            try:
                obj_cell = world.planner.cell_of(obj.centroid[:2])
            except WorldError:
                continue
            if not world._ray_clear(robot_cell, obj_cell):
                continue
        out.append(Observation(obj, float(dists[i])))
    return out


def travel_per_cell(world, path, sensor):
    """(first sightings by id, leg length, final pose) of ``path`` sensed one
    cell at a time with :func:`observe_per_cell`, each id keeping its first
    sighting; the heading at a cell is the step to the next one, and the
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
        position = world.planner.cell_center(cell)
        for obs in observe_per_cell(world, Pose(position, heading), sensor):
            seen.setdefault(obs.object_id, obs)
    return seen, (n_axis + n_diag * SQRT2) * world.planner.resolution, Pose(position, heading)


# --- scoring


def spl_oracle(success: bool, shortest: float, traveled: float) -> float:
    return (shortest / max(shortest, traveled) if max(shortest, traveled) > 0 else 1.0) if success else 0.0
