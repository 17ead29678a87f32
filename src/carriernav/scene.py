"""Scene model: boxes, object instances, rooms, and the scene file format.

A scene file is a JSON tree with a header, room polygons, object instances
and occupancy-grid metadata.  Features are either embedded verbatim or
synthesized from captions with the default embedder (``feature_mode``).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .features import DEFAULT_EMBEDDING_DIM, Feature, embed_text

# Objects whose centroid falls outside every room polygon get this room id.
HALLWAY_ROOM_ID = "hallway"

DEFAULT_GRID_RESOLUTION = 0.05  # m per cell

_CENTROID_EPS = 1e-6


class SceneError(ValueError):
    pass


class SceneParseError(SceneError):
    """Malformed file: bad JSON or missing required structure."""


class SceneValidationError(SceneError):
    """Well-formed file whose content violates a scene invariant."""


def _frozen(value) -> np.ndarray:
    """``value`` as a read-only float64 array.

    A float64 array is frozen in place, not copied: an object value takes
    ownership of the arrays it is built from.
    """
    arr = np.asarray(value, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Box3:
    """Axis-aligned box, min/max corners in meters.

    A frozen value with read-only arrays; its geometry facts are computed
    once, at construction.
    """

    min: np.ndarray
    max: np.ndarray
    extents: np.ndarray = field(init=False, repr=False, compare=False)
    footprint_area: float = field(init=False, repr=False, compare=False)
    height: float = field(init=False, repr=False, compare=False)
    footprint_diagonal: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = np.asarray(self.min, dtype=np.float64)
        hi = np.asarray(self.max, dtype=np.float64)
        if lo.shape != (3,) or hi.shape != (3,):
            raise SceneValidationError("box corners must be 3-vectors")
        if not all(map(math.isfinite, lo.tolist() + hi.tolist())):
            raise SceneValidationError("box corners must be finite")
        ext = hi - lo
        ex, ey, ez = ext.tolist()
        if min(ex, ey, ez) < 0.0:
            raise SceneValidationError(f"box max {hi} below min {lo}")
        for name, value in (
            ("min", _frozen(lo)),
            ("max", _frozen(hi)),
            ("extents", _frozen(ext)),
            ("footprint_area", ex * ey),
            ("height", ez),
            ("footprint_diagonal", math.hypot(ex, ey)),
        ):
            object.__setattr__(self, name, value)

    @property
    def center(self) -> np.ndarray:
        return (self.min + self.max) / 2.0

    def xy_intersection_area(self, other: "Box3") -> float:
        dx = min(self.max[0], other.max[0]) - max(self.min[0], other.min[0])
        dy = min(self.max[1], other.max[1]) - max(self.min[1], other.min[1])
        if dx <= 0.0 or dy <= 0.0:
            return 0.0
        return float(dx * dy)

    def contains_point(self, point: np.ndarray, eps: float = _CENTROID_EPS) -> bool:
        p = np.asarray(point, dtype=np.float64).tolist()
        return all(lo - eps <= x <= hi + eps
                   for x, lo, hi in zip(p, self.min.tolist(), self.max.tolist()))

    def to_dict(self) -> dict:
        return {
            "min": [float(x) for x in self.min],
            "max": [float(x) for x in self.max],
        }


def _feature(oid: str, name: str, value) -> Feature:
    """A 1-D feature with its norm, which must be finite (so is every
    entry), and positive unless the feature is all zeros: one entry of
    1e-200 squares to 0."""
    vec = np.asarray(value, dtype=np.float64)
    if vec.ndim != 1:
        raise SceneValidationError(f"object {oid!r} {name} must be a 1-D vector")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        feat = Feature.of(vec)
    if not math.isfinite(feat.norm) or (feat.norm == 0.0 and not feat.zero):
        raise SceneValidationError(f"object {oid!r} {name} norm {feat.norm} is out of range")
    _frozen(vec)
    return feat


@dataclass(frozen=True)
class ObjectInstance:
    """One scene object: a frozen value with read-only arrays, shared by the
    scene, the world, the graph and every sighting.  A change is a new
    instance (``dataclasses.replace``).

    ``text``/``visual`` hold each feature with its norm and zero flag,
    computed once, at construction.
    """

    id: str
    captions: Tuple[str, ...]
    box: Box3
    centroid: np.ndarray
    text_feature: np.ndarray
    visual_feature: np.ndarray
    room_id: Optional[str] = None
    text: Feature = field(init=False, repr=False, compare=False)
    visual: Feature = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.id:
            raise SceneValidationError("object id must be non-empty")
        if not self.captions:
            raise SceneValidationError(f"object {self.id!r} has no captions")
        centroid = np.asarray(self.centroid, dtype=np.float64)
        if centroid.shape != (3,):
            raise SceneValidationError(f"object {self.id!r} centroid must be a 3-vector")
        if not self.box.contains_point(centroid):
            raise SceneValidationError(
                f"object {self.id!r} centroid {centroid.tolist()} outside its box"
            )
        text = _feature(self.id, "text_feature", self.text_feature)
        visual = _feature(self.id, "visual_feature", self.visual_feature)
        for name, value in (
            ("captions", tuple(self.captions)),
            ("centroid", _frozen(centroid)),
            ("text_feature", text.vec),
            ("visual_feature", visual.vec),
            ("text", text),
            ("visual", visual),
        ):
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "captions": list(self.captions),
            "box": self.box.to_dict(),
            "centroid": [float(x) for x in self.centroid],
            "text_feature": [float(x) for x in self.text_feature],
            "visual_feature": [float(x) for x in self.visual_feature],
        }
        if self.room_id is not None:
            out["room_id"] = self.room_id
        return out


@dataclass
class Room:
    id: str
    polygon: np.ndarray  # (N, 2) vertices, simple polygon
    name: str = ""

    def __post_init__(self):
        self.polygon = np.asarray(self.polygon, dtype=np.float64)
        if self.polygon.ndim != 2 or self.polygon.shape[1] != 2 or self.polygon.shape[0] < 3:
            raise SceneValidationError(f"room {self.id!r} polygon needs >= 3 2-D vertices")
        if _polygon_self_intersects(self.polygon):
            raise SceneValidationError(f"room {self.id!r} polygon self-intersects")

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "polygon": [[float(x), float(y)] for x, y in self.polygon],
        }


@dataclass
class GridSpec:
    resolution: float = DEFAULT_GRID_RESOLUTION
    width: int = 0
    height: int = 0
    origin: np.ndarray = field(default_factory=lambda: np.zeros(2))
    blocked_cells: List[Tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=np.float64)
        if self.resolution <= 0:
            raise SceneValidationError(f"grid resolution must be positive, got {self.resolution}")
        if self.width <= 0 or self.height <= 0:
            raise SceneValidationError("grid width/height must be positive")
        if self.origin.shape != (2,):
            raise SceneValidationError("grid origin must be a 2-vector")
        cells = []
        for cell in self.blocked_cells:
            ix, iy = int(cell[0]), int(cell[1])
            if not (0 <= ix < self.width and 0 <= iy < self.height):
                raise SceneValidationError(f"blocked cell {cell} out of bounds")
            cells.append((ix, iy))
        self.blocked_cells = cells

    def to_dict(self) -> dict:
        return {
            "resolution": float(self.resolution),
            "width": int(self.width),
            "height": int(self.height),
            "origin": [float(x) for x in self.origin],
            "blocked_cells": [[ix, iy] for ix, iy in sorted(set(self.blocked_cells))],
        }


@dataclass
class SceneMap:
    """Immutable-after-load container for one scene."""

    name: str
    objects: Dict[str, ObjectInstance]
    rooms: List[Room]
    grid: GridSpec
    feature_mode: str = "synthesize"
    embedding_dim: int = DEFAULT_EMBEDDING_DIM

    def __post_init__(self):
        dims = set()
        for obj in self.objects.values():
            dims.add(obj.text_feature.shape[0])
            dims.add(obj.visual_feature.shape[0])
        dims.discard(self.embedding_dim)
        if dims:
            raise SceneValidationError(
                f"object feature dims {sorted(dims)} do not match header dim {self.embedding_dim}"
            )
        room_ids = {room.id for room in self.rooms}
        if len(room_ids) != len(self.rooms):
            raise SceneValidationError("duplicate room ids")
        for obj in self.objects.values():
            if obj.room_id is not None and obj.room_id not in room_ids and obj.room_id != HALLWAY_ROOM_ID:
                raise SceneValidationError(
                    f"object {obj.id!r} names unknown room {obj.room_id!r}"
                )
            cell = (
                int(math.floor((obj.centroid[0] - self.grid.origin[0]) / self.grid.resolution)),
                int(math.floor((obj.centroid[1] - self.grid.origin[1]) / self.grid.resolution)),
            )
            if not (0 <= cell[0] < self.grid.width and 0 <= cell[1] < self.grid.height):
                raise SceneValidationError(
                    f"object {obj.id!r} centroid maps to out-of-bounds cell {cell}"
                )

    def to_dict(self) -> dict:
        return {
            "header": {
                "version": 1,
                "name": self.name,
                "feature_mode": self.feature_mode,
                "embedding_dim": int(self.embedding_dim),
            },
            "grid": self.grid.to_dict(),
            "rooms": [room.to_dict() for room in self.rooms],
            "objects": [obj.to_dict() for obj in self.objects.values()],
        }


def _polygon_self_intersects(poly: np.ndarray) -> bool:
    # O(n^2) proper-intersection test; room polygons are tiny.
    n = poly.shape[0]

    def segs_cross(p1, p2, p3, p4):
        def orient(a, b, c):
            v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if v > 1e-12:
                return 1
            if v < -1e-12:
                return -1
            return 0

        o1, o2 = orient(p1, p2, p3), orient(p1, p2, p4)
        o3, o4 = orient(p3, p4, p1), orient(p3, p4, p2)
        return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)

    for i in range(n):
        a1, a2 = poly[i], poly[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if segs_cross(a1, a2, poly[j], poly[(j + 1) % n]):
                return True
    return False


def point_in_polygon(point: Sequence[float], polygon: np.ndarray) -> bool:
    """Even-odd ray casting; boundary points count as inside."""
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


def assign_rooms(objects: Sequence[ObjectInstance], rooms: Sequence[Room]) -> Dict[str, str]:
    """Map each object id to the room containing its centroid (x, y).

    Rooms are assumed non-overlapping; objects outside every room get the
    ``hallway`` sentinel.  The assignment is total.
    """
    out: Dict[str, str] = {}
    for obj in objects:
        assigned = HALLWAY_ROOM_ID
        for room in rooms:
            if point_in_polygon(obj.centroid[:2], room.polygon):
                assigned = room.id
                break
        out[obj.id] = assigned
    return out


def _require(mapping: dict, key: str, ctx: str):
    if key not in mapping:
        raise SceneParseError(f"{ctx}: missing required key {key!r}")
    return mapping[key]


# Typed readers for JSON values: each returns the value or raises
# SceneParseError.  Booleans are not numbers, and numbers must be finite.

def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SceneParseError(f"{what} must be a JSON object, not {value!r}")
    return value


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise SceneParseError(f"{what} must be a JSON array, not {value!r}")
    return value


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise SceneParseError(f"{what} must be a string, not {value!r}")
    return value


def _integer(value, what: str) -> int:
    if type(value) is not int:
        raise SceneParseError(f"{what} must be an integer, not {value!r}")
    return value


def _number(value, what: str) -> float:
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise SceneParseError(f"{what} must be a finite number, not {value!r}")
    return float(value)


def _numbers(value, what: str, length: Optional[int] = None) -> np.ndarray:
    """An array of finite numbers, of ``length`` entries if given."""
    if isinstance(value, list) and (length is None or len(value) == length):
        kinds = set(map(type, value))
        # an integer beyond the float range has no float64 value
        if kinds <= {int, float} and (
                int not in kinds or all(abs(v) <= sys.float_info.max for v in value)):
            vec = np.array(value, dtype=np.float64)
            if np.isfinite(vec).all():
                return vec
    size = "" if length is None else f"{length} "
    raise SceneParseError(f"{what} must be an array of {size}finite numbers, not {value!r}")


def _cells(value, what: str) -> list:
    """An array of [ix, iy] integer pairs (checked in bulk: grids block
    thousands of cells)."""
    cells = _array(value, what)
    if (set(map(type, cells)) <= {list} and set(map(len, cells)) <= {2}
            and set(map(type, chain.from_iterable(cells))) <= {int}):
        return cells
    raise SceneParseError(f"{what} must be an array of [ix, iy] integer pairs")


def _optional(read, value, what: str):
    return None if value is None else read(value, what)


def _parse_object(raw, feature_mode: str, dim: int) -> ObjectInstance:
    raw = _object(raw, "object")
    oid = _string(_require(raw, "id", "object"), "object id")
    ctx = f"object {oid!r}"
    captions = _require(raw, "captions", ctx)
    if not isinstance(captions, list) or not all(isinstance(c, str) for c in captions):
        raise SceneParseError(f"{ctx}: captions must be a list of strings")
    box_raw = _object(_require(raw, "box", ctx), f"{ctx} box")
    box = Box3(_numbers(_require(box_raw, "min", f"{ctx} box"), f"{ctx} box min", 3),
               _numbers(_require(box_raw, "max", f"{ctx} box"), f"{ctx} box max", 3))
    centroid = _numbers(_require(raw, "centroid", ctx), f"{ctx} centroid", 3)

    text_feature = _optional(_numbers, raw.get("text_feature"), f"{ctx} text_feature")
    visual_feature = _optional(_numbers, raw.get("visual_feature"), f"{ctx} visual_feature")
    if feature_mode == "embedded":
        if text_feature is None or visual_feature is None:
            raise SceneValidationError(
                f"{ctx}: embedded feature mode requires stored features"
            )
        text_vec, visual_vec = text_feature, visual_feature
    else:
        joined = " ".join(captions)
        text_vec = embed_text(joined, dim) if text_feature is None else text_feature
        visual_vec = embed_text(joined, dim) if visual_feature is None else visual_feature
    for name, vec in (("text_feature", text_vec), ("visual_feature", visual_vec)):
        if vec.shape[0] != dim:
            raise SceneValidationError(f"{ctx}: {name} has wrong dimension")
    return ObjectInstance(
        id=oid,
        captions=tuple(captions),
        box=box,
        centroid=centroid,
        text_feature=text_vec,
        visual_feature=visual_vec,
        room_id=_optional(_string, raw.get("room_id"), f"{ctx} room_id"),
    )


def scene_from_dict(tree: dict) -> SceneMap:
    """Scene from a parsed JSON tree.

    A value of the wrong JSON type, a missing key or an unsupported
    version raises ``SceneParseError``; content that breaks a scene
    invariant raises ``SceneValidationError``.
    """
    tree = _object(tree, "scene root")
    header = _object(_require(tree, "header", "scene"), "header")
    version = _require(header, "version", "header")
    if type(version) is not int or version != 1:
        raise SceneParseError(f"unsupported scene version {version!r}")
    feature_mode = _string(header.get("feature_mode", "synthesize"), "header feature_mode")
    if feature_mode not in ("embedded", "synthesize"):
        raise SceneParseError(f"unknown feature_mode {feature_mode!r}")
    dim = _integer(header.get("embedding_dim", DEFAULT_EMBEDDING_DIM), "header embedding_dim")
    if dim <= 0:
        raise SceneValidationError(f"embedding_dim must be positive, got {dim}")
    name = _string(header.get("name", "scene"), "header name")

    grid_raw = _object(_require(tree, "grid", "scene"), "grid")
    grid = GridSpec(
        resolution=_number(grid_raw.get("resolution", DEFAULT_GRID_RESOLUTION), "grid resolution"),
        width=_integer(_require(grid_raw, "width", "grid"), "grid width"),
        height=_integer(_require(grid_raw, "height", "grid"), "grid height"),
        origin=_numbers(grid_raw.get("origin", [0.0, 0.0]), "grid origin", 2),
        blocked_cells=_cells(grid_raw.get("blocked_cells", []), "grid blocked_cells"),
    )

    rooms = []
    for raw_room in _array(tree.get("rooms", []), "rooms"):
        raw_room = _object(raw_room, "room")
        rid = _string(_require(raw_room, "id", "room"), "room id")
        polygon = _array(_require(raw_room, "polygon", f"room {rid!r}"), f"room {rid!r} polygon")
        rooms.append(
            Room(
                id=rid,
                polygon=np.array([_numbers(v, f"room {rid!r} vertex", 2) for v in polygon]),
                name=_string(raw_room.get("name", ""), f"room {rid!r} name"),
            )
        )

    objects: Dict[str, ObjectInstance] = {}
    for raw_obj in _array(tree.get("objects", []), "objects"):
        obj = _parse_object(raw_obj, feature_mode, dim)
        if obj.id in objects:
            raise SceneValidationError(f"duplicate object id {obj.id!r}")
        objects[obj.id] = obj

    return SceneMap(
        name=name,
        objects=objects,
        rooms=rooms,
        grid=grid,
        feature_mode=feature_mode,
        embedding_dim=dim,
    )


def load_scene(path: str) -> SceneMap:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tree = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SceneParseError(f"{path}: invalid JSON ({exc})") from exc
    return scene_from_dict(tree)


def save_scene(scene: SceneMap, path: str) -> None:
    """Write a scene file that loads back field-for-field equal.

    Features are always written out; a re-load in ``synthesize`` mode
    recomputes identical vectors, so the round trip is exact either way.
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scene.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
