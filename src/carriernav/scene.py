"""Scene model: boxes, object instances, rooms, and the scene file format.

A scene file is a JSON tree with a header, room polygons, object instances
and occupancy-grid metadata.  Features are either embedded verbatim or
synthesized from captions with the default embedder (``feature_mode``).
In ``synthesize`` mode an object's feature is optional: the reader fills a
missing one with :func:`derived_feature`, and the writer leaves out each
feature whose bytes are that vector's (a byte compare, so a stored ``-0.0``
or subnormal is written).  ``embedded`` mode writes and needs both.
Each file format is declared once, as record dataclasses (``_SceneFile``
and its parts here, ``scenarios._ScenarioFile`` for scenario files): those
records are read by ``read_record``, the one typed reader, and written by
its inverse ``record_tree``.  An unknown or missing key, a wrong JSON type
or a non-finite number is a ``SceneParseError``.  Every JSON file the
package writes goes through ``write_json``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from itertools import chain
from typing import (Callable, Dict, List, Optional, Sequence, Tuple, Union, get_args, get_origin,
                    get_type_hints)

import numpy as np

from .features import DEFAULT_EMBEDDING_DIM, Feature, text_feature

# Objects whose centroid falls outside every room polygon get this room id.
HALLWAY_ROOM_ID = "hallway"

DEFAULT_GRID_RESOLUTION = 0.05  # m per cell

# The largest header ``embedding_dim`` a scene file may declare: a derived
# feature allocates ``embedding_dim`` floats per object, and a 4096-float
# vector (32 KB) is four times the widest common CLIP feature.
MAX_EMBEDDING_DIM = 4096

# The most cells (width x height) a scene's grid may have, checked before
# any array is built: the occupancy holds a byte per cell and a search 8
# bytes per free cell.  2**22 cells is a 102 m square at the default
# 0.05 m, 43 times the largest generated house (20 m x 12 m, 96000 cells).
MAX_GRID_CELLS = 1 << 22

_CENTROID_EPS = 1e-6


class SceneError(ValueError):
    pass


class SceneParseError(SceneError):
    """Malformed file: bad JSON, or a key or value that the format does not allow."""


class SceneValidationError(SceneError):
    """Well-formed file whose content violates a scene invariant."""


def distance(d: np.ndarray) -> float:
    """The length of the 1-D float64 vector ``d`` (a difference of two
    points): the square root of its dot with itself.  This is the one
    distance rule, and it is what ``np.linalg.norm`` computes for such a
    vector (``sqrt(x.dot(x))``), bit for bit, without its dispatch."""
    return math.sqrt(d.dot(d))


def _frozen(value) -> np.ndarray:
    """``value`` as a read-only float64 array.

    A float64 array is frozen in place, not copied: an object value takes
    ownership of the arrays it is built from, or shares one that is
    read-only already (a derived feature, which every object with those
    captions shares).
    """
    arr = np.asarray(value, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Box3:
    """Axis-aligned box, min/max corners in meters.

    A frozen value with read-only arrays; its geometry facts are computed
    once, at construction.  ``lo``/``hi`` are the corners as Python floats,
    which the geometry predicates read (indexing the arrays makes a numpy
    scalar per read; the arithmetic on either is the same).
    """

    min: np.ndarray
    max: np.ndarray
    lo: Tuple[float, float, float] = field(init=False, repr=False, compare=False)
    hi: Tuple[float, float, float] = field(init=False, repr=False, compare=False)
    extents: np.ndarray = field(init=False, repr=False, compare=False)
    footprint_area: float = field(init=False, repr=False, compare=False)
    height: float = field(init=False, repr=False, compare=False)
    footprint_diagonal: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = np.asarray(self.min, dtype=np.float64)
        hi = np.asarray(self.max, dtype=np.float64)
        if lo.shape != (3,) or hi.shape != (3,):
            raise SceneValidationError("box corners must be 3-vectors")
        lo_xyz, hi_xyz = tuple(lo.tolist()), tuple(hi.tolist())
        if not all(map(math.isfinite, lo_xyz + hi_xyz)):
            raise SceneValidationError("box corners must be finite")
        # spans in Python floats, so an overflow is rejected, not warned about
        ex, ey, ez = (b - a for a, b in zip(lo_xyz, hi_xyz))
        if min(ex, ey, ez) < 0.0:
            raise SceneValidationError(f"box max {hi} below min {lo}")
        sums = [a + b for a, b in zip(lo_xyz, hi_xyz)]  # twice the center
        if not all(map(math.isfinite, [ex, ey, ez, ex * ey, *sums])):
            raise SceneValidationError(f"box spans too far: min {lo_xyz}, max {hi_xyz}")
        for name, value in (
            ("min", _frozen(lo)),
            ("max", _frozen(hi)),
            ("lo", lo_xyz),
            ("hi", hi_xyz),
            ("extents", _frozen(np.array([ex, ey, ez]))),
            ("footprint_area", ex * ey),
            ("height", ez),
            ("footprint_diagonal", math.hypot(ex, ey)),
        ):
            object.__setattr__(self, name, value)

    @property
    def center(self) -> np.ndarray:
        return (self.min + self.max) / 2.0

    def xy_intersection_area(self, other: "Box3") -> float:
        dx = min(self.hi[0], other.hi[0]) - max(self.lo[0], other.lo[0])
        dy = min(self.hi[1], other.hi[1]) - max(self.lo[1], other.lo[1])
        if dx <= 0.0 or dy <= 0.0:
            return 0.0
        return dx * dy

    def contains_point(self, point: np.ndarray, eps: float = _CENTROID_EPS) -> bool:
        p = np.asarray(point, dtype=np.float64).tolist()
        return all(lo - eps <= x <= hi + eps for x, lo, hi in zip(p, self.lo, self.hi))


def derived_feature(captions: Sequence[str], dim: int) -> np.ndarray:
    """The feature a ``synthesize`` scene derives for an object without
    one: the embedding of its joined captions, the read-only vector of its
    kept ``text_feature``, shared by every object, scene and writer that
    derives it."""
    return text_feature(" ".join(captions), dim).vec


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


@dataclass(frozen=True, eq=False)
class ObjectInstance:
    """One scene object: a frozen value with read-only arrays, shared by the
    scene, the world, the graph and every sighting.  A change is a new
    instance (``dataclasses.replace``), so an instance is compared and
    hashed by identity, as the keys of kept answers need.

    ``text``/``visual`` hold each feature with its norm and zero flag,
    computed once, at construction: one ``Feature`` when both are one array.
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
        visual = (text if self.visual_feature is self.text_feature
                  else _feature(self.id, "visual_feature", self.visual_feature))
        for name, value in (
            ("captions", tuple(self.captions)),
            ("centroid", _frozen(centroid)),
            ("text_feature", text.vec),
            ("visual_feature", visual.vec),
            ("text", text),
            ("visual", visual),
        ):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class Room:
    """A frozen value with a read-only polygon, compared and hashed by
    identity like ``ObjectInstance``: field equality would compare arrays.
    ``edges`` holds each edge as a pair of ``(x, y)`` Python-float
    vertices, the last vertex joined back to the first, as
    :func:`point_in_polygon` reads them; it is computed once, at
    construction, so :func:`assign_rooms` reads no array.
    """

    id: str
    polygon: np.ndarray  # (N, 2) vertices, simple polygon
    name: str = ""
    edges: Tuple[Tuple[Tuple[float, float], Tuple[float, float]], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        polygon = _frozen(self.polygon)
        if polygon.ndim != 2 or polygon.shape[1] != 2 or polygon.shape[0] < 3:
            raise SceneValidationError(f"room {self.id!r} polygon needs >= 3 2-D vertices")
        # each orientation the self-intersection test computes is a difference
        # of two products of coordinate differences, so at most 2 * span_x * span_y
        (x0, y0), (x1, y1) = polygon.min(axis=0).tolist(), polygon.max(axis=0).tolist()
        if not math.isfinite(2.0 * (x1 - x0) * (y1 - y0)):
            raise SceneValidationError(f"room {self.id!r} polygon spans too far: "
                                       f"x {x0}..{x1}, y {y0}..{y1}")
        if _polygon_self_intersects(polygon):
            raise SceneValidationError(f"room {self.id!r} polygon self-intersects")
        object.__setattr__(self, "polygon", polygon)
        object.__setattr__(self, "edges", _polygon_edges(polygon))


@dataclass
class GridSpec:
    """Occupancy-grid metadata.  ``blocked_cells``, ``(ix, iy)`` pairs in any
    order and with repeats, is held as one read-only ``(n, 2)`` intp array
    checked in bulk: a cell that is not a pair of integers inside the grid
    (a float, bool or string among them) raises ``SceneValidationError``.
    An ``(n, 2)`` intp array, as the file reader gives, is made read-only
    in place."""

    resolution: float = DEFAULT_GRID_RESOLUTION
    width: int = 0
    height: int = 0
    origin: np.ndarray = field(default_factory=lambda: np.zeros(2))
    blocked_cells: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.intp))

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=np.float64)
        if self.resolution <= 0:
            raise SceneValidationError(f"grid resolution must be positive, got {self.resolution}")
        if self.width <= 0 or self.height <= 0:
            raise SceneValidationError("grid width/height must be positive")
        if int(self.width) * int(self.height) > MAX_GRID_CELLS:
            raise SceneValidationError(f"grid {self.width}x{self.height} has more than "
                                       f"{MAX_GRID_CELLS} cells")
        if self.origin.shape != (2,):
            raise SceneValidationError("grid origin must be a 2-vector")
        cells = _cell_array(self.blocked_cells, self.width, self.height)
        if cells is None:
            rows = self.blocked_cells
            rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
            bad = next(c for c in rows if _cell_array([c], self.width, self.height) is None)
            raise SceneValidationError(f"blocked cell {bad!r} is not a pair of integers "
                                       f"inside the {self.width}x{self.height} grid")
        cells.setflags(write=False)
        self.blocked_cells = cells

    def occupancy(self) -> np.ndarray:
        """A new ``(height, width)`` bool array, True at each blocked cell."""
        occ = np.zeros((int(self.height), int(self.width)), dtype=bool)
        occ[self.blocked_cells[:, 1], self.blocked_cells[:, 0]] = True
        return occ


def _cell_array(cells, width: int, height: int) -> Optional[np.ndarray]:
    """``cells`` as an ``(n, 2)`` intp array if each is a pair of integers
    inside the grid, else ``None``.  Such an array, as the file reader gives
    after checking its types, is only bounds-checked; the types of any
    other cells are checked per type, not per cell."""
    if not (isinstance(cells, np.ndarray) and cells.dtype == np.intp and cells.shape[1:] == (2,)):
        rows = cells.tolist() if isinstance(cells, np.ndarray) else list(cells)
        if not (set(map(type, rows)) <= {list, tuple} and set(map(len, rows)) <= {2}):
            return None
        flat = list(chain.from_iterable(rows))
        types = set(map(type, flat))
        if not all(issubclass(t, (int, np.integer)) and t is not bool for t in types):
            return None
        try:
            cells = np.fromiter(flat, dtype=np.intp, count=len(flat)).reshape(-1, 2)
        except OverflowError:  # beyond intp, so beyond any grid
            return None
    return cells if (cells >= 0).all() and (cells < (width, height)).all() else None


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
        room_ids = {room.id for room in self.rooms}
        if len(room_ids) != len(self.rooms):
            raise SceneValidationError("duplicate room ids")
        ox, oy = self.grid.origin.tolist()
        resolution = float(self.grid.resolution)
        for obj in self.objects.values():
            for name in ("text_feature", "visual_feature"):
                if getattr(obj, name).shape[0] != self.embedding_dim:
                    raise SceneValidationError(f"object {obj.id!r} {name} dimension is not "
                                               f"the header's {self.embedding_dim}")
            if obj.room_id is not None and obj.room_id not in room_ids and obj.room_id != HALLWAY_ROOM_ID:
                raise SceneValidationError(
                    f"object {obj.id!r} names unknown room {obj.room_id!r}"
                )
            x, y, _ = obj.centroid.tolist()
            fx, fy = (x - ox) / resolution, (y - oy) / resolution
            if not (math.isfinite(fx) and math.isfinite(fy)):
                raise SceneValidationError(
                    f"object {obj.id!r} centroid maps to no finite cell ({fx}, {fy})")
            cell = (math.floor(fx), math.floor(fy))
            if not (0 <= cell[0] < self.grid.width and 0 <= cell[1] < self.grid.height):
                raise SceneValidationError(
                    f"object {obj.id!r} centroid maps to out-of-bounds cell {cell}"
                )
        # a distance is measured through its square, which must stay finite
        # between any two points of the scene's bounds (the grid on the floor
        # and every box), each span doubled for an object moved onto a carrier
        lows = [(ox, oy, 0.0), *(obj.box.lo for obj in self.objects.values())]
        highs = [(ox + self.grid.width * resolution, oy + self.grid.height * resolution, 0.0),
                 *(obj.box.hi for obj in self.objects.values())]
        spans = [max(hi) - min(lo) for lo, hi in zip(zip(*lows), zip(*highs))]
        if not math.isfinite(sum((2.0 * s) * (2.0 * s) for s in spans)):
            raise SceneValidationError("scene spans too far to measure: "
                                       + " x ".join(f"{s:.3g}" for s in spans) + " m")

    def to_dict(self) -> dict:
        """The scene's file tree: each blocked cell once, sorted by
        ``(ix, iy)``, and in ``synthesize`` mode no feature whose bytes are
        its object's :func:`derived_feature`."""
        grid = self.grid
        return record_tree(_SceneFile(
            header=_SceneHeader(version=1, name=self.name, feature_mode=self.feature_mode,
                                embedding_dim=int(self.embedding_dim)),
            grid=_SceneGrid(width=int(grid.width), height=int(grid.height),
                            resolution=float(grid.resolution), origin=grid.origin,
                            blocked_cells=np.argwhere(grid.occupancy().T)),
            rooms=[_SceneRoom(id=room.id, polygon=room.polygon, name=room.name)
                   for room in self.rooms],
            objects=[self._file_object(obj) for obj in self.objects.values()],
        ))

    def _file_object(self, obj: ObjectInstance) -> "_SceneObject":
        derived = (derived_feature(obj.captions, self.embedding_dim).tobytes()
                   if self.feature_mode == "synthesize" else None)
        text, visual = (None if vec.tobytes() == derived else vec
                        for vec in (obj.text_feature, obj.visual_feature))
        return _SceneObject(id=obj.id, captions=list(obj.captions),
                            box=_SceneBox(min=obj.box.min, max=obj.box.max),
                            centroid=obj.centroid, text_feature=text, visual_feature=visual,
                            room_id=obj.room_id)


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
    return _in_polygon(float(point[0]), float(point[1]), _polygon_edges(polygon))


def _polygon_edges(polygon: np.ndarray) -> tuple:
    """Each edge of ``polygon`` as a pair of ``(x, y)`` Python-float
    vertices, the last vertex joined back to the first."""
    vertices = list(map(tuple, np.asarray(polygon, dtype=np.float64).tolist()))
    return tuple(zip(vertices, vertices[1:] + vertices[:1]))


def _in_polygon(x: float, y: float, edges) -> bool:
    """The ray-casting rule of :func:`point_in_polygon` over ``edges``."""
    inside = False
    for (x1, y1), (x2, y2) in edges:
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
    """Map each object id to the room containing its centroid (x, y): the
    first room, in order, that :func:`point_in_polygon` says holds it.

    Rooms are assumed non-overlapping; objects outside every room get the
    ``hallway`` sentinel.  The assignment is total.
    """
    out: Dict[str, str] = {}
    for obj in objects:
        x, y, _ = obj.centroid.tolist()
        out[obj.id] = next((room.id for room in rooms if _in_polygon(x, y, room.edges)),
                           HALLWAY_ROOM_ID)
    return out


def write_json(path: str, tree) -> None:
    """Write ``tree`` as the JSON file at ``path``, ended by one newline.

    Objects are laid out as ``json.dump(..., indent=2, sort_keys=True)``
    lays them out, and so is an array that holds an object at any depth:
    one item per line.  Every other value is one line from the C encoder,
    so an array of numbers costs what its numbers cost.  The text is built
    before the file is opened: a value the encoder refuses (NaN and inf
    raise ``ValueError``) leaves no file and an existing one untouched.
    """
    text = _json_text(tree, "\n") + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _json_text(value, newline: str) -> str:
    """``value`` as JSON, its nested lines starting with ``newline``."""
    inner = newline + "  "
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(value, (list, tuple)) and _holds_object(value):
        return "[" + inner + ("," + inner).join(_json_text(v, inner) for v in value) + newline + "]"
    return json.dumps(value, sort_keys=True, allow_nan=False)


def _holds_object(items) -> bool:
    """Whether array ``items`` holds an object at any depth, read one depth
    at a time (a long array of numbers costs one ``set(map(type, ...))``)."""
    while items:
        types = set(map(type, items))
        if any(issubclass(t, dict) for t in types):
            return True
        if not any(issubclass(t, (list, tuple)) for t in types):
            return False
        arrays = items if len(types) == 1 else [v for v in items if isinstance(v, (list, tuple))]
        items = list(chain.from_iterable(arrays))
    return False


# The JSON types each scalar annotation reads from: booleans are not
# numbers, and a float field takes any JSON number.
_JSON_TYPES = {str: {str}, int: {int}, float: {int, float}, bool: {bool},
               type(None): {type(None)}}


def read_record(cls, value, what: str):
    """Record dataclass ``cls`` read from the JSON object ``value``.

    Every key must be an init field, and every field without a default present.
    A value is read as its field's annotation: a record from an object, a
    ``List`` from an array, a fixed-length ``Tuple`` from an array of that
    length, a ``Union`` (``Optional`` too) as its first member that reads
    it, and a scalar only from its own JSON type (``_JSON_TYPES``), a number
    only if finite.  Arrays of scalars are checked in bulk; arrays of
    numbers read as float64 arrays, and arrays of integers as intp arrays
    (an integer beyond intp is a defect).  A defect, or a ``ValueError``
    from the record's own check, raises ``SceneParseError`` naming the
    value's path.
    """
    if type(value) is not dict:
        raise SceneParseError(f"{what} must be an object, not {value!r}")
    readers, required = _schema(cls)
    if not value.keys() <= readers.keys():
        raise SceneParseError(f"unknown {what} keys {sorted(value.keys() - readers.keys())}")
    if not required <= value.keys():
        raise SceneParseError(f"{what} is missing keys {sorted(required - value.keys())}")
    kwargs = {k: readers[k](v, f"{what}.{k}") for k, v in value.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise SceneParseError(f"{what}: {exc}") from None


@functools.cache
def _schema(cls) -> Tuple[Dict[str, Callable], set]:
    """The reader of each init field of record ``cls``, and its required
    fields, built once per class: a field computed at construction
    (``init=False``) is never read from a file."""
    init = [f for f in fields(cls) if f.init]
    hints = get_type_hints(cls)
    required = {f.name for f in init if f.default is MISSING and f.default_factory is MISSING}
    return {f.name: _reader(hints[f.name]) for f in init}, required


def _reader(hint) -> Callable:
    """``read(value, what)`` for annotation ``hint``."""
    if is_dataclass(hint):
        return functools.partial(read_record, hint)
    scalars = _scalar_array(hint)
    if scalars is not None:
        return functools.partial(_read_scalars, *scalars)
    origin, args = get_origin(hint), get_args(hint)
    readers = [_reader(h) for h in args]
    if origin is Union:
        return functools.partial(_read_union, readers)
    if origin in (list, tuple):
        return functools.partial(_read_array, readers, origin is tuple)
    raise TypeError(f"no JSON reader for annotation {hint!r}")


def _scalar_array(hint) -> Optional[Tuple[type, tuple]]:
    """``(scalar, lengths)`` when ``hint`` is a scalar or an array of one
    scalar type (``List[S]``, a fixed-length ``Tuple[S, ..., S]``, or a list
    or tuple of fixed-length tuples), with one length per level, ``None``
    for a list's; ``None`` for any other hint."""
    if hint in _JSON_TYPES:
        return hint, ()
    origin, args = get_origin(hint), get_args(hint)
    inner = _scalar_array(args[0]) if origin in (list, tuple) and len(set(args)) == 1 else None
    if inner is None or None in inner[1]:
        return None
    return inner[0], (len(args) if origin is tuple else None,) + inner[1]


def _read_scalars(scalar, lengths: tuple, value, what: str):
    flat = [value]
    for length in lengths:
        if not (set(map(type, flat)) <= {list}
                and (length is None or set(map(len, flat)) <= {length})):
            break
        flat = flat[0] if len(flat) == 1 else list(chain.from_iterable(flat))  # one list: no copy
    else:
        try:
            if set(map(type, flat)) <= _JSON_TYPES[scalar] and (
                    scalar is not float or all(map(math.isfinite, flat))):
                if scalar is int and lengths:
                    shape = [-1 if n is None else n for n in lengths]
                    return np.array(flat, dtype=np.intp).reshape(shape)
                return np.array(value, dtype=np.float64) if scalar is float and lengths else value
        except OverflowError:  # an integer beyond the float range, or in an array beyond intp
            pass
    raise SceneParseError(f"{what} has the wrong type: {value!r}")


def record_tree(record) -> dict:
    """The JSON tree of record dataclass ``record``, the inverse of
    :func:`read_record`: every init field, except a ``None`` whose default
    is ``None``; an array becomes a list, and a record in a list its tree."""
    return {f.name: _tree(getattr(record, f.name)) for f in fields(record)
            if f.init and not (f.default is None and getattr(record, f.name) is None)}


def _tree(value):
    if is_dataclass(value):
        return record_tree(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_tree(v) for v in value]
    return value


def _read_union(readers: list, value, what: str):
    for read in readers[:-1]:
        try:
            return read(value, what)
        except SceneParseError:
            pass
    return readers[-1](value, what)


def _read_array(readers: list, fixed: bool, value, what: str) -> list:
    if type(value) is not list or (fixed and len(value) != len(readers)):
        raise SceneParseError(f"{what} has the wrong type: {value!r}")
    return [read(v, f"{what}[{i}]")
            for i, (read, v) in enumerate(zip(readers if fixed else readers * len(value), value))]


@dataclass
class _SceneHeader:
    version: int
    name: str = "scene"
    feature_mode: str = "synthesize"
    embedding_dim: int = DEFAULT_EMBEDDING_DIM


@dataclass
class _SceneGrid:
    width: int
    height: int
    resolution: float = DEFAULT_GRID_RESOLUTION
    origin: Tuple[float, float] = (0.0, 0.0)
    blocked_cells: List[Tuple[int, int]] = field(default_factory=list)


@dataclass
class _SceneRoom:
    id: str
    polygon: List[Tuple[float, float]]
    name: str = ""


@dataclass
class _SceneBox:
    min: Tuple[float, float, float]
    max: Tuple[float, float, float]


@dataclass
class _SceneObject:
    id: str
    captions: List[str]
    box: _SceneBox
    centroid: Tuple[float, float, float]
    text_feature: Optional[List[float]] = None
    visual_feature: Optional[List[float]] = None
    room_id: Optional[str] = None


@dataclass
class _SceneFile:
    """A scene file, as :func:`read_record` reads it."""

    header: _SceneHeader
    grid: _SceneGrid
    rooms: List[_SceneRoom] = field(default_factory=list)
    objects: List[_SceneObject] = field(default_factory=list)


def _instance(raw: _SceneObject, feature_mode: str, dim: int) -> ObjectInstance:
    features = {name: getattr(raw, name) for name in ("text_feature", "visual_feature")}
    if any(vec is None for vec in features.values()):
        if feature_mode == "embedded":
            raise SceneValidationError(
                f"object {raw.id!r}: embedded feature mode requires stored features")
        # both missing features are the one derived array
        derived = derived_feature(raw.captions, dim)
        features = {name: derived if vec is None else vec for name, vec in features.items()}
    return ObjectInstance(id=raw.id, captions=tuple(raw.captions),
                          box=Box3(raw.box.min, raw.box.max), centroid=raw.centroid,
                          room_id=raw.room_id, **features)


def scene_from_dict(tree: dict) -> SceneMap:
    """Scene from a parsed JSON tree.

    A file-shape defect (see :func:`read_record`) or an unsupported version
    or feature mode raises ``SceneParseError``; content that breaks a scene
    invariant raises ``SceneValidationError``.
    """
    top = read_record(_SceneFile, tree, "scene")
    header, grid = top.header, top.grid
    if header.version != 1:
        raise SceneParseError(f"unsupported scene version {header.version!r}")
    if header.feature_mode not in ("embedded", "synthesize"):
        raise SceneParseError(f"unknown feature_mode {header.feature_mode!r}")
    dim = header.embedding_dim
    if not 0 < dim <= MAX_EMBEDDING_DIM:  # before any feature is derived
        raise SceneValidationError(f"embedding_dim must be in 1..{MAX_EMBEDDING_DIM}, got {dim}")
    objects: Dict[str, ObjectInstance] = {}
    for raw in top.objects:
        obj = _instance(raw, header.feature_mode, dim)
        if obj.id in objects:
            raise SceneValidationError(f"duplicate object id {obj.id!r}")
        objects[obj.id] = obj
    return SceneMap(
        name=header.name,
        objects=objects,
        rooms=[Room(id=r.id, polygon=r.polygon, name=r.name) for r in top.rooms],
        grid=GridSpec(resolution=float(grid.resolution), width=grid.width,
                      height=grid.height, origin=grid.origin,
                      blocked_cells=grid.blocked_cells),
        feature_mode=header.feature_mode,
        embedding_dim=dim,
    )


def load_scene(path: str) -> SceneMap:
    """Scene from the JSON file at ``path``; a file that cannot be read
    raises ``SceneParseError``, as invalid JSON does."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tree = json.load(fh)
    except OSError as exc:
        raise SceneParseError(f"{path}: cannot read ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise SceneParseError(f"{path}: invalid JSON ({exc})") from exc
    return scene_from_dict(tree)


def save_scene(scene: SceneMap, path: str) -> None:
    """Write ``scene`` as a file that loads back field-for-field equal: a
    feature left out is one the reader derives to the same bytes."""
    write_json(path, scene.to_dict())
