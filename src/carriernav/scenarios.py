"""Deterministic scenario generation for the benchmark harness.

A scenario bundles a scene (the belief at graph-build time), a start pose,
displacement events applied to the live world, and the task list.  Three
generator modes cover the benchmark axes:

- ``single``: one task per scenario, one object displaced to a carrier
  near its believed location.  Exercises the stale-belief-to-sighting
  recovery and the exploration ablations.
- ``probe``: five-task sequences where every target is displaced to one
  shared carrier before the first task, so task 1 pays the discovery
  cost and later tasks measure whether the graph learned anything.
- ``mixed``: general multi-room worlds with random displacements and
  removals, used for construction, query, convergence and determinism
  checks.

All randomness flows through one ``random.Random`` seeded per scenario
with ``f"{seed}/{index}"``; files are emitted with sorted keys so a rerun
is byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .features import DEFAULT_EMBEDDING_DIM
from .graph import GROUND_CONTACT_EPS, CrsgConfig
from .policy import PolicyConfig, PolicyError, Task
from .priors import AFFINITY_RANKINGS
from .scene import (Box3, GridSpec, ObjectInstance, Room, SceneError, SceneMap, SceneParseError,
                    derived_feature, load_scene, read_record, record_tree, save_scene, write_json)
from .update import MatchConfig
from .world import DisplacementEvent, GridWorld, Pose, SensorConfig, WorldError


class ScenarioError(ValueError):
    pass


GENERATOR_GRID_RESOLUTION = 0.25

ATTRIBUTES = ("red", "blue", "black", "white", "green", "brown")
CARRIER_KINDS = ("table", "desk", "shelf", "cabinet", "counter", "bed")
ITEM_KINDS = ("cup", "book", "clock", "bottle", "lamp", "plant", "phone", "controller")

# footprint x, footprint y, height (meters); all pass the carrier gates
CARRIER_EXTENTS: Dict[str, Tuple[float, float, float]] = {
    "table": (1.2, 0.8, 0.75),
    "desk": (1.2, 0.7, 0.75),
    "shelf": (1.0, 0.4, 1.8),
    "cabinet": (0.9, 0.5, 1.0),
    "counter": (1.6, 0.6, 0.9),
    "bed": (1.9, 1.4, 0.55),
}

ITEM_EXTENTS: Dict[str, Tuple[float, float, float]] = {
    "cup": (0.08, 0.08, 0.12),
    "book": (0.20, 0.15, 0.05),
    "clock": (0.12, 0.06, 0.12),
    "bottle": (0.07, 0.07, 0.24),
    "lamp": (0.18, 0.18, 0.40),
    "plant": (0.20, 0.20, 0.35),
    "phone": (0.15, 0.07, 0.02),
    "controller": (0.16, 0.10, 0.04),
}


def carrier_captions(attr: str, kind: str) -> List[str]:
    return [f"{attr} {kind}", kind]


def item_captions(attr: str, kind: str) -> List[str]:
    # attribute twice, kind three times: keeps same-kind lookalikes above
    # the admission threshold but below the confirmation threshold
    return [f"{attr} {kind}", f"{attr} {kind}", kind]


@dataclass
class _SceneDraft:
    """Mutable accumulator while a generator mode lays out a world."""

    name: str
    width_m: float
    height_m: float
    resolution: float
    objects: Dict[str, ObjectInstance] = field(default_factory=dict)
    rooms: List[Room] = field(default_factory=list)
    used_item_tags: set = field(default_factory=set)
    # (w, h) bool array over the grid, True at each wall cell; a draft
    # starts walled in
    walls: np.ndarray = field(init=False)

    def __post_init__(self):
        self.walls = np.ones((int(round(self.width_m / self.resolution)),
                              int(round(self.height_m / self.resolution))), dtype=bool)
        self.walls[1:-1, 1:-1] = False

    def fresh_id(self, kind: str) -> str:
        n = 0
        while f"{kind}_{n}" in self.objects:
            n += 1
        return f"{kind}_{n}"

    def add_wall_segment(self, x0: float, y0: float, x1: float, y1: float,
                         door_at: Optional[float] = None, door_width: float = 1.0):
        """Axis-aligned wall with an optional door gap centered at door_at
        (a coordinate along the segment's long axis)."""
        res = self.resolution
        w, h = self.walls.shape
        if abs(x1 - x0) < 1e-9:  # vertical
            wall, along, size = self.walls[min(max(int(x0 / res), 0), w - 1)], (y0, y1), h
        elif abs(y1 - y0) < 1e-9:  # horizontal
            wall, along, size = self.walls[:, min(max(int(y0 / res), 0), h - 1)], (x0, x1), w
        else:
            raise ScenarioError("walls must be axis-aligned")
        lo, hi = sorted(along)
        cells = np.arange(max(int(lo / res), 0), min(int(hi / res), size - 1) + 1)
        if door_at is not None:
            cells = cells[~(np.abs((cells + 0.5) * res - door_at) <= door_width / 2.0)]
        wall[cells] = True

    def add_room(self, room_id: str, x0: float, y0: float, x1: float, y1: float):
        self.rooms.append(Room(id=room_id, polygon=[[x0, y0], [x1, y0], [x1, y1], [x0, y1]]))

    def add_object(self, kind: str, captions: List[str], cx: float, cy: float, z0: float,
                   extents: Tuple[float, float, float]) -> str:
        """A new ``kind`` object with its footprint centered at ``(cx, cy)``
        and its bottom at ``z0``; both its features are the one a
        ``synthesize`` scene derives from its captions."""
        ex, ey, h = extents
        box = Box3([cx - ex / 2.0, cy - ey / 2.0, z0], [cx + ex / 2.0, cy + ey / 2.0, z0 + h])
        feature = derived_feature(captions, DEFAULT_EMBEDDING_DIM)
        oid = self.fresh_id(kind)
        self.objects[oid] = ObjectInstance(id=oid, captions=tuple(captions), box=box,
                                           centroid=box.center, text_feature=feature,
                                           visual_feature=feature)
        return oid

    def add_carrier(self, attr: str, kind: str, cx: float, cy: float) -> str:
        return self.add_object(kind, carrier_captions(attr, kind), cx, cy, 0.0,
                               CARRIER_EXTENTS[kind])

    def add_item_on(self, attr: str, kind: str, carrier_oid: str,
                    dx: float = 0.0, dy: float = 0.0) -> str:
        """Seat a new item on a carrier's top surface, offset from its center.

        Duplicate (attribute, kind) pairs are rejected: every item caption in
        a scene must resolve to exactly one instance.
        """
        tag = (attr, kind)
        if tag in self.used_item_tags:
            raise ScenarioError(f"duplicate item {tag} in scene {self.name}")
        self.used_item_tags.add(tag)
        carrier = self.objects[carrier_oid]
        ccx, ccy, _ = carrier.centroid.tolist()
        return self.add_object(kind, item_captions(attr, kind), ccx + dx, ccy + dy,
                               carrier.box.hi[2], ITEM_EXTENTS[kind])

    def blocked_cells(self) -> np.ndarray:
        """Walls plus the footprint cells of every ground-contacting object,
        as an ``(n, 2)`` intp array of ``(ix, iy)`` rows sorted by
        ``(ix, iy)``."""
        res = self.resolution
        w, h = self.walls.shape
        occ = self.walls.copy()
        for obj in self.objects.values():
            lo, hi = obj.box.lo, obj.box.hi
            if lo[2] <= GROUND_CONTACT_EPS:  # clipped to the grid; a stop below 0 would count from the end
                occ[max(int(lo[0] / res), 0):max(min(math.ceil(hi[0] / res), w), 0),
                    max(int(lo[1] / res), 0):max(min(math.ceil(hi[1] / res), h), 0)] = True
        return np.argwhere(occ)

    def to_scene(self) -> SceneMap:
        """The ``synthesize`` scene laid out so far, its objects sorted by id."""
        w, h = self.walls.shape
        return SceneMap(name=self.name, objects=dict(sorted(self.objects.items())),
                        rooms=self.rooms,
                        grid=GridSpec(resolution=float(self.resolution), width=w, height=h,
                                      blocked_cells=self.blocked_cells()))


@dataclass(frozen=True)
class EventSpec(DisplacementEvent):
    """A scenario file's event: a displacement and the trigger that fires
    it, ``before-episode`` or ``after-task-<k>``."""

    trigger: str = field(kw_only=True)


@dataclass
class Scenario:
    name: str
    mode: str
    seed: str
    scene: SceneMap
    start_pose: Pose
    events: List[EventSpec]
    tasks: List[Task]
    sensor: SensorConfig = field(default_factory=SensorConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    crsg: CrsgConfig = field(default_factory=CrsgConfig)
    match: MatchConfig = field(default_factory=MatchConfig)

    def events_for(self, trigger: str) -> List[EventSpec]:
        return [e for e in self.events if e.trigger == trigger]

    def to_dict(self, scene_file: str) -> dict:
        """The scenario's file tree, its scene in ``scene_file``."""
        return record_tree(_ScenarioFile(
            header=_FileHeader(version=1, name=self.name, mode=self.mode, seed=self.seed),
            scene_file=scene_file,
            start_pose=_FilePose(position=self.start_pose.position,
                                 heading=float(self.start_pose.heading)),
            tasks=self.tasks, events=self.events, sensor=self.sensor, policy=self.policy,
            crsg=self.crsg, match=self.match,
        ))


def _reachable_world(scene: SceneMap, start: Pose) -> GridWorld:
    """The world of ``scene`` from ``start``; a blocked start, or a
    carrier-sized object the start cannot reach, rejects the layout."""
    try:
        world = GridWorld(scene, start_pose=start)
    except WorldError:
        pass
    else:
        if all(world.connected(start.position, obj.centroid[:2])
               for obj in scene.objects.values() if obj.box.min[2] <= GROUND_CONTACT_EPS):
            return world
    raise ScenarioError(f"{scene.name}: unreachable layout")


def _jitter(rng: Random, magnitude: float) -> float:
    return (rng.random() * 2.0 - 1.0) * magnitude


# --- mode "single": one displaced target, geometry tiered by exploration cost


def _build_single(index: int, seed: str, rng: Random, resolution: float) -> Scenario:
    width, height = 20.0, 12.0
    draft = _SceneDraft(name=f"single_{index:04d}", width_m=width, height_m=height,
                        resolution=resolution)
    draft.add_room("room_a", 0.0, 0.0, width, height)

    item_kind = ITEM_KINDS[rng.randrange(len(ITEM_KINDS))]
    ranking = AFFINITY_RANKINGS[item_kind]
    # carriers present: the item's five most plausible kinds
    kinds = list(ranking[:5])
    first_kind, true_kind = kinds[0], kinds[1]
    rest = kinds[2:]
    rng.shuffle(rest)
    stale_kind, decoy_kinds = rest[0], rest[1:]

    mirror = rng.random() < 0.5  # flip the layout top/bottom for variety

    def pt(x, y):
        return (x, height - y) if mirror else (x, y)

    start_xy = pt(3.0 + _jitter(rng, 0.3), 6.0 + _jitter(rng, 0.3))
    stale_xy = pt(4.5 + _jitter(rng, 0.3), 9.0 + _jitter(rng, 0.3))
    true_xy = (stale_xy[0] + 1.6, stale_xy[1])
    first_xy = pt(5.0 + _jitter(rng, 0.4), 3.0 + _jitter(rng, 0.3))
    decoy_xys = [pt(17.0 + _jitter(rng, 0.5), 2.5 + _jitter(rng, 0.4)),
                 pt(17.0 + _jitter(rng, 0.5), 9.5 + _jitter(rng, 0.4))]

    attrs = list(ATTRIBUTES)
    rng.shuffle(attrs)
    carrier_ids = {}
    carrier_ids["first"] = draft.add_carrier(attrs[0], first_kind, *first_xy)
    carrier_ids["true"] = draft.add_carrier(attrs[1], true_kind, *true_xy)
    carrier_ids["stale"] = draft.add_carrier(attrs[2], stale_kind, *stale_xy)
    for i, xy in enumerate(decoy_xys):
        carrier_ids[f"decoy{i}"] = draft.add_carrier(attrs[3 + i], decoy_kinds[i], *xy)

    target_attr = attrs[rng.randrange(len(attrs))]
    target_id = draft.add_item_on(target_attr, item_kind, carrier_ids["stale"],
                                  dx=_jitter(rng, 0.15), dy=_jitter(rng, 0.1))

    # filler items of other kinds keep the world busy without looking
    # like the target (cross-kind similarity stays below admission)
    other_kinds = [k for k in ITEM_KINDS if k != item_kind]
    rng.shuffle(other_kinds)
    for slot, kind in zip(("first", "decoy0", "decoy1"), other_kinds):
        if rng.random() < 0.7:
            draft.add_item_on(attrs[rng.randrange(len(attrs))], kind,
                              carrier_ids[slot], dx=_jitter(rng, 0.2),
                              dy=_jitter(rng, 0.1))

    scene = draft.to_scene()
    start = Pose(np.array(start_xy, dtype=np.float64))
    _reachable_world(scene, start)

    events = [EventSpec(trigger="before-episode", kind="move", object_id=target_id,
                        target_carrier_id=carrier_ids["true"],
                        spot_index=rng.randrange(4))]
    tasks = [Task(query_text=f"{target_attr} {item_kind}", ground_truth_id=target_id)]
    return Scenario(name=draft.name, mode="single", seed=seed, scene=scene,
                    start_pose=start, events=events, tasks=tasks)


# --- mode "probe": five tasks, all targets pre-displaced to one carrier


def _build_probe(index: int, seed: str, rng: Random, resolution: float) -> Scenario:
    width, height = 18.0, 10.0
    draft = _SceneDraft(name=f"probe_{index:04d}", width_m=width, height_m=height,
                        resolution=resolution)
    draft.add_room("room_a", 0.0, 0.0, width, height)

    # six carriers of one kind so the rank oracle ties and explores in id
    # order; the believed tables mirror about the room's horizontal midline
    # and the believed-carrier assignment rotates with the scenario index,
    # so averaged over five scenarios every task slot sees the same
    # multiset of stale-trip lengths
    table_xys = [(10.5, 2.0), (10.5, 8.0), (13.5, 2.0), (13.5, 8.0), (16.0, 5.0),
                 (3.6, 5.0)]
    table_ids = []
    for i, xy in enumerate(table_xys):
        table_ids.append(draft.add_carrier(ATTRIBUTES[i], "table", *xy))
    hub = table_ids[5]  # every target ends up here

    rotation = index % 5
    attrs = ATTRIBUTES[:5]
    cup_ids = []
    for k in range(5):
        believed = table_ids[(k + rotation) % 5]
        cup_ids.append(draft.add_item_on(attrs[k], "cup", believed))

    scene = draft.to_scene()
    # start one diagonal-plus-straight hop from the hub, matching the
    # typical hop between consecutive targets
    start = Pose(np.array([2.375, 5.375], dtype=np.float64))
    _reachable_world(scene, start)

    events = [EventSpec(trigger="before-episode", kind="move", object_id=cup_ids[k],
                        target_carrier_id=hub, spot_index=k)
              for k in range(5)]
    tasks = [Task(query_text=f"{attrs[k]} cup", ground_truth_id=cup_ids[k])
             for k in range(5)]
    return Scenario(name=draft.name, mode="probe", seed=seed, scene=scene,
                    start_pose=start, events=events, tasks=tasks)


# --- mode "mixed": general worlds for construction/query/convergence checks


def _build_mixed(index: int, seed: str, rng: Random, resolution: float) -> Scenario:
    width, height = 14.0, 9.0
    draft = _SceneDraft(name=f"mixed_{index:04d}", width_m=width, height_m=height,
                        resolution=resolution)
    split = 7.0
    draft.add_room("room_a", 0.0, 0.0, split, height)
    draft.add_room("room_b", split, 0.0, width, height)
    draft.add_wall_segment(split, 0.0, split, height,
                           door_at=2.5 + rng.random() * (height - 5.0),
                           door_width=1.2)

    n_carriers = rng.randrange(3, 7)
    kinds = list(CARRIER_KINDS)
    rng.shuffle(kinds)
    kinds = kinds[:n_carriers]
    # slot grid keeps furniture off walls and apart from each other
    slots = [(2.0, 2.0), (2.0, 7.0), (5.0, 4.5), (9.0, 2.0), (9.0, 7.0), (12.0, 4.5)]
    rng.shuffle(slots)
    attrs = list(ATTRIBUTES)
    rng.shuffle(attrs)
    carrier_ids = []
    for i, kind in enumerate(kinds):
        x, y = slots[i]
        carrier_ids.append(draft.add_carrier(attrs[i % len(attrs)], kind,
                                             x + _jitter(rng, 0.3),
                                             y + _jitter(rng, 0.3)))

    kind_of = {cid: cid.rsplit("_", 1)[0] for cid in carrier_ids}

    def affinity_carrier(item_kind: str) -> str:
        for want in AFFINITY_RANKINGS[item_kind]:
            for cid in carrier_ids:
                if kind_of[cid] == want:
                    return cid
        return carrier_ids[0]

    n_items = rng.randrange(2, 9)
    item_ids = []
    placed_on: Dict[str, str] = {}
    pool = [(a, k) for k in ITEM_KINDS for a in ATTRIBUTES]
    rng.shuffle(pool)
    # guarantee one same-kind, distinct-attribute pair on distinct carriers
    # so carrier-scoped queries have something to disambiguate
    if len(carrier_ids) >= 2 and n_items >= 2:
        pair_kind = ITEM_KINDS[rng.randrange(len(ITEM_KINDS))]
        pair_attrs = rng.sample(ATTRIBUTES, 2)
        pair_carriers = rng.sample(carrier_ids, 2)
        for attr, cid in zip(pair_attrs, pair_carriers):
            oid = draft.add_item_on(attr, pair_kind, cid,
                                    dx=_jitter(rng, 0.2), dy=_jitter(rng, 0.12))
            item_ids.append(oid)
            placed_on[oid] = cid
            pool = [(a, k) for (a, k) in pool if (a, k) != (attr, pair_kind)]
    while len(item_ids) < n_items and pool:
        attr, kind = pool.pop()
        if (attr, kind) in draft.used_item_tags:
            continue
        cid = affinity_carrier(kind) if rng.random() < 0.7 else \
            carrier_ids[rng.randrange(len(carrier_ids))]
        oid = draft.add_item_on(attr, kind, cid,
                                dx=_jitter(rng, 0.2), dy=_jitter(rng, 0.12))
        item_ids.append(oid)
        placed_on[oid] = cid

    scene = draft.to_scene()
    start = Pose(np.array([3.5 + _jitter(rng, 0.3), 4.5 + _jitter(rng, 0.3)],
                          dtype=np.float64))
    # draw displacement events, validating each on the layout's world with the
    # scenario's config, so a crowded small carrier never makes an unplaceable one
    world = _reachable_world(scene, start)
    config = CrsgConfig()
    events = []
    for oid in item_ids:
        roll = rng.random()
        if roll < 0.5 and len(carrier_ids) >= 2:
            others = [c for c in carrier_ids if c != placed_on[oid]]
            rng.shuffle(others)
            spot = rng.randrange(4)
            for target in others:
                spec = EventSpec(trigger="before-episode", kind="move",
                                 object_id=oid, target_carrier_id=target,
                                 spot_index=spot)
                try:
                    world.apply_displacement(spec, config)
                except WorldError:
                    continue
                events.append(spec)
                break
        elif roll < 0.6:
            spec = EventSpec(trigger="before-episode", kind="remove", object_id=oid)
            world.apply_displacement(spec, config)
            events.append(spec)

    n_tasks = rng.randrange(1, min(4, len(item_ids) + 1))
    chosen = rng.sample(item_ids, n_tasks)
    tasks = [Task(query_text=scene.objects[oid].captions[0], ground_truth_id=oid)
             for oid in chosen]

    return Scenario(name=draft.name, mode="mixed", seed=seed, scene=scene,
                    start_pose=start, events=events, tasks=tasks, crsg=config)


_BUILDERS = {"single": _build_single, "probe": _build_probe, "mixed": _build_mixed}

MODES = tuple(sorted(_BUILDERS))


def build_scenario(mode: str, index: int, seed: int,
                   resolution: float = GENERATOR_GRID_RESOLUTION) -> Scenario:
    """Build one scenario deterministically from (mode, index, seed)."""
    if mode not in _BUILDERS:
        raise ScenarioError(f"unknown mode {mode!r}; expected one of {MODES}")
    tag = f"{seed}/{index}"
    rng = Random(tag)
    for attempt in range(8):
        try:
            return _BUILDERS[mode](index, tag, rng, resolution)
        except ScenarioError:
            if attempt == 7:
                raise
            rng = Random(f"{tag}/retry{attempt}")


def generate_scenarios(mode: str, count: int, seed: int,
                       out_dir: Optional[str] = None,
                       resolution: float = GENERATOR_GRID_RESOLUTION
                       ) -> List[Scenario]:
    """Build ``count`` scenarios; write scene/scenario JSON pairs if
    ``out_dir`` is given.  Output is byte-identical for equal arguments."""
    if count < 1:
        raise ScenarioError("count must be positive")
    scenarios = [build_scenario(mode, i, seed, resolution) for i in range(count)]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, sc in enumerate(scenarios):
            scene_file = f"scene_{i:04d}.json"
            save_scene(sc.scene, str(out / scene_file))
            write_json(str(out / f"scenario_{i:04d}.json"), sc.to_dict(scene_file))
    return scenarios


@dataclass
class _FileHeader:
    version: int
    name: Optional[str] = None
    mode: str = "mixed"
    seed: Union[str, int] = ""


@dataclass
class _FilePose:
    position: Tuple[float, float]
    heading: float = 0.0


@dataclass
class _ScenarioFile:
    """A scenario file's top level, as :func:`~carriernav.scene.read_record`
    reads it."""

    header: _FileHeader
    scene_file: str
    start_pose: _FilePose
    tasks: List[Task]
    events: List[EventSpec] = field(default_factory=list)
    sensor: SensorConfig = field(default_factory=SensorConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    crsg: CrsgConfig = field(default_factory=CrsgConfig)
    match: MatchConfig = field(default_factory=MatchConfig)


def _read_scenario_file(path: str) -> _ScenarioFile:
    """The file's record; a header without a name takes the file's stem."""
    try:
        with open(path) as fh:
            top = read_record(_ScenarioFile, json.load(fh), "scenario")
    except (OSError, json.JSONDecodeError, SceneParseError, PolicyError) as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    if top.header.name is None:
        top.header.name = Path(path).stem
    return top


def scenario_name(path: str) -> str:
    """The name :func:`load_scenario` gives, read from the scenario file alone."""
    return _read_scenario_file(path).header.name


def load_scenario(path: str) -> Scenario:
    """Load a scenario JSON; the scene file resolves relative to it.

    Both files are read by ``scene.read_record``, events as ``EventSpec``
    (a ``world.DisplacementEvent`` with a trigger) and tasks as
    ``policy.Task``.  Any defect of the scenario file raises
    ``ScenarioError``: a file that cannot be read, invalid JSON, an unknown
    or missing key, a wrong JSON type or a non-finite number, a value that
    fails its config's, event's or task's own check (``PolicyConfig``'s
    raises ``PolicyError``, the others a ``ValueError``; a task's query
    fails ``graph.Query``'s), a scene file that
    cannot be read or parsed (its ``SceneError`` is the cause), a
    ``ground_truth_id`` or event object id that the scene lacks, or an
    event trigger that never fires: anything but ``before-episode`` or
    ``after-task-<k>`` with 1 <= k <= the number of tasks.
    """
    top = _read_scenario_file(path)
    if top.header.version != 1:
        raise ScenarioError(f"{path}: unsupported scenario version")
    if not top.tasks:
        raise ScenarioError(f"{path}: scenario has no tasks")
    try:
        scene = load_scene(str(Path(path).parent / top.scene_file))
    except SceneError as exc:
        raise ScenarioError(f"{path}: cannot load the scene file: {exc}") from exc
    for t in top.tasks:
        if t.ground_truth_id not in scene.objects:
            raise ScenarioError(
                f"{path}: ground_truth_id {t.ground_truth_id!r} is not in the scene")
    triggers = {"before-episode"} | {f"after-task-{k}" for k in range(1, len(top.tasks) + 1)}
    for e in top.events:
        if e.trigger not in triggers:
            raise ScenarioError(f"{path}: event trigger {e.trigger!r} never fires; expected "
                                f"before-episode or after-task-<k>, 1 <= k <= {len(top.tasks)}")
        for key, oid in (("object_id", e.object_id), ("target_carrier_id", e.target_carrier_id)):
            if oid is not None and oid not in scene.objects:
                raise ScenarioError(f"{path}: event {key} {oid!r} is not in the scene")
    header, pose = top.header, top.start_pose
    return Scenario(name=header.name,
                    mode=header.mode, seed=str(header.seed), scene=scene,
                    start_pose=Pose(pose.position, heading=float(pose.heading)),
                    sensor=top.sensor, policy=top.policy, crsg=top.crsg,
                    match=top.match, events=top.events, tasks=top.tasks)
