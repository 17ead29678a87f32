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

import functools
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from .graph import CrsgConfig, Query
from .policy import PolicyConfig, PolicyError, Task
from .priors import AFFINITY_RANKINGS
from .scene import SceneError, SceneMap, scene_from_dict
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


def _box_dict(cx: float, cy: float, ex: float, ey: float, z0: float, h: float) -> dict:
    return {
        "min": [cx - ex / 2.0, cy - ey / 2.0, z0],
        "max": [cx + ex / 2.0, cy + ey / 2.0, z0 + h],
    }


def _object_dict(oid: str, captions: Sequence[str], box: dict) -> dict:
    centroid = [(box["min"][i] + box["max"][i]) / 2.0 for i in range(3)]
    return {"id": oid, "captions": list(captions), "box": box, "centroid": centroid}


@dataclass
class _SceneDraft:
    """Mutable accumulator while a generator mode lays out a world."""

    name: str
    width_m: float
    height_m: float
    resolution: float
    objects: List[dict] = field(default_factory=list)
    rooms: List[dict] = field(default_factory=list)
    wall_cells: set = field(default_factory=set)
    used_ids: set = field(default_factory=set)
    used_item_tags: set = field(default_factory=set)

    @property
    def grid_shape(self) -> Tuple[int, int]:
        return (
            int(round(self.width_m / self.resolution)),
            int(round(self.height_m / self.resolution)),
        )

    def fresh_id(self, kind: str) -> str:
        n = 0
        while f"{kind}_{n}" in self.used_ids:
            n += 1
        oid = f"{kind}_{n}"
        self.used_ids.add(oid)
        return oid

    def add_boundary_walls(self):
        w, h = self.grid_shape
        for ix in range(w):
            self.wall_cells.add((ix, 0))
            self.wall_cells.add((ix, h - 1))
        for iy in range(h):
            self.wall_cells.add((0, iy))
            self.wall_cells.add((w - 1, iy))

    def add_wall_segment(self, x0: float, y0: float, x1: float, y1: float,
                         door_at: Optional[float] = None, door_width: float = 1.0):
        """Axis-aligned wall with an optional door gap centered at door_at
        (a coordinate along the segment's long axis)."""
        res = self.resolution
        w, h = self.grid_shape
        if abs(x1 - x0) < 1e-9:  # vertical
            ix = min(max(int(x0 / res), 0), w - 1)
            lo, hi = sorted((y0, y1))
            iy0, iy1 = max(int(lo / res), 0), min(int(hi / res), h - 1)
            for iy in range(iy0, iy1 + 1):
                cy = (iy + 0.5) * res
                if door_at is not None and abs(cy - door_at) <= door_width / 2.0:
                    continue
                self.wall_cells.add((ix, iy))
        elif abs(y1 - y0) < 1e-9:  # horizontal
            iy = min(max(int(y0 / res), 0), h - 1)
            lo, hi = sorted((x0, x1))
            ix0, ix1 = max(int(lo / res), 0), min(int(hi / res), w - 1)
            for ix in range(ix0, ix1 + 1):
                cx = (ix + 0.5) * res
                if door_at is not None and abs(cx - door_at) <= door_width / 2.0:
                    continue
                self.wall_cells.add((ix, iy))
        else:
            raise ScenarioError("walls must be axis-aligned")

    def add_room(self, room_id: str, x0: float, y0: float, x1: float, y1: float):
        self.rooms.append({
            "id": room_id,
            "polygon": [[x0, y0], [x1, y0], [x1, y1], [x0, y1]],
        })

    def add_carrier(self, attr: str, kind: str, cx: float, cy: float) -> str:
        ex, ey, h = CARRIER_EXTENTS[kind]
        oid = self.fresh_id(kind)
        self.objects.append(_object_dict(oid, carrier_captions(attr, kind),
                                         _box_dict(cx, cy, ex, ey, 0.0, h)))
        return oid

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
        carrier = next(o for o in self.objects if o["id"] == carrier_oid)
        top = carrier["box"]["max"][2]
        ccx = (carrier["box"]["min"][0] + carrier["box"]["max"][0]) / 2.0
        ccy = (carrier["box"]["min"][1] + carrier["box"]["max"][1]) / 2.0
        ex, ey, h = ITEM_EXTENTS[kind]
        oid = self.fresh_id(kind)
        self.objects.append(_object_dict(oid, item_captions(attr, kind),
                                         _box_dict(ccx + dx, ccy + dy, ex, ey, top, h)))
        return oid

    def blocked_cells(self) -> List[List[int]]:
        """Walls plus the footprint cells of every ground-contacting object."""
        res = self.resolution
        w, h = self.grid_shape
        cells = set(self.wall_cells)
        for obj in self.objects:
            if obj["box"]["min"][2] > 0.05:
                continue
            ix0 = int(obj["box"]["min"][0] / res)
            ix1 = int(math.ceil(obj["box"]["max"][0] / res)) - 1
            iy0 = int(obj["box"]["min"][1] / res)
            iy1 = int(math.ceil(obj["box"]["max"][1] / res)) - 1
            for ix in range(max(ix0, 0), min(ix1, w - 1) + 1):
                for iy in range(max(iy0, 0), min(iy1, h - 1) + 1):
                    cells.add((ix, iy))
        return [list(c) for c in sorted(cells)]

    def to_scene_dict(self) -> dict:
        w, h = self.grid_shape
        return {
            "header": {
                "version": 1,
                "name": self.name,
                "feature_mode": "synthesize",
                "embedding_dim": 256,
            },
            "grid": {
                "resolution": self.resolution,
                "width": w,
                "height": h,
                "origin": [0.0, 0.0],
                "blocked_cells": self.blocked_cells(),
            },
            "rooms": self.rooms,
            "objects": sorted(self.objects, key=lambda o: o["id"]),
        }


@dataclass
class EventSpec:
    trigger: str  # "before-episode" or "after-task-<k>"
    kind: str
    object_id: str
    target_carrier_id: Optional[str] = None
    spot_index: int = 0

    def to_dict(self) -> dict:
        d = {"trigger": self.trigger, "kind": self.kind, "object_id": self.object_id,
             "spot_index": self.spot_index}
        if self.target_carrier_id is not None:
            d["target_carrier_id"] = self.target_carrier_id
        return d

    def __post_init__(self):
        self.to_displacement()  # a valid displacement or a DisplacementError

    def to_displacement(self) -> DisplacementEvent:
        return DisplacementEvent(kind=self.kind, object_id=self.object_id,
                                 target_carrier_id=self.target_carrier_id)


@dataclass
class TaskSpec:
    query_text: Optional[str]
    ground_truth_id: str
    carrier_text: Optional[str] = None
    image: Optional[str] = None

    def to_dict(self) -> dict:
        d = {"query_text": self.query_text, "ground_truth_id": self.ground_truth_id}
        if self.carrier_text is not None:
            d["carrier_text"] = self.carrier_text
        if self.image is not None:
            d["image"] = self.image
        return d

    def __post_init__(self):
        self.to_task()  # exactly one of query_text and image, or a QueryError

    def to_task(self) -> Task:
        return Task(
            query=Query(text=self.query_text, image=self.image,
                        carrier_text=self.carrier_text),
            ground_truth_id=self.ground_truth_id,
        )


@dataclass
class Scenario:
    name: str
    mode: str
    seed: str
    scene: SceneMap
    start_pose: Pose
    sensor: SensorConfig
    policy: PolicyConfig
    crsg: CrsgConfig
    match: MatchConfig
    events: List[EventSpec]
    tasks: List[TaskSpec]

    def events_for(self, trigger: str) -> List[EventSpec]:
        return [e for e in self.events if e.trigger == trigger]

    def to_dict(self, scene_file: str) -> dict:
        return {
            "header": {"version": 1, "name": self.name, "mode": self.mode,
                       "seed": self.seed},
            "scene_file": scene_file,
            "start_pose": {"position": [float(self.start_pose.position[0]),
                                        float(self.start_pose.position[1])],
                           "heading": float(self.start_pose.heading)},
            "sensor": {"radius": self.sensor.radius, "fov": self.sensor.fov,
                       "occlusion": self.sensor.occlusion},
            "policy": asdict(self.policy),
            "crsg": asdict(self.crsg),
            "match": asdict(self.match),
            "events": [e.to_dict() for e in self.events],
            "tasks": [t.to_dict() for t in self.tasks],
        }


def _default_configs():
    return SensorConfig(), PolicyConfig(), CrsgConfig(), MatchConfig()


def _validate_reachable(scene: SceneMap, start: Pose) -> bool:
    """Every carrier-sized object must be reachable from the start pose."""
    try:
        world = GridWorld(scene, start_pose=start)
    except WorldError:
        return False
    dist_field = world.distance_field(start.position)
    return not any(
        math.isinf(dist_field.to_point(obj.centroid[:2]))
        for obj in scene.objects.values()
        if obj.box.min[2] <= 0.05
    )


def _jitter(rng: Random, magnitude: float) -> float:
    return (rng.random() * 2.0 - 1.0) * magnitude


# --- mode "single": one displaced target, geometry tiered by exploration cost


def _build_single(index: int, seed: str, rng: Random, resolution: float) -> Scenario:
    width, height = 20.0, 12.0
    draft = _SceneDraft(name=f"single_{index:04d}", width_m=width, height_m=height,
                        resolution=resolution)
    draft.add_boundary_walls()
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

    scene = scene_from_dict(draft.to_scene_dict())
    start = Pose(np.array(start_xy, dtype=np.float64))
    if not _validate_reachable(scene, start):
        raise ScenarioError(f"single_{index:04d}: unreachable layout")

    sensor, policy, crsg_cfg, match = _default_configs()
    events = [EventSpec(trigger="before-episode", kind="move", object_id=target_id,
                        target_carrier_id=carrier_ids["true"],
                        spot_index=rng.randrange(4))]
    tasks = [TaskSpec(query_text=f"{target_attr} {item_kind}",
                      ground_truth_id=target_id)]
    return Scenario(name=draft.name, mode="single", seed=seed, scene=scene,
                    start_pose=start, sensor=sensor, policy=policy, crsg=crsg_cfg,
                    match=match, events=events, tasks=tasks)


# --- mode "probe": five tasks, all targets pre-displaced to one carrier


def _build_probe(index: int, seed: str, rng: Random, resolution: float) -> Scenario:
    width, height = 18.0, 10.0
    draft = _SceneDraft(name=f"probe_{index:04d}", width_m=width, height_m=height,
                        resolution=resolution)
    draft.add_boundary_walls()
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

    scene = scene_from_dict(draft.to_scene_dict())
    # start one diagonal-plus-straight hop from the hub, matching the
    # typical hop between consecutive targets
    start = Pose(np.array([2.375, 5.375], dtype=np.float64))
    if not _validate_reachable(scene, start):
        raise ScenarioError(f"probe_{index:04d}: unreachable layout")

    sensor, policy, crsg_cfg, match = _default_configs()
    events = [EventSpec(trigger="before-episode", kind="move", object_id=cup_ids[k],
                        target_carrier_id=hub, spot_index=k)
              for k in range(5)]
    tasks = [TaskSpec(query_text=f"{attrs[k]} cup", ground_truth_id=cup_ids[k])
             for k in range(5)]
    return Scenario(name=draft.name, mode="probe", seed=seed, scene=scene,
                    start_pose=start, sensor=sensor, policy=policy, crsg=crsg_cfg,
                    match=match, events=events, tasks=tasks)


# --- mode "mixed": general worlds for construction/query/convergence checks


def _build_mixed(index: int, seed: str, rng: Random, resolution: float) -> Scenario:
    width, height = 14.0, 9.0
    draft = _SceneDraft(name=f"mixed_{index:04d}", width_m=width, height_m=height,
                        resolution=resolution)
    draft.add_boundary_walls()
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

    scene = scene_from_dict(draft.to_scene_dict())
    start = Pose(np.array([3.5 + _jitter(rng, 0.3), 4.5 + _jitter(rng, 0.3)],
                          dtype=np.float64))
    if not _validate_reachable(scene, start):
        raise ScenarioError(f"mixed_{index:04d}: unreachable layout")

    # draw displacement events, validating each against a scratch world so
    # a crowded small carrier never produces an unplaceable scenario
    scratch = GridWorld(scene, start_pose=start)
    crsg_cfg_draft = CrsgConfig()
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
                    scratch.apply_displacement(spec.to_displacement(),
                                               crsg_cfg_draft, spot_index=spot)
                except WorldError:
                    continue
                events.append(spec)
                break
        elif roll < 0.6:
            spec = EventSpec(trigger="before-episode", kind="remove", object_id=oid)
            scratch.apply_displacement(spec.to_displacement(), crsg_cfg_draft)
            events.append(spec)

    n_tasks = rng.randrange(1, min(4, len(item_ids) + 1))
    chosen = rng.sample(item_ids, n_tasks)
    tasks = []
    for oid in chosen:
        obj = next(o for o in draft.objects if o["id"] == oid)
        tasks.append(TaskSpec(query_text=obj["captions"][0], ground_truth_id=oid))

    sensor, policy, crsg_cfg, match = _default_configs()
    return Scenario(name=draft.name, mode="mixed", seed=seed, scene=scene,
                    start_pose=start, sensor=sensor, policy=policy, crsg=crsg_cfg,
                    match=match, events=events, tasks=tasks)


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
    raise ScenarioError("unreachable")


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
            with open(out / scene_file, "w") as fh:
                json.dump(sc.scene.to_dict(), fh, sort_keys=True, indent=2)
                fh.write("\n")
            with open(out / f"scenario_{i:04d}.json", "w") as fh:
                json.dump(sc.to_dict(scene_file), fh, sort_keys=True, indent=2)
                fh.write("\n")
    return scenarios


@dataclass
class _FileHeader:
    version: int
    name: Optional[str] = None
    mode: str = "mixed"
    seed: Union[str, int] = ""


@dataclass
class _FilePose:
    position: List[float]
    heading: float = 0.0

    def __post_init__(self):
        if len(self.position) != 2:
            raise ValueError("position must be [x, y]")


@dataclass
class _ScenarioFile:
    """A scenario file's top level, as :func:`_record` reads it."""

    header: _FileHeader
    scene_file: str
    start_pose: _FilePose
    tasks: List[TaskSpec]
    events: List[EventSpec] = field(default_factory=list)
    sensor: SensorConfig = field(default_factory=SensorConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    crsg: CrsgConfig = field(default_factory=CrsgConfig)
    match: MatchConfig = field(default_factory=MatchConfig)


def load_scenario(path: str) -> Scenario:
    """Load a scenario JSON; the scene file resolves relative to it.

    Any defect of the scenario file raises ``ScenarioError``: a missing or
    unknown key, a wrong JSON type, a value that fails its config's,
    event's or task's own check, a scene file that cannot be read or
    parsed (its ``SceneError`` is the cause), or a ``ground_truth_id`` or
    event object id that the scene lacks.
    """
    p = Path(path)
    with open(p) as fh:
        top = _record(_ScenarioFile, json.load(fh), "scenario", path)
    if top.header.version != 1:
        raise ScenarioError(f"{path}: unsupported scenario version")
    if not top.tasks:
        raise ScenarioError(f"{path}: scenario has no tasks")
    try:
        with open(p.parent / top.scene_file) as fh:
            scene = scene_from_dict(json.load(fh))
    except (OSError, json.JSONDecodeError, SceneError) as exc:
        raise ScenarioError(f"{path}: cannot load the scene file: {exc}") from exc
    for t in top.tasks:
        if t.ground_truth_id not in scene.objects:
            raise ScenarioError(
                f"{path}: ground_truth_id {t.ground_truth_id!r} is not in the scene")
    for e in top.events:
        for key, oid in (("object_id", e.object_id), ("target_carrier_id", e.target_carrier_id)):
            if oid is not None and oid not in scene.objects:
                raise ScenarioError(f"{path}: event {key} {oid!r} is not in the scene")
    header, pose = top.header, top.start_pose
    return Scenario(name=header.name if header.name is not None else p.stem,
                    mode=header.mode, seed=str(header.seed), scene=scene,
                    start_pose=Pose(np.array(pose.position, dtype=np.float64),
                                    heading=float(pose.heading)),
                    sensor=top.sensor, policy=top.policy, crsg=top.crsg,
                    match=top.match, events=top.events, tasks=top.tasks)


def _record(cls, value, what: str, path: str):
    """Dataclass ``cls`` read from the JSON object ``value``, or a ScenarioError.

    Each value is read as its field's annotation: a dataclass from an
    object, ``List[X]`` from a list, a scalar only from its own JSON type
    (booleans are not numbers; numbers must be finite).
    """
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: {what} must be an object, not {value!r}")
    hints = _type_hints(cls)
    unknown = sorted(set(value) - set(hints))
    if unknown:
        raise ScenarioError(f"{path}: unknown {what} keys {unknown}")
    missing = [f.name for f in fields(cls) if f.name not in value
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ScenarioError(f"{path}: {what} is missing keys {missing}")
    kwargs = {k: _read(v, hints[k], f"{what}.{k}", path) for k, v in value.items()}
    try:
        return cls(**kwargs)
    except (ValueError, PolicyError) as exc:
        raise ScenarioError(f"{path}: {what}: {exc}") from None


@functools.cache
def _type_hints(cls) -> dict:
    """The field annotations of dataclass ``cls``, resolved once per class."""
    return get_type_hints(cls)


def _read(value, hint, what: str, path: str):
    if is_dataclass(hint):
        return _record(hint, value, what, path)
    if get_origin(hint) is list:
        if isinstance(value, list):
            return [_read(v, get_args(hint)[0], f"{what}[{i}]", path) for i, v in enumerate(value)]
    elif any(_is_scalar(value, h) for h in get_args(hint) or (hint,)):
        return value
    raise ScenarioError(f"{path}: {what} has the wrong type: {value!r}")


def _is_scalar(value, hint) -> bool:
    if isinstance(value, bool) or hint is bool:
        return isinstance(value, bool) and hint is bool
    if hint is float:  # any finite JSON number
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, hint)
