"""Carrier-relationship scene graph: construction and querying.

The graph layers a scene into rooms, carriers (large ground-contacting
furniture) and the objects each carrier holds.  Construction is a three
stage funnel over all scene objects:

    similarity to a carrier reference text  ->  prior oracle  ->  geometry

followed by an exclusive assignment of every remaining object to at most
one carrier via a geometric carrying predicate.  Objects that are neither
carriers nor carried are orphans (static clutter such as doors or rugs).
Each carrier node records its room, assigned at build to carriers only: a
carried object's room is its carrier's.  Carriers are static: the carrier
table is fixed at build, and only carried sets change.  Answers about a
scene's instances are kept with the scene's facts (``carriernav.facts``):
the funnel's answer per (objects, rooms, config, oracle) and a match per
(sighting, carrier table, config).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import facts
from .features import Feature, cosine, strip_image_prefix, text_feature, tokenize
from .priors import CarrierPriorOracle, KeywordPriorOracle
from .scene import ObjectInstance, Room, SceneMap, assign_rooms, distance


class GraphError(ValueError):
    pass


class QueryError(GraphError):
    pass


# Carrier kinds understood by the weighted reference text below.  Word
# repetition is intentional: the hashing embedder counts tokens, so a
# four-fold repeat weights furniture kinds against the glue words enough
# that realistic carrier captions clear the default similarity threshold.
REFERENCE_CARRIER_KINDS: Tuple[str, ...] = (
    "table", "desk", "shelf", "cabinet", "counter", "bed",
)
CARRIER_REFERENCE_PHRASE = "furniture for holding objects"
DEFAULT_CARRIER_REFERENCE = CARRIER_REFERENCE_PHRASE + " " + " ".join(
    " ".join([kind] * 4) for kind in REFERENCE_CARRIER_KINDS
)

# m, the highest bottom face that still counts as resting on the ground: a
# carrier's, and a generated scene's blocked footprint's
GROUND_CONTACT_EPS = 0.05


@dataclass(frozen=True)
class CrsgConfig:
    """Thresholds for carrier selection and the carrying predicate: a frozen
    value, hashed by its fields, so it is the config part of every kept
    answer's key."""

    sigma: float = 0.35                 # carrier-similarity threshold
    min_footprint_area: float = 0.10    # m^2
    min_height: float = 0.25            # m
    ground_contact_eps: float = GROUND_CONTACT_EPS  # m, max bottom-face altitude
    overlap_rate: float = 0.5           # fraction of the object footprint
    z_gap_max: float = 0.15             # m, resting gap above the top face
    max_carried_footprint: float = 0.25  # m^2
    carrier_reference: str = DEFAULT_CARRIER_REFERENCE

    def __post_init__(self):
        if not (0.0 < self.overlap_rate <= 1.0):
            raise GraphError(f"overlap_rate must be in (0, 1], got {self.overlap_rate}")
        for name in ("min_footprint_area", "min_height", "max_carried_footprint"):
            if getattr(self, name) <= 0:
                raise GraphError(f"{name} must be positive")
        for name in ("ground_contact_eps", "z_gap_max"):
            if getattr(self, name) < 0:
                raise GraphError(f"{name} must be non-negative")


@dataclass(frozen=True, eq=False)
class CarrierNode:
    object: ObjectInstance
    room: str
    carried: Dict[str, ObjectInstance] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class Crsg:
    """Rooms, carriers with carried sets, and loose orphan objects.  The
    carrier table is a read-only copy of ``carriers``, keyed by object id,
    of frozen nodes, each naming its carrier's room, whose carried dicts
    are the only part that changes; ``carrier_objects`` holds its
    instances in order, the one such tuple."""

    building: str
    rooms: List[Room]
    carriers: Mapping[str, CarrierNode]
    orphan_objects: Dict[str, ObjectInstance]
    # Objects removed from their believed carrier by an update and not yet
    # re-observed anywhere; they stay queryable but have no known position.
    missing: Dict[str, ObjectInstance] = field(default_factory=dict)
    carrier_objects: Tuple[ObjectInstance, ...] = field(init=False, repr=False)

    def __post_init__(self):
        carriers = MappingProxyType(dict(self.carriers))
        for cid, node in carriers.items():
            if cid != node.object.id:
                raise GraphError(f"carrier {node.object.id!r} is keyed by {cid!r}")
        object.__setattr__(self, "carriers", carriers)
        object.__setattr__(self, "carrier_objects",
                           tuple(node.object for node in carriers.values()))

    def carrier_of(self, object_id: str) -> Optional[str]:
        for cid, node in self.carriers.items():
            if object_id in node.carried:
                return cid
        return None

    def detach(self, object_id: str) -> Optional[ObjectInstance]:
        """Remove a non-carrier object from wherever it currently lives."""
        for node in self.carriers.values():
            if object_id in node.carried:
                return node.carried.pop(object_id)
        if object_id in self.orphan_objects:
            return self.orphan_objects.pop(object_id)
        return self.missing.pop(object_id, None)

    def to_dict(self) -> dict:
        """The graph's one listing, every section in id order but rooms."""
        return {
            "building": self.building,
            "rooms": [{"id": room.id, "name": room.name, "polygon": room.polygon.tolist()}
                      for room in self.rooms],
            "carriers": [
                {
                    "id": cid,
                    "room": node.room,
                    "captions": list(node.object.captions),
                    "carried": sorted(node.carried),
                }
                for cid, node in sorted(self.carriers.items())
            ],
            "orphans": sorted(self.orphan_objects),
            "missing": sorted(self.missing),
        }

    def dump_text(self) -> str:
        """Stable structured text listing of :meth:`to_dict`, line by line,
        for CLI output and golden files."""
        tree = self.to_dict()
        lines = [f"building: {tree['building']}", f"rooms: {len(tree['rooms'])}"]
        lines += [f"  room {room['id']} name={room['name'] or '-'}" for room in tree["rooms"]]
        lines.append(f"carriers: {len(tree['carriers'])}")
        for c in tree["carriers"]:
            lines.append(f"  carrier {c['id']} room={c['room']} captions={json.dumps(c['captions'])}")
            lines += [f"    carries {oid}" for oid in c["carried"]]
        lines.append(f"orphans: {len(tree['orphans'])}")
        lines += [f"  orphan {oid}" for oid in tree["orphans"]]
        if tree["missing"]:
            lines.append(f"missing: {len(tree['missing'])}")
            lines += [f"  missing {oid}" for oid in tree["missing"]]
        return "\n".join(lines) + "\n"


def select_carrier_candidates(
    objects: Iterable[ObjectInstance], config: CrsgConfig
) -> List[ObjectInstance]:
    """Keep objects whose text feature is similar to the config's carrier
    reference text.

    The reference is embedded at the objects' feature dimension; objects
    with the zero sentinel feature never qualify.
    """
    objects = list(objects)
    if not objects:
        return []
    dim = objects[0].text_feature.shape[0]
    ref = text_feature(config.carrier_reference, dim)
    if ref.zero:
        raise GraphError("carrier reference text produced an empty embedding")
    return [obj for obj in objects if not obj.text.zero and cosine(obj.text, ref) > config.sigma]


def filter_by_prior(
    candidates: Sequence[ObjectInstance], oracle: CarrierPriorOracle
) -> List[ObjectInstance]:
    """Keep candidates the oracle accepts from their first three captions.

    Oracle failures propagate; callers that want to keep going can fall
    back to the identity filter and log the error.
    """
    return [obj for obj in candidates if oracle.is_carrier(obj.captions[:3])]


def geometric_carrier_filter(
    candidates: Sequence[ObjectInstance], config: CrsgConfig
) -> List[ObjectInstance]:
    """Keep large, tall-enough boxes resting on the ground."""
    kept = []
    for obj in candidates:
        if obj.box.footprint_area < config.min_footprint_area:
            continue
        if obj.box.height < config.min_height:
            continue
        if obj.box.lo[2] > config.ground_contact_eps:
            continue
        kept.append(obj)
    return kept


def carrying_predicate(carrier: ObjectInstance, obj: ObjectInstance, config: CrsgConfig) -> bool:
    """Geometric test for "obj rests on carrier".

    All four clauses must hold: small footprint, enough horizontal overlap,
    vertical contact (resting on the top face, or inside the carrier's
    upper half for shelf-like furniture), and a centroid close to the
    carrier's own.  It reads the boxes' corners and the centroids as
    Python floats.
    """
    box, carrier_box = obj.box, carrier.box
    if box.footprint_area > config.max_carried_footprint:
        return False

    overlap = carrier_box.xy_intersection_area(box)
    if overlap < config.overlap_rate * box.footprint_area:
        return False

    gap = box.lo[2] - carrier_box.hi[2]
    rests_on_top = 0.0 <= gap <= config.z_gap_max
    carrier_mid_z = carrier_box.lo[2] + carrier_box.height / 2.0
    inside_upper_half = box.lo[2] < carrier_box.hi[2] and box.hi[2] > carrier_mid_z
    if not (rests_on_top or inside_upper_half):
        return False

    (ox, oy, _), (cx, cy, _) = obj.centroid.tolist(), carrier.centroid.tolist()
    if math.hypot(ox - cx, oy - cy) > carrier_box.footprint_diagonal / 2.0:
        return False
    return True


def nearest_carrier(
    obj, candidates: Iterable[ObjectInstance], config: CrsgConfig
) -> Optional[str]:
    """Id of the candidate ``obj`` rests on, or None.

    When several candidates satisfy the carrying predicate the object
    belongs to the one with the nearest centroid (3-D Euclidean), ties
    broken by smaller id.  ``obj`` is never its own carrier.  One answer
    per (instance, candidate instances, config) is kept with the scene's
    facts.
    """
    candidates = tuple(candidates)
    return facts.answer(("carrier", obj, candidates, config),
                        _nearest_carrier, obj, candidates, config)


def _nearest_carrier(obj, candidates: Tuple[ObjectInstance, ...],
                     config: CrsgConfig) -> Optional[str]:
    best: Optional[Tuple[float, str]] = None
    for carrier in candidates:
        if carrier.id == obj.id or not carrying_predicate(carrier, obj, config):
            continue
        key = (distance(obj.centroid - carrier.centroid), carrier.id)
        if best is None or key < best:
            best = key
    return best[1] if best else None


def assign_carried(
    carriers: Sequence[ObjectInstance],
    others: Sequence[ObjectInstance],
    config: CrsgConfig,
) -> Tuple[Dict[str, List[ObjectInstance]], List[ObjectInstance]]:
    """Attach each object to its :func:`nearest_carrier`, if any.

    Unattached objects come back as orphans.
    """
    carriers = tuple(carriers)
    carried: Dict[str, List[ObjectInstance]] = {c.id: [] for c in carriers}
    orphans: List[ObjectInstance] = []
    for obj in others:
        cid = nearest_carrier(obj, carriers, config)
        if cid is None:
            orphans.append(obj)
        else:
            carried[cid].append(obj)
    return carried, orphans


def build_crsg(
    scene: SceneMap,
    config: CrsgConfig = CrsgConfig(),
    prior: CarrierPriorOracle = KeywordPriorOracle(),
) -> Crsg:
    """Compose the full construction pipeline over a scene.

    The funnel's answer is kept with the scene's facts, per (the scene's
    objects and rooms, config, oracle instance), so the variants of one
    scenario run it once; each graph gets its own carried dicts and orphan
    dict, so an update of one graph reaches no other.
    """
    facts.keep_scene(scene)
    objects, rooms = tuple(scene.objects.values()), tuple(scene.rooms)
    nodes, orphans = facts.answer(("funnel", objects, rooms, config, prior),
                                  _funnel, objects, rooms, config, prior)
    return Crsg(
        building=scene.name,
        rooms=list(rooms),
        carriers={c.id: CarrierNode(object=c, room=room, carried={o.id: o for o in held})
                  for c, room, held in nodes},
        orphan_objects={o.id: o for o in orphans},
    )


def _funnel(objects: Tuple[ObjectInstance, ...], rooms: Tuple[Room, ...],
            config: CrsgConfig, prior: CarrierPriorOracle):
    """``((carrier, room id, carried objects), ...), orphans)``, all tuples
    in scene order: the carriers the three filters keep, each with its room
    (a declared room id wins over the geometric assignment) and the objects
    assigned to it, and the objects assigned to none."""
    candidates = select_carrier_candidates(objects, config)
    candidates = filter_by_prior(candidates, prior)
    carriers = geometric_carrier_filter(candidates, config)

    carrier_ids = {c.id for c in carriers}
    others = [obj for obj in objects if obj.id not in carrier_ids]
    carried_map, orphans = assign_carried(carriers, others, config)

    room_of = assign_rooms(carriers, rooms)
    nodes = tuple((c, room_of[c.id] if c.room_id is None else c.room_id,
                   tuple(carried_map[c.id])) for c in carriers)
    return nodes, tuple(orphans)


@dataclass(frozen=True)
class Query:
    """A navigation query: text or image token, optional carrier scoping.
    Each descriptor (an image token after ``img:``) needs a token."""

    text: Optional[str] = None
    image: Optional[str] = None
    carrier_text: Optional[str] = None

    def __post_init__(self):
        if (self.text is None) == (self.image is None):
            raise QueryError("query needs exactly one of text or image")
        if not tokenize(self.text if self.image is None else strip_image_prefix(self.image)):
            raise QueryError(f"query descriptor {self.descriptor!r} has no usable tokens")
        if self.carrier_text is not None and not tokenize(self.carrier_text):
            raise QueryError(f"carrier descriptor {self.carrier_text!r} has no usable tokens")

    @property
    def descriptor(self) -> str:
        return self.text if self.text is not None else self.image


def _best_match(
    pool: Sequence[ObjectInstance], query: Feature, use_visual: bool
) -> Optional[Tuple[ObjectInstance, float]]:
    """The pool's object most similar to ``query`` and its score, ties to
    the smaller id; None when no object has a usable feature."""
    best: Optional[ObjectInstance] = None
    best_score = 0.0
    for obj in pool:
        feat = obj.visual if use_visual else obj.text
        if feat.zero or feat.vec.shape != query.vec.shape:
            continue
        score = cosine(feat, query)
        if best is None or score > best_score or (score == best_score and obj.id < best.id):
            best, best_score = obj, score
    if best is None:
        return None
    return best, best_score


def query_target(crsg: Crsg, query: Query) -> Tuple[ObjectInstance, float]:
    """Resolve a query to the best-matching graph object and its score.

    Image queries match stored visual features, text queries match text
    features.  With a carrier descriptor the candidate pool narrows to the
    objects carried by the maximally similar carrier(s); the carrier itself
    is never returned for a scoped query, and a descriptor that resembles
    no carrier raises rather than widen the pool to every carrier's
    objects.  Ties break to the smaller id.
    A plain query reads the graph's objects once, into one list in section
    order: carriers, the objects they carry, orphans, then missing objects.
    A scoped one reads only the carriers and what the top ones carry.  The
    first object in section order gives the feature dimension.
    """
    if query.carrier_text is not None and crsg.carriers:
        pool = None
        first = crsg.carrier_objects[0]
    else:
        pool = list(crsg.carrier_objects)
        for node in crsg.carriers.values():
            pool += node.carried.values()
        pool += crsg.orphan_objects.values()
        pool += crsg.missing.values()
        if not pool:
            raise QueryError("cannot query an empty graph")
        first = pool[0]
    dim = first.text_feature.shape[0]

    use_visual = query.image is not None
    query_feat = text_feature(strip_image_prefix(query.image) if use_visual else query.text, dim)

    if query.carrier_text is not None:
        if not crsg.carriers:
            raise QueryError("carrier-scoped query on a graph with no carriers")
        carrier_vec = text_feature(query.carrier_text, dim)
        sims: Dict[str, float] = {}
        for cid, node in crsg.carriers.items():
            if node.object.text.zero:
                continue
            sims[cid] = cosine(node.object.text, carrier_vec)
        if not sims:
            raise QueryError("no carrier has a usable text feature")
        top = max(sims.values())
        if top <= 0.0:
            raise QueryError(f"no carrier resembles {query.carrier_text!r}")
        pool = []
        for cid in sorted(cid for cid, s in sims.items() if s == top):
            pool += crsg.carriers[cid].carried.values()
        if not pool:
            raise QueryError(
                f"carrier(s) matching {query.carrier_text!r} hold no objects"
            )

    result = _best_match(pool, query_feat, use_visual)
    if result is None:
        raise QueryError("no object has a usable feature for this query")
    if result[1] <= 0.0:
        # non-negative features make cosine 0 mean "no shared token at all"
        raise QueryError(f"nothing in the graph resembles {query.descriptor!r}")
    return result
