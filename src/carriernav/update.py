"""Belief-graph adaptation from observations.

Carriers are static, so an observed carrier is matched back to its graph
node by geometry and feature similarity.  A graph's carrier table is fixed
when the graph is built, so one match per (sighting, the graph's carrier
table, config) is kept and serves a whole leg.  Carried sets are
reconciled only for carriers the robot has fully observed: matched objects
are kept, unmatched observations are added (re-homing an object known
elsewhere in the graph), and unmatched graph entries are removed.  An
observation holds the world's frozen instance of the sighted object, so an
addition stores that instance as is.  Partial views must never trigger
removals, which is why reconciliation is gated on a full observation
certificate upstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from . import facts
from .features import Feature, cosine
from .graph import Crsg
from .scene import ObjectInstance, distance
from .world import Observation


class UpdateError(ValueError):
    pass


@dataclass(frozen=True)
class MatchConfig:
    max_center_dist: float = 0.5        # m, carrier matching
    max_size_ratio_dev: float = 0.3     # per-axis extent ratio tolerance
    min_text_sim: float = 0.7
    min_visual_sim: float = 0.7
    carried_match_center_dist: float = 0.3  # m, carried-object matching

    def __post_init__(self):
        for name in ("max_center_dist", "carried_match_center_dist"):
            if getattr(self, name) <= 0:
                raise UpdateError(f"{name} must be positive")
        if not (0.0 <= self.max_size_ratio_dev < 1.0):
            raise UpdateError("max_size_ratio_dev must be in [0, 1)")


@dataclass
class CarriedDiff:
    carrier_id: str
    added: List[Observation] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.added and not self.removed


def _sizes_compatible(a_ext: np.ndarray, b_ext: np.ndarray, dev: float) -> bool:
    for ea, eb in zip(a_ext, b_ext):
        if eb <= 0 or ea <= 0:
            if abs(ea - eb) > 1e-9:
                return False
            continue
        ratio = float(ea) / float(eb)
        if not (1.0 - dev <= ratio <= 1.0 + dev):
            return False
    return True


def _feature_gate(seen: Feature, known: Feature, threshold: float) -> bool:
    # zero sentinel on either side: nothing to compare, gate passes
    if seen.zero or known.zero:
        return True
    if seen.vec.shape != known.vec.shape:
        return False
    return cosine(seen, known) >= threshold


def _sighting_distance(seen: ObjectInstance, known: ObjectInstance, max_dist: float,
                       config: MatchConfig) -> Optional[float]:
    """The center distance when the sighting may be the known instance, else
    None.  Gates: center distance up to ``max_dist``, size ratio, text."""
    dist = distance(seen.centroid - known.centroid)
    if dist > max_dist:
        return None
    if not _sizes_compatible(seen.box.extents, known.box.extents, config.max_size_ratio_dev):
        return None
    if not _feature_gate(seen.text, known.text, config.min_text_sim):
        return None
    return dist


def match_carrier(obs: Observation, crsg: Crsg, config: MatchConfig) -> Optional[str]:
    """Match an observation to a graph carrier, or None.

    Gates: center distance, per-axis size ratio, text similarity, visual
    similarity.  Among qualifying carriers the nearest center wins, ties
    broken by smaller id.  One answer per (sighted instance, the graph's
    carrier table, config) is kept with the scene's facts, the table read
    as the graph's one ``carrier_objects`` tuple.
    """
    seen, carriers = obs.object, crsg.carrier_objects
    return facts.answer(("match", seen, carriers, config), _match_carrier, seen, carriers, config)


def _match_carrier(seen, carriers: Sequence[ObjectInstance], config: MatchConfig) -> Optional[str]:
    matches = []
    for carrier in carriers:
        dist = _sighting_distance(seen, carrier, config.max_center_dist, config)
        if dist is not None and _feature_gate(seen.visual, carrier.visual, config.min_visual_sim):
            matches.append((dist, carrier.id))
    return min(matches)[1] if matches else None


def reconcile_carried(
    carrier_id: str,
    observations: Sequence[Observation],
    crsg: Crsg,
    config: MatchConfig,
) -> CarriedDiff:
    """Diff a fully observed carrier's occupants against the graph.

    Precondition: ``observations`` covers everything currently on the
    carrier.  Observations are matched to existing carried entries by
    center distance (within ``carried_match_center_dist``), compatible
    sizes and text similarity; matching is greedy nearest-first and
    one-to-one.  One pairing per (sighted instances in order, the carried
    entries, config) is kept with the scene's facts; the diff is built
    from the caller's own observations.
    """
    if carrier_id not in crsg.carriers:
        raise UpdateError(f"unknown carrier {carrier_id!r}")
    entries = crsg.carriers[carrier_id].carried
    seen = tuple(obs.object for obs in observations)
    matched_obs, matched_entries = facts.answer(
        ("reconcile", seen, tuple(entries.items()), config),
        _pair, seen, entries, config)

    return CarriedDiff(
        carrier_id=carrier_id,
        added=[obs for obs in observations if obs.object_id not in matched_obs],
        removed=sorted(set(entries) - matched_entries))


def _pair(seen: Sequence[ObjectInstance], entries: Dict[str, ObjectInstance],
          config: MatchConfig) -> Tuple[Dict[str, str], FrozenSet[str]]:
    """(sighted id -> matched entry id, the matched entry ids): the greedy
    nearest-first one-to-one pairing of sightings and carried entries."""
    pairs = []
    for obj in seen:
        for eid, entry in entries.items():
            dist = _sighting_distance(obj, entry, config.carried_match_center_dist, config)
            if dist is not None:
                pairs.append((dist, obj.id, eid))
    pairs.sort()

    matched_obs: Dict[str, str] = {}
    matched_entries = set()
    for _, obs_id, eid in pairs:
        if obs_id in matched_obs or eid in matched_entries:
            continue
        matched_obs[obs_id] = eid
        matched_entries.add(eid)
    return matched_obs, frozenset(matched_entries)


def apply_update(crsg: Crsg, diff: CarriedDiff) -> None:
    """Apply a carried-set diff to the graph in place.

    Added observations whose id is already known anywhere in the graph are
    re-homed (their old edge is dropped); unknown ids become new carried
    nodes.  Either way the node stores the observation's object instance.
    Removed entries are parked in the graph's missing set so their
    identity survives until re-observed.  Applying the same diff twice is
    a no-op.
    """
    if diff.carrier_id not in crsg.carriers:
        raise UpdateError(f"unknown carrier {diff.carrier_id!r}")
    node = crsg.carriers[diff.carrier_id]

    # Removals first: a move within one carrier shows up as removed+added
    # for the same id, and the addition must win.
    for rid in diff.removed:
        if rid in node.carried:
            crsg.missing[rid] = node.carried.pop(rid)

    for obs in diff.added:
        if obs.object_id in crsg.carriers:
            # carriers are static; never convert one into a carried object
            continue
        crsg.detach(obs.object_id)
        node.carried[obs.object_id] = obs.object

