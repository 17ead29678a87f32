"""Displaced-object navigation as a finite exploration process.

State is (unexplored carriers, candidate targets, found flag): the
policy's belief, nothing the world or the graph already owns.  The policy
is a fixed three-rule cascade:

1. found, or nothing left to explore        -> Stop
2. any candidate targets                    -> Goto the highest-priority one
3. otherwise                                -> Explore a prior-ranked carrier

A candidate's priority rates a sighting by how similar it looked (ss), how
close it was when first seen (depth, frozen) and how far away it is now
(the length of the path the robot would walk, recomputed every decision,
so candidates at equal walks tie exactly):

    priority = w1 * ss * exp(-alpha * depth) / (1 + w2 * dist)

Every non-Stop action removes at least one carrier from the unexplored
set, so an episode takes at most |carriers| + 1 actions.  Each action
leaves one ``ActionRecord``, and the ``--trace`` text is rendered from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .features import cosine
from .graph import (
    Crsg,
    CrsgConfig,
    Query,
    QueryError,
    nearest_carrier,
    query_target,
)
from .priors import CarrierPriorOracle, CarrierSummary, KeywordPriorOracle, OracleError
from .scene import ObjectInstance, _frozen
from .update import MatchConfig, apply_update, match_carrier, reconcile_carried
from .world import (
    GridWorld,
    Observation,
    SensorConfig,
    UnreachableGoalError,
)

import logging

logger = logging.getLogger(__name__)


class PolicyError(RuntimeError):
    pass


def _freeze(value, name: str, make) -> None:
    """Set field ``name`` of the frozen dataclass ``value`` to ``make`` of
    its current value: a policy value owns read-only copies of what it is
    given, all the way down."""
    object.__setattr__(value, name, make(getattr(value, name)))


def _read_only_mapping(mapping) -> Mapping:
    return MappingProxyType(dict(mapping))


@dataclass(frozen=True)
class PolicyConfig:
    """Priority weights and similarity thresholds.

    The weight defaults (w1=3, alpha=0.1, w2=1) are the stock operating
    point.  sigma1 admits sighted objects as candidates, sigma2 confirms a
    candidate at arm's length; the gap is intentional, so that look-alike
    distractors are worth walking to but fail confirmation.
    """

    omega1: float = 3.0
    alpha: float = 0.1
    omega2: float = 1.0
    sigma1: float = 0.6
    sigma2: float = 0.75
    beta: float = 0.5

    def __post_init__(self):
        if self.omega1 < 0 or self.omega2 < 0 or self.alpha < 0:
            raise PolicyError("priority weights must be non-negative")
        if not (self.sigma1 <= self.sigma2):
            raise PolicyError(
                f"sigma1 ({self.sigma1}) must not exceed sigma2 ({self.sigma2})"
            )
        if not (0.0 <= self.beta <= 1.0):
            raise PolicyError(f"beta must be in [0, 1], got {self.beta}")


@dataclass(frozen=True)
class CandidateTarget:
    object_id: str
    carrier_id: str
    ss: float            # similarity to the target
    d_tilde: float       # depth at first sighting (frozen)
    position: np.ndarray  # believed centroid, the candidate's own read-only copy

    def __post_init__(self):
        _freeze(self, "position", lambda p: _frozen(np.array(p, dtype=np.float64)))


@dataclass(frozen=True)
class NavAction:
    kind: str  # "stop" | "explore" | "goto"
    carrier_id: str = ""
    candidate: Optional[CandidateTarget] = None
    priority: Optional[float] = None
    fallback: bool = False  # the oracle failed and the nearest carrier was taken


@dataclass(frozen=True)
class NavState:
    unexplored: Tuple[str, ...]
    candidates: Mapping[str, CandidateTarget]  # read-only
    found: bool = False

    def __post_init__(self):
        _freeze(self, "unexplored", tuple)
        _freeze(self, "candidates", _read_only_mapping)
        unexplored = set(self.unexplored)
        for cand in self.candidates.values():
            if cand.carrier_id not in unexplored:
                raise PolicyError(
                    f"candidate {cand.object_id!r} sits on explored carrier {cand.carrier_id!r}"
                )


@dataclass(frozen=True)
class VariantSpec:
    """Ablation switches, all first-class configuration."""

    name: str = "ours"
    use_candidates: bool = True      # rule 2 on/off
    explore_random: bool = False     # rule 3: seeded uniform instead of prior
    beta_override: Optional[float] = None
    update_graph: bool = True


VARIANTS: Dict[str, VariantSpec] = {
    "ours": VariantSpec("ours"),
    "ours-Text": VariantSpec("ours-Text", beta_override=0.0),
    "ours-LLM": VariantSpec("ours-LLM", beta_override=1.0),
    "only-carriers_Random": VariantSpec(
        "only-carriers_Random", use_candidates=False, explore_random=True
    ),
    "only-carriers_LLM": VariantSpec("only-carriers_LLM", use_candidates=False),
    "no-update": VariantSpec("no-update", update_graph=False),
}


def priority_score(ss: float, d: float, d_tilde: float, config: PolicyConfig) -> float:
    """Rate a candidate sighting; see the module docstring for the formula."""
    if d < 0 or d_tilde < 0:
        raise PolicyError(f"distances must be non-negative, got d={d}, d_tilde={d_tilde}")
    # omega2 = 0 turns the distance term off: 0 * inf (unreachable) is nan
    slowdown = 1.0 + config.omega2 * d if config.omega2 else 1.0
    return config.omega1 * ss * math.exp(-config.alpha * d_tilde) / slowdown


def effective_beta(query: Query, config: PolicyConfig, variant: VariantSpec) -> float:
    if variant.beta_override is not None:
        return variant.beta_override
    return config.beta if query.image is not None else 0.0


def init_state(crsg: Crsg, target: ObjectInstance, target_score: float) -> NavState:
    """Initial state: all carriers unexplored, the resolved target as the
    sole candidate at its believed position.

    A target no carrier holds starts with an empty candidate set: static
    furniture (a carrier or an orphan), which the caller walks to
    directly, and an object parked as missing after an update.
    """
    candidates: Dict[str, CandidateTarget] = {}
    carrier_id = crsg.carrier_of(target.id)
    if carrier_id is not None:
        candidates[target.id] = CandidateTarget(target.id, carrier_id, ss=target_score,
                                                d_tilde=0.0, position=target.centroid)
    return NavState(unexplored=sorted(crsg.carriers), candidates=candidates)


def decide(
    state: NavState,
    crsg: Crsg,
    config: PolicyConfig,
    prior: CarrierPriorOracle,
    target_descriptor: str,
    distance_fn: Callable[[Sequence[float]], float],
    variant: VariantSpec = VARIANTS["ours"],
    rng=None,
) -> NavAction:
    """Apply the three-rule cascade to the current state.

    ``distance_fn`` maps a position to current path distance; each
    candidate is scored once per call, at that distance.  Ties in rule 2
    break to the smaller object id, oracle rankings in rule 3 break ties
    by carrier id, and a failed oracle falls back to the nearest
    unexplored carrier (logged).  Nothing in ``state`` is written.
    """
    if state.found or not state.unexplored:
        return NavAction(kind="stop")

    if variant.use_candidates and state.candidates:
        scored = [(priority_score(c.ss, float(distance_fn(c.position)), c.d_tilde, config), c)
                  for c in state.candidates.values()]
        pr, best = min(scored, key=lambda item: (-item[0], item[1].object_id))
        return NavAction(kind="goto", carrier_id=best.carrier_id, candidate=best, priority=pr)

    if variant.explore_random:
        if rng is None:
            raise PolicyError("random exploration variant needs an rng")
        pick = state.unexplored[rng.randrange(len(state.unexplored))]
        return NavAction(kind="explore", carrier_id=pick)

    summaries = [
        CarrierSummary(
            id=cid,
            captions=tuple(crsg.carriers[cid].object.captions[:3]),
            room=crsg.carriers[cid].room,
        )
        for cid in state.unexplored
    ]
    try:
        ranked = prior.rank_carriers(summaries, target_descriptor)
        unexplored = set(state.unexplored)
        for cid in ranked:
            if cid in unexplored:
                return NavAction(kind="explore", carrier_id=cid)
        raise OracleError("oracle ranking contained no unexplored carrier")
    except OracleError as exc:
        logger.warning("carrier ranking failed (%s); falling back to nearest", exc)
        nearest = min(
            state.unexplored,
            key=lambda cid: (float(distance_fn(crsg.carriers[cid].object.centroid)), cid),
        )
        return NavAction(kind="explore", carrier_id=nearest, fallback=True)


@dataclass(frozen=True)
class Leg:
    """What one leg sensed, each sighting matched to the graph once; its
    mappings are read-only."""

    length: float
    observations: Mapping[str, Observation]  # first sighting per id, carrier view merged in
    matches: Mapping[str, Optional[str]]     # object id -> matched graph carrier, or None
    carried: Tuple[Observation, ...]         # the visited carrier's full view
    reconciled: Tuple[str, ...] = ()         # carriers whose carried set the leg changed

    def __post_init__(self):
        _freeze(self, "observations", _read_only_mapping)
        _freeze(self, "matches", _read_only_mapping)
        _freeze(self, "carried", tuple)
        _freeze(self, "reconciled", tuple)


def apply_observation_updates(
    world: GridWorld,
    crsg: Crsg,
    seen: Mapping[str, Observation], matches: Mapping[str, Optional[str]],
    match_cfg: MatchConfig,
    crsg_cfg: CrsgConfig,
) -> List[str]:
    """Reconcile every fully observed carrier of a leg against ground truth.

    A carrier counts as fully observed when a sighting in ``seen`` matched
    it (per ``matches``) and every object resting on it was seen too;
    partial views never reconcile, so they never remove entries.  Returns
    the carrier ids updated.
    """
    updated = []
    for cid in sorted({c for c in matches.values() if c is not None}):
        gt_ids = world.ground_truth_carried(cid, crsg_cfg)
        if any(gid not in seen for gid in gt_ids):
            continue
        diff = reconcile_carried(cid, [seen[g] for g in gt_ids], crsg, match_cfg)
        apply_update(crsg, diff)
        if not diff.empty:
            updated.append(cid)
    return updated


def walk_leg(world: GridWorld, crsg: Crsg, dest: Sequence[float], sensor_cfg: SensorConfig,
             match_cfg: MatchConfig, crsg_cfg: CrsgConfig,
             carrier_id: Optional[str] = None, update: bool = True) -> Optional[Leg]:
    """Walk from the robot's pose to ``dest``, take ``carrier_id``'s full
    view (if given), match, and reconcile the graph when ``update`` is set;
    the leg keeps the carriers reconciled.

    Returns None, and moves nothing, when ``dest`` cannot be reached.
    Travel sightings win over the carrier view for the same object, so an
    object keeps the depth of its first sighting.  Updates never change
    the graph's carriers, so the matches stay valid for the whole leg.
    """
    try:
        path, _ = world.shortest_path(world.robot.position, dest[:2])
    except UnreachableGoalError:
        return None
    log = world.travel(path, sensor_cfg)
    carried = (world.carried_observations(carrier_id, crsg_cfg)
               if carrier_id is not None else [])
    observations = dict(log.observations)
    for obs in carried:
        observations.setdefault(obs.object_id, obs)
    matches = {oid: match_carrier(observations[oid], crsg, match_cfg)
               for oid in sorted(observations)}
    reconciled = (apply_observation_updates(world, crsg, observations, matches, match_cfg,
                                            crsg_cfg) if update else ())
    return Leg(log.length, observations, matches, carried, reconciled)


def target_similarity(seen: ObjectInstance, target: ObjectInstance) -> float:
    """Text similarity to the resolved target (0 when either has no text):
    what sigma1 admits by, and the text side of what sigma2 confirms by."""
    if seen.text.zero or target.text.zero:
        return 0.0
    return cosine(seen.text, target.text)


@dataclass(frozen=True)
class TransitionInputs:
    """The sets a transition reads; its mappings are read-only."""

    cr_observed: FrozenSet[str]
    ct_new: Mapping[str, CandidateTarget]

    def __post_init__(self):
        _freeze(self, "cr_observed", frozenset)
        _freeze(self, "ct_new", _read_only_mapping)


def collect_transition_inputs(
    leg: Leg,
    crsg: Crsg,
    state: NavState,
    target: ObjectInstance,
    policy_cfg: PolicyConfig,
    crsg_cfg: CrsgConfig,
) -> TransitionInputs:
    """Derive the transition sets from one leg's matched sightings.

    - carriers seen with nothing target-like on them become ``cr_observed``
      (the transition prunes them, and their candidates, without a visit);
    - sighted objects on unexplored carriers that look like the target
      (similarity above sigma1) become new candidates.  A sighting of an
      object already tracked supersedes its entry when the carrier
      differs (the old belief was stale); otherwise the first sighting
      and its depth are kept.
    """
    observed_carriers: Set[str] = set()
    item_obs: List[Tuple[Observation, Optional[str]]] = []
    for oid in sorted(leg.observations):
        obs, cid = leg.observations[oid], leg.matches[oid]
        if cid is not None:
            observed_carriers.add(cid)
        else:
            # which graph carrier the observed object currently rests on
            item_obs.append((obs, nearest_carrier(obs.object, crsg.carrier_objects, crsg_cfg)))

    unexplored = set(state.unexplored)
    similar_on: Dict[str, float] = {}
    ct_new: Dict[str, CandidateTarget] = {}
    for obs, home in item_obs:
        if home is None:
            continue
        ss = target_similarity(obs.object, target)
        similar_on[home] = max(similar_on.get(home, -math.inf), ss)
        if home not in unexplored or ss <= policy_cfg.sigma1:
            continue
        existing = state.candidates.get(obs.object_id)
        if existing is not None and existing.carrier_id == home:
            continue  # keep the first sighting's frozen depth
        ct_new[obs.object_id] = CandidateTarget(obs.object_id, home, ss=ss,
                                                d_tilde=obs.mean_depth,
                                                position=obs.object.centroid)

    cr_observed = {
        cid
        for cid in observed_carriers
        if similar_on.get(cid, -math.inf) <= policy_cfg.sigma1
    }
    return TransitionInputs(cr_observed=cr_observed, ct_new=ct_new)


def transition(
    state: NavState,
    action: NavAction,
    inputs: TransitionInputs,
    confirmed: bool,
) -> NavState:
    """Advance the state after executing a non-Stop action.

    The visited carrier and every carrier seen without target-like objects
    leave the unexplored set; candidates merge in sightings and drop the
    visited one; candidates stranded on explored or observed carriers are
    purged.
    """
    if state.found:
        raise PolicyError("no transitions out of a terminal state")
    if action.kind == "stop":
        raise PolicyError("Stop does not transition")

    visited = action.carrier_id
    new_unexplored = [
        cid
        for cid in state.unexplored
        if cid != visited and cid not in inputs.cr_observed
    ]

    candidates = {**state.candidates, **inputs.ct_new}
    if action.kind == "goto":
        entry = candidates.get(action.candidate.object_id)
        # a superseding sighting at another carrier survives the visit
        if entry is not None and entry.carrier_id == action.candidate.carrier_id:
            candidates.pop(action.candidate.object_id)
    alive = set(new_unexplored)
    candidates = {
        oid: cand for oid, cand in candidates.items() if cand.carrier_id in alive
    }

    return NavState(unexplored=new_unexplored, candidates=candidates, found=confirmed)


def confirmation_scores(
    observations: Sequence[Observation],
    target: ObjectInstance,
    query: Query,
    prior: CarrierPriorOracle,
    beta: float,
) -> List[Tuple[float, Observation]]:
    """Score each carried object against the target at arm's length.

    score = (1 - beta) * text_similarity + beta * image_comparison, where
    the image side asks the prior oracle and the text side is
    :func:`target_similarity`, the score that admitted the candidate.
    """
    image_ref = query.image if query.image is not None else query.text
    out = []
    for obs in sorted(observations, key=lambda o: o.object_id):
        text_sim = target_similarity(obs.object, target)
        if beta > 0.0:
            image_score = prior.compare_images(obs.object.captions[0], image_ref)
        else:
            image_score = 0.0
        out.append(((1.0 - beta) * text_sim + beta * image_score, obs))
    return out


def confirm_target(
    observations: Sequence[Observation],
    target: ObjectInstance,
    query: Query,
    prior: CarrierPriorOracle,
    config: PolicyConfig,
    variant: VariantSpec = VARIANTS["ours"],
) -> Optional[Observation]:
    """The best-scoring carried object when its score exceeds sigma2, else None.

    Scores blend text and image per :func:`effective_beta`; equal scores
    break to the smaller object id.  Precondition: ``observations`` is the
    full carried set of the carrier being checked.  An empty carrier never
    confirms.
    """
    beta = effective_beta(query, config, variant)
    scores = confirmation_scores(observations, target, query, prior, beta)
    if not scores:
        return None
    score, best = min(scores, key=lambda item: (-item[0], item[1].object_id))
    return best if score > config.sigma2 else None


@dataclass(frozen=True)
class Task:
    """One navigation task, as a scenario file holds it: the query's fields
    and the id of the object it names.  ``query`` is built from them once,
    at construction, so a malformed one raises its ``QueryError``."""

    query_text: Optional[str]
    ground_truth_id: str
    carrier_text: Optional[str] = None
    image: Optional[str] = None
    query: Query = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "query", Query(text=self.query_text, image=self.image,
                                                carrier_text=self.carrier_text))


@dataclass(frozen=True)
class ActionRecord:
    """One episode action, by value: two runs' records compare equal."""

    kind: str                    # "direct" | "explore" | "goto" | "stop"
    subject: str                 # the object or carrier acted on; "" for stop
    position: Tuple[float, ...]  # the robot's position after the action
    cr: int                      # unexplored carriers left
    ct: int                      # candidate targets left
    priority: Optional[float]    # the goto's priority; None for the other kinds
    leg: float                   # length walked, the approach to a confirmed object included
    fallback: bool = False       # the carrier was the nearest, the oracle having failed
    reconciled: Tuple[str, ...] = ()  # carriers whose carried set the leg changed
    unreachable: bool = False    # the leg found no path: the action was consumed in place

    def __post_init__(self):
        _freeze(self, "position", lambda p: tuple(map(float, p)))
        _freeze(self, "reconciled", tuple)

    def line(self, t: int) -> str:
        """The ``--trace`` line of this record as action ``t``."""
        label = "Stop" if self.kind == "stop" else f"{self.kind.capitalize()}({self.subject})"
        pr = "-" if self.priority is None else f"{self.priority:.6f}"
        return (f"t={t} {label} pose=({self.position[0]:.3f},{self.position[1]:.3f}) "
                f"cr={self.cr} ct={self.ct} pr={pr} leg={self.leg:.6f}")


@dataclass(frozen=True)
class EpisodeResult:
    task_index: int
    success: bool
    traveled: float
    shortest: float
    records: Tuple[ActionRecord, ...] = ()

    def __post_init__(self):
        _freeze(self, "records", tuple)

    @property
    def action_count(self) -> int:
        return len(self.records)

    @property
    def actions(self) -> Tuple[str, ...]:  # the trace
        return tuple(r.line(t) for t, r in enumerate(self.records))


def run_task(
    world: GridWorld,
    crsg: Crsg,
    task: Task,
    *,
    policy_cfg: PolicyConfig = PolicyConfig(),
    sensor_cfg: SensorConfig = SensorConfig(),
    match_cfg: MatchConfig = MatchConfig(),
    crsg_cfg: CrsgConfig = CrsgConfig(),
    prior: CarrierPriorOracle = KeywordPriorOracle(),
    variant: VariantSpec = VARIANTS["ours"],
    rng=None,
    task_index: int = 0,
) -> EpisodeResult:
    """Run one navigation episode to completion.

    Resolves the query on the belief graph, then either navigates straight
    to static furniture or runs the explore/goto loop until confirmation
    or exhaustion.  Success means the ground-truth target was reached and
    confirmed.  The world is mutated (robot pose); the graph is updated
    from observations unless the variant disables that.  A query that
    resolves to nothing fails the task with its ground truth's path length
    as ``shortest`` (inf when unreachable).
    """
    records: List[ActionRecord] = []
    traveled = 0.0

    def finish(success: bool, shortest: float) -> EpisodeResult:
        return EpisodeResult(task_index=task_index, success=success, traveled=traveled,
                             shortest=shortest, records=records)

    # the target's length is read first, so a failed query reports it: 0.0
    # for an object the world lacks, inf for one it cannot reach
    gt_id = task.ground_truth_id
    shortest = 0.0
    if gt_id in world.objects:
        try:
            shortest = world.shortest_path(world.robot.position,
                                           world.object(gt_id).centroid[:2])[1]
        except UnreachableGoalError:
            return finish(False, math.inf)
    try:
        target_obj, score = query_target(crsg, task.query)
    except QueryError:
        return finish(False, shortest)

    state = init_state(crsg, target_obj, score)

    def record(kind, subject, leg, reconciled=(), priority=None, fallback=False,
               unreachable=False) -> None:
        records.append(ActionRecord(kind, subject, world.robot.position, len(state.unexplored),
                                    len(state.candidates), priority, leg, fallback, reconciled,
                                    unreachable))

    if target_obj.id in crsg.carriers or target_obj.id in crsg.orphan_objects:
        # static furniture: nothing to search for, walk straight to it
        leg = walk_leg(world, crsg, target_obj.centroid, sensor_cfg, match_cfg,
                       crsg_cfg, update=variant.update_graph)
        if leg is None:  # one action, consumed in place
            record("direct", target_obj.id, 0.0, unreachable=True)
            return finish(False, shortest)
        traveled += leg.length
        record("direct", target_obj.id, leg.length, leg.reconciled)
        success = (
            target_obj.id == gt_id
            and gt_id in world.objects
            and world.snap_free_cell(world.object(gt_id).centroid[:2])
            == world.planner.cell_of(world.robot.position)
        )
        return finish(success, shortest)

    cr0 = len(state.unexplored)
    best: Optional[Observation] = None  # the last leg's confirmed object
    while True:
        action = decide(
            state, crsg, policy_cfg, prior, task.query.descriptor,
            world.distance_field(world.robot.position), variant, rng,
        )
        if action.kind == "stop":
            record("stop", "", 0.0)
            break
        if len(records) >= cr0:
            raise PolicyError("action budget exceeded; transition failed to shrink CR")

        dest = (action.candidate.position if action.kind == "goto"
                else crsg.carriers[action.carrier_id].object.centroid)
        # An unreachable destination is an empty leg: the action is consumed
        # without moving.  A leg reconciles before confirmation and the
        # transition sets read the graph, which changes nothing: they read
        # only its carrier table, fixed at build, never a carried set.
        leg = walk_leg(world, crsg, dest, sensor_cfg, match_cfg, crsg_cfg,
                       action.carrier_id, variant.update_graph)
        unreachable = leg is None
        if unreachable:
            leg = Leg(0.0, {}, {}, [])
        traveled += leg.length
        leg_len = leg.length

        best = confirm_target(leg.carried, target_obj, task.query, prior,
                              policy_cfg, variant)
        inputs = collect_transition_inputs(leg, crsg, state, target_obj, policy_cfg, crsg_cfg)
        if best is not None:
            try:
                approach, _ = world.shortest_path(world.robot.position, best.object.centroid[:2])
                alog = world.travel(approach, sensor_cfg)
                traveled += alog.length
                leg_len += alog.length
            except UnreachableGoalError:
                pass

        state = transition(state, action, inputs, best is not None)
        subject = action.candidate.object_id if action.kind == "goto" else action.carrier_id
        record(action.kind, subject, leg_len, leg.reconciled, action.priority, action.fallback,
               unreachable)

    success = state.found and best.object_id == gt_id
    return finish(success, shortest)
