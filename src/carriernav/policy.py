"""Displaced-object navigation as a finite exploration process.

State is (pose, unexplored carriers, candidate targets, found flag).  The
policy is a fixed three-rule cascade:

1. found, or nothing left to explore        -> Stop
2. any candidate targets                    -> Goto the highest-priority one
3. otherwise                                -> Explore a prior-ranked carrier

A candidate's priority rates a sighting by how similar it looked (ss), how
close it was when first seen (depth, frozen) and how far away it is now
(path distance, recomputed every decision):

    priority = w1 * ss * exp(-alpha * depth) / (1 + w2 * dist)

Every non-Stop action removes at least one carrier from the unexplored
set, so an episode takes at most |carriers| + 1 actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

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
from .scene import ObjectInstance
from .update import MatchConfig, apply_update, match_carrier, reconcile_carried
from .world import (
    Cell,
    GridWorld,
    Observation,
    Pose,
    SensorConfig,
    UnreachableGoalError,
)

import logging

logger = logging.getLogger(__name__)


class PolicyError(RuntimeError):
    pass


@dataclass
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


@dataclass
class CandidateTarget:
    object_id: str
    carrier_id: str
    ss: float            # similarity to the target
    d: float             # path distance from the current pose (recomputed)
    d_tilde: float       # depth at first sighting (frozen)
    position: np.ndarray  # believed centroid

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)


@dataclass
class NavAction:
    kind: str  # "stop" | "explore" | "goto"
    carrier_id: str = ""
    candidate: Optional[CandidateTarget] = None
    priority: float = math.nan

    def label(self) -> str:
        if self.kind == "stop":
            return "Stop"
        if self.kind == "explore":
            return f"Explore({self.carrier_id})"
        return f"Goto({self.candidate.object_id})"


@dataclass
class NavState:
    pose: Pose
    unexplored: List[str]
    candidates: Dict[str, CandidateTarget]
    found: bool = False
    step: int = 0
    bypass_target: Optional[ObjectInstance] = None

    def __post_init__(self):
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
    return config.omega1 * ss * math.exp(-config.alpha * d_tilde) / (1.0 + config.omega2 * d)


def priority(candidate: CandidateTarget, config: PolicyConfig) -> float:
    return priority_score(candidate.ss, candidate.d, candidate.d_tilde, config)


def effective_beta(query: Query, config: PolicyConfig, variant: VariantSpec) -> float:
    if variant.beta_override is not None:
        return variant.beta_override
    return config.beta if query.image is not None else 0.0


def init_state(
    crsg: Crsg,
    start: Pose,
    target: ObjectInstance,
    target_score: float,
    world: GridWorld,
) -> NavState:
    """Initial state: all carriers unexplored, the resolved target as the
    sole candidate at its believed position.

    A target that is itself a carrier or an orphan (static furniture) sets
    ``bypass_target``: there is nothing to search for, the caller should
    navigate straight to it.  A target with no believed carrier (parked as
    missing after an update) starts with an empty candidate set.
    """
    unexplored = sorted(crsg.carriers)

    if target.id in crsg.carriers or target.id in crsg.orphan_objects:
        return NavState(
            pose=start.copy(),
            unexplored=unexplored,
            candidates={},
            bypass_target=target,
        )

    candidates: Dict[str, CandidateTarget] = {}
    carrier_id = crsg.carrier_of(target.id)
    if carrier_id is not None:
        try:
            _, d0 = world.shortest_path(start.position, target.centroid[:2])
        except UnreachableGoalError:
            d0 = math.inf
        candidates[target.id] = CandidateTarget(
            object_id=target.id,
            carrier_id=carrier_id,
            ss=target_score,
            d=d0,
            d_tilde=0.0,
            position=target.centroid.copy(),
        )
    return NavState(pose=start.copy(), unexplored=unexplored, candidates=candidates)


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

    ``distance_fn`` maps a position to current path distance; candidate
    distances are recomputed through it on every call.  Ties in rule 2
    break to the smaller object id, oracle rankings in rule 3 break ties
    by carrier id, and a failed oracle falls back to the nearest
    unexplored carrier (logged).
    """
    if state.found or not state.unexplored:
        return NavAction(kind="stop")

    if variant.use_candidates and state.candidates:
        scored = []
        for cand in state.candidates.values():
            cand.d = float(distance_fn(cand.position))
            scored.append((-priority(cand, config), cand.object_id, cand))
        scored.sort(key=lambda item: (item[0], item[1]))
        _, _, best = scored[0]
        return NavAction(
            kind="goto",
            carrier_id=best.carrier_id,
            candidate=best,
            priority=priority(best, config),
        )

    if variant.explore_random:
        if rng is None:
            raise PolicyError("random exploration variant needs an rng")
        pick = state.unexplored[rng.randrange(len(state.unexplored))]
        return NavAction(kind="explore", carrier_id=pick)

    summaries = [
        CarrierSummary(
            id=cid,
            captions=tuple(crsg.carriers[cid].object.captions[:3]),
            room=crsg.room_assignment.get(cid, ""),
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
        return NavAction(kind="explore", carrier_id=nearest)


@dataclass
class Leg:
    """What one leg sensed, each sighting matched to the graph once."""

    length: float
    observations: Dict[str, Observation]  # first sighting per id, carrier view merged in
    matches: Dict[str, Optional[str]]     # object id -> matched graph carrier, or None
    carried: List[Observation]            # the visited carrier's full view


def sense_leg(world: GridWorld, crsg: Crsg, path: Sequence[Cell], sensor_cfg: SensorConfig,
              match_cfg: MatchConfig, crsg_cfg: CrsgConfig,
              carrier_id: Optional[str] = None) -> Leg:
    """Travel ``path``, take ``carrier_id``'s full view (if given) and match.

    Travel sightings win over the carrier view for the same object, so an
    object keeps the depth of its first sighting.  Updates never change
    the graph's carriers, so the matches stay valid for the whole leg.
    """
    log = world.travel(path, sensor_cfg)
    carried = (world.carried_observations(carrier_id, world.robot, crsg_cfg)
               if carrier_id is not None else [])
    observations = dict(log.observations)
    for obs in carried:
        observations.setdefault(obs.object_id, obs)
    matches = {oid: match_carrier(observations[oid], crsg, match_cfg)
               for oid in sorted(observations)}
    return Leg(log.length, observations, matches, carried)


@dataclass
class TransitionInputs:
    cr_observed: Set[str]
    ct_new: Dict[str, CandidateTarget]
    ct_star: Dict[str, CandidateTarget]


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
      (they are pruned without a visit);
    - sighted objects on unexplored carriers that look like the target
      (similarity above sigma1) become new candidates.  A sighting of an
      object already tracked supersedes its entry when the carrier
      differs (the old belief was stale); otherwise the first sighting
      and its depth are kept.
    """
    carriers = [node.object for node in crsg.carriers.values()]

    observed_carriers: Set[str] = set()
    item_obs: List[Tuple[Observation, Optional[str]]] = []
    for oid in sorted(leg.observations):
        obs, cid = leg.observations[oid], leg.matches[oid]
        if cid is not None:
            observed_carriers.add(cid)
        else:
            # which graph carrier the observed object currently rests on
            item_obs.append((obs, nearest_carrier(obs.object, carriers, crsg_cfg)))

    unexplored = set(state.unexplored)
    similar_on: Dict[str, float] = {}
    ct_new: Dict[str, CandidateTarget] = {}
    for obs, home in item_obs:
        if home is None:
            continue
        if obs.object.text.zero or target.text.zero:
            ss = 0.0
        else:
            ss = cosine(obs.object.text, target.text)
        similar_on[home] = max(similar_on.get(home, -math.inf), ss)
        if home not in unexplored or ss <= policy_cfg.sigma1:
            continue
        existing = state.candidates.get(obs.object_id)
        if existing is not None and existing.carrier_id == home:
            continue  # keep the first sighting's frozen depth
        ct_new[obs.object_id] = CandidateTarget(
            object_id=obs.object_id,
            carrier_id=home,
            ss=ss,
            d=math.inf,
            d_tilde=obs.mean_depth,
            position=obs.object.centroid.copy(),
        )

    cr_observed = {
        cid
        for cid in observed_carriers
        if similar_on.get(cid, -math.inf) <= policy_cfg.sigma1
    }
    ct_star = {
        oid: cand
        for oid, cand in state.candidates.items()
        if cand.carrier_id not in cr_observed
    }
    return TransitionInputs(cr_observed=cr_observed, ct_new=ct_new, ct_star=ct_star)


def transition(
    state: NavState,
    action: NavAction,
    inputs: TransitionInputs,
    confirmed: bool,
    new_pose: Pose,
) -> NavState:
    """Advance the state after executing a non-Stop action.

    The visited carrier and every carrier seen without target-like objects
    leave the unexplored set; candidates merge in sightings and drop the
    visited one; candidates stranded on explored carriers are purged.
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

    candidates = dict(inputs.ct_star)
    candidates.update(inputs.ct_new)
    if action.kind == "goto":
        entry = candidates.get(action.candidate.object_id)
        # a superseding sighting at another carrier survives the visit
        if entry is not None and entry.carrier_id == action.candidate.carrier_id:
            candidates.pop(action.candidate.object_id)
    alive = set(new_unexplored)
    candidates = {
        oid: cand for oid, cand in candidates.items() if cand.carrier_id in alive
    }

    return NavState(
        pose=new_pose.copy(),
        unexplored=new_unexplored,
        candidates=candidates,
        found=confirmed,
        step=state.step + 1,
    )


def confirmation_scores(
    observations: Sequence[Observation],
    target: ObjectInstance,
    query: Query,
    prior: CarrierPriorOracle,
    beta: float,
) -> List[Tuple[float, Observation]]:
    """Score each carried object against the target at arm's length.

    score = (1 - beta) * text_similarity + beta * image_comparison, where
    the image side asks the prior oracle and the text side compares stored
    features against the resolved target's.
    """
    image_ref = query.image if query.image is not None else query.text
    out = []
    for obs in sorted(observations, key=lambda o: o.object_id):
        if obs.object.text.zero or target.text.zero:
            text_sim = 0.0
        else:
            text_sim = cosine(obs.object.text, target.text)
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
    query: Query
    ground_truth_id: Optional[str] = None


@dataclass
class EpisodeResult:
    task_index: int
    success: bool
    traveled: float
    shortest: float
    actions: List[str] = field(default_factory=list)

    @property
    def action_count(self) -> int:
        return len(self.actions)


def _trace_line(t: int, label: str, pose: Pose, n_cr: int, n_ct: int,
                pr: float, leg: float) -> str:
    pr_text = f"{pr:.6f}" if not math.isnan(pr) else "-"
    return (
        f"t={t} {label} pose=({pose.position[0]:.3f},{pose.position[1]:.3f}) "
        f"cr={n_cr} ct={n_ct} pr={pr_text} leg={leg:.6f}"
    )


def apply_observation_updates(
    world: GridWorld,
    crsg: Crsg,
    leg: Leg,
    match_cfg: MatchConfig,
    crsg_cfg: CrsgConfig,
) -> List[str]:
    """Reconcile every fully observed carrier of ``leg`` against ground truth.

    A carrier counts as fully observed when a sighting matched it and every
    object currently resting on it was seen too; partial views never
    reconcile, so they can never remove entries.  Returns the carrier ids
    updated.
    """
    seen = leg.observations
    updated = []
    for cid in sorted({c for c in leg.matches.values() if c is not None}):
        gt_ids = world.ground_truth_carried(cid, crsg_cfg)
        if any(gid not in seen for gid in gt_ids):
            continue
        diff = reconcile_carried(cid, [seen[g] for g in gt_ids], crsg, match_cfg)
        apply_update(crsg, diff)
        if not diff.empty:
            updated.append(cid)
    return updated


def run_task(
    world: GridWorld,
    crsg: Crsg,
    task: Task,
    *,
    policy_cfg: Optional[PolicyConfig] = None,
    sensor_cfg: Optional[SensorConfig] = None,
    match_cfg: Optional[MatchConfig] = None,
    crsg_cfg: Optional[CrsgConfig] = None,
    prior: Optional[CarrierPriorOracle] = None,
    variant: VariantSpec = VARIANTS["ours"],
    rng=None,
    task_index: int = 0,
) -> EpisodeResult:
    """Run one navigation episode to completion.

    Resolves the query on the belief graph, then either navigates straight
    to static furniture or runs the explore/goto loop until confirmation
    or exhaustion.  Success means the ground-truth target was reached and
    confirmed.  The world is mutated (robot pose); the graph is updated
    from observations unless the variant disables that.
    """
    policy_cfg = policy_cfg or PolicyConfig()
    sensor_cfg = sensor_cfg or SensorConfig()
    match_cfg = match_cfg or MatchConfig()
    crsg_cfg = crsg_cfg or CrsgConfig()
    prior = prior or KeywordPriorOracle()

    start_pose = world.robot.copy()
    trace: List[str] = []
    traveled = 0.0

    def finish(success: bool, shortest: float) -> EpisodeResult:
        return EpisodeResult(task_index=task_index, success=success, traveled=traveled,
                             shortest=shortest, actions=trace)

    try:
        target_obj, score = query_target(crsg, task.query)
    except QueryError:
        return finish(False, 0.0)

    gt_id = task.ground_truth_id or target_obj.id
    shortest = 0.0
    if world.has_object(gt_id):
        try:
            _, shortest = world.shortest_path(start_pose.position, world.position_of(gt_id)[:2])
        except UnreachableGoalError:
            return finish(False, math.inf)

    state = init_state(crsg, start_pose, target_obj, score, world)

    if state.bypass_target is not None:
        dest = state.bypass_target.centroid
        try:
            path, _ = world.shortest_path(world.robot.position, dest[:2])
        except UnreachableGoalError:
            return finish(False, shortest)
        leg = sense_leg(world, crsg, path, sensor_cfg, match_cfg, crsg_cfg)
        traveled += leg.length
        if variant.update_graph:
            apply_observation_updates(world, crsg, leg, match_cfg, crsg_cfg)
        trace.append(_trace_line(0, f"Direct({target_obj.id})", world.robot,
                                 len(state.unexplored), 0, math.nan, leg.length))
        success = (
            target_obj.id == gt_id
            and world.has_object(gt_id)
            and world.snap_free_cell(world.position_of(gt_id)[:2]) == world.cell_of(world.robot.position)
        )
        return finish(success, shortest)

    cr0 = len(state.unexplored)
    confirmed_id: Optional[str] = None
    while True:
        action = decide(
            state, crsg, policy_cfg, prior, task.query.descriptor,
            world.distance_field(state.pose.position).to_point, variant, rng,
        )
        if action.kind == "stop":
            trace.append(_trace_line(state.step, action.label(), state.pose,
                                     len(state.unexplored), len(state.candidates),
                                     math.nan, 0.0))
            break
        if len(trace) >= cr0:
            raise PolicyError("action budget exceeded; transition failed to shrink CR")

        dest = (
            action.candidate.position
            if action.kind == "goto"
            else crsg.carriers[action.carrier_id].object.centroid
        )
        try:
            path, _ = world.shortest_path(state.pose.position, dest[:2])
        except UnreachableGoalError:
            # unreachable destination: consume the action without moving
            empty = TransitionInputs(set(), {}, dict(state.candidates))
            state = transition(state, action, empty, False, state.pose)
            trace.append(_trace_line(state.step - 1, action.label(), state.pose,
                                     len(state.unexplored), len(state.candidates),
                                     action.priority, 0.0))
            continue

        leg = sense_leg(world, crsg, path, sensor_cfg, match_cfg, crsg_cfg,
                        action.carrier_id)
        traveled += leg.length
        leg_len = leg.length

        best = confirm_target(leg.carried, target_obj, task.query, prior,
                              policy_cfg, variant)
        confirmed = best is not None
        inputs = collect_transition_inputs(leg, crsg, state, target_obj, policy_cfg, crsg_cfg)
        if variant.update_graph:
            apply_observation_updates(world, crsg, leg, match_cfg, crsg_cfg)

        if confirmed:
            confirmed_id = best.object_id
            try:
                approach, _ = world.shortest_path(world.robot.position, best.object.centroid[:2])
                alog = world.travel(approach, sensor_cfg)
                traveled += alog.length
                leg_len += alog.length
            except UnreachableGoalError:
                pass

        state = transition(state, action, inputs, confirmed, world.robot)
        trace.append(_trace_line(state.step - 1, action.label(), state.pose,
                                 len(state.unexplored), len(state.candidates),
                                 action.priority, leg_len))

    success = state.found and confirmed_id == gt_id
    return finish(success, shortest)
