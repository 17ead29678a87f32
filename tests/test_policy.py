"""Decision cascade, state transitions, confirmation and full episodes."""

import dataclasses
import math
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carriernav.bench import spl
from carriernav.graph import CrsgConfig, Query, build_crsg
from carriernav.policy import (
    VARIANTS,
    ActionRecord,
    CandidateTarget,
    Leg,
    NavAction,
    NavState,
    PolicyConfig,
    PolicyError,
    Task,
    TransitionInputs,
    collect_transition_inputs,
    confirm_target,
    confirmation_scores,
    decide,
    effective_beta,
    init_state,
    priority_score,
    run_task,
    transition,
)
from carriernav.priors import CarrierPriorOracle, KeywordPriorOracle, OracleError
from carriernav.scene import scene_from_dict
from carriernav.update import CarriedDiff, MatchConfig, apply_update, match_carrier
from carriernav.world import DisplacementEvent, GridWorld, Pose, SensorConfig

import oracles
from test_update import obs_of
from test_world import empty_world, random_blocked
from conftest import find_object, item_on, obj_dict, scene_dict, table_dict

CFG = PolicyConfig()


def leg_of(observations, crsg, match_cfg=MatchConfig()):
    """A leg that sensed ``observations``, each matched as ``walk_leg`` does."""
    by_id = {o.object_id: o for o in observations}
    matches = {oid: match_carrier(o, crsg, match_cfg) for oid, o in by_id.items()}
    return Leg(0.0, by_id, matches, [])


class TestPriority:
    def test_peak_value_is_three(self):
        assert priority_score(1.0, 0.0, 0.0, CFG) == 3.0

    def test_hand_computed_points(self):
        assert priority_score(1.0, 0.0, 10.0, CFG) == pytest.approx(3.0 / math.e, rel=1e-15)
        assert priority_score(0.5, 4.0, 2.0, CFG) == pytest.approx(
            0.3 * math.exp(-0.2), rel=1e-15)
        assert priority_score(0.0, 1.0, 1.0, CFG) == 0.0

    def test_zero_omega2_turns_the_distance_term_off(self):
        # 0 * inf would be nan, and a nan priority wins or loses by order
        cfg = PolicyConfig(omega2=0.0)
        assert priority_score(0.7, math.inf, 0.0, cfg) == 3.0 * 0.7
        assert priority_score(0.7, 5.0, 0.0, cfg) == 3.0 * 0.7

    def test_negative_distances_rejected(self):
        with pytest.raises(PolicyError):
            priority_score(1.0, -0.1, 0.0, CFG)
        with pytest.raises(PolicyError):
            priority_score(1.0, 0.0, -0.1, CFG)

    @settings(max_examples=60, deadline=None)
    @given(ss=st.floats(0.01, 1.0), d=st.floats(0.0, 50.0),
           dt=st.floats(0.0, 50.0), bump=st.floats(0.1, 10.0))
    def test_monotonicity(self, ss, d, dt, bump):
        base = priority_score(ss, d, dt, CFG)
        assert priority_score(ss, d + bump, dt, CFG) < base
        assert priority_score(ss, d, dt + bump, CFG) < base
        assert priority_score(min(1.0, ss + 0.1), d, dt, CFG) >= base

    def test_config_validation(self):
        with pytest.raises(PolicyError):
            PolicyConfig(omega1=-1.0)
        with pytest.raises(PolicyError):
            PolicyConfig(sigma1=0.9, sigma2=0.8)
        with pytest.raises(PolicyError):
            PolicyConfig(beta=1.5)


class TestEffectiveBeta:
    def test_text_queries_use_text_route(self):
        q = Query(text="red cup")
        assert effective_beta(q, CFG, VARIANTS["ours"]) == 0.0

    def test_image_queries_blend(self):
        q = Query(image="img:red_cup")
        assert effective_beta(q, CFG, VARIANTS["ours"]) == 0.5

    def test_variant_overrides_win(self):
        q = Query(image="img:red_cup")
        assert effective_beta(q, CFG, VARIANTS["ours-Text"]) == 0.0
        assert effective_beta(q, CFG, VARIANTS["ours-LLM"]) == 1.0


def policy_scene(blocked=(), extra=()):
    """Two tables, a counter, a red cup on table_0 and a rug, plus the
    object dicts ``extra``."""
    t0 = table_dict("table_0", 2.0, 2.0)
    t1 = table_dict("table_1", 5.0, 2.0)
    counter = obj_dict("counter_0", ["white counter", "counter"], 2.0, 4.0, 1.6, 0.6, 0.0, 0.9)
    objs = [t0, t1, counter,
            item_on("cup_0", ["red cup", "red cup", "cup"], t0),
            obj_dict("rug_0", ["green rug", "green rug", "rug"], 5.0, 4.0, 1.0, 1.0, 0.0, 0.02),
            *extra]
    return scene_from_dict(scene_dict(objs, width=32, height=24, blocked=blocked))


def world_with(*extra):
    """The fixture's world, whose scene also holds the object dicts
    ``extra``: objects the fixture's graph, built from ``policy_scene()``,
    lacks."""
    return GridWorld(policy_scene(extra=extra), start_pose=Pose([0.5, 0.5]))


BLUE_CUP = ["blue cup", "blue cup", "cup"]


# a wall at x = 3.5 m parts the start, table_0 and counter_0 from table_1 and rug_0
EAST_WALL = [(14, iy) for iy in range(24)]


class FixedRanking(KeywordPriorOracle):
    """The keyword prior with its carrier ranking replaced by ``order``."""

    def __init__(self, order):
        self.order = list(order)

    def rank_carriers(self, carriers, target_descriptor):
        return self.order


@pytest.fixture
def world_and_graph():
    scene = policy_scene()
    world = GridWorld(scene, start_pose=Pose([0.5, 0.5]))
    return world, build_crsg(scene, CrsgConfig())


class TestInitState:
    def test_carried_target_seeds_one_candidate(self, world_and_graph):
        world, crsg = world_and_graph
        target = find_object(crsg, "cup_0")
        state = init_state(crsg, target, 0.95)
        assert state.unexplored == ("counter_0", "table_0", "table_1")
        assert list(state.candidates) == ["cup_0"]
        cand = state.candidates["cup_0"]
        assert cand.carrier_id == "table_0"
        assert cand.ss == 0.95
        assert cand.d_tilde == 0.0
        # a carried target is searched for: the episode enters the loop
        r = run_task(world, crsg, Task(query_text="red cup", ground_truth_id="cup_0"),
                     rng=Random(0))
        assert [a.kind for a in r.records] == ["goto", "stop"]
        assert r.success

    def test_carrier_target_bypasses_search(self, world_and_graph):
        world, crsg = world_and_graph
        assert init_state(crsg, crsg.carriers["counter_0"].object, 1.0).candidates == {}
        r = run_task(world, crsg, Task(query_text="white counter", ground_truth_id="counter_0"),
                     rng=Random(0))
        assert [(a.kind, a.subject, a.ct) for a in r.records] == [("direct", "counter_0", 0)]
        assert r.success

    def test_orphan_target_bypasses_search(self, world_and_graph):
        world, crsg = world_and_graph
        assert init_state(crsg, find_object(crsg, "rug_0"), 1.0).candidates == {}
        r = run_task(world, crsg, Task(query_text="green rug", ground_truth_id="rug_0"),
                     rng=Random(0))
        assert [(a.kind, a.subject, a.ct) for a in r.records] == [("direct", "rug_0", 0)]
        assert r.success

    def test_state_rejects_candidates_on_explored_carriers(self):
        cand = CandidateTarget("cup_0", "table_9", 0.9, 0.0, [1.0, 1.0, 0.5])
        with pytest.raises(PolicyError):
            NavState(unexplored=["table_0"],
                     candidates={"cup_0": cand})


def euclid_from(pose):
    return lambda pos: float(np.hypot(pos[0] - pose.position[0], pos[1] - pose.position[1]))


class TestDecide:
    def test_found_stops(self, world_and_graph):
        world, crsg = world_and_graph
        state = NavState(unexplored=["table_0"], candidates={}, found=True)
        action = decide(state, crsg, CFG, KeywordPriorOracle(), "red cup",
                        euclid_from(world.robot))
        assert action.kind == "stop" and action.carrier_id == "" and action.candidate is None

    def test_exhausted_frontier_stops(self, world_and_graph):
        world, crsg = world_and_graph
        state = NavState(unexplored=[], candidates={})
        action = decide(state, crsg, CFG, KeywordPriorOracle(), "red cup",
                        euclid_from(world.robot))
        assert action.kind == "stop"

    def test_candidates_trigger_goto_argmax(self, world_and_graph):
        world, crsg = world_and_graph
        near_weak = CandidateTarget("cup_x", "table_0", 0.65, 0.0, [2.0, 2.0, 0.8])
        far_strong = CandidateTarget("cup_y", "table_1", 0.99, 0.0, [5.0, 2.0, 0.8])
        state = NavState(unexplored=["counter_0", "table_0", "table_1"],
                         candidates={"cup_x": near_weak, "cup_y": far_strong})
        action = decide(state, crsg, CFG, KeywordPriorOracle(), "red cup",
                        euclid_from(Pose([2.0, 2.0])))
        assert action.kind == "goto"
        # at the pose: cup_x is 0 m away (P=3*0.65), cup_y 3 m (P=3*0.99/4)
        assert action.candidate.object_id == "cup_x"
        assert action.priority == pytest.approx(3 * 0.65)
        assert action.kind == "goto" and action.carrier_id == "table_0"
        # distances are measured through distance_fn at each decision: from
        # (5, 2) cup_y is 0 m away (P=3*0.99), cup_x 3 m (P=3*0.65/4)
        action = decide(state, crsg, CFG, KeywordPriorOracle(), "red cup",
                        euclid_from(Pose([5.0, 2.0])))
        assert action.candidate.object_id == "cup_y"
        assert action.priority == pytest.approx(3 * 0.99)

    def test_goto_tie_breaks_to_smaller_object_id(self, world_and_graph):
        world, crsg = world_and_graph
        twin_b = CandidateTarget("cup_b", "table_0", 0.8, 1.0, [2.0, 2.0, 0.8])
        twin_a = CandidateTarget("cup_a", "table_1", 0.8, 1.0, [2.0, 2.0, 0.8])
        state = NavState(unexplored=["table_0", "table_1"],
                         candidates={"cup_b": twin_b, "cup_a": twin_a})
        action = decide(state, crsg, CFG, KeywordPriorOracle(), "red cup",
                        euclid_from(Pose([0.0, 0.0])))
        assert action.candidate.object_id == "cup_a"

    def test_equal_walks_tie_break_to_smaller_object_id(self, world_and_graph):
        # (10, 2) and (2, 10) both walk 2.5 + sqrt(2) * 0.25 m from (0, 0);
        # a search's raw floats for them differ in the last ulp, and the
        # larger one, (10, 2)'s, used to hand the goto to "b"
        _, crsg = world_and_graph
        w = empty_world(30, 30, random_blocked(Random(0), 30, 30, 0.15))
        center = w.planner.cell_center
        source = center((0, 0))
        field = w.distance_field(source)
        ends = {"a": (10, 2), "b": (2, 10)}
        cands = {oid: CandidateTarget(oid, carrier, 0.9, 0.0, [*center(ends[oid]), 0.8])
                 for oid, carrier in (("a", "table_0"), ("b", "table_1"))}
        state = NavState(unexplored=["table_0", "table_1"], candidates=cands)
        action = decide(state, crsg, CFG, KeywordPriorOracle(), "red cup", field)
        assert action.candidate.object_id == "a"
        # a distance read is the length of the path the robot would walk
        for cell in ends.values():
            path, length = w.shortest_path(source, center(cell))
            assert field(center(cell)) == length == w.travel(path, SensorConfig()).length
            assert length == 2.7071067811865475

    @pytest.mark.parametrize("order", [("cup_a", "cup_b"), ("cup_b", "cup_a")])
    def test_goto_does_not_depend_on_insertion_order(self, world_and_graph, order):
        # cup_a is unreachable; with omega2 = 0 distance is ignored, so the
        # more similar cup_b wins either way
        _, crsg = world_and_graph
        cands = {"cup_a": CandidateTarget("cup_a", "table_0", 0.7, 0.0, [2.0, 2.0, 0.8]),
                 "cup_b": CandidateTarget("cup_b", "table_1", 0.9, 0.0, [5.0, 2.0, 0.8])}
        state = NavState(unexplored=["table_0", "table_1"],
                         candidates={oid: cands[oid] for oid in order})
        action = decide(state, crsg, PolicyConfig(omega2=0.0), KeywordPriorOracle(), "red cup",
                        lambda pos: math.inf if pos[0] < 3.0 else 1.0)
        assert action.candidate.object_id == "cup_b"
        assert action.priority == pytest.approx(3 * 0.9)

    def test_prior_ranked_exploration(self, world_and_graph):
        world, crsg = world_and_graph
        state = NavState(unexplored=["counter_0", "table_0", "table_1"], candidates={})
        action = decide(state, crsg, CFG, KeywordPriorOracle(), "red cup",
                        euclid_from(world.robot))
        # cups live on counters first in the affinity table
        assert action.kind == "explore"
        assert action.carrier_id == "counter_0"
        assert action.candidate is None and not action.fallback

    def test_affinity_rank_ties_break_by_carrier_id(self, world_and_graph):
        world, crsg = world_and_graph
        state = NavState(unexplored=["table_0", "table_1"], candidates={})
        action = decide(state, crsg, CFG, KeywordPriorOracle(), "red cup",
                        euclid_from(world.robot))
        assert action.carrier_id == "table_0"

    def test_random_variant_uses_the_rng(self, world_and_graph):
        world, crsg = world_and_graph
        state = NavState(unexplored=["counter_0", "table_0", "table_1"], candidates={})
        picks = {
            decide(state, crsg, CFG, KeywordPriorOracle(), "red cup",
                   euclid_from(world.robot), variant=VARIANTS["only-carriers_Random"],
                   rng=Random(seed)).carrier_id
            for seed in range(10)
        }
        assert len(picks) > 1  # actually random across seeds
        with pytest.raises(PolicyError):
            decide(state, crsg, CFG, KeywordPriorOracle(), "red cup",
                   euclid_from(world.robot), variant=VARIANTS["only-carriers_Random"])

    def test_candidate_blind_variant_ignores_candidates(self, world_and_graph):
        world, crsg = world_and_graph
        cand = CandidateTarget("cup_0", "table_0", 0.99, 0.0, [2.0, 2.0, 0.8])
        state = NavState(unexplored=["counter_0", "table_0", "table_1"],
                         candidates={"cup_0": cand})
        action = decide(state, crsg, CFG, KeywordPriorOracle(), "red cup",
                        euclid_from(world.robot), variant=VARIANTS["only-carriers_LLM"])
        assert action.kind == "explore"

    def test_oracle_failure_falls_back_to_nearest(self, world_and_graph):
        world, crsg = world_and_graph

        class FailingOracle(CarrierPriorOracle):
            def rank_carriers(self, carriers, target_descriptor):
                raise OracleError("backend down")

        pose = Pose([5.0, 3.5])  # nearest unexplored carrier is table_1
        state = NavState(unexplored=["counter_0", "table_0", "table_1"], candidates={})
        action = decide(state, crsg, CFG, FailingOracle(), "red cup", euclid_from(pose))
        assert action.kind == "explore"
        assert action.carrier_id == "table_1"
        assert action.fallback


class TestTransitionInputs:
    def make_state(self, crsg, world, score=0.95):
        return init_state(crsg, find_object(crsg, "cup_0"), score)

    def test_bare_carrier_sighting_prunes_it(self, world_and_graph):
        world, crsg = world_and_graph
        state = self.make_state(crsg, world)
        obs = [obs_of(world.object("table_1"), depth=2.0)]
        inputs = collect_transition_inputs(leg_of(obs, crsg), crsg, state, find_object(crsg, "cup_0"),
                                           CFG, CrsgConfig())
        assert inputs.cr_observed == {"table_1"}
        assert inputs.ct_new == {}
        nxt = transition(state, NavAction(kind="explore", carrier_id="counter_0"), inputs, False)
        assert nxt.unexplored == ("table_0",)
        assert list(nxt.candidates) == ["cup_0"]  # candidate elsewhere survives

    def test_target_like_sighting_spares_the_carrier(self, world_and_graph):
        _, crsg = world_and_graph
        world = world_with(item_on("cup_9", BLUE_CUP, table_dict("table_1", 5.0, 2.0)))
        state = self.make_state(crsg, world)
        obs = [obs_of(world.object("table_1"), depth=2.0),
               obs_of(world.object("cup_9"), depth=2.1)]
        inputs = collect_transition_inputs(leg_of(obs, crsg), crsg, state, find_object(crsg, "cup_0"),
                                           CFG, CrsgConfig())
        # blue cup vs red cup: 9/13 = 0.69 > sigma1, so table_1 stays live
        assert inputs.cr_observed == set()
        assert "cup_9" in inputs.ct_new
        cand = inputs.ct_new["cup_9"]
        assert cand.carrier_id == "table_1"
        assert cand.ss == pytest.approx(9.0 / 13.0)
        assert cand.d_tilde == pytest.approx(2.1)

    def test_dissimilar_load_does_not_spare(self, world_and_graph):
        _, crsg = world_and_graph
        world = world_with(item_on("plant_9", ["green plant", "green plant", "plant"],
                                   table_dict("table_1", 5.0, 2.0), ex=0.2, ey=0.2, h=0.35))
        state = self.make_state(crsg, world)
        obs = [obs_of(world.object("table_1"), depth=2.0),
               obs_of(world.object("plant_9"), depth=2.1)]
        inputs = collect_transition_inputs(leg_of(obs, crsg), crsg, state, find_object(crsg, "cup_0"),
                                           CFG, CrsgConfig())
        assert inputs.cr_observed == {"table_1"}
        assert inputs.ct_new == {}

    def test_moved_target_sighting_supersedes(self, world_and_graph):
        world, crsg = world_and_graph
        state = self.make_state(crsg, world)
        world.apply_displacement(DisplacementEvent(
            kind="move", object_id="cup_0", target_carrier_id="table_1"), CrsgConfig())
        obs = [obs_of(world.object("cup_0"), depth=1.7)]
        inputs = collect_transition_inputs(leg_of(obs, crsg), crsg, state, find_object(crsg, "cup_0"),
                                           CFG, CrsgConfig())
        assert "cup_0" in inputs.ct_new
        assert inputs.ct_new["cup_0"].carrier_id == "table_1"
        assert inputs.ct_new["cup_0"].d_tilde == pytest.approx(1.7)

    def test_resighting_on_same_carrier_keeps_first_depth(self, world_and_graph):
        world, crsg = world_and_graph
        state = self.make_state(crsg, world)
        obs = [obs_of(world.object("cup_0"), depth=1.2)]
        inputs = collect_transition_inputs(leg_of(obs, crsg), crsg, state, find_object(crsg, "cup_0"),
                                           CFG, CrsgConfig())
        # already a candidate on the same carrier: nothing new
        assert inputs.ct_new == {}
        nxt = transition(state, NavAction(kind="explore", carrier_id="counter_0"), inputs, False)
        assert nxt.candidates["cup_0"].d_tilde == 0.0

    def test_candidate_resighted_off_an_observed_carrier_moves_with_it(self, world_and_graph):
        # the cup left table_0 for table_1: table_0 is seen bare, so it is
        # observed, and the cup's sighting on table_1 carries it over
        world, crsg = world_and_graph
        state = self.make_state(crsg, world)
        world.apply_displacement(DisplacementEvent(
            kind="move", object_id="cup_0", target_carrier_id="table_1"), CrsgConfig())
        obs = [obs_of(world.object("table_0"), depth=1.0),
               obs_of(world.object("cup_0"), depth=1.7)]
        inputs = collect_transition_inputs(leg_of(obs, crsg), crsg, state, find_object(crsg, "cup_0"),
                                           CFG, CrsgConfig())
        assert inputs.cr_observed == {"table_0"}
        nxt = transition(state, NavAction(kind="explore", carrier_id="counter_0"), inputs, False)
        assert nxt.unexplored == ("table_1",)
        assert list(nxt.candidates) == ["cup_0"]
        assert nxt.candidates["cup_0"].carrier_id == "table_1"
        assert nxt.candidates["cup_0"].d_tilde == pytest.approx(1.7)


@pytest.mark.parametrize("z_gap_max", [0.05, 0.15])
def test_carrying_rule_follows_the_callers_config(z_gap_max):
    # a cup hovering 10 cm above a table: carried only when the config's
    # resting gap allows it, and graph, world and policy must all agree
    cfg = CrsgConfig(z_gap_max=z_gap_max)
    table = table_dict("table_0", 2.0, 2.0)
    cup = item_on("cup_0", ["red cup", "red cup", "cup"], table)
    for key in ("min", "max"):
        cup["box"][key][2] += 0.10
    cup["centroid"][2] += 0.10
    scene = scene_from_dict(scene_dict([table, cup], width=32, height=24))
    _, relation, _ = oracles.brute_force_relation(scene, cfg)
    expected = {cid for cid, held in relation.items() if "cup_0" in held}
    assert expected == ({"table_0"} if z_gap_max > 0.10 else set())

    crsg = build_crsg(scene, cfg)
    assert {crsg.carrier_of("cup_0")} - {None} == expected
    world = GridWorld(scene, start_pose=Pose([0.5, 0.5]))
    assert world.ground_truth_carried("table_0", cfg) == (["cup_0"] if expected else [])
    state = NavState(unexplored=["table_0"], candidates={})
    inputs = collect_transition_inputs(leg_of([obs_of(world.object("cup_0"), depth=1.0)], crsg),
                                       crsg, state, world.object("cup_0"), CFG, cfg)
    assert {c.carrier_id for c in inputs.ct_new.values()} == expected


class TestTransition:
    def base_state(self):
        cand = CandidateTarget("cup_0", "table_0", 0.95, 0.0, [2.0, 2.0, 0.8])
        return NavState(unexplored=["counter_0", "table_0", "table_1"],
                        candidates={"cup_0": cand})

    def goto(self, state):
        cand = state.candidates["cup_0"]
        return NavAction(kind="goto", carrier_id=cand.carrier_id, candidate=cand,
                         priority=priority_score(cand.ss, 1.0, cand.d_tilde, CFG))

    def test_visit_consumes_carrier_and_candidate(self):
        state = self.base_state()
        action = self.goto(state)
        nxt = transition(state, action, TransitionInputs(cr_observed=set(), ct_new={}),
                         confirmed=False)
        assert nxt.unexplored == ("counter_0", "table_1")
        assert nxt.candidates == {}
        assert not nxt.found

    def test_confirmation_marks_found(self):
        state = self.base_state()
        nxt = transition(state, self.goto(state), TransitionInputs(set(), {}), confirmed=True)
        assert nxt.found

    def test_observed_carriers_are_pruned_with_their_candidates(self):
        state = self.base_state()
        stray = CandidateTarget("cup_9", "table_1", 0.7, 1.0, [5.0, 2.0, 0.8])
        state = NavState(unexplored=state.unexplored,
                         candidates={**state.candidates, "cup_9": stray})
        inputs = TransitionInputs(cr_observed={"table_1"}, ct_new={})
        nxt = transition(state, self.goto(state), inputs, confirmed=False)
        assert nxt.unexplored == ("counter_0",)
        assert nxt.candidates == {}

    def test_superseding_sighting_survives_the_visit(self):
        state = self.base_state()
        action = self.goto(state)
        resight = CandidateTarget("cup_0", "table_1", 0.95, 1.5, [5.0, 2.0, 0.8])
        inputs = TransitionInputs(cr_observed=set(), ct_new={"cup_0": resight})
        nxt = transition(state, action, inputs, confirmed=False)
        # the fresh sighting on table_1 replaces the stale table_0 belief
        assert nxt.candidates["cup_0"].carrier_id == "table_1"

    def test_terminal_states_do_not_transition(self):
        state = self.base_state()
        with pytest.raises(PolicyError):
            transition(dataclasses.replace(state, found=True), self.goto(state),
                       TransitionInputs(set(), {}), False)
        with pytest.raises(PolicyError):
            transition(state, NavAction(kind="stop"), TransitionInputs(set(), {}), False)


class TestConfirmation:
    def test_exact_match_confirms_on_text(self, world_and_graph):
        world, crsg = world_and_graph
        target = find_object(crsg, "cup_0")
        obs = [obs_of(world.object("cup_0"), depth=0.5)]
        best = confirm_target(obs, target, Query(text="red cup"),
                              KeywordPriorOracle(), CFG)
        assert best is obs[0]

    def test_admitted_distractor_fails_confirmation(self, world_and_graph):
        # the sigma1/sigma2 gap: similar enough to walk to, not enough to stop at
        _, crsg = world_and_graph
        world = world_with(item_on("cup_9", BLUE_CUP, table_dict("table_1", 5.0, 2.0)))
        target = find_object(crsg, "cup_0")
        obs = [obs_of(world.object("cup_9"), depth=0.5)]
        scores = confirmation_scores(obs, target, Query(text="red cup"),
                                     KeywordPriorOracle(), beta=0.0)
        assert scores[0][0] == pytest.approx(9.0 / 13.0)
        assert CFG.sigma1 < scores[0][0] < CFG.sigma2
        assert confirm_target(obs, target, Query(text="red cup"),
                              KeywordPriorOracle(), CFG) is None

    def test_best_scoring_object_is_returned(self, world_and_graph):
        # a look-alike sharing the carrier must not be the one confirmed
        _, crsg = world_and_graph
        world = world_with(item_on("beaker_0", BLUE_CUP, table_dict("table_0", 2.0, 2.0), dx=0.3))
        target = find_object(crsg, "cup_0")
        obs = [obs_of(world.object(oid), depth=0.5) for oid in ("beaker_0", "cup_0")]
        best = confirm_target(obs, target, Query(text="red cup"),
                              KeywordPriorOracle(), CFG)
        assert best.object_id == "cup_0"

    def test_image_route_blends_prior_comparison(self, world_and_graph):
        world, crsg = world_and_graph
        target = find_object(crsg, "cup_0")
        obs = [obs_of(world.object("cup_0"), depth=0.5)]
        q = Query(image="img:red_cup")
        assert confirm_target(obs, target, q, KeywordPriorOracle(), CFG) is obs[0]
        # beta=1: pure caption-vs-descriptor comparison, still over sigma2
        assert confirm_target(obs, target, q, KeywordPriorOracle(), CFG,
                              VARIANTS["ours-LLM"]) is obs[0]

    def test_empty_carrier_never_confirms(self, world_and_graph):
        world, crsg = world_and_graph
        assert confirm_target([], find_object(crsg, "cup_0"), Query(text="red cup"),
                              KeywordPriorOracle(), CFG) is None


def test_trace_line_format():
    line = ActionRecord("explore", "table_0", Pose([1.0, 2.5]).position, 4, 1, 0.5, 1.25).line(3)
    assert line == "t=3 Explore(table_0) pose=(1.000,2.500) cr=4 ct=1 pr=0.500000 leg=1.250000"
    stop = ActionRecord("stop", "", Pose([0.0, 0.0]).position, 0, 0, None, 0.0).line(0)
    assert stop == "t=0 Stop pose=(0.000,0.000) cr=0 ct=0 pr=- leg=0.000000"


class TestRunTask:
    def task(self, text="red cup", gt="cup_0"):
        return Task(query_text=text, ground_truth_id=gt)

    def test_accurate_belief_is_a_beeline(self, world_and_graph):
        world, crsg = world_and_graph
        r = run_task(world, crsg, self.task(), rng=Random(0))
        assert r.success
        assert r.traveled == pytest.approx(r.shortest)
        assert spl(r.success, r.shortest, r.traveled) == pytest.approx(1.0)
        assert r.action_count >= 1

    def test_stale_belief_recovers_and_updates(self, world_and_graph):
        # start placed so the stale carrier is a strict detour
        _, crsg = world_and_graph
        before = {c: sorted(n.carried) for c, n in crsg.carriers.items()}
        world = GridWorld(policy_scene(), start_pose=Pose([5.0, 4.5]))
        world.apply_displacement(DisplacementEvent(
            kind="move", object_id="cup_0", target_carrier_id="table_1"), CrsgConfig())
        r = run_task(world, crsg, self.task(), rng=Random(0))
        assert r.success
        assert r.traveled > r.shortest  # paid for the stale visit
        assert 0.0 < spl(r.success, r.shortest, r.traveled) < 1.0
        # the detour taught the graph where the cup went
        assert crsg.carrier_of("cup_0") == "table_1"
        assert before["table_0"] == ["cup_0"]
        assert "cup_0" not in crsg.carriers["table_0"].carried
        assert crsg.missing == {}

    def test_no_update_variant_leaves_graph_untouched(self, world_and_graph):
        world, crsg = world_and_graph
        world.apply_displacement(DisplacementEvent(
            kind="move", object_id="cup_0", target_carrier_id="table_1"), CrsgConfig())
        before = {c: sorted(n.carried) for c, n in crsg.carriers.items()}
        r = run_task(world, crsg, self.task(), variant=VARIANTS["no-update"],
                     rng=Random(0))
        assert {c: sorted(n.carried) for c, n in crsg.carriers.items()} == before
        assert crsg.missing == {}

    def test_removed_target_fails_honestly(self, world_and_graph):
        world, crsg = world_and_graph
        world.apply_displacement(DisplacementEvent(
            kind="remove", object_id="cup_0"), CrsgConfig())
        r = run_task(world, crsg, self.task(), rng=Random(0))
        assert not r.success
        assert spl(r.success, r.shortest, r.traveled) == 0.0

    def test_static_target_bypass(self, world_and_graph):
        world, crsg = world_and_graph
        r = run_task(world, crsg, self.task(text="green rug", gt="rug_0"), rng=Random(0))
        assert r.success
        assert r.traveled == pytest.approx(r.shortest)
        assert r.actions == ("t=0 Direct(rug_0) pose=(4.875,3.875) cr=3 ct=0 pr=- leg=5.949747",)

    def test_unresolvable_query_fails(self, world_and_graph):
        world, crsg = world_and_graph
        r = run_task(world, crsg, self.task(text="violet walrus", gt="cup_0"),
                     rng=Random(0))
        assert not r.success
        assert r.traveled == 0.0
        assert r.actions == ()
        assert spl(r.success, r.shortest, r.traveled) == 0.0

    def test_action_budget_holds(self, world_and_graph):
        world, crsg = world_and_graph
        cr0 = len(crsg.carriers)
        world.apply_displacement(DisplacementEvent(
            kind="move", object_id="cup_0", target_carrier_id="counter_0"), CrsgConfig())
        r = run_task(world, crsg, self.task(), rng=Random(0))
        assert r.action_count <= cr0 + 1

    def test_trace_lines_follow_the_format(self, world_and_graph):
        import re
        world, crsg = world_and_graph
        r = run_task(world, crsg, self.task(), rng=Random(0))
        pattern = re.compile(
            r"^t=\d+ (Stop|Explore\([\w-]+\)|Goto\([\w-]+\)) "
            r"pose=\(-?\d+\.\d{3},-?\d+\.\d{3}\) cr=\d+ ct=\d+ "
            r"pr=(-|\d+\.\d{6}) leg=\d+\.\d{6}$")
        assert r.actions
        for line in r.actions:
            assert pattern.match(line), line

    def test_one_search_per_pose(self, monkeypatch):
        # the shortest baseline, the initial candidate distance, the ranking
        # and the leg path read at most one search per pose and box, which
        # only grows (a strictly larger limit) when a read lies beyond it,
        # even after other poses have searched, and every limit is finite;
        # the Stop step reads nothing.  The world's grid starts cold: no
        # earlier world's search is reused.  A wall with a
        # gap at its north end parts the start and table_1 from table_0 and
        # counter_0, so reads across it detour and search
        import carriernav.planning as planning_mod
        searches, graphs = [], {}
        real_dijkstra, real_node_graph = planning_mod.dijkstra, planning_mod.Planner._node_graph

        def node_graph(w, box, nodes):
            graph = real_node_graph(w, box, nodes)
            graphs[id(graph)] = (box, np.flatnonzero(nodes), graph)
            return graph

        def counting(graph, **kwargs):
            box, cells, _ = graphs[id(graph)]
            width, at = box[2] - box[0], int(cells[kwargs["indices"]])
            source = (box[0] + at % width, box[1] + at // width)
            searches.append((source, box, kwargs["limit"]))
            return real_dijkstra(graph, **kwargs)

        monkeypatch.setattr(planning_mod.Planner, "_node_graph", node_graph)
        monkeypatch.setattr(planning_mod, "dijkstra", counting)
        scene = policy_scene(blocked=EAST_WALL[:20])
        world = GridWorld(scene, start_pose=Pose([5.0, 4.5]))
        assert world.planner.searches == {}
        crsg = build_crsg(scene, CrsgConfig())
        world.apply_displacement(DisplacementEvent(
            kind="move", object_id="cup_0", target_carrier_id="table_1"), CrsgConfig())
        poses = {world.planner.cell_of(world.robot.position)}
        real_travel = world.travel

        def travel(path, sensor):
            log = real_travel(path, sensor)
            poses.add(world.planner.cell_of(world.robot.position))
            return log

        monkeypatch.setattr(world, "travel", travel)
        r = run_task(world, crsg, self.task(), rng=Random(0))
        assert r.success and r.action_count >= 3
        limits = {}  # (source, box) -> its searches' limits, in order
        for source, box, limit in searches:
            limits.setdefault((source, box), []).append(limit)
        assert 0 < len({source for source, _ in limits}) <= len(poses)
        for grown in limits.values():
            assert all(a < b for a, b in zip(grown, grown[1:]))
        assert all(math.isfinite(limit) for _, _, limit in searches)

    def test_one_match_per_sighting_per_leg(self, monkeypatch):
        # a leg's sightings are its travel's first sightings plus the visited
        # carrier's full view; transition and update share one match of each
        import carriernav.policy as policy_mod
        events = []
        real_match = policy_mod.match_carrier

        def counting(obs, crsg, config):
            events.append(("match", obs.object_id))
            return real_match(obs, crsg, config)

        monkeypatch.setattr(policy_mod, "match_carrier", counting)
        world = GridWorld(policy_scene(), start_pose=Pose([5.0, 4.5]))
        crsg = build_crsg(policy_scene(), CrsgConfig())
        world.apply_displacement(DisplacementEvent(
            kind="move", object_id="cup_0", target_carrier_id="table_1"), CrsgConfig())
        real_travel, real_view = world.travel, world.carried_observations

        def travel(path, sensor):
            log = real_travel(path, sensor)
            events.append(("leg", set(log.observations)))
            return log

        def view(carrier_id, config):
            seen = real_view(carrier_id, config)
            events[-1][1].update(o.object_id for o in seen)
            return seen

        monkeypatch.setattr(world, "travel", travel)
        monkeypatch.setattr(world, "carried_observations", view)
        r = run_task(world, crsg, self.task(), rng=Random(0))
        assert r.success and r.action_count >= 3

        legs = []
        for kind, payload in events:
            if kind == "leg":
                legs.append((payload, []))
            else:
                legs[-1][1].append(payload)
        sensed = [(seen, matched) for seen, matched in legs if matched]
        # every action leg matched; only the final approach is a bare move
        assert len(sensed) == r.action_count - 1
        assert all(not matched for _, matched in legs[len(sensed):])
        for seen, matched in sensed:
            assert sorted(matched) == sorted(seen)

    def test_walled_off_carrier_is_consumed_without_moving(self):
        # the first explored carrier lies beyond a wall: the action costs no
        # travel, leaves CR, keeps the candidate and still takes a t
        scene = policy_scene(blocked=EAST_WALL)
        world = GridWorld(scene, start_pose=Pose([0.5, 0.5]))
        crsg = build_crsg(scene, CrsgConfig())
        r = run_task(world, crsg, self.task(), variant=VARIANTS["only-carriers_LLM"],
                     prior=FixedRanking(["table_1", "table_0", "counter_0"]), rng=Random(0))
        assert r.actions == (
            "t=0 Explore(table_1) pose=(0.500,0.500) cr=2 ct=1 pr=- leg=0.000000",
            "t=1 Explore(table_0) pose=(1.875,1.875) cr=0 ct=0 pr=- leg=2.121320",
            "t=2 Stop pose=(1.875,1.875) cr=0 ct=0 pr=- leg=0.000000",
        )
        assert r.success
        assert r.traveled == pytest.approx(r.shortest)
        assert r.action_count <= len(crsg.carriers) + 1

    def test_a_walled_in_carrier_is_recorded_as_an_unreachable_leg(self):
        # a ring of blocked cells shuts table_1 in: its explore finds no path,
        # and only that record says so; the trace reads as before
        ring = [(ix, iy) for ix in range(16, 25) for iy in range(5, 12)
                if ix in (16, 24) or iy in (5, 11)]
        scene = policy_scene(blocked=ring)
        world = GridWorld(scene, start_pose=Pose([0.5, 0.5]))
        crsg = build_crsg(scene, CrsgConfig())
        assert not world.connected([0.5, 0.5], crsg.carriers["table_1"].object.centroid[:2])
        r = run_task(world, crsg, self.task(), variant=VARIANTS["only-carriers_LLM"],
                     prior=FixedRanking(["table_1", "table_0", "counter_0"]), rng=Random(0))
        assert [(a.kind, a.subject, a.unreachable) for a in r.records] == [
            ("explore", "table_1", True), ("explore", "table_0", False), ("stop", "", False)]
        assert r.actions[0] == "t=0 Explore(table_1) pose=(0.500,0.500) cr=2 ct=1 pr=- leg=0.000000"
        assert r.success

    def test_unreachable_direct_target_records_one_unreachable_action(self):
        # the query resolves to the walled-off rug while the ground truth is
        # reachable: the robot does not move and records one direct action,
        # unreachable, with no leg
        scene = policy_scene(blocked=EAST_WALL)
        world = GridWorld(scene, start_pose=Pose([0.5, 0.5]))
        crsg = build_crsg(scene, CrsgConfig())
        r = run_task(world, crsg, self.task(text="green rug", gt="cup_0"), rng=Random(0))
        assert not r.success
        assert r.records == (ActionRecord("direct", "rug_0", (0.5, 0.5), len(crsg.carriers), 0,
                                          None, 0.0, unreachable=True),)
        assert r.actions == ("t=0 Direct(rug_0) pose=(0.500,0.500) "
                             f"cr={len(crsg.carriers)} ct=0 pr=- leg=0.000000",)
        assert r.traveled == 0.0
        assert r.shortest == pytest.approx(world.shortest_path([0.5, 0.5], [2.0, 2.0])[1])
        assert np.array_equal(world.robot.position, [0.5, 0.5])

    def test_explore_goto_stop_trace(self, world_and_graph):
        # a target parked as missing has no believed carrier, so the search
        # explores first; a sighting on the way makes it a candidate
        world, crsg = world_and_graph
        apply_update(crsg, CarriedDiff("table_0", removed=["cup_0"]))
        assert crsg.carrier_of("cup_0") is None
        r = run_task(world, crsg, self.task(), rng=Random(0))
        assert r.actions == (
            "t=0 Explore(counter_0) pose=(1.875,3.875) cr=2 ct=1 pr=- leg=4.121320",
            "t=1 Goto(cup_0) pose=(1.875,1.875) cr=1 ct=0 pr=0.794685 leg=2.000000",
            "t=2 Stop pose=(1.875,1.875) cr=1 ct=0 pr=- leg=0.000000",
        )
        assert r.success

    def test_variants_share_the_success_on_accurate_beliefs(self):
        scene = policy_scene()
        for name in ("ours", "ours-Text", "only-carriers_LLM", "no-update"):
            w = GridWorld(scene, start_pose=Pose([0.5, 0.5]))
            g = build_crsg(scene, CrsgConfig())
            r = run_task(w, g, self.task(), variant=VARIANTS[name], rng=Random(1))
            assert r.success, name
