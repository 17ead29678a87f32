"""The facts of a scene: moves, carrier answers, legs, the carrying
relation and pairings shared by every world and graph built on one
``SceneMap``; and the embedded texts the process keeps across scenes.
Each kept answer is checked against the rule it replaced
(``tests/oracles.py``); whole task sequences sharing them are checked
against cold ones in ``test_bench.py``."""

import copy
import gc
import math
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carriernav import facts, features, graph, update
from carriernav.bench import run_sequence
from carriernav.graph import (DEFAULT_CARRIER_REFERENCE, CrsgConfig, Query, build_crsg,
                              nearest_carrier, query_target)
from carriernav.features import text_feature, tokenize
from carriernav.policy import VARIANTS
from carriernav.priors import CarrierSummary, KeywordPriorOracle
from carriernav.scenarios import build_scenario, generate_scenarios, load_scenario
from carriernav.scene import Box3, scene_from_dict
from carriernav.update import MatchConfig, match_carrier, reconcile_carried
from carriernav.world import (DisplacementError, DisplacementEvent, GridWorld, Observation, Pose,
                              SensorConfig)

import oracles
from conftest import (assert_every_kept_answer_is_its_rule, item_on, obj_dict, scene_dict,
                      table_dict)


def kept_answers():
    return dict(facts._scene.answers) if facts._scene is not None else {}


def cup_above_table_scene():
    # a cup 10 cm above the table top rests on it only under the looser gap
    t0 = table_dict("table_0", 2.0, 2.0)
    cup = obj_dict("cup_0", ["red cup"], 2.0, 2.0, 0.08, 0.08, 0.85, 0.12)
    return scene_from_dict(scene_dict([t0, cup], width=32, height=20))


class TestKeys:
    def test_carrier_answers_follow_a_replaced_config(self):
        scene = cup_above_table_scene()
        build_crsg(scene)
        table, cup = scene.objects["table_0"], scene.objects["cup_0"]
        cfg = CrsgConfig(z_gap_max=0.05)
        for gap, expected in ((0.05, None), (0.15, "table_0"), (0.05, None)):
            cfg = replace(cfg, z_gap_max=gap)
            assert nearest_carrier(cup, [table], cfg) == expected
        assert len(kept_answers()) >= 2
        assert_every_kept_answer_is_its_rule()

    def test_match_answers_follow_a_replaced_config(self):
        scene = cup_above_table_scene()
        crsg = build_crsg(scene)
        table = scene.objects["table_0"]
        step = np.array([0.4, 0.0, 0.0])
        shifted = Observation(replace(table, box=Box3(table.box.min + step, table.box.max + step),
                                      centroid=table.centroid + step), 1.0)
        cfg = MatchConfig()
        for dist, expected in ((0.5, "table_0"), (0.3, None), (0.45, "table_0")):
            cfg = replace(cfg, max_center_dist=dist)
            assert match_carrier(shifted, crsg, cfg) == expected
        cfg = replace(cfg, min_text_sim=1.5)  # above any cosine
        assert match_carrier(shifted, crsg, cfg) is None
        assert_every_kept_answer_is_its_rule()

    def test_match_answers_follow_an_edited_carriers_dict(self):
        t0, t1 = table_dict("table_0", 2.0, 2.0), table_dict("table_1", 2.3, 2.0)
        scene = scene_from_dict(scene_dict([t0, t1], width=32, height=20))
        crsg = build_crsg(scene)
        seen = Observation(scene.objects["table_0"], 1.0)
        cfg = MatchConfig()
        assert match_carrier(seen, crsg, cfg) == "table_0"
        node = crsg.carriers.pop("table_0")
        assert match_carrier(seen, crsg, cfg) == "table_1"
        # id table_0 now holds table_1's instance: a tie, to the smaller id
        crsg.carriers["table_0"] = graph.CarrierNode(scene.objects["table_1"])
        assert match_carrier(seen, crsg, cfg) == "table_0"
        crsg.carriers.clear()
        assert match_carrier(seen, crsg, cfg) is None
        crsg.carriers["table_0"] = node
        assert match_carrier(seen, crsg, cfg) == "table_0"
        assert_every_kept_answer_is_its_rule()

    def test_carrier_answers_follow_the_candidates(self):
        t0, t1 = table_dict("table_0", 2.0, 2.0), table_dict("table_1", 3.1, 2.0)
        cup = item_on("cup_0", ["red cup"], t0, dx=0.55)  # on both tops, as near to each
        scene = scene_from_dict(scene_dict([t0, t1, cup], width=32, height=20))
        build_crsg(scene)
        objs, cfg = scene.objects, CrsgConfig()
        table_0, table_1, cup = objs["table_0"], objs["table_1"], objs["cup_0"]
        assert nearest_carrier(cup, [table_0, table_1], cfg) == "table_0"
        assert nearest_carrier(cup, [table_1], cfg) == "table_1"
        assert nearest_carrier(cup, (t for t in [table_1, table_0]), cfg) == "table_0"
        assert nearest_carrier(cup, [], cfg) is None
        assert_every_kept_answer_is_its_rule()

    @pytest.mark.parametrize("change", ["move", "remove"])
    def test_the_relation_follows_a_base_set_changed_by_a_move_or_remove(self, change):
        # a small box on the floor is a base holding a cup; moved onto a
        # table it is no base, and removed it is gone: the cup is carried
        # by nothing either way
        cfg = CrsgConfig()
        box = obj_dict("box_0", ["cardboard box"], 2.0, 2.0, 0.35, 0.35, 0.0, 0.3)
        objs = [box, table_dict("table_1", 5.0, 2.0), item_on("cup_0", ["red cup"], box)]
        scene = scene_from_dict(scene_dict(objs, width=32, height=20))
        worlds = [GridWorld(scene), GridWorld(scene)]
        event = (DisplacementEvent(kind="move", object_id="box_0", target_carrier_id="table_1")
                 if change == "move" else DisplacementEvent(kind="remove", object_id="box_0"))
        for w in worlds:
            assert w.ground_truth_carried("box_0", cfg) == ["cup_0"]
            w.apply_displacement(event, cfg)
            for cid in sorted(w.scene.objects):
                assert w.ground_truth_carried(cid, cfg) == oracles.ground_truth_carried_per_call(
                    w, cid, cfg), cid
            assert "cup_0" not in sum((w.ground_truth_carried(cid, cfg)
                                       for cid in w.scene.objects), [])
        if change == "move":
            assert worlds[1].object("box_0") is worlds[0].object("box_0")
        assert_every_kept_answer_is_its_rule()


class TestSharedMoves:
    def scene(self):
        t0 = table_dict("table_0", 2.0, 2.0)
        objs = [t0, table_dict("table_1", 5.0, 2.0), item_on("cup_0", ["red cup"], t0)]
        return scene_from_dict(scene_dict(objs, width=32, height=20))

    def test_a_move_is_shared_only_on_equal_inputs(self):
        scene, cfg = self.scene(), CrsgConfig()
        move = DisplacementEvent(kind="move", object_id="cup_0", target_carrier_id="table_1")
        a, b, c, d = (GridWorld(scene) for _ in range(4))
        a.apply_displacement(move, cfg)
        b.apply_displacement(move, cfg)
        assert b.object("cup_0") is a.object("cup_0")
        c.apply_displacement(replace(move, spot_index=1), cfg)  # another spot
        assert c.object("cup_0") is not a.object("cup_0")
        d.apply_displacement(move, CrsgConfig(z_gap_max=0.1))  # another config
        assert d.object("cup_0") is not a.object("cup_0")
        # another world state: the cup moved back and on again is not the
        # first move's input, so nothing is shared
        back = DisplacementEvent(kind="move", object_id="cup_0", target_carrier_id="table_0")
        for w in (a, b):
            w.apply_displacement(back, cfg)
            w.apply_displacement(move, cfg)
        assert b.object("cup_0") is a.object("cup_0")
        assert a.object("cup_0") is not c.object("cup_0")
        assert sum(key[0] == "move" for key in kept_answers()) == 5
        assert_every_kept_answer_is_its_rule()

    def test_a_rejected_move_is_not_shared(self):
        # a crate moved onto a table is re-seated, then rejected as too
        # large to be carried: each world re-seats its own instance
        cfg = CrsgConfig()
        crate = obj_dict("crate_0", ["wooden crate"], 2.0, 2.0, 0.6, 0.5, 0.0, 0.3)
        scene = scene_from_dict(scene_dict([crate, table_dict("table_1", 5.0, 2.0)],
                                           width=32, height=20))
        move = DisplacementEvent(kind="move", object_id="crate_0", target_carrier_id="table_1")
        seated = []
        for w in (GridWorld(scene), GridWorld(scene)):
            with pytest.raises(DisplacementError):
                w.apply_displacement(move, cfg)
            seated.append(w.object("crate_0"))
            assert seated[-1] is not scene.objects["crate_0"]
        assert seated[1] is not seated[0]
        assert np.array_equal(seated[1].box.min, seated[0].box.min)
        assert not [key for key in kept_answers() if key[0] == "move"]

    def test_a_remove_keeps_nothing(self):
        scene, cfg = self.scene(), CrsgConfig()
        w = GridWorld(scene)
        w.apply_displacement(DisplacementEvent(kind="remove", object_id="cup_0"), cfg)
        w.apply_displacement(DisplacementEvent(kind="remove", object_id="table_1"), cfg)
        assert not [key for key in kept_answers() if key[0] == "move"]


class TestLifetime:
    def scenes(self):
        t0 = table_dict("table_0", 2.0, 2.0)
        tree = scene_dict([t0, table_dict("table_1", 5.0, 2.0),
                           item_on("cup_0", ["red cup"], t0)], width=32, height=20)
        return scene_from_dict(tree), scene_from_dict(tree)

    def warm(self, scene):
        """A world on ``scene`` with a move made and answers kept; weak
        references to the facts and to the moved instance."""
        w = GridWorld(scene)
        w.apply_displacement(DisplacementEvent(kind="move", object_id="cup_0",
                                               target_carrier_id="table_1"), CrsgConfig())
        w.ground_truth_carried("table_1", CrsgConfig())
        assert kept_answers()
        return weakref.ref(facts._scene), weakref.ref(w.object("cup_0"))

    @pytest.mark.parametrize("other", ["world", "graph", "copy", "generator", "release"])
    def test_another_scene_frees_the_last_scenes_facts(self, other):
        a, b = self.scenes()
        kept, moved = self.warm(a)
        gc.collect()
        # the last scene's facts outlive its worlds, for the next world on it
        assert kept() is not None and moved() is not None
        GridWorld(a)
        build_crsg(a)
        assert facts._scene is kept()
        if other == "world":
            GridWorld(b)
        elif other == "graph":
            build_crsg(b)
        elif other == "copy":  # an equal scene is another scene
            GridWorld(copy.copy(a))
        elif other == "generator":
            build_scenario("single", 0, 3)
        else:
            facts.release_facts()
        gc.collect()
        assert kept() is None and moved() is None

    def test_release_drops_both_slots_and_a_live_world_keeps_its_grid(self, monkeypatch):
        import carriernav.world as world_mod
        a, _ = self.scenes()
        w = GridWorld(a)
        ends = w.cell_center((0, 0)), w.cell_center((20, 10))
        path = w.shortest_path(*ends)
        kept, moved = self.warm(a)
        grid = w._grid
        assert facts._grid is grid and grid.searches
        searches = []
        real = world_mod.dijkstra
        monkeypatch.setattr(world_mod, "dijkstra",
                            lambda *args, **kw: searches.append(kw) or real(*args, **kw))
        facts.release_facts()
        gc.collect()
        assert facts._grid is None and facts._scene is None
        assert kept() is None and moved() is None
        # the live world still reads the facts of its grid: no search
        assert w._grid is grid and w.shortest_path(*ends) == path and searches == []
        # the next world on the same grid and scene computes its own
        fresh = GridWorld(a)
        assert fresh._grid is not grid and fresh._grid.graph is None
        assert facts._grid is fresh._grid and facts._scene.scene is a
        assert kept_answers() == {}
        assert fresh.shortest_path(*ends) == path and len(searches) == 1

    def test_a_live_world_does_not_hold_the_facts(self):
        a, b = self.scenes()
        w = GridWorld(a)
        kept, _ = self.warm(a)
        GridWorld(b)
        gc.collect()
        assert kept() is None
        # the old world still works, and shares nothing with the new scene
        w.apply_displacement(DisplacementEvent(kind="remove", object_id="cup_0"), CrsgConfig())
        assert w.ground_truth_carried("table_0", CrsgConfig()) == []
        assert facts._scene.scene is b


def counting(monkeypatch, owner, name):
    """The argument tuples of every call of ``owner.name`` from now on."""
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(a) or real(*a))
    return calls


def two_tables_scene():
    t0 = table_dict("table_0", 2.0, 2.0)
    objs = [t0, table_dict("table_1", 5.0, 2.0), item_on("cup_0", ["red cup"], t0),
            item_on("pen_0", ["black pen"], t0, dx=0.3)]
    return scene_from_dict(scene_dict(objs, width=32, height=20))


class TestSharedLegs:
    def test_a_leg_is_shared_only_on_equal_inputs(self, monkeypatch):
        legs = counting(monkeypatch, GridWorld, "_first_sightings")
        scene, cfg = two_tables_scene(), CrsgConfig()
        a, b = (GridWorld(scene, start_pose=Pose([0.5, 0.5])) for _ in range(2))
        path = a.shortest_path(a.robot.position, [4.0, 0.5])[0]
        first, second = a.travel(path, SensorConfig()), b.travel(path, SensorConfig())
        assert len(legs) == 1 and "cup_0" in first.observations
        assert second.observations == first.observations and second.length == first.length
        assert np.array_equal(b.robot.position, a.robot.position)
        assert b.robot.heading == a.robot.heading
        b.travel(path, SensorConfig(radius=1.0))  # another sensor
        b.travel(path[:-1], SensorConfig())  # another path
        assert len(legs) == 3
        # a one-cell leg keeps the robot's heading, which is then an input
        narrow = SensorConfig(fov=math.pi / 2)
        for w, heading in ((a, 0.0), (b, 0.0), (b, 1.0)):
            w.robot = Pose(w.robot.position, heading)
            w.travel([path[-1]], narrow)
            assert w.robot.heading == heading
        assert len(legs) == 5
        # another world state: after a move the same path senses anew
        b.apply_displacement(DisplacementEvent(kind="move", object_id="cup_0",
                                               target_carrier_id="table_1"), cfg)
        moved = b.travel(path, SensorConfig())
        assert len(legs) == 6 and moved.observations["cup_0"].object is b.object("cup_0")
        assert_every_kept_answer_is_its_rule()

    def test_a_scene_copy_on_another_grid_shares_no_leg(self):
        # the copy holds the same instances behind a wall: under occlusion
        # each world sees through its own grid, though the copy's facts
        # hold both worlds' legs
        scene = two_tables_scene()
        walled_scene = copy.copy(scene)
        walled_scene.grid = replace(scene.grid, blocked_cells=[(ix, 6) for ix in range(32)])
        plain = GridWorld(scene, start_pose=Pose([0.5, 0.5]))
        walled = GridWorld(walled_scene, start_pose=Pose([0.5, 0.5]))
        path, sensor = [(ix, 2) for ix in range(16)], SensorConfig(occlusion=True)
        assert "cup_0" in plain.travel(path, sensor).observations
        assert facts._scene.scene is walled_scene
        assert "cup_0" not in walled.travel(path, sensor).observations
        assert sum(key[0] == "leg" for key in kept_answers()) == 2
        assert_every_kept_answer_is_its_rule()

    def test_the_relation_is_shared_only_on_equal_objects(self, monkeypatch):
        relations = counting(monkeypatch, GridWorld, "_carried_relation")
        scene, cfg = two_tables_scene(), CrsgConfig()
        a, b = GridWorld(scene), GridWorld(scene)
        for w in (a, b):
            assert w.ground_truth_carried("table_0", cfg) == ["cup_0", "pen_0"]
        assert len(relations) == 1
        b.apply_displacement(DisplacementEvent(kind="move", object_id="cup_0",
                                               target_carrier_id="table_1"), cfg)
        assert b.ground_truth_carried("table_0", cfg) == ["pen_0"]
        assert a.ground_truth_carried("table_0", cfg) == ["cup_0", "pen_0"]
        assert len(relations) == 2
        assert_every_kept_answer_is_its_rule()


class TestSharedPairings:
    def test_a_pairing_is_shared_and_each_diff_holds_its_callers_sightings(self, monkeypatch):
        pairings = counting(monkeypatch, update, "_pair")
        scene, cfg = two_tables_scene(), MatchConfig()
        cup, pen = scene.objects["cup_0"], scene.objects["pen_0"]
        diffs = []
        for depth in (1.0, 2.0):
            crsg = build_crsg(scene)
            crsg.detach("pen_0")  # the graph has lost the pen
            sightings = [Observation(cup, depth), Observation(pen, depth)]
            diff = reconcile_carried("table_0", sightings, crsg, cfg)
            assert diff.removed == []
            assert diff.added == [sightings[1]] and diff.added[0] is sightings[1]
            diffs.append(diff)
        assert len(pairings) == 1 and diffs[1].added[0].mean_depth == 2.0
        # a replaced config, then the carried entries edited
        strict = replace(cfg, min_text_sim=1.5)  # above any cosine
        diff = reconcile_carried("table_0", sightings, crsg, strict)
        assert (diff.removed, len(diff.added)) == (["cup_0"], 2)
        crsg.carriers["table_0"].carried["pen_0"] = pen
        diff = reconcile_carried("table_0", sightings, crsg, cfg)
        assert diff.empty
        assert len(pairings) == 3
        assert_every_kept_answer_is_its_rule()


REFERENCE_TOKENS = tuple(tokenize(DEFAULT_CARRIER_REFERENCE))


def kept_texts():
    return dict(facts._pure)


class TestSharedTexts:
    # ``features._text_feature`` is the one embedding behind
    # ``text_feature``: it embeds the tokens of a ``text`` key it misses
    def test_the_six_variants_embed_each_text_once(self, monkeypatch):
        texts = counting(monkeypatch, features, "_text_feature")
        sc = build_scenario("mixed", 0, 3)
        for name in sorted(VARIANTS):
            run_sequence(sc, VARIANTS[name])
        assert len(texts) > 1 and len(texts) == len(set(texts))
        assert_every_kept_answer_is_its_rule()

    def test_a_plain_and_a_scoped_query_embed_each_text_once(self, monkeypatch):
        scene = two_tables_scene()  # embeds each object's captions
        texts = counting(monkeypatch, features, "_text_feature")
        crsg = build_crsg(scene)
        assert query_target(crsg, Query(text="red cup"))[0].id == "cup_0"
        assert query_target(crsg, Query(text="red cup", carrier_text="table"))[0].id == "cup_0"
        build_crsg(scene)
        # "red cup" is the cup's caption, embedded as the scene loaded
        assert texts == [(REFERENCE_TOKENS, 256), (("table",), 256)]
        assert_every_kept_answer_is_its_rule()

    def test_a_changed_carrier_reference_is_asked_anew(self, monkeypatch):
        scene, cfg = two_tables_scene(), CrsgConfig()
        texts = counting(monkeypatch, features, "_text_feature")
        build_crsg(scene, cfg)
        cfg = replace(cfg, carrier_reference="cup pen")  # no table resembles it
        assert build_crsg(scene, cfg).carriers == {}
        assert texts == [(REFERENCE_TOKENS, 256), (("cup", "pen"), 256)]
        assert_every_kept_answer_is_its_rule()

    def test_an_image_token_and_its_caption_share_one_text(self, monkeypatch):
        scene = two_tables_scene()
        crsg = build_crsg(scene)
        texts = counting(monkeypatch, features, "_text_feature")
        by_image = query_target(crsg, Query(image="img:red_cup"))
        by_text = query_target(crsg, Query(text="red cup"))
        assert by_image[0].id == by_text[0].id == "cup_0"
        assert texts == []
        kept = kept_texts()
        shared = kept[("text", ("red", "cup"), 256)]
        assert kept[("spelling", "red_cup", 256)] is kept[("spelling", "red cup", 256)] is shared
        assert scene.objects["cup_0"].text_feature is shared.vec
        assert_every_kept_answer_is_its_rule()

    def test_a_second_image_comparison_embeds_nothing(self, monkeypatch):
        texts = counting(monkeypatch, features, "_text_feature")
        prior = KeywordPriorOracle()
        score = prior.compare_images("img:red_alarm_clock", "img:red_cup")
        assert len(texts) == 2 and 0.0 < score < 1.0
        # the same tokens, spelled as captions or in the other order
        assert prior.compare_images("red alarm clock", "Red cup") == score
        assert prior.compare_images("img:red_cup", "img:red_alarm_clock") == score
        assert len(texts) == 2
        assert_every_kept_answer_is_its_rule()
        # with no texts kept, the next comparison embeds both tokens
        facts.release_facts()
        assert prior.compare_images("img:red_alarm_clock", "img:red_cup") == score
        assert len(texts) == 4

    def test_the_keyword_oracle_tokenizes_each_caption_once(self, monkeypatch):
        scene = two_tables_scene()
        prior = KeywordPriorOracle()
        summaries = [CarrierSummary("table_1", ("wooden table",)),
                     CarrierSummary("shelf_0", ("tall shelf", "wooden table"))]
        # every tokenize call, however the function was imported, reads this
        texts, pattern = [], features._TOKEN_RE
        monkeypatch.setattr(features, "_TOKEN_RE", SimpleNamespace(
            findall=lambda text: texts.append(text) or pattern.findall(text)))
        assert set(build_crsg(scene).carriers) == {"table_0", "table_1"}
        assert prior.rank_carriers(summaries, "img:red_cup") == ["table_1", "shelf_0"]
        assert texts and len(texts) == len(set(texts))
        n = len(texts)
        build_crsg(scene)
        assert prior.rank_carriers(summaries, "img:red_cup") == ["table_1", "shelf_0"]
        assert len(texts) == n
        assert_every_kept_answer_is_its_rule()

    def test_another_scene_keeps_the_texts_and_release_drops_them(self, monkeypatch):
        texts = counting(monkeypatch, features, "_text_feature")
        crsg = build_crsg(two_tables_scene())
        first = query_target(crsg, Query(text="red pen"))
        kept, n = kept_texts(), len(texts)
        scene = two_tables_scene()
        other = build_crsg(scene)
        assert facts._scene.scene is scene
        assert query_target(other, Query(text="red pen"))[0].id == first[0].id
        assert len(texts) == n and all(facts._pure[key] is feat for key, feat in kept.items())
        facts.release_facts()
        assert kept_texts() == {}
        assert query_target(crsg, Query(text="red pen")) == first
        assert [tokens for tokens, _ in texts].count(("red", "pen")) == 2

    def test_the_least_recently_read_text_goes_first_past_the_bound(self, monkeypatch):
        texts = counting(monkeypatch, features, "_text_feature")
        for i in range(facts.TEXTS_KEPT):
            text_feature("apple", 8)
            text_feature(f"word {i}", 8)  # a spelling and a token key
            assert len(facts._pure) <= facts.TEXTS_KEPT
        assert len(facts._pure) == facts.TEXTS_KEPT
        # the spelling read on every turn stays; the first words are gone
        assert ("spelling", "apple", 8) in facts._pure
        assert ("spelling", "word 0", 8) not in facts._pure
        text_feature("apple", 8)
        assert len(texts) == 1 + facts.TEXTS_KEPT
        assert_every_kept_answer_is_its_rule()

    def test_a_run_embeds_each_token_sequence_once(self, tmp_path, monkeypatch):
        # generate, write, load, build and query scenes in one cold process,
        # as perfbench's graph-queries set-up and passes do
        embeds = counting(monkeypatch, features, "_embed")
        generate_scenarios("mixed", 3, 1, str(tmp_path))
        for path in sorted(tmp_path.glob("scenario_*.json")):
            sc = load_scenario(str(path))
            for _ in range(2):
                crsg = build_crsg(sc.scene, sc.crsg)
                for node in crsg.carriers.values():
                    for obj in node.carried.values():
                        text = obj.captions[0]
                        query_target(crsg, Query(text=text))
                        query_target(crsg, Query(text=text, carrier_text=node.object.captions[0]))
                        query_target(crsg, Query(image="img:" + text.replace(" ", "_")))
        kept = [key[1:] for key in facts._pure if key[0] == "text"]
        assert len(facts._pure) < facts.TEXTS_KEPT  # none dropped
        assert len(embeds) > 10 and sorted(embeds) == sorted(kept)
        # each kept Feature is byte-equal to the oracle's and read-only
        assert_every_kept_answer_is_its_rule()


IMAGE_WORDS = ["red", "Red", "cup", "alarm", "clock", "table", "walrus", "7"]
IMAGE_TOKENS = st.one_of(
    st.tuples(st.sampled_from(["", "img:"]), st.sampled_from([" ", "_", "-"]),
              st.lists(st.sampled_from(IMAGE_WORDS), max_size=4)).map(
        lambda t: t[0] + t[1].join(t[2])),
    st.text(alphabet="abIMG:_ !7", max_size=12))


@settings(max_examples=150, deadline=None)
@given(IMAGE_TOKENS, IMAGE_TOKENS, st.booleans())
def test_image_scores_are_the_embedding_rule(candidate, target, kept):
    # texts kept across examples, or none: the score is the rule of two
    # fresh embeddings, bit for bit
    if not kept:
        facts.release_facts()
    got = KeywordPriorOracle().compare_images(candidate, target)
    assert got.hex() == oracles.compare_images_per_call(candidate, target).hex()
    if kept:
        assert_every_kept_answer_is_its_rule()
