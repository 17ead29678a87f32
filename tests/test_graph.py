"""Graph construction funnel, carrying predicate and query resolution."""

import math
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carriernav import graph
from carriernav.graph import (
    Crsg,
    CrsgConfig,
    GraphError,
    Query,
    QueryError,
    assign_carried,
    build_crsg,
    carrying_predicate,
    filter_by_prior,
    geometric_carrier_filter,
    query_target,
    select_carrier_candidates,
)
from carriernav.priors import KeywordPriorOracle
from carriernav.update import CarriedDiff, apply_update
from carriernav.scene import HALLWAY_ROOM_ID, Box3, ObjectInstance, scene_from_dict

import oracles
from conftest import find_object, golden_scene_dict, item_on, obj_dict, scene_dict, table_dict


def make_scene(objects, **kw):
    return scene_from_dict(scene_dict(objects, **kw))


class TestConfig:
    def test_defaults_validate(self):
        cfg = CrsgConfig()
        assert cfg.sigma == 0.35
        assert cfg.overlap_rate == 0.5

    def test_bad_values_rejected(self):
        with pytest.raises(GraphError):
            CrsgConfig(overlap_rate=0.0)
        with pytest.raises(GraphError):
            CrsgConfig(min_height=-1.0)
        with pytest.raises(GraphError):
            CrsgConfig(z_gap_max=-0.1)


class TestFunnelStages:
    def test_similarity_stage(self):
        scene = make_scene([
            table_dict("table_0", 2.0, 2.0),
            obj_dict("cup_0", ["red cup", "red cup", "cup"], 4.0, 2.0, 0.08, 0.08, 0.0, 0.12),
        ])
        kept = select_carrier_candidates(scene.objects.values(), CrsgConfig())
        assert [o.id for o in kept] == ["table_0"]
        # similarity of "brown table table" to the reference: 0.8/sqrt(5) > 0.35
        # while a sigma above that value excludes the table too
        kept_strict = select_carrier_candidates(scene.objects.values(), CrsgConfig(sigma=0.36))
        assert kept_strict == []

    def test_prior_stage_drops_non_furniture(self):
        scene = make_scene([
            table_dict("table_0", 2.0, 2.0),
            # big, tall, similar-sounding, but not a furniture word
            obj_dict("crate_0", ["brown crate", "crate"], 4.0, 2.0, 1.2, 0.8, 0.0, 0.75),
        ])
        kept = filter_by_prior(list(scene.objects.values()), KeywordPriorOracle())
        assert [o.id for o in kept] == ["table_0"]

    def test_geometric_stage(self):
        cfg = CrsgConfig()
        scene = make_scene([
            table_dict("table_0", 2.0, 2.0),
            obj_dict("tiny_0", ["small table"], 4.0, 2.0, 0.2, 0.2, 0.0, 0.75),   # area 0.04
            obj_dict("flat_0", ["low table"], 4.0, 3.0, 1.2, 0.8, 0.0, 0.10),     # height
            obj_dict("float_0", ["wall table"], 2.0, 3.0, 1.2, 0.8, 0.5, 0.75),   # airborne
        ])
        kept = geometric_carrier_filter(list(scene.objects.values()), cfg)
        assert [o.id for o in kept] == ["table_0"]


class TestCarryingPredicate:
    CFG = CrsgConfig()

    def carrier(self):
        return make_scene([table_dict("table_0", 2.0, 2.0)]).objects["table_0"]

    def on_table(self, dz=0.0, dx=0.0, ex=0.08):
        table = table_dict("table_0", 2.0, 2.0)
        d = item_on("cup_0", ["red cup"], table, dx=dx, ex=ex)
        d["box"]["min"][2] += dz
        d["box"]["max"][2] += dz
        d["centroid"][2] += dz
        return make_scene([table, d]).objects["cup_0"]

    def test_resting_on_top(self):
        assert carrying_predicate(self.carrier(), self.on_table(), self.CFG)

    def test_resting_gap_tolerance(self):
        assert carrying_predicate(self.carrier(), self.on_table(dz=0.14), self.CFG)
        assert not carrying_predicate(self.carrier(), self.on_table(dz=0.16), self.CFG)

    def test_below_top_face_fails_for_solid_furniture(self):
        # sunk into the table body: neither resting nor in the upper half
        assert not carrying_predicate(self.carrier(), self.on_table(dz=-0.75), self.CFG)

    def test_shelf_interior_counts(self):
        shelf = obj_dict("shelf_0", ["white shelf", "shelf"], 2.0, 2.0, 1.0, 0.4, 0.0, 1.8)
        book = obj_dict("book_0", ["red book"], 2.0, 2.0, 0.20, 0.15, 1.2, 0.05)
        scene = make_scene([shelf, book])
        assert carrying_predicate(scene.objects["shelf_0"], scene.objects["book_0"], self.CFG)
        low_book = obj_dict("book_1", ["red book"], 2.0, 2.0, 0.20, 0.15, 0.2, 0.05)
        scene2 = make_scene([shelf, low_book])
        # below the vertical midpoint of the shelf: not carried
        assert not carrying_predicate(scene2.objects["shelf_0"], scene2.objects["book_1"], self.CFG)

    def test_insufficient_overlap_fails(self):
        # table edge at x=2.6: offset 0.62 leaves under half the cup footprint
        assert not carrying_predicate(self.carrier(), self.on_table(dx=0.62), self.CFG)
        assert carrying_predicate(self.carrier(), self.on_table(dx=0.55), self.CFG)

    def test_oversized_footprint_fails(self):
        big = self.on_table(ex=3.2)  # 3.2 * 0.08 = 0.256 > 0.25
        assert not carrying_predicate(self.carrier(), big, self.CFG)

    def test_predicate_matches_oracle_on_crafted_cases(self):
        cfg = self.CFG
        table = table_dict("table_0", 2.0, 2.0)
        rng = Random(1234)
        scene_objs = [table]
        for i in range(30):
            dx = (rng.random() - 0.5) * 1.6
            dz = (rng.random() - 0.5) * 0.6
            d = item_on(f"cup_{i}", ["red cup"], table, dx=dx)
            for key in ("min", "max"):
                d["box"][key][2] += dz
            d["centroid"][2] += dz
            scene_objs.append(d)
        scene = make_scene(scene_objs)
        carrier = scene.objects["table_0"]
        for oid, obj in scene.objects.items():
            if oid == "table_0":
                continue
            assert carrying_predicate(carrier, obj, cfg) == oracles.rests_on(carrier, obj, cfg), oid


# coordinates that make touching boxes, shared corners and signed zeros
# likely, beside any float
COORDS = (st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0])
          | st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=True))


@st.composite
def instances(draw, oid, carrier=None):
    """An instance on any box, its centroid anywhere in the box.  Given a
    carrier, its bottom is at or below the carrier's top by a quarter of
    the carrier's height at a time, plus a drawn gap."""
    (x0, x1), (y0, y1) = (sorted([draw(COORDS), draw(COORDS)]) for _ in range(2))
    z0 = draw(COORDS)
    if carrier is not None:
        depth = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])) * carrier.box.height
        z0 = carrier.box.hi[2] - depth + draw(st.sampled_from([-0.0, 0.0, 0.1, 0.15]) | COORDS)
    z1 = z0 + draw(st.sampled_from([0.0, 0.1, 1.0]) | st.floats(0.0, 2.0))
    box = Box3([x0, y0, z0], [x1, y1, z1])
    f = draw(st.sampled_from([0.0, 0.5, 1.0]))
    feature = np.ones(4)
    return ObjectInstance(oid, ("thing",), box, box.min + f * box.extents, feature, feature)


class TestCarryingPredicateOnFloats:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_it_is_the_numpy_rule(self, data):
        carrier = data.draw(instances("table_0"))
        obj = data.draw(instances("cup_0", carrier))
        cfg = CrsgConfig(overlap_rate=data.draw(st.sampled_from([0.25, 0.5, 1.0])),
                         z_gap_max=data.draw(st.sampled_from([0.0, 0.15, 1.0])),
                         max_carried_footprint=data.draw(st.sampled_from([0.25, 4.0, 100.0])))
        assert (carrying_predicate(carrier, obj, cfg)
                == oracles.carrying_predicate_numpy(carrier, obj, cfg))


class TestAssignment:
    def test_nearest_carrier_wins(self):
        cfg = CrsgConfig()
        t_a = table_dict("table_a", 2.0, 2.0)
        t_b = table_dict("table_b", 2.6, 2.0)  # overlapping tops
        cup = item_on("cup_0", ["red cup"], t_a, dx=0.45)  # closer to table_b center
        scene = make_scene([t_a, t_b, cup])
        carried, orphans = assign_carried(
            [scene.objects["table_a"], scene.objects["table_b"]],
            [scene.objects["cup_0"]], cfg)
        assert [o.id for o in carried["table_b"]] == ["cup_0"]
        assert carried["table_a"] == []
        assert orphans == []

    def test_exact_tie_breaks_to_smaller_id(self):
        cfg = CrsgConfig()
        t_a = table_dict("table_a", 2.0, 2.0)
        t_b = table_dict("table_b", 2.0, 2.0)  # identical geometry
        cup = item_on("cup_0", ["red cup"], t_a)
        scene = make_scene([t_a, t_b, cup])
        carried, _ = assign_carried(
            [scene.objects["table_b"], scene.objects["table_a"]],  # order must not matter
            [scene.objects["cup_0"]], cfg)
        assert [o.id for o in carried["table_a"]] == ["cup_0"]
        assert carried["table_b"] == []

    def test_unattached_objects_become_orphans(self):
        cfg = CrsgConfig()
        t_a = table_dict("table_a", 2.0, 2.0)
        floor_cup = obj_dict("cup_floor", ["red cup"], 4.0, 3.0, 0.08, 0.08, 0.0, 0.12)
        scene = make_scene([t_a, floor_cup])
        carried, orphans = assign_carried([scene.objects["table_a"]],
                                          [scene.objects["cup_floor"]], cfg)
        assert carried["table_a"] == []
        assert [o.id for o in orphans] == ["cup_floor"]


def random_assignment_scene(rng: Random):
    """Scene with carriers, seated items, floaters and misfits."""
    attrs = ("red", "blue", "black", "white", "green", "brown")
    objs = []
    carriers = []
    for i in range(rng.randint(2, 5)):
        cx = 1.5 + rng.random() * 6.5
        cy = 1.5 + rng.random() * 6.5
        t = table_dict(f"table_{i}", cx, cy, attr=rng.choice(attrs))
        objs.append(t)
        carriers.append(t)
    for i in range(rng.randint(4, 12)):
        kind = rng.random()
        if kind < 0.55:
            base = rng.choice(carriers)
            d = item_on(f"cup_{i}", [f"{rng.choice(attrs)} cup", "cup"], base,
                        dx=(rng.random() - 0.5) * 1.4, dy=(rng.random() - 0.5) * 1.0)
        elif kind < 0.75:
            d = obj_dict(f"cup_{i}", [f"{rng.choice(attrs)} cup", "cup"],
                         1.0 + rng.random() * 8.0, 1.0 + rng.random() * 8.0,
                         0.08, 0.08, 0.0, 0.12)  # on the floor
        elif kind < 0.9:
            base = rng.choice(carriers)
            d = item_on(f"cup_{i}", [f"{rng.choice(attrs)} cup", "cup"], base)
            lift = 0.2 + rng.random() * 0.5
            for key in ("min", "max"):
                d["box"][key][2] += lift  # hovering
            d["centroid"][2] += lift
        else:
            base = rng.choice(carriers)
            d = item_on(f"tray_{i}", [f"{rng.choice(attrs)} tray", "tray"], base,
                        ex=0.6, ey=0.5, h=0.05)  # footprint 0.3 > cap
        objs.append(d)
    return make_scene(objs, width=44, height=44)


@pytest.mark.parametrize("seed", range(8))
def test_build_matches_brute_force(seed):
    cfg = CrsgConfig()
    scene = random_assignment_scene(Random(f"graph/{seed}"))
    crsg = build_crsg(scene, cfg)
    carriers, relation, orphans = oracles.brute_force_relation(scene, cfg)
    assert set(crsg.carriers) == carriers
    assert {c: set(n.carried) for c, n in crsg.carriers.items()} == relation
    assert set(crsg.orphan_objects) == orphans


class TestBuild:
    def test_golden_structure(self, golden_graph):
        assert sorted(golden_graph.carriers) == ["table_0"]
        assert sorted(golden_graph.carriers["table_0"].carried) == ["cup_0"]
        assert sorted(golden_graph.orphan_objects) == ["rug_0"]
        assert golden_graph.carrier_of("cup_0") == "table_0"
        assert golden_graph.carrier_of("rug_0") is None
        assert golden_graph.carriers["table_0"].room == "room_0"
        assert oracles.carried_relation(golden_graph) == {"table_0": ("cup_0",)}
        assert golden_graph.missing == {}

    def test_a_carrier_keyed_by_another_objects_id_raises(self, golden_graph):
        node = golden_graph.carriers["table_0"]
        with pytest.raises(GraphError, match="'table_0' is keyed by 'cup_0'"):
            Crsg(building="b", rooms=[], carriers={"cup_0": node}, orphan_objects={})
        given = {"table_0": node}
        lone = Crsg(building="b", rooms=[], carriers=given, orphan_objects={})
        assert lone.carrier_objects == (node.object,) and lone.carriers is not given
        given.clear()  # the graph's table is its own copy
        assert list(lone.carriers) == ["table_0"]

    def test_declared_room_id_wins(self):
        tree = golden_scene_dict()
        tree["rooms"].append({"id": "room_1", "polygon": [[10, 10], [12, 10], [12, 12], [10, 12]]})
        tree["objects"][0]["room_id"] = "room_1"
        crsg = build_crsg(scene_from_dict(tree), CrsgConfig())
        assert crsg.carriers["table_0"].room == "room_1"

    def test_rooms_are_assigned_to_carriers_only(self, monkeypatch, golden_scene):
        asked = []
        real = graph.assign_rooms

        def assign_rooms(objects, rooms):
            asked.append([obj.id for obj in objects])
            return real(objects, rooms)

        monkeypatch.setattr(graph, "assign_rooms", assign_rooms)
        crsg = build_crsg(golden_scene, CrsgConfig())
        assert asked == [list(crsg.carriers)] == [["table_0"]]

    def test_a_carrier_outside_every_room_is_in_the_hallway(self):
        tree = golden_scene_dict()
        tree["rooms"] = [{"id": "room_0", "polygon": [[3, 0], [6, 0], [6, 4], [3, 4]]}]
        crsg = build_crsg(scene_from_dict(tree), CrsgConfig())
        assert crsg.carriers["table_0"].room == HALLWAY_ROOM_ID == "hallway"
        assert '  carrier table_0 room=hallway captions=' in crsg.dump_text()

    def test_a_non_carriers_declared_room_changes_no_listing(self):
        tree = golden_scene_dict()
        tree["rooms"].append({"id": "room_1", "polygon": [[10, 10], [12, 10], [12, 12], [10, 12]]})
        plain = build_crsg(scene_from_dict(tree), CrsgConfig()).to_dict()
        for obj in tree["objects"][1:]:  # the carried cup_0 and the orphan rug_0
            obj["room_id"] = "room_1"
        assert build_crsg(scene_from_dict(tree), CrsgConfig()).to_dict() == plain

    def test_dump_text_golden(self, golden_graph):
        expected = (
            "building: golden\n"
            "rooms: 1\n"
            "  room room_0 name=-\n"
            "carriers: 1\n"
            '  carrier table_0 room=room_0 captions=["brown table", "table"]\n'
            "    carries cup_0\n"
            "orphans: 1\n"
            "  orphan rug_0\n"
        )
        assert golden_graph.dump_text() == expected

    def test_to_dict_shape(self, golden_graph):
        tree = golden_graph.to_dict()
        assert tree["carriers"] == [{
            "id": "table_0", "room": "room_0",
            "captions": ["brown table", "table"], "carried": ["cup_0"],
        }]
        assert tree["orphans"] == ["rug_0"]
        assert tree["missing"] == []

    def test_listing_shows_a_parked_object(self, golden_graph):
        apply_update(golden_graph, CarriedDiff(carrier_id="table_0", removed=["cup_0"]))
        assert golden_graph.dump_text().endswith(
            "orphans: 1\n"
            "  orphan rug_0\n"
            "missing: 1\n"
            "  missing cup_0\n")
        tree = golden_graph.to_dict()
        assert tree["missing"] == ["cup_0"]
        assert oracles.carried_relation(golden_graph) == {
            c["id"]: tuple(c["carried"]) for c in tree["carriers"]} == {"table_0": ()}

    def test_detach_and_find(self, golden_graph):
        assert find_object(golden_graph, "cup_0").id == "cup_0"
        moved = golden_graph.detach("cup_0")
        assert moved.id == "cup_0"
        assert golden_graph.carrier_of("cup_0") is None
        assert find_object(golden_graph, "cup_0") is None
        assert golden_graph.detach("cup_0") is None


class TestQuery:
    def test_query_needs_exactly_one_descriptor(self):
        with pytest.raises(QueryError):
            Query()
        with pytest.raises(QueryError):
            Query(text="cup", image="img:cup")

    @pytest.mark.parametrize("fields", [dict(text=""), dict(image="img:??"),
                                        dict(image="img:"), dict(text="cup", carrier_text="!!")])
    def test_a_descriptor_needs_a_token(self, fields):
        with pytest.raises(QueryError, match="no usable tokens"):
            Query(**fields)

    def test_a_text_query_keeps_the_image_prefix_as_a_word(self):
        assert Query(text="img:").descriptor == "img:"

    def test_plain_text_query(self, golden_graph):
        obj, score = query_target(golden_graph, Query(text="red cup"))
        assert obj.id == "cup_0"
        assert score == pytest.approx(5.0 / math.sqrt(26.0), abs=1e-12)

    def test_image_query_uses_visual_features(self, golden_graph):
        obj, score = query_target(golden_graph, Query(image="img:red_cup"))
        assert obj.id == "cup_0"
        assert score == pytest.approx(5.0 / math.sqrt(26.0), abs=1e-12)

    def test_carrier_scoped_query(self, golden_graph):
        obj, _ = query_target(
            golden_graph, Query(text="cup", carrier_text="brown table"))
        assert obj.id == "cup_0"

    def test_scoped_query_never_returns_the_carrier(self, golden_graph):
        # "brown" matches the carrier itself best; the scoped pool is its load
        obj, _ = query_target(
            golden_graph, Query(text="brown cup", carrier_text="brown table"))
        assert obj.id == "cup_0"

    def test_a_carrier_descriptor_resembling_no_carrier_raises(self, golden_graph):
        # every carrier similarity is 0: the query must not run unscoped
        with pytest.raises(QueryError, match="no carrier resembles 'zebra'"):
            query_target(golden_graph, Query(text="red cup", carrier_text="zebra"))

    def test_orphans_are_queryable(self, golden_graph):
        obj, score = query_target(golden_graph, Query(text="green rug"))
        assert obj.id == "rug_0"
        assert score > 0.9

    def test_no_token_overlap_raises(self, golden_graph):
        # words chosen to avoid hash-bucket collisions with scene captions
        with pytest.raises(QueryError):
            query_target(golden_graph, Query(text="violet walrus"))

    def test_stopword_only_query_raises(self):
        with pytest.raises(QueryError):
            Query(text="!!!")

    def test_an_unscoped_pool_reads_the_graph_in_section_order(self, monkeypatch):
        # carriers, the objects they carry, orphans, then missing objects:
        # the order of the graph's former all_objects, kept in oracles
        pools = []
        real = graph._best_match

        def best_match(pool, *args):
            pools.append(list(pool))
            return real(pools[-1], *args)

        monkeypatch.setattr(graph, "_best_match", best_match)
        t0, t1 = table_dict("table_0", 2.0, 2.0), table_dict("table_1", 4.0, 2.0)
        scene = make_scene([t1, item_on("pen_0", ["black pen"], t1), t0,
                            item_on("cup_1", ["blue cup"], t0, dx=0.3),
                            item_on("cup_0", ["red cup"], t0),
                            obj_dict("rug_0", ["green rug"], 1.0, 3.0, 1.0, 1.0, 0.0, 0.02)],
                           width=32, height=20)
        crsg = build_crsg(scene, CrsgConfig())
        crsg.missing["cup_1"] = crsg.carriers["table_0"].carried.pop("cup_1")
        lone = Crsg(building="b", rooms=[], carriers={}, orphan_objects={},
                    missing={"cup_1": scene.objects["cup_1"]})
        for g in (crsg, lone):
            for query in (Query(text="red cup"), Query(image="img:blue_cup")):
                query_target(g, query)
                expected = list(oracles.all_objects(g).values())
                assert [obj.id for obj in pools[-1]] == [obj.id for obj in expected]
                assert all(a is b for a, b in zip(pools[-1], expected))
        assert [obj.id for obj in pools[0]] == ["table_1", "table_0", "pen_0", "cup_0",
                                                "rug_0", "cup_1"]
        query_target(crsg, Query(text="red cup", carrier_text="table"))
        assert len(pools) == 5 and {obj.id for obj in pools[-1]} == {"pen_0", "cup_0"}

    def test_an_empty_graph_raises(self):
        empty = Crsg(building="b", rooms=[], carriers={}, orphan_objects={})
        assert oracles.all_objects(empty) == {}
        for query in (Query(text="red cup"), Query(image="img:red_cup"),
                      Query(text="red cup", carrier_text="table")):
            with pytest.raises(QueryError, match="cannot query an empty graph"):
                query_target(empty, query)

    def test_score_tie_breaks_to_smaller_id(self):
        scene = make_scene([
            table_dict("table_0", 2.0, 2.0),
            item_on("cup_b", ["red cup", "red cup", "cup"], table_dict("table_0", 2.0, 2.0), dx=0.2),
            item_on("cup_a", ["red cup", "red cup", "cup"], table_dict("table_0", 2.0, 2.0), dx=-0.2),
        ])
        crsg = build_crsg(scene, CrsgConfig())
        obj, _ = query_target(crsg, Query(text="red cup"))
        assert obj.id == "cup_a"
