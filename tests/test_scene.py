"""Scene model: box geometry, room containment, parsing and round trips."""

import json
import math

import numpy as np
import pytest

from carriernav.features import embed_text, is_zero_feature
from carriernav.scenarios import MODES, build_scenario
from carriernav.scene import (
    Box3,
    GridSpec,
    ObjectInstance,
    Room,
    SceneError,
    SceneParseError,
    SceneValidationError,
    assign_rooms,
    load_scene,
    point_in_polygon,
    save_scene,
    scene_from_dict,
)

from conftest import assert_every_write_raises, golden_scene_dict, obj_dict, scene_dict


class TestBox3:
    def test_derived_quantities(self):
        box = Box3([1.0, 2.0, 0.0], [3.0, 5.0, 0.5])
        assert np.array_equal(box.extents, [2.0, 3.0, 0.5])
        assert np.array_equal(box.center, [2.0, 3.5, 0.25])
        assert box.footprint_area == pytest.approx(6.0)
        assert box.height == pytest.approx(0.5)
        assert box.footprint_diagonal == pytest.approx(math.hypot(2.0, 3.0))

    def test_xy_intersection(self):
        a = Box3([0, 0, 0], [2, 2, 1])
        b = Box3([1, 1, 0], [3, 3, 1])
        assert a.xy_intersection_area(b) == pytest.approx(1.0)
        assert b.xy_intersection_area(a) == pytest.approx(1.0)
        c = Box3([5, 5, 0], [6, 6, 1])
        assert a.xy_intersection_area(c) == 0.0
        # touching edges do not count as overlap
        d = Box3([2, 0, 0], [4, 2, 1])
        assert a.xy_intersection_area(d) == 0.0

    def test_contains_point(self):
        box = Box3([0, 0, 0], [1, 1, 1])
        assert box.contains_point(np.array([0.5, 0.5, 0.5]))
        assert box.contains_point(np.array([1.0, 1.0, 1.0]))
        assert not box.contains_point(np.array([1.5, 0.5, 0.5]))

    def test_rejects_inverted_corners(self):
        with pytest.raises(SceneValidationError):
            Box3([0, 0, 0], [-1, 1, 1])
        with pytest.raises(SceneValidationError):
            Box3([0, 0], [1, 1])
        with pytest.raises(SceneValidationError):
            Box3([0, 0, float("nan")], [1, 1, 1])


def make_object(text_feature, visual_feature=None):
    box = Box3(np.array([0.0, 0.0, 0.0]), np.array([0.1, 0.1, 0.1]))
    return ObjectInstance(id="cup_0", captions=["red cup"], box=box,
                          centroid=np.array([0.05, 0.05, 0.05]),
                          text_feature=text_feature,
                          visual_feature=(text_feature if visual_feature is None
                                          else visual_feature))


class TestObjectValue:
    def test_every_write_raises(self, golden_scene):
        for obj in golden_scene.objects.values():
            assert_every_write_raises(obj)
            assert isinstance(obj.captions, tuple)

    def test_built_arrays_are_frozen_not_copied(self):
        lo, hi = np.array([0.0, 0.0, 0.0]), np.array([0.1, 0.1, 0.1])
        box = Box3(lo, hi)
        assert box.min is lo and box.max is hi
        assert not lo.flags.writeable and not box.extents.flags.writeable

    @pytest.mark.parametrize("resolution", [0.25, 0.05])
    @pytest.mark.parametrize("mode", MODES)
    def test_stored_facts_equal_the_old_properties(self, mode, resolution):
        for index in range(3):
            for obj in build_scenario(mode, index, 5, resolution).scene.objects.values():
                box = obj.box
                ext = box.max - box.min
                assert np.array_equal(box.extents, ext)
                assert box.footprint_area == float(ext[0] * ext[1])
                assert box.height == float(ext[2])
                assert box.footprint_diagonal == math.hypot(float(ext[0]), float(ext[1]))
                for feat, vec in ((obj.text, obj.text_feature), (obj.visual, obj.visual_feature)):
                    assert feat.vec is vec
                    assert feat.norm == float(np.linalg.norm(vec))
                    assert feat.zero == is_zero_feature(vec)

    def test_zero_feature_is_flagged(self):
        obj = make_object(embed_text("!!!"), embed_text("red cup"))
        assert obj.text.zero and obj.text.norm == 0.0
        assert not obj.visual.zero and obj.visual.norm == pytest.approx(1.0)

    def test_underflowing_feature_is_rejected(self):
        vec = np.zeros(256)
        vec[3] = 1e-200  # not zero, but its squared norm underflows to 0
        assert not is_zero_feature(vec) and float(np.linalg.norm(vec)) == 0.0
        with pytest.raises(SceneValidationError, match="text_feature norm"):
            make_object(vec, embed_text("red cup"))
        with pytest.raises(SceneValidationError, match="visual_feature norm"):
            make_object(embed_text("red cup"), vec.copy())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e200])
    def test_non_finite_feature_or_norm_is_rejected(self, bad):
        vec = embed_text("red cup").copy()
        vec[0] = bad
        with pytest.raises(SceneValidationError):
            make_object(vec)

    def test_underflowing_feature_in_a_scene_file(self):
        tree = golden_scene_dict()
        feature = [0.0] * 256
        feature[7] = 1e-200
        tree["objects"][1]["text_feature"] = feature
        with pytest.raises(SceneValidationError, match="cup_0"):
            scene_from_dict(tree)


class TestPolygon:
    SQUARE = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]])

    def test_square_membership(self):
        assert point_in_polygon([2.0, 2.0], self.SQUARE)
        assert not point_in_polygon([5.0, 2.0], self.SQUARE)
        assert not point_in_polygon([-0.1, 2.0], self.SQUARE)

    def test_concave_polygon(self):
        # L-shape: the notch at the top right is outside
        poly = np.array([[0, 0], [4, 0], [4, 2], [2, 2], [2, 4], [0, 4]], dtype=float)
        assert point_in_polygon([1.0, 3.0], poly)
        assert point_in_polygon([3.0, 1.0], poly)
        assert not point_in_polygon([3.0, 3.0], poly)

    def test_assign_rooms_by_centroid(self):
        rooms = [
            Room(id="west", polygon=np.array([[0, 0], [2, 0], [2, 4], [0, 4]], dtype=float)),
            Room(id="east", polygon=np.array([[2, 0], [4, 0], [4, 4], [2, 4]], dtype=float)),
        ]
        objs = scene_from_dict(scene_dict([
            obj_dict("a", ["cup"], 1.0, 1.0, 0.1, 0.1, 0.0, 0.1),
            obj_dict("b", ["cup"], 3.0, 3.0, 0.1, 0.1, 0.0, 0.1),
        ])).objects
        assignment = assign_rooms(list(objs.values()), rooms)
        assert assignment["a"] == "west"
        assert assignment["b"] == "east"


class TestGridSpec:
    def test_blocked_cells_validated(self):
        with pytest.raises(SceneValidationError):
            GridSpec(resolution=0.25, width=4, height=4, blocked_cells=[(4, 0)])
        with pytest.raises(SceneValidationError):
            GridSpec(resolution=0.0, width=4, height=4)
        with pytest.raises(SceneValidationError):
            GridSpec(resolution=0.25, width=0, height=4)

    def test_to_dict_sorts_and_dedupes(self):
        spec = GridSpec(resolution=0.25, width=4, height=4,
                        blocked_cells=[(3, 1), (1, 2), (3, 1)])
        assert spec.to_dict()["blocked_cells"] == [[1, 2], [3, 1]]


class TestParsing:
    def test_golden_scene_parses(self):
        scene = scene_from_dict(golden_scene_dict())
        assert scene.name == "golden"
        assert sorted(scene.objects) == ["cup_0", "rug_0", "table_0"]
        assert scene.embedding_dim == 256
        cup = scene.objects["cup_0"]
        assert cup.text_feature.shape == (256,)
        # synthesize mode embeds the joined captions
        assert float(np.linalg.norm(cup.text_feature)) == pytest.approx(1.0)
        assert np.array_equal(cup.text_feature, cup.visual_feature)

    def test_missing_header_is_parse_error(self):
        tree = golden_scene_dict()
        del tree["header"]
        with pytest.raises(SceneParseError):
            scene_from_dict(tree)

    def test_unknown_version_rejected(self):
        tree = golden_scene_dict()
        tree["header"]["version"] = 2
        with pytest.raises(SceneParseError):
            scene_from_dict(tree)

    def test_unknown_feature_mode_rejected(self):
        tree = golden_scene_dict()
        tree["header"]["feature_mode"] = "learned"
        with pytest.raises(SceneParseError):
            scene_from_dict(tree)

    def test_duplicate_object_id_rejected(self):
        tree = golden_scene_dict()
        tree["objects"].append(dict(tree["objects"][0]))
        with pytest.raises(SceneValidationError):
            scene_from_dict(tree)

    def test_missing_centroid_rejected(self):
        tree = golden_scene_dict()
        del tree["objects"][0]["centroid"]
        with pytest.raises(SceneError):
            scene_from_dict(tree)

    def test_embedded_mode_requires_features(self):
        tree = golden_scene_dict()
        tree["header"]["feature_mode"] = "embedded"
        with pytest.raises(SceneValidationError):
            scene_from_dict(tree)

    def test_embedded_mode_keeps_stored_vectors(self):
        tree = golden_scene_dict()
        tree["header"]["feature_mode"] = "embedded"
        tree["header"]["embedding_dim"] = 3
        for i, obj in enumerate(tree["objects"]):
            obj["text_feature"] = [1.0, float(i), 0.0]
            obj["visual_feature"] = [0.0, 1.0, float(i)]
        scene = scene_from_dict(tree)
        assert np.array_equal(scene.objects["cup_0"].text_feature,
                              [1.0, 1.0, 0.0])

    def test_feature_dim_mismatch_rejected(self):
        tree = golden_scene_dict()
        tree["objects"][0]["text_feature"] = [1.0, 0.0]  # header says 256
        with pytest.raises(SceneValidationError):
            scene_from_dict(tree)

    def test_unknown_room_reference_rejected(self):
        tree = golden_scene_dict()
        tree["objects"][0]["room_id"] = "room_9"
        with pytest.raises(SceneValidationError):
            scene_from_dict(tree)

    def test_centroid_outside_grid_rejected(self):
        tree = golden_scene_dict()
        tree["objects"][0]["centroid"] = [99.0, 99.0, 0.4]
        with pytest.raises(SceneValidationError):
            scene_from_dict(tree)


def test_save_load_round_trip(tmp_path):
    scene = scene_from_dict(golden_scene_dict())
    path = tmp_path / "scene.json"
    save_scene(scene, str(path))
    loaded = load_scene(str(path))
    assert loaded.name == scene.name
    assert sorted(loaded.objects) == sorted(scene.objects)
    for oid, obj in scene.objects.items():
        other = loaded.objects[oid]
        assert np.array_equal(other.box.min, obj.box.min)
        assert np.array_equal(other.box.max, obj.box.max)
        assert np.array_equal(other.centroid, obj.centroid)
        assert np.array_equal(other.text_feature, obj.text_feature)
        assert other.captions == obj.captions
    # a second save of the loaded scene is byte-identical
    path2 = tmp_path / "scene2.json"
    save_scene(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_load_scene_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SceneParseError):
        load_scene(str(path))


def test_self_intersecting_room_rejected():
    tree = golden_scene_dict()
    tree["rooms"] = [{"id": "room_0",
                      "polygon": [[0, 0], [4, 4], [4, 0], [0, 4]]}]  # bowtie
    with pytest.raises(SceneValidationError):
        scene_from_dict(tree)
