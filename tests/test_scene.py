"""Scene model: box geometry, room containment, parsing and round trips."""

import dataclasses
import json
import math
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carriernav import facts, features
from carriernav.features import ALL_BUCKETS, is_zero_feature, tokenize
from carriernav.scenarios import MODES, build_scenario
from carriernav.scene import (
    MAX_EMBEDDING_DIM,
    MAX_GRID_CELLS,
    Box3,
    GridSpec,
    ObjectInstance,
    Room,
    SceneError,
    SceneMap,
    SceneParseError,
    SceneValidationError,
    assign_rooms,
    distance,
    load_scene,
    save_scene,
    scene_from_dict,
    write_json,
)

import oracles
from oracles import embed_text_accumulating
from conftest import assert_every_write_raises, golden_scene_dict, obj_dict, scene_dict

DATA = Path(__file__).resolve().parent / "data"

# coordinates that make shared corners, touching edges and signed zeros
# likely, beside any float
COORDS = (st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0])
          | st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=True))


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def boxes(draw):
    corners = [sorted([draw(COORDS), draw(COORDS)]) for _ in range(3)]
    return Box3([lo for lo, _ in corners], [hi for _, hi in corners])


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

    @settings(max_examples=300, deadline=None)
    @given(a=boxes(), b=boxes())
    @example(a=Box3([0, 0, 0], [2, 2, 1]), b=Box3([2, 0, 0], [4, 2, 1]))  # touching
    @example(a=Box3([-0.0, -0.0, 0], [1, 1, 1]), b=Box3([-1, -1, 0], [0.0, 0.0, 1]))
    def test_xy_intersection_is_the_numpy_rule(self, a, b):
        area = a.xy_intersection_area(b)
        assert type(area) is float
        assert bits(area) == bits(oracles.xy_intersection_area_numpy(a, b))

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

    @pytest.mark.parametrize("lo,hi", [
        ([0, -1e308, 0], [1, 1e308, 1]),  # an infinite extent
        ([0, -1e308, 0], [2, 0, 1]),  # finite extents, an infinite footprint area
        ([0, 0, 1e308], [1, 1, 1.5e308])])  # finite extents, an infinite center
    def test_rejects_a_span_that_overflows(self, lo, hi):
        # checked in Python floats, so no numpy warning comes first
        with pytest.raises(SceneValidationError, match="spans too far"):
            Box3(lo, hi)

    def test_a_span_just_inside_the_bounds_is_a_box(self):
        box = Box3([0, -1e308, 0], [1, 0, 1])
        assert (box.footprint_area, box.center.tolist()) == (1e308, [0.5, -5e307, 0.5])


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
        obj = make_object(embed_text_accumulating("!!!"), embed_text_accumulating("red cup"))
        assert obj.text.zero and obj.text.norm == 0.0
        assert not obj.visual.zero and obj.visual.norm == pytest.approx(1.0)

    def test_underflowing_feature_is_rejected(self):
        vec = np.zeros(256)
        vec[3] = 1e-200  # not zero, but its squared norm underflows to 0
        assert not is_zero_feature(vec) and float(np.linalg.norm(vec)) == 0.0
        with pytest.raises(SceneValidationError, match="text_feature norm"):
            make_object(vec, embed_text_accumulating("red cup"))
        with pytest.raises(SceneValidationError, match="visual_feature norm"):
            make_object(embed_text_accumulating("red cup"), vec.copy())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e200])
    def test_non_finite_feature_or_norm_is_rejected(self, bad):
        vec = embed_text_accumulating("red cup").copy()
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


def in_room(point, room: Room) -> bool:
    """Whether ``assign_rooms`` puts an object centred at ``point`` in ``room``."""
    obj = SimpleNamespace(id="o", centroid=np.array([point[0], point[1], 0.0]))
    return assign_rooms([obj], [room])["o"] == room.id


class TestPolygon:
    SQUARE = Room("square", np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]]))

    def test_square_membership(self):
        assert in_room([2.0, 2.0], self.SQUARE)
        assert not in_room([5.0, 2.0], self.SQUARE)
        assert not in_room([-0.1, 2.0], self.SQUARE)

    def test_concave_polygon(self):
        # L-shape: the notch at the top right is outside
        room = Room("l", np.array([[0, 0], [4, 0], [4, 2], [2, 2], [2, 4], [0, 4]], dtype=float))
        assert in_room([1.0, 3.0], room)
        assert in_room([3.0, 1.0], room)
        assert not in_room([3.0, 3.0], room)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_point_in_polygon_is_the_numpy_rule(self, data):
        # any polygon a room accepts, and points at a vertex, on an edge and
        # anywhere
        n = data.draw(st.integers(3, 6))
        poly = np.array([[data.draw(COORDS), data.draw(COORDS)] for _ in range(n)])
        try:
            room = Room("r", poly)
        except SceneValidationError:  # self-intersecting
            return
        i = data.draw(st.integers(0, n - 1))
        t = data.draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
        a, b = poly[i], poly[(i + 1) % n]
        for point in (a, a + t * (b - a), [data.draw(COORDS), data.draw(COORDS)]):
            assert in_room(point, room) == oracles.point_in_polygon_numpy(point, poly)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), scale=st.sampled_from([1.0, 1e6, -1e6]))
    def test_assign_rooms_is_the_numpy_rule(self, data, scale):
        # rectangles that may share edges and overlap, up to 1e6 m out;
        # centroids anywhere, on their corners and edges among them
        rooms = []
        for k in range(data.draw(st.integers(0, 3))):
            (x0, x1), (y0, y1) = (sorted(scale * c for c in data.draw(
                st.lists(COORDS, min_size=2, max_size=2, unique=True))) for _ in range(2))
            rooms.append(Room(f"r{k}", [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]))
        corners = [v for room in rooms for v in room.polygon.tolist()]
        points = data.draw(st.lists(st.sampled_from(corners), max_size=4)) if corners else []
        edges = [edge for room in rooms for edge in room.edges]
        for _ in range(data.draw(st.integers(0, 2)) if edges else 0):
            (ax, ay), (bx, by) = data.draw(st.sampled_from(edges))
            t = data.draw(st.sampled_from([0.5]) | st.floats(0.0, 1.0))
            points.append([ax + t * (bx - ax), ay + t * (by - ay)])
        points += data.draw(st.lists(st.lists(COORDS.map(lambda c: scale * c), min_size=2,
                                              max_size=2), max_size=4))
        objects = [SimpleNamespace(id=f"o{k}", centroid=np.array([x, y, 0.0]))
                   for k, (x, y) in enumerate(points)]
        assert assign_rooms(objects, rooms) == oracles.assign_rooms_numpy(objects, rooms)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e-160, 1e150, -3e150,
                                     1e155, 1e-300])
                    | st.floats(-1e160, 1e160, allow_nan=False, allow_subnormal=True),
                    min_size=2, max_size=3))
    def test_distance_is_the_norm_bit_for_bit(self, entries):
        v = np.array(entries)
        with np.errstate(all="ignore"):
            assert distance(v).hex() == float(np.linalg.norm(v)).hex()
            a, b = v, v[::-1].copy()
            assert distance(a - b).hex() == float(np.linalg.norm(a - b)).hex()

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
        with pytest.raises(ValueError):  # a room's polygon is read-only
            rooms[0].polygon *= 0.1


class TestGridSpec:
    def test_blocked_cells_validated(self):
        with pytest.raises(SceneValidationError):
            GridSpec(resolution=0.25, width=4, height=4, blocked_cells=[(4, 0)])
        with pytest.raises(SceneValidationError):
            GridSpec(resolution=0.0, width=4, height=4)
        with pytest.raises(SceneValidationError):
            GridSpec(resolution=0.25, width=0, height=4)

    @pytest.mark.parametrize("width,height", [(2**70, 1), (1, 2**70), (MAX_GRID_CELLS + 1, 1),
                                              (2**11, 2**11 + 1), (2**40, 2**40)])
    def test_a_grid_past_the_cell_cap_is_refused(self, width, height):
        # checked before any array is built: no size here is ever allocated
        with pytest.raises(SceneValidationError, match="cells"):
            GridSpec(resolution=0.25, width=width, height=height)
        at_cap = GridSpec(resolution=0.25, width=2**11, height=2**11)
        assert at_cap.width * at_cap.height == MAX_GRID_CELLS

    def test_to_dict_sorts_and_dedupes(self):
        spec = GridSpec(resolution=0.25, width=4, height=4,
                        blocked_cells=[(3, 1), (1, 2), (3, 1)])
        scene = SceneMap(name="t", objects={}, rooms=[], grid=spec)
        assert scene.to_dict()["grid"]["blocked_cells"] == [[1, 2], [3, 1]]

    @pytest.mark.parametrize("cell", [
        (4, 0), (0, 4), (-1, 0), (0, -1), (10**30, 0), (0, -10**30), (1,), (1, 2, 3),
        (1.5, 0), (1.0, 0), (True, 0), (0, np.bool_(False)), ("1", 0), (None, 0),
        5, "ab", None, {1, 2}, np.array([1, 2])])
    def test_a_bad_cell_is_a_validation_error(self, cell):
        # a pair of integers inside the grid, or refused: not truncated,
        # and no raw numpy error
        with pytest.raises(SceneValidationError):
            GridSpec(resolution=0.25, width=4, height=4, blocked_cells=[(1, 1), cell])

    @pytest.mark.parametrize("cells", [np.array([[1.5, 0.0]]), np.array([1, 2]),
                                       np.array([[1, 4]]), np.array([[True, False]])])
    def test_a_bad_cell_array_is_a_validation_error(self, cells):
        with pytest.raises(SceneValidationError):
            GridSpec(resolution=0.25, width=4, height=4, blocked_cells=cells)

    def test_cells_of_any_integer_type_are_accepted(self):
        spec = GridSpec(resolution=0.25, width=4, height=4,
                        blocked_cells=[[3, 1], (np.int64(1), np.int32(2))])
        assert spec.blocked_cells.tolist() == [[3, 1], [1, 2]]
        again = GridSpec(resolution=0.25, width=4, height=4, blocked_cells=spec.blocked_cells)
        assert again.blocked_cells.tolist() == [[3, 1], [1, 2]]

    def test_blocked_cells_are_one_read_only_array(self):
        spec = GridSpec(resolution=0.25, width=4, height=4, blocked_cells=[(3, 1), (1, 2)])
        cells = spec.blocked_cells
        assert cells.shape == (2, 2) and cells.dtype == np.intp
        with pytest.raises(ValueError):
            cells[0, 0] = 0
        assert GridSpec(resolution=0.25, width=4, height=4).blocked_cells.shape == (0, 2)

    # The file reader checks the types and reads the cells as one intp
    # array, so a cell beyond intp is a parse error; GridSpec checks only
    # the bounds of that array, so a cell outside the grid is a validation
    # error.
    @pytest.mark.parametrize("cell,error", [([10**30, 0], SceneParseError),
                                            ([4, 0], SceneValidationError),
                                            ([1.5, 0], SceneParseError),
                                            ([True, 0], SceneParseError)])
    def test_a_bad_cell_in_a_scene_file_is_a_scene_error(self, cell, error):
        tree = scene_dict([], width=4, height=4)
        tree["grid"]["blocked_cells"] = [[1, 1], cell]
        with pytest.raises(error):
            scene_from_dict(json.loads(json.dumps(tree)))


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

    def test_synthesized_features_are_one_embedding(self, monkeypatch):
        # one miss of the kept texts per object, whose vector both features
        # read as one Feature; the next load of the scene misses none
        misses = []
        real = features._text_feature
        monkeypatch.setattr(features, "_text_feature",
                            lambda tokens, dim: misses.append(tokens) or real(tokens, dim))
        scene = scene_from_dict(golden_scene_dict())
        texts = [tuple(tokenize(" ".join(o.captions))) for o in scene.objects.values()]
        assert sorted(misses) == sorted(texts)
        for obj, tokens in zip(scene.objects.values(), texts):
            assert obj.visual_feature is obj.text_feature
            assert obj.visual is obj.text
            assert obj.text_feature is facts._pure[("text", tokens, 256)].vec
        again = scene_from_dict(golden_scene_dict())
        assert len(misses) == len(texts)
        assert all(again.objects[oid].text_feature is obj.text_feature
                   for oid, obj in scene.objects.items())

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

    @pytest.mark.parametrize("grid", [{"origin": [1e308, 0.0]}, {"origin": [0.0, -1e308]},
                                      {"resolution": 5e-324}])
    def test_a_centroid_with_no_finite_cell_is_rejected(self, grid):
        # the offset over the resolution overflows to an infinite cell index
        tree = golden_scene_dict()
        tree["grid"].update(grid)
        with pytest.raises(SceneValidationError, match="no finite cell"):
            scene_from_dict(tree)

    @pytest.mark.parametrize("where", ["grid", "box"])
    def test_a_scene_whose_distances_overflow_is_rejected(self, where):
        # two points of its bounds are 1e200 apart: the square of that
        # distance, which every norm computes, is infinite
        tree = golden_scene_dict()
        if where == "grid":
            tree["grid"]["resolution"] = 1e200
        else:
            tree["objects"][0]["box"] = {"min": [1.0, 1.0, 0.0], "max": [2.2, 1.8, 1e200]}
        with pytest.raises(SceneValidationError, match="spans too far to measure"):
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


def scene_fields(scene) -> tuple:
    """Every field of ``scene``, each array as its dtype, shape and bytes
    (so a signed zero counts)."""
    def arr(a):
        return a.dtype.str, a.shape, a.tobytes()
    grid = scene.grid
    return (scene.name, scene.feature_mode, scene.embedding_dim,
            (grid.resolution, grid.width, grid.height, arr(grid.origin), arr(grid.blocked_cells)),
            [(r.id, r.name, arr(r.polygon)) for r in scene.rooms],
            [(o.id, o.captions, arr(o.box.min), arr(o.box.max), arr(o.centroid),
              arr(o.text_feature), arr(o.visual_feature), o.room_id)
             for o in scene.objects.values()])


def written_features(path) -> dict:
    """Each object id of the scene file at ``path`` with the feature keys
    written for it."""
    tree = json.loads(Path(path).read_text())
    return {o["id"]: sorted(k for k in o if k.endswith("_feature")) for o in tree["objects"]}


class TestDerivedFeatures:
    """A ``synthesize`` scene file leaves out each feature whose bytes are
    the embedding of the object's joined captions; the reader derives it."""

    def test_a_file_written_with_every_feature_loads_as_the_file_without(self, tmp_path):
        # written by the writer that wrote every feature, from the same arguments
        old_path = DATA / "scene_with_every_feature.json"
        built = build_scenario("mixed", 0, 3, resolution=0.25).scene
        new_path = tmp_path / "scene.json"
        save_scene(built, str(new_path))
        assert set(map(tuple, written_features(old_path).values())) == {
            ("text_feature", "visual_feature")}
        assert set(map(tuple, written_features(new_path).values())) == {()}
        old, new = load_scene(str(old_path)), load_scene(str(new_path))
        assert scene_fields(old) == scene_fields(new) == scene_fields(built)
        save_scene(old, str(tmp_path / "again.json"))
        assert (tmp_path / "again.json").read_bytes() == new_path.read_bytes()
        assert old_path.stat().st_size > 3 * new_path.stat().st_size

    def test_a_feature_that_is_not_derived_is_kept_and_only_it(self, tmp_path):
        scene = scene_from_dict(golden_scene_dict())
        cup = scene.objects["cup_0"]
        scene.objects["cup_0"] = dataclasses.replace(
            cup, visual_feature=embed_text_accumulating("red mug"))
        save_scene(scene, str(tmp_path / "scene.json"))
        assert written_features(tmp_path / "scene.json") == {
            "table_0": [], "cup_0": ["visual_feature"], "rug_0": []}
        loaded = load_scene(str(tmp_path / "scene.json"))
        assert scene_fields(loaded) == scene_fields(scene)
        assert not np.array_equal(loaded.objects["cup_0"].visual_feature, cup.visual_feature)

    def test_a_feature_that_differs_only_by_a_signed_zero_is_kept(self, tmp_path):
        scene = scene_from_dict(golden_scene_dict())
        cup = scene.objects["cup_0"]
        signed = cup.text_feature.copy()
        signed[np.flatnonzero(signed == 0.0)[0]] = -0.0
        assert np.array_equal(signed, cup.text_feature)  # equal in value
        scene.objects["cup_0"] = dataclasses.replace(cup, text_feature=signed)
        save_scene(scene, str(tmp_path / "scene.json"))
        assert written_features(tmp_path / "scene.json")["cup_0"] == ["text_feature"]
        loaded = load_scene(str(tmp_path / "scene.json")).objects["cup_0"]
        assert loaded.text_feature.tobytes() == signed.tobytes()
        assert loaded.text.support == ALL_BUCKETS != loaded.visual.support

    def test_embedded_mode_writes_both_features(self, tmp_path):
        tree = golden_scene_dict()
        tree["header"]["feature_mode"] = "embedded"
        for obj in tree["objects"]:  # the very vectors synthesize mode derives
            obj["text_feature"] = obj["visual_feature"] = embed_text_accumulating(
                " ".join(obj["captions"])).tolist()
        scene = scene_from_dict(tree)
        save_scene(scene, str(tmp_path / "scene.json"))
        assert set(map(tuple, written_features(tmp_path / "scene.json").values())) == {
            ("text_feature", "visual_feature")}
        assert scene_fields(load_scene(str(tmp_path / "scene.json"))) == scene_fields(scene)

    # 2**62 floats is more than numpy allocates: a missing check fails on
    # numpy's error, not by asking for the memory
    @pytest.mark.parametrize("dim", [0, -1, MAX_EMBEDDING_DIM + 1, 2**62])
    def test_an_embedding_dim_outside_the_cap_is_rejected(self, dim):
        tree = golden_scene_dict()
        tree["header"]["embedding_dim"] = dim
        with pytest.raises(SceneValidationError, match="embedding_dim"):
            scene_from_dict(tree)

    def test_an_embedding_dim_at_the_cap_loads(self):
        tree = golden_scene_dict()
        tree["header"]["embedding_dim"] = MAX_EMBEDDING_DIM
        scene = scene_from_dict(tree)
        assert scene.objects["cup_0"].text_feature.shape == (MAX_EMBEDDING_DIM,)


def per_entry_floats(obj) -> dict:
    """The object's scene file entry in a ``synthesize`` scene, converting each
    array entry with ``float``: a feature is written unless its bytes are
    the embedding of the object's joined captions."""
    out = {
        "id": obj.id,
        "captions": list(obj.captions),
        "box": {"min": [float(x) for x in obj.box.min], "max": [float(x) for x in obj.box.max]},
        "centroid": [float(x) for x in obj.centroid],
    }
    derived = embed_text_accumulating(" ".join(obj.captions),
                                      obj.text_feature.shape[0]).tobytes()
    for name in ("text_feature", "visual_feature"):
        vec = getattr(obj, name)
        if vec.tobytes() != derived:
            out[name] = [float(x) for x in vec]
    if obj.room_id is not None:
        out["room_id"] = obj.room_id
    return out


def test_saved_arrays_are_their_per_entry_floats(tmp_path):
    # signed zeros and subnormals in the features; 1e300 in the box and
    # centroid, since a feature holding it has no finite norm
    scene = scene_from_dict(golden_scene_dict())
    feature = np.zeros(256)
    feature[:4] = [1.0, -0.0, 5e-324, 2.2e-308]
    box = Box3([-0.0, 0.0, 0.0], [1e300, 1.0, 0.5])
    scene.objects["odd_0"] = ObjectInstance("odd_0", ("odd thing",), box, [1e299, 0.5, 0.25],
                                            feature, -feature)
    save_scene(scene, str(tmp_path / "scene.json"))
    tree = scene.to_dict()
    tree["objects"] = [per_entry_floats(obj) for obj in scene.objects.values()]
    write_json(str(tmp_path / "expected.json"), tree)
    text = (tmp_path / "scene.json").read_text()
    assert text == (tmp_path / "expected.json").read_text()
    assert all(v in text for v in ("-0.0", "5e-324", "2.2e-308", "1e+300", "1e+299"))
    assert text.count('_feature"') == 2  # odd_0's two; the golden objects' are derived


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


@pytest.mark.parametrize("polygon", [
    [[0, 0], [1e308, -1e308], [4, 4], [0, 4]],
    [[1e308, 0], [-1e308, 0], [0, 1]],  # a triangle, which no pair of edges tests
    [[0, 0], [4, 0], [4, math.nan], [0, 4]],
    [[0, 0], [1e200, 0], [1e200, 1e200], [0, 1e200]]])
def test_a_room_whose_orientations_overflow_is_rejected(polygon):
    # rejected before the self-intersection verdict, with no numpy warning
    with pytest.raises(SceneValidationError, match="spans too far"):
        Room("r", polygon)


def test_a_room_just_inside_the_span_bound_is_tested():
    far = 1e150  # every orientation stays finite: 2 * far * far
    assert Room("r", [[0, 0], [far, 0], [far, far], [0, far]]).polygon.shape == (4, 2)
    with pytest.raises(SceneValidationError, match="self-intersects"):
        Room("r", [[0, 0], [far, far], [far, 0], [0, far]])


JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.integers(min_value=2**63, max_value=2**200)
                | st.floats(allow_nan=False, allow_infinity=False) | st.text())
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=30)


def holds_object(value) -> bool:
    return isinstance(value, dict) or (isinstance(value, list) and any(map(holds_object, value)))


def layout_oracle(tree) -> str:
    """The text that ``write_json`` must write: ``json.dumps(indent=2,
    sort_keys=True)``, except that an array holding no object is one line
    from the compact encoder."""
    flat = []

    def tokens(value):
        if isinstance(value, dict):
            return {k: tokens(v) for k, v in value.items()}
        if isinstance(value, list) and not any(map(holds_object, value)):
            flat.append(value)
            return f"\0flat-{len(flat) - 1}\0"
        if isinstance(value, list):
            return [tokens(v) for v in value]
        return value

    text = json.dumps(tokens(tree), indent=2, sort_keys=True)
    for i, value in enumerate(flat):
        text = text.replace(json.dumps(f"\0flat-{i}\0"), json.dumps(value, sort_keys=True))
    return text + "\n"


class TestWriteJson:
    @settings(max_examples=300, deadline=None)
    @given(tree=JSON_TREES)
    @example(tree={})
    @example(tree=[])
    @example(tree={"a": [[{"b": [1, {"c": []}], "a": {}}], [], [[]]]})
    @example(tree={"b": {"y": 1, "x": [{"k": None}]}, "a": [], "c": {}})
    @example(tree={"\u00e9t\u00e9": ["\u65e5\u672c", "\U0001f600"], "z": "caf\u00e9"})
    @example(tree={"x": [-0.0, 1e-300, 2**100, -(2**70), 5e-324, 1.7976931348623157e308]})
    def test_any_tree(self, tree, tmp_path_factory):
        path = tmp_path_factory.mktemp("json") / "tree.json"
        write_json(str(path), tree)
        text = path.read_text(encoding="utf-8")
        assert json.loads(text) == tree
        assert text == layout_oracle(tree)
        assert text.endswith("\n") and not text.endswith("\n\n")

        def sorted_pairs(pairs):
            keys = [k for k, _ in pairs]
            assert keys == sorted(keys)
            return dict(pairs)

        json.loads(text, object_pairs_hook=sorted_pairs)
        again = path.with_name("again.json")
        write_json(str(again), json.loads(text))
        assert again.read_bytes() == path.read_bytes()

    def test_arrays_without_objects_take_one_line(self, tmp_path):
        write_json(str(tmp_path / "t.json"), {"cells": [[0, 1], [2, 3]], "v": [0.5, -0.0]})
        assert (tmp_path / "t.json").read_text() == (
            '{\n  "cells": [[0, 1], [2, 3]],\n  "v": [0.5, -0.0]\n}\n')

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("place", [lambda v: v, lambda v: {"a": v},
                                       lambda v: {"a": [1.0, v]}, lambda v: [{"b": [[v]]}]])
    def test_non_finite_numbers_are_refused_before_writing(self, tmp_path, bad, place):
        fresh, old = tmp_path / "fresh.json", tmp_path / "old.json"
        old.write_bytes(b'{"kept": true}\n')
        for path in (fresh, old):
            with pytest.raises(ValueError):
                write_json(str(path), place(bad))
        assert not fresh.exists()
        assert old.read_bytes() == b'{"kept": true}\n'

    def test_scene_in_the_old_layout_still_loads(self, tmp_path):
        scene = build_scenario("probe", 0, 3, resolution=0.05).scene
        old = tmp_path / "old.json"
        old.write_text(json.dumps(scene.to_dict(), sort_keys=True, indent=2) + "\n")
        assert load_scene(str(old)).to_dict() == scene.to_dict()
