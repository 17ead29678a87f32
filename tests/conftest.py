import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from carriernav import facts, graph
from carriernav.features import Feature, tokenize
from carriernav.graph import CrsgConfig, build_crsg, carrying_predicate
from carriernav.scene import scene_from_dict
from carriernav.world import GridWorld, Pose

import oracles


@pytest.fixture(autouse=True)
def cold_facts():
    """Every test starts with no grid's facts, no scene's and no texts
    kept, so the counts of graph builds, searches, embeddings and computed
    answers a test reads do not depend on the tests before it."""
    facts.release_facts()


def find_object(crsg, object_id):
    """The graph's instance of ``object_id``, wherever the graph holds it,
    or None."""
    return oracles.all_objects(crsg).get(object_id)


def scene_dict(objects, *, name="test", width=24, height=16, resolution=0.25,
               origin=(0.0, 0.0), blocked=(), rooms=None):
    """Minimal well-formed scene tree; objects already carry box/centroid."""
    if rooms is None:
        rooms = [{"id": "room_0",
                  "polygon": [[0, 0], [width * resolution, 0],
                              [width * resolution, height * resolution],
                              [0, height * resolution]]}]
    return {
        "header": {"version": 1, "name": name, "feature_mode": "synthesize",
                   "embedding_dim": 256},
        "grid": {"resolution": resolution, "width": width, "height": height,
                 "origin": list(origin), "blocked_cells": [list(c) for c in blocked]},
        "rooms": rooms,
        "objects": objects,
    }


def obj_dict(oid, captions, cx, cy, ex, ey, z0, h):
    """Box from center, footprint extents and vertical span."""
    box_min = [cx - ex / 2.0, cy - ey / 2.0, z0]
    box_max = [cx + ex / 2.0, cy + ey / 2.0, z0 + h]
    centroid = [(a + b) / 2.0 for a, b in zip(box_min, box_max)]
    return {"id": oid, "captions": list(captions),
            "box": {"min": box_min, "max": box_max}, "centroid": centroid}


def table_dict(oid, cx, cy, attr="brown"):
    return obj_dict(oid, [f"{attr} table", "table"], cx, cy, 1.2, 0.8, 0.0, 0.75)


def item_on(oid, captions, carrier, dx=0.0, dy=0.0, ex=0.08, ey=0.08, h=0.12):
    """A small object resting on a carrier dict's top face."""
    cx = (carrier["box"]["min"][0] + carrier["box"]["max"][0]) / 2.0 + dx
    cy = (carrier["box"]["min"][1] + carrier["box"]["max"][1]) / 2.0 + dy
    top = carrier["box"]["max"][2]
    return obj_dict(oid, captions, cx, cy, ex, ey, top, h)


def assert_every_write_raises(obj):
    """Every attribute assignment on an ObjectInstance and on its Box3
    raises, and so does every write into one of their arrays or captions."""
    for value in (obj, obj.box):
        for name in [f.name for f in dataclasses.fields(value)] + ["not_a_field"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, None)
            attr = getattr(value, name, None)
            if isinstance(attr, np.ndarray):
                with pytest.raises(ValueError):
                    attr[0] += 1.0
    with pytest.raises(TypeError):
        obj.captions[0] = "mug"
    with pytest.raises(AttributeError):
        obj.captions.append("mug")


def _check_carrier(key, answer):
    _, obj, candidates, cfg = key
    assert answer == oracles.nearest_carrier_per_call(obj, candidates, cfg)


def _check_match(key, answer):
    _, seen, ids, objects, cfg = key
    carriers = {cid: graph.CarrierNode(obj) for cid, obj in zip(ids, objects)}
    assert answer == oracles.match_carrier_per_call(seen, carriers, cfg)


def _check_move(key, answer):
    _, items, object_id, target_id, spot_index, cfg = key
    before = dict(items)
    box_min, box_max = oracles.moved_per_call(before, object_id, target_id, spot_index, cfg)
    assert answer.id == object_id and answer.captions is before[object_id].captions
    assert np.array_equal(answer.box.min, box_min)
    assert np.array_equal(answer.box.max, box_max)
    assert carrying_predicate(before[target_id], answer, cfg)


def _check_leg(key, answer):
    # a world on the key's grid holding the key's objects, facing its heading
    _, items, (resolution, origin, shape, occupancy), path, heading, sensor = key
    world = GridWorld.__new__(GridWorld)
    world.resolution, world.origin = resolution, np.array(origin)
    world.height, world.width = shape
    world.occupancy = np.frombuffer(occupancy, dtype=bool).reshape(shape)
    world.scene = SimpleNamespace(objects=dict(items))
    world.robot = Pose(np.zeros(2), 0.0 if heading is None else heading)
    expected, length, pose = oracles.travel_per_cell(world, path, sensor)
    seen, got_length, got_heading = answer
    assert [(o.object_id, o.mean_depth) for o in seen] == [
        (o.object_id, o.mean_depth) for o in expected.values()]
    assert all(o.object is expected[o.object_id].object for o in seen)
    assert (got_length, got_heading) == (length, pose.heading)


def _check_carried(key, answer):
    _, items, cfg = key
    objects = dict(items)
    bases = {oid for oid, obj in objects.items() if oracles.geometric_base(obj, cfg)}
    _, relation, _ = oracles.brute_force_relation(SimpleNamespace(objects=objects), cfg, bases)
    assert answer == {cid: sorted(held) for cid, held in relation.items() if held}


def _check_reconcile(key, answer):
    _, seen, entries, cfg = key
    assert answer == oracles.reconcile_pairs_per_call(seen, dict(entries), cfg)


def _check_text(key, answer):
    _, tokens, dim = key
    fresh = Feature.of(oracles.embed_text_accumulating(" ".join(tokens), dim))
    assert answer.vec.dtype == fresh.vec.dtype and answer.vec.shape == fresh.vec.shape
    assert answer.vec.tobytes() == fresh.vec.tobytes()
    assert (answer.norm.hex(), answer.zero) == (fresh.norm.hex(), fresh.zero)
    assert answer.support == fresh.support == oracles.support_bits(fresh.vec)


def _check_spelling(key, answer):
    # ("spelling", text, dim) holds the text's Feature, ("spelling", text)
    # its tokens
    tokens = tuple(tokenize(key[1]))
    if len(key) == 3:
        _check_text(("text", tokens, key[2]), answer)
    else:
        assert answer == tokens and type(answer) is tuple


# kind of kept answer -> check of one answer against its rule
KEPT_ANSWER_CHECKS = {
    "carrier": _check_carrier,
    "match": _check_match,
    "move": _check_move,
    "leg": _check_leg,
    "carried": _check_carried,
    "reconcile": _check_reconcile,
    "text": _check_text,
    "spelling": _check_spelling,
}


def writable_arrays(value) -> list:
    """Every writable numpy array reachable from ``value`` through
    containers, dataclass fields and named tuples."""
    found, seen, todo = [], set(), [value]
    while todo:
        value = todo.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            if value.flags.writeable:
                found.append(value)
        elif isinstance(value, dict):
            todo += [*value.keys(), *value.values()]
        elif isinstance(value, (list, tuple, set, frozenset)):
            todo += value
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            todo += [getattr(value, f.name) for f in dataclasses.fields(value)]
    return found


def assert_every_kept_answer_is_its_rule():
    """Each answer the kept scene's facts and the kept facts of content
    hold equals the rule it replaced, run afresh on the inputs its key
    holds, and holds no writable array, since every later reader shares
    it.  A kind with no check fails."""
    scene_answers = facts._scene.answers if facts._scene is not None else {}
    for key, answer in [*scene_answers.items(), *facts._pure.items()]:
        assert key[0] in KEPT_ANSWER_CHECKS, key
        KEPT_ANSWER_CHECKS[key[0]](key, answer)
        assert writable_arrays(answer) == [], key


GOLDEN_OBJECTS = [
    {"id": "table_0", "captions": ["brown table", "table"],
     "box": {"min": [1.0, 1.0, 0.0], "max": [2.2, 1.8, 0.75]},
     "centroid": [1.6, 1.4, 0.375]},
    {"id": "cup_0", "captions": ["red cup", "red cup", "cup"],
     "box": {"min": [1.5, 1.3, 0.75], "max": [1.62, 1.42, 0.87]},
     "centroid": [1.56, 1.36, 0.81]},
    {"id": "rug_0", "captions": ["green rug", "green rug", "rug"],
     "box": {"min": [4.0, 2.0, 0.0], "max": [5.0, 3.0, 0.02]},
     "centroid": [4.5, 2.5, 0.01]},
]


def golden_scene_dict():
    d = scene_dict([dict(o) for o in GOLDEN_OBJECTS], name="golden",
                   rooms=[{"id": "room_0", "polygon": [[0, 0], [6, 0], [6, 4], [0, 4]]}])
    return d


@pytest.fixture
def golden_scene():
    return scene_from_dict(golden_scene_dict())


@pytest.fixture
def golden_graph(golden_scene):
    return build_crsg(golden_scene, CrsgConfig())


@pytest.fixture
def golden_world(golden_scene):
    return GridWorld(golden_scene, start_pose=Pose([0.5, 0.5]))
