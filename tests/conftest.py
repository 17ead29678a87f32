import dataclasses

import numpy as np
import pytest

from carriernav.graph import CrsgConfig, build_crsg
from carriernav.scene import scene_from_dict
from carriernav.world import GridWorld, Pose


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
