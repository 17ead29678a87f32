"""Carrier matching, carried-set reconciliation and graph updates."""

from dataclasses import replace

import numpy as np
import pytest

from carriernav.features import embed_text
from carriernav.graph import CrsgConfig, build_crsg
from carriernav.scene import Box3, ObjectInstance, scene_from_dict
from carriernav.update import (
    CarriedDiff,
    MatchConfig,
    UpdateError,
    apply_update,
    match_carrier,
    reconcile_carried,
)
from carriernav.world import Observation

from conftest import item_on, obj_dict, scene_dict, table_dict


def obs_of(obj, depth=1.0, shift=(0.0, 0.0, 0.0), scale=1.0, captions=None):
    """Observation fabricated from a scene object, optionally perturbed."""
    center = obj.centroid + np.asarray(shift, dtype=np.float64)
    half = obj.box.extents * scale / 2.0
    box = Box3(center - half, center + half)
    caps = list(captions) if captions is not None else list(obj.captions)
    feat = embed_text(" ".join(caps), obj.text_feature.shape[0])
    seen = ObjectInstance(id=obj.id, captions=caps, box=box, centroid=center,
                          text_feature=feat, visual_feature=feat.copy())
    return Observation(seen, mean_depth=depth)


@pytest.fixture
def setting():
    t0 = table_dict("table_0", 2.0, 2.0)
    t1 = table_dict("table_1", 5.0, 2.0)
    objs = [
        t0, t1,
        item_on("cup_a", ["red cup", "red cup", "cup"], t0, dx=-0.2),
        item_on("cup_b", ["blue cup", "blue cup", "cup"], t0, dx=0.2),
    ]
    scene = scene_from_dict(scene_dict(objs, width=32, height=20))
    return scene, build_crsg(scene, CrsgConfig()), MatchConfig()


class TestMatchConfig:
    def test_validation(self):
        with pytest.raises(UpdateError):
            MatchConfig(max_center_dist=0.0)
        with pytest.raises(UpdateError):
            MatchConfig(max_size_ratio_dev=1.0)


class TestMatchCarrier:
    def test_exact_observation_matches(self, setting):
        scene, crsg, cfg = setting
        obs = obs_of(scene.objects["table_0"])
        assert match_carrier(obs, crsg, cfg) == "table_0"

    def test_small_drift_still_matches(self, setting):
        scene, crsg, cfg = setting
        obs = obs_of(scene.objects["table_0"], shift=(0.4, 0.0, 0.0))
        assert match_carrier(obs, crsg, cfg) == "table_0"

    def test_large_drift_does_not(self, setting):
        scene, crsg, cfg = setting
        obs = obs_of(scene.objects["table_0"], shift=(0.6, 0.0, 0.0))
        assert match_carrier(obs, crsg, cfg) is None

    def test_size_gate(self, setting):
        scene, crsg, cfg = setting
        obs = obs_of(scene.objects["table_0"], scale=1.5)
        assert match_carrier(obs, crsg, cfg) is None

    def test_caption_gate(self, setting):
        scene, crsg, cfg = setting
        obs = obs_of(scene.objects["table_0"], captions=["green sofa", "sofa"])
        assert match_carrier(obs, crsg, cfg) is None

    def test_nearest_qualifying_carrier_wins(self):
        t0 = table_dict("table_0", 2.0, 2.0)
        t1 = table_dict("table_1", 2.7, 2.0)
        scene = scene_from_dict(scene_dict([t0, t1], width=32, height=20))
        crsg = build_crsg(scene, CrsgConfig())
        obs = obs_of(scene.objects["table_0"], shift=(0.45, 0.0, 0.0))
        # center now 0.45 from table_0, 0.25 from table_1: both qualify
        assert match_carrier(obs, crsg, MatchConfig()) == "table_1"

    def test_items_never_match_carriers(self, setting):
        scene, crsg, cfg = setting
        obs = obs_of(scene.objects["cup_a"])
        assert match_carrier(obs, crsg, cfg) is None


class TestReconcile:
    def test_unchanged_carrier_yields_empty_diff(self, setting):
        scene, crsg, cfg = setting
        obs = [obs_of(scene.objects["cup_a"]), obs_of(scene.objects["cup_b"])]
        diff = reconcile_carried("table_0", obs, crsg, cfg)
        assert diff.kept == ["cup_a", "cup_b"]
        assert diff.added == [] and diff.removed == []
        assert diff.empty

    def test_vanished_object_is_removed(self, setting):
        scene, crsg, cfg = setting
        diff = reconcile_carried("table_0", [obs_of(scene.objects["cup_a"])], crsg, cfg)
        assert diff.removed == ["cup_b"]
        assert diff.kept == ["cup_a"]

    def test_new_object_is_added(self, setting):
        scene, crsg, cfg = setting
        t0 = table_dict("table_0", 2.0, 2.0)
        newcomer_dict = item_on("cup_c", ["green cup", "green cup", "cup"], t0, dy=0.2)
        newcomer = scene_from_dict(scene_dict([t0, newcomer_dict],
                                              width=32, height=20)).objects["cup_c"]
        obs = [obs_of(scene.objects["cup_a"]), obs_of(scene.objects["cup_b"]),
               obs_of(newcomer)]
        diff = reconcile_carried("table_0", obs, crsg, cfg)
        assert [o.object_id for o in diff.added] == ["cup_c"]
        assert diff.removed == []
        assert not diff.empty

    def test_small_drift_matches_in_place(self, setting):
        scene, crsg, cfg = setting
        obs = [obs_of(scene.objects["cup_a"], shift=(0.2, 0.0, 0.0)),
               obs_of(scene.objects["cup_b"])]
        diff = reconcile_carried("table_0", obs, crsg, cfg)
        assert diff.empty

    def test_long_slide_reads_as_remove_plus_add(self, setting):
        scene, crsg, cfg = setting
        obs = [obs_of(scene.objects["cup_a"], shift=(0.35, 0.0, 0.0)),
               obs_of(scene.objects["cup_b"])]
        diff = reconcile_carried("table_0", obs, crsg, cfg)
        assert diff.removed == ["cup_a"]
        assert [o.object_id for o in diff.added] == ["cup_a"]

    def test_matching_is_one_to_one_nearest_first(self, setting):
        scene, crsg, cfg = setting
        near = obs_of(scene.objects["cup_a"], shift=(0.05, 0.0, 0.0))
        far = obs_of(scene.objects["cup_a"], shift=(0.25, 0.0, 0.0))
        far = Observation(replace(far.object, id="cup_ghost"), far.mean_depth)
        diff = reconcile_carried("table_0", [near, far,
                                             obs_of(scene.objects["cup_b"])], crsg, cfg)
        # both observations could match cup_a; the nearer one takes it
        assert diff.kept == ["cup_a", "cup_b"]
        assert [o.object_id for o in diff.added] == ["cup_ghost"]

    def test_unknown_carrier_raises(self, setting):
        _, crsg, cfg = setting
        with pytest.raises(UpdateError):
            reconcile_carried("table_9", [], crsg, cfg)


class TestApplyUpdate:
    def test_removed_objects_park_in_missing(self, setting):
        scene, crsg, cfg = setting
        diff = reconcile_carried("table_0", [obs_of(scene.objects["cup_a"])], crsg, cfg)
        apply_update(crsg, diff)
        assert sorted(crsg.carriers["table_0"].carried) == ["cup_a"]
        assert sorted(crsg.missing) == ["cup_b"]
        assert crsg.find("cup_b") is not None  # still queryable
        assert crsg.journal[-1]["removed"] == ["cup_b"]

    def test_unknown_addition_becomes_new_entry(self, setting):
        scene, crsg, cfg = setting
        t1 = table_dict("table_1", 5.0, 2.0)
        new_dict = item_on("phone_0", ["black phone", "phone"], t1)
        phone = scene_from_dict(scene_dict([t1, new_dict],
                                           width=32, height=20)).objects["phone_0"]
        diff = CarriedDiff(carrier_id="table_1", added=[obs_of(phone)])
        apply_update(crsg, diff)
        assert sorted(crsg.carriers["table_1"].carried) == ["phone_0"]
        entry = crsg.carriers["table_1"].carried["phone_0"]
        assert entry.captions == ("black phone", "phone")

    def test_known_addition_rehomes(self, setting):
        scene, crsg, cfg = setting
        moved = obs_of(scene.objects["cup_a"], shift=(3.0, 0.0, 0.0))  # now on table_1
        diff = CarriedDiff(carrier_id="table_1", added=[moved])
        apply_update(crsg, diff)
        assert crsg.carrier_of("cup_a") == "table_1"
        assert "cup_a" not in crsg.carriers["table_0"].carried
        assert crsg.missing == {}
        entry = crsg.carriers["table_1"].carried["cup_a"]
        assert entry.centroid[0] == pytest.approx(scene.objects["cup_a"].centroid[0] + 3.0)

    def test_missing_object_reappears(self, setting):
        scene, crsg, cfg = setting
        gone = reconcile_carried("table_0", [obs_of(scene.objects["cup_a"])], crsg, cfg)
        apply_update(crsg, gone)
        assert "cup_b" in crsg.missing
        found = CarriedDiff(carrier_id="table_1",
                            added=[obs_of(scene.objects["cup_b"], shift=(3.0, 0.0, 0.0))])
        apply_update(crsg, found)
        assert crsg.missing == {}
        assert crsg.carrier_of("cup_b") == "table_1"

    def test_carriers_are_never_converted(self, setting):
        scene, crsg, cfg = setting
        rogue = obs_of(scene.objects["table_1"])
        diff = CarriedDiff(carrier_id="table_0", added=[rogue])
        apply_update(crsg, diff)
        assert "table_1" in crsg.carriers
        assert "table_1" not in crsg.carriers["table_0"].carried

    def test_within_carrier_move_keeps_the_entry(self, setting):
        # a slide past the match radius reads remove+add of the same id;
        # the addition must win over parking it as missing
        scene, crsg, cfg = setting
        obs = [obs_of(scene.objects["cup_a"], shift=(0.35, 0.0, 0.0)),
               obs_of(scene.objects["cup_b"])]
        diff = reconcile_carried("table_0", obs, crsg, cfg)
        apply_update(crsg, diff)
        assert crsg.carrier_of("cup_a") == "table_0"
        assert crsg.missing == {}

    def test_idempotent_reapplication(self, setting):
        scene, crsg, cfg = setting
        diff = reconcile_carried("table_0", [obs_of(scene.objects["cup_a"])], crsg, cfg)
        apply_update(crsg, diff)
        state = {c: sorted(n.carried) for c, n in crsg.carriers.items()}
        journal_len = len(crsg.journal)
        apply_update(crsg, diff)
        assert {c: sorted(n.carried) for c, n in crsg.carriers.items()} == state
        assert len(crsg.journal) == journal_len

    def test_journal_sequence_numbers(self, setting):
        scene, crsg, cfg = setting
        d1 = reconcile_carried("table_0", [obs_of(scene.objects["cup_a"])], crsg, cfg)
        apply_update(crsg, d1)
        d2 = reconcile_carried("table_0", [], crsg, cfg)
        apply_update(crsg, d2)
        assert [e["seq"] for e in crsg.journal] == [0, 1]
        assert crsg.journal[1]["removed"] == ["cup_a"]

    def test_unknown_carrier_raises(self, setting):
        _, crsg, _ = setting
        with pytest.raises(UpdateError):
            apply_update(crsg, CarriedDiff(carrier_id="table_9"))
