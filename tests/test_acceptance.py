"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
threshold, tolerance and time bound is asserted, not just printed.
"""

import dataclasses
import json
from random import Random
from time import monotonic

from mpmath import exp as mp_exp
from mpmath import mp, mpf

from carriernav.bench import mean_spl, run_sequence, run_suite, spl
from carriernav.graph import CrsgConfig, Query, build_crsg, query_target
from carriernav.policy import VARIANTS, PolicyConfig, priority_score
from carriernav.scenarios import build_scenario, generate_scenarios
from carriernav.world import GridWorld, SensorConfig

from oracles import brute_force_relation, carried_relation, full_coverage_tour, spl_oracle
from test_graph import random_assignment_scene


def report(criterion: int, ok: bool, detail: str) -> str:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_1_priority_matches_high_precision_reference():
    cfg = PolicyConfig()
    t0 = monotonic()
    peak = priority_score(1.0, 0.0, 0.0, cfg)

    mp.dps = 60
    rng = Random("acceptance/priority")
    worst = 0.0
    for _ in range(20):
        ss, d, dn = rng.random(), rng.uniform(0.0, 50.0), rng.uniform(0.0, 20.0)
        got = priority_score(ss, d, dn, cfg)
        want = (mpf(cfg.omega1) * mpf(ss) * mp_exp(-mpf(cfg.alpha) * mpf(dn))
                / (1 + mpf(cfg.omega2) * mpf(d)))
        worst = max(worst, float(abs(got - want)))
    elapsed = monotonic() - t0

    ok = peak == 3.0 and worst <= 1e-12 and elapsed < 1.0
    line = report(1, ok, f"peak={peak} worst_err={worst:.2e} {elapsed:.2f}s")
    assert ok, line


def test_criterion_2_spl_matches_single_line_reference():
    rng = Random("acceptance/spl")
    cases = [(True, 0.0, 0.0), (False, 3.0, 3.0)]
    while len(cases) < 100:
        cases.append((rng.random() < 0.6,
                      rng.choice([0.0, rng.uniform(0.0, 40.0)]),
                      rng.choice([0.0, rng.uniform(0.0, 60.0)])))
    bad = sum(1 for c in cases if spl(*c) != spl_oracle(*c))
    ok = bad == 0 and len(cases) == 100
    line = report(2, ok, f"{len(cases) - bad}/{len(cases)} exact")
    assert ok, line


def test_criterion_3_carried_assignment_matches_brute_force():
    t0 = monotonic()
    scenes = [build_scenario("mixed", i, 17).scene for i in range(25)]
    scenes += [random_assignment_scene(Random(f"accept3/{i}")) for i in range(25)]

    cfg = CrsgConfig()
    mismatched = 0
    for scene in scenes:
        assert len(scene.objects) <= 25
        crsg = build_crsg(scene, cfg)
        carriers, relation, orphans = brute_force_relation(scene, cfg)
        same = (set(crsg.carriers) == carriers
                and {c: set(n.carried) for c, n in crsg.carriers.items()} == relation
                and set(crsg.orphan_objects) == orphans)
        mismatched += not same
    elapsed = monotonic() - t0

    ok = mismatched == 0 and len(scenes) == 50 and elapsed < 10.0
    line = report(3, ok, f"{50 - mismatched}/50 scenes exact, {elapsed:.1f}s")
    assert ok, line


def test_criterion_4_query_resolution_accuracy():
    ci = ti = cp = tp = 0
    index = 0
    while (ti < 100 or tp < 100) and index < 200:
        sc = build_scenario("mixed", index, 19)
        index += 1
        crsg = build_crsg(sc.scene, sc.crsg)
        for cid in sorted(crsg.carriers):
            node = crsg.carriers[cid]
            for oid in sorted(node.carried):
                obj = node.carried[oid]
                if ti < 100:
                    got, _ = query_target(crsg, Query(
                        text=obj.captions[0],
                        carrier_text=node.object.captions[0]))
                    ti += 1
                    ci += got.id == oid
                if tp < 100:
                    got, _ = query_target(crsg, Query(text=obj.captions[0]))
                    tp += 1
                    cp += got.id == oid

    ok = ti == 100 and tp == 100 and ci >= 99 and cp >= 99
    line = report(4, ok, f"instance {ci}/{ti}, plain {cp}/{tp}")
    assert ok, line


def _presence_at_task(scenario, task_index: int) -> bool:
    """Whether the task's target still exists when the task starts."""
    gt = scenario.tasks[task_index].ground_truth_id
    for e in scenario.events:
        if e.kind != "remove" or e.object_id != gt:
            continue
        ordinal = 0 if e.trigger == "before-episode" else int(
            e.trigger.rsplit("-", 1)[1])
        if ordinal <= task_index:
            return False
    return True


def test_criterion_5_action_budget_and_exhaustive_agreement():
    episodes = over_budget = disagreements = checked_wide = 0
    index = 0
    while episodes < 1000:
        sc = build_scenario("mixed", index, 11)
        index += 1
        crsg = build_crsg(sc.scene, sc.crsg)
        budget = len(crsg.carriers) + 1
        results = run_sequence(sc, VARIANTS["ours"])
        episodes += len(results)
        over_budget += sum(1 for r in results if r.action_count > budget)
        if len(crsg.carriers) <= 4:
            wide = dataclasses.replace(sc, sensor=SensorConfig(radius=25.0))
            for k, r in enumerate(run_sequence(wide, VARIANTS["ours"])):
                checked_wide += 1
                disagreements += r.success != _presence_at_task(sc, k)

    ok = episodes >= 1000 and over_budget == 0 and disagreements == 0
    line = report(5, ok, f"{episodes} episodes, {over_budget} over budget, "
                         f"{disagreements}/{checked_wide} oracle disagreements")
    assert ok, line


def test_criterion_6_variant_ordering_on_displaced_targets():
    t0 = monotonic()
    means = {}
    for name in ("ours", "only-carriers_LLM", "only-carriers_Random"):
        results = []
        for i in range(50):
            results += run_sequence(build_scenario("single", i, 42),
                                    VARIANTS[name])
        means[name] = mean_spl(results)
    elapsed = monotonic() - t0

    gap_a = means["ours"] - means["only-carriers_LLM"]
    gap_b = means["only-carriers_LLM"] - means["only-carriers_Random"]
    ok = gap_a > 0.02 and gap_b > 0.02 and elapsed < 120.0
    line = report(6, ok, f"spl ours={means['ours']:.4f} "
                         f"llm={means['only-carriers_LLM']:.4f} "
                         f"random={means['only-carriers_Random']:.4f}, "
                         f"{elapsed:.0f}s")
    assert ok, line


def test_criterion_7_graph_updates_amortize_across_sequences():
    t0 = monotonic()
    gaps = {}
    for name in ("ours", "no-update"):
        first, later = [], []
        for i in range(20):
            results = run_sequence(build_scenario("probe", i, 7), VARIANTS[name])
            first.append(results[0])
            later += results[1:]
        gaps[name] = mean_spl(later) - mean_spl(first)
    elapsed = monotonic() - t0

    ok = gaps["ours"] >= 0.1 and abs(gaps["no-update"]) < 0.02 and elapsed < 300.0
    line = report(7, ok, f"gap with updates={gaps['ours']:+.4f}, "
                         f"frozen={gaps['no-update']:+.4f}, {elapsed:.0f}s")
    assert ok, line


def test_criterion_8_full_coverage_recovers_displaced_relation():
    converged = 0
    for i in range(100):
        sc = build_scenario("mixed", i, 11)
        world = GridWorld(sc.scene, start_pose=sc.start_pose)
        crsg = build_crsg(sc.scene, sc.crsg)
        for spec in sc.events:
            world.apply_displacement(spec, sc.crsg)
        full_coverage_tour(world, crsg, sensor=sc.sensor, match=sc.match,
                           crsg_cfg=sc.crsg)
        expected = {cid: tuple(sorted(world.ground_truth_carried(cid, sc.crsg)))
                    for cid in crsg.carriers}
        converged += carried_relation(crsg) == expected

    ok = converged == 100
    line = report(8, ok, f"{converged}/100 worlds converged")
    assert ok, line


def test_criterion_9_suite_output_is_run_and_worker_invariant(tmp_path):
    src = tmp_path / "scenarios"
    generate_scenarios("mixed", 6, 5, out_dir=str(src))
    paths = [str(p) for p in sorted(src.glob("scenario_*.json"))]
    variants = ("no-update", "only-carriers_LLM", "ours")

    outs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 3)):
        out = tmp_path / name
        run_suite(paths, variants, out_dir=str(out), workers=workers)
        outs.append(out)

    identical = all(
        (out / fname).read_bytes() == (outs[0] / fname).read_bytes()
        for out in outs[1:]
        for fname in ("results.jsonl", "report.json"))
    rows = (outs[0] / "results.jsonl").read_text().splitlines()
    # the byte comparison covers every report counter, the action counts included
    counted = all({"oracle_fallbacks", "reconciled_carriers", "unreachable_legs",
                   "mean_actions"} <= set(agg)
                  for agg in json.loads((outs[0] / "report.json").read_text())["variants"].values())
    ok = identical and counted and len(rows) > 0 and json.loads(rows[0])

    ok = bool(ok)
    line = report(9, ok, f"{len(rows)} rows, rerun and 3-worker runs byte-equal")
    assert ok, line
