"""Benchmark harness: metrics, sequence execution, suite runner.

Metrics follow the standard navigation conventions: SR is the fraction of
successful tasks, SPL weights each success by shortest/max(shortest,
traveled) and scores failures zero, and Tasks_SR(i) is the fraction of
all sequences whose first i tasks all succeeded, so a sequence of fewer
than i tasks counts as a failure at i.

``run_suite`` executes a (scenario x variant) matrix, optionally across a
process pool, and writes two artifacts: ``results.jsonl`` (one row per
episode, sorted) and ``report.json`` (per-variant aggregates of the
episode results, their action records' oracle fallbacks, reconciled
carriers, unreachable legs and actions per episode among them, and the
name of the prior oracle that ran).  Neither
file contains wall-clock times or other run-dependent values, so reruns
with the same inputs are byte-identical regardless of worker count.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from .graph import build_crsg
from .policy import EpisodeResult, VARIANTS, VariantSpec, run_task
from .priors import CarrierPriorOracle, KeywordPriorOracle
from .scenarios import Scenario, ScenarioError, load_scenario, scenario_name
from .scene import write_json
from .world import GridWorld


class BenchError(RuntimeError):
    pass


def spl(success: bool, shortest: float, traveled: float) -> float:
    """Success weighted by path efficiency; 0 on failure.

    A zero-length shortest path with zero travel counts as a perfect 1.0
    (the robot started on the goal).
    """
    if shortest < 0 or traveled < 0:
        raise BenchError("path lengths must be non-negative")
    if not success:
        return 0.0
    denom = max(shortest, traveled)
    if denom == 0.0:
        return 1.0
    return shortest / denom


def success_rate(results: Sequence[EpisodeResult]) -> float:
    if not results:
        return 0.0
    return sum(1 for r in results if r.success) / len(results)


def mean_spl(results: Sequence[EpisodeResult]) -> float:
    if not results:
        return 0.0
    return sum(spl(r.success, r.shortest, r.traveled) for r in results) / len(results)


def tasks_sr(sequences: Sequence[Sequence[EpisodeResult]]) -> List[float]:
    """Tasks_SR(i): fraction of all sequences whose first i tasks all
    succeed, for i = 1 .. longest sequence.  The denominator is every
    sequence: one of fewer than i tasks counts as a failure at i."""
    if not sequences:
        return []
    depth = max(len(seq) for seq in sequences)
    out = []
    for i in range(1, depth + 1):
        good = 0
        for seq in sequences:
            head = seq[:i]
            if len(head) == i and all(r.success for r in head):
                good += 1
        out.append(good / len(sequences))
    return out


def episode_seed(scenario_name: str, variant: str, task_index: int) -> int:
    """Stable per-episode seed, independent of execution order."""
    digest = hashlib.sha256(
        f"{scenario_name}|{variant}|{task_index}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


def run_sequence(
    scenario: Scenario,
    variant: VariantSpec = VARIANTS["ours"],
    prior: CarrierPriorOracle = KeywordPriorOracle(),
) -> List[EpisodeResult]:
    """Run a scenario's task list in order on one live world.

    The belief graph is built from the scenario's scene, then the events
    displace objects in the world only; the robot pose persists across
    tasks.  Events with trigger ``after-task-<k>`` fire once task k
    (1-based) completes.
    """
    world = GridWorld(scenario.scene, start_pose=scenario.start_pose)
    crsg = build_crsg(scenario.scene, config=scenario.crsg, prior=prior)
    for event in scenario.events_for("before-episode"):
        world.apply_displacement(event, scenario.crsg)
    results = []
    for k, task in enumerate(scenario.tasks):
        rng = Random(episode_seed(scenario.name, variant.name, k))
        result = run_task(
            world,
            crsg,
            task,
            policy_cfg=scenario.policy,
            sensor_cfg=scenario.sensor,
            match_cfg=scenario.match,
            crsg_cfg=scenario.crsg,
            prior=prior,
            variant=variant,
            rng=rng,
            task_index=k,
        )
        results.append(result)
        for event in scenario.events_for(f"after-task-{k + 1}"):
            world.apply_displacement(event, scenario.crsg)
    return results


# --- suite runner


def _episode_row(scenario_name: str, variant: str, r: EpisodeResult) -> dict:
    """One ``results.jsonl`` row; an unreachable target's infinite
    ``shortest`` is ``None`` (JSON ``null``)."""
    return {
        "scenario": scenario_name,
        "variant": variant,
        "task_index": r.task_index,
        "success": r.success,
        "traveled": r.traveled,
        "shortest": r.shortest if math.isfinite(r.shortest) else None,
        "spl": spl(r.success, r.shortest, r.traveled),
        "actions": r.action_count,
    }


def _run_scenario(prior: CarrierPriorOracle, variant_names: Sequence[str],
                  scenario_path: str) -> List[Tuple[str, str, EpisodeResult]]:
    """Every variant's ``(scenario name, variant, result)`` triples on one
    loaded scenario, so the variants share the scene's facts."""
    scenario = load_scenario(scenario_path)
    return [(scenario.name, name, r)
            for name in variant_names
            for r in run_sequence(scenario, VARIANTS[name], prior=prior)]


@dataclass
class SuiteReport:
    rows: List[dict]
    oracle: str
    variants: Dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"episodes": len(self.rows), "oracle": self.oracle, "variants": self.variants}


def _aggregate(results: Sequence[Tuple[str, str, EpisodeResult]]) -> Dict[str, dict]:
    """Per-variant aggregates of ``(scenario name, variant, result)``
    triples sorted by scenario, variant and task index: each scenario's
    results under a variant are one sequence."""
    sequences: Dict[str, Dict[str, List[EpisodeResult]]] = {}
    for scenario, variant, r in results:
        sequences.setdefault(variant, {}).setdefault(scenario, []).append(r)
    out = {}
    for variant, by_scenario in sorted(sequences.items()):
        seqs = list(by_scenario.values())
        flat = [r for seq in seqs for r in seq]
        records = [a for r in flat for a in r.records]
        out[variant] = {"episodes": len(flat), "sr": success_rate(flat),
                        "spl": mean_spl(flat), "tasks_sr": tasks_sr(seqs),
                        "oracle_fallbacks": sum(a.fallback for a in records),
                        "reconciled_carriers": sum(len(a.reconciled) for a in records),
                        "unreachable_legs": sum(a.unreachable for a in records),
                        "mean_actions": len(records) / len(flat)}
    return out


def run_suite(
    scenario_paths: Sequence[str],
    variant_names: Sequence[str] = ("ours",),
    out_dir: Optional[str] = None,
    workers: int = 1,
    prior: CarrierPriorOracle = KeywordPriorOracle(),
) -> SuiteReport:
    """Run every (scenario, variant) pair and aggregate the results.

    Every episode consults ``prior`` (the keyword oracle if not given),
    and the report records its ``name``.  Each scenario file is loaded
    once, and its variants run on it in sorted order; scenarios execute in
    sorted order (or one per pool task across a pool of at most one
    process per file; the output is identical either way).  Two files whose
    scenarios share a name raise ``ScenarioError`` naming both, before any
    episode runs: their rows would merge.  With ``out_dir`` set, writes
    ``results.jsonl`` and ``report.json``.
    """
    for name in variant_names:
        if name not in VARIANTS:
            raise BenchError(f"unknown variant {name!r}; known: {sorted(VARIANTS)}")
    if workers < 1:
        raise BenchError("workers must be >= 1")
    paths = sorted(str(p) for p in scenario_paths)
    variants = sorted(set(variant_names))
    if not paths or not variants:
        raise BenchError("no scenarios to run")

    path_of: Dict[str, str] = {}
    for path in paths:
        name = scenario_name(path)
        if name in path_of:
            raise ScenarioError(f"scenario files {path_of[name]} and {path} "
                                f"share the name {name!r}")
        path_of[name] = path

    run_scenario = functools.partial(_run_scenario, prior, variants)
    workers = min(workers, len(paths))
    if workers == 1:
        chunks = [run_scenario(path) for path in paths]
    else:
        with multiprocessing.Pool(processes=workers) as pool:
            chunks = pool.map(run_scenario, paths, chunksize=1)
    results = sorted((t for chunk in chunks for t in chunk),
                     key=lambda t: (t[0], t[1], t[2].task_index))
    rows = [_episode_row(*t) for t in results]
    report = SuiteReport(rows=rows, oracle=prior.name, variants=_aggregate(results))

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "results.jsonl", "w") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True, allow_nan=False) + "\n")
        write_json(str(out / "report.json"), report.to_dict())
    return report
