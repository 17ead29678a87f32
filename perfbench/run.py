"""carriernav benchmark: one workload per run, inputs generated from a seed.

Run from the repository root:

    python3 perfbench/run.py --workload ablation-0.25m --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` next to this directory.  A run sets the
workload up several times (scenario files generated, then loaded), runs whole
passes over its batches for ``--seconds``, checks every result, and prints one
line per metric followed by a JSON summary as the last line.  ``--trace 1``
runs every batch untraced and then traced, and reports per-layer metrics
instead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import heapq
import json
import logging
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import layers  # noqa: E402

MODES = ("mixed", "single", "probe")
ALL_VARIANTS = ("ours", "ours-Text", "ours-LLM", "only-carriers_Random",
                "only-carriers_LLM", "no-update")
SETUP_REPEATS = 3
SETUP_PROBES = 5        # host probes around each set-up step
MIN_PASSES = 2          # every batch runs at least twice, so repeats are checked
MIN_SAMPLES = 100       # op latencies, so at least 10 lie beyond p90
MIN_QUERY_ACCURACY = 0.99  # acceptance criterion 4 allows 99/100
# Host-speed probe time that timings are scaled to (about its median on a
# 2-core Xeon at 2.1 GHz with the host's usual load).
PROBE_REF_S = 0.002


@dataclass(frozen=True)
class Workload:
    kind: str                # "episodes" or "queries"
    resolution: float        # scene grid, m
    counts: Dict[str, int]   # scenarios per generator mode
    variants: Tuple[str, ...] = ()


WORKLOADS: Dict[str, Workload] = {
    "ablation-0.25m": Workload("episodes", 0.25, {"mixed": 8, "single": 8, "probe": 8},
                               ALL_VARIANTS),
    "fine-0.05m": Workload("episodes", 0.05, {"single": 4, "probe": 8}, ("ours",)),
    "graph-queries": Workload("queries", 0.25, {"mixed": 60}),
}


def import_program():
    if not (SRC / "carriernav" / "__init__.py").is_file():
        raise ImportError(f"no carriernav package under {SRC}")
    sys.path.insert(0, str(SRC))
    from carriernav import bench, graph, policy, scenarios
    return bench, graph, policy, scenarios


@functools.lru_cache(maxsize=1)
def _probe_graph() -> csr_matrix:
    """A 60 x 60 4-connected grid graph with unit weights."""
    idx = np.arange(3600).reshape(60, 60)
    rows = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    cols = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    return csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(3600, 3600))


def host_probe() -> float:
    """Seconds for a fixed mix of work like the program's, about 2 ms: a
    pure-Python grid search, a scipy Dijkstra and a deep copy of cells.

    The host is shared: its speed for this process drifts by tens of percent
    within minutes.  Every timing is scaled by ``PROBE_REF_S / host_probe()``
    measured next to it, which cancels that drift while keeping any change
    in the program's own speed.
    """
    graph = _probe_graph()
    cells = [(i, j) for i in range(20) for j in range(10)]
    t0 = perf_counter()
    n = 20
    dist = {(0, 0): 0.0}
    heap = [(0.0, (0, 0))]
    while heap:
        d, (x, y) = heapq.heappop(heap)
        if d > dist[(x, y)]:
            continue
        for dx, dy, w in ((1, 0, 1.0), (0, 1, 1.0), (-1, 0, 1.0), (0, -1, 1.0),
                          (1, 1, 1.4142135623730951)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < n and 0 <= ny < n and d + w < dist.get((nx, ny), 1e18):
                dist[(nx, ny)] = d + w
                heapq.heappush(heap, (d + w, (nx, ny)))
    dijkstra(graph, directed=False, indices=0)
    copy.deepcopy(cells)
    return perf_counter() - t0


def speed_scale(probes: int = 1) -> float:
    return PROBE_REF_S / statistics.median(host_probe() for _ in range(probes))


@dataclass
class Batch:
    """One unit of work: a ``run_sequence`` call, or one graph built and queried."""

    key: str
    mode: str
    ops: int
    run: Callable[[List[float]], list]  # appends one mark per op, returns result rows
    check: Callable[[list], List[str]]  # broken invariants of the rows


@dataclass
class Timing:
    batch: int            # index into the batch list
    seconds: float        # raw wall time
    latencies: List[float]
    scale: float          # host-speed scale measured just before the run


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    passes: int = 0
    errors: List[str] = field(default_factory=list)
    reference: Dict[str, list] = field(default_factory=dict)  # rows of each batch's first run
    untraced: List[Timing] = field(default_factory=list)
    traced: List[Timing] = field(default_factory=list)
    scales: Dict[int, float] = field(default_factory=dict)  # host scale per trace sequence

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        if len(self.errors) < 5:
            self.errors.append(message)


def set_up(wl: Workload, seed: int, work: Path, scenarios) -> Tuple[float, float, list, str]:
    """Generate the workload's scenario files and load them back.

    Returns (seconds, scaled seconds, scenarios in file order, digest of the
    files).  Each step (one mode's generation, then the loading) is scaled
    by the mean host scale probed right before and after it.
    """
    shutil.rmtree(work, ignore_errors=True)
    raw = scaled = 0.0
    paths: List[Path] = []
    loaded: list = []

    def generate(mode: str, count: int) -> None:
        out = work / mode
        scenarios.generate_scenarios(mode, count, seed, out_dir=str(out),
                                     resolution=wl.resolution)
        paths.extend(sorted(out.glob("scenario_*.json")))

    def load() -> None:
        loaded.extend(scenarios.load_scenario(str(p)) for p in paths)

    steps = [lambda m=m, c=c: generate(m, c) for m, c in wl.counts.items()] + [load]
    before = speed_scale(SETUP_PROBES)
    for step in steps:
        t0 = perf_counter()
        step()
        seconds = perf_counter() - t0
        after = speed_scale(SETUP_PROBES)
        raw += seconds
        scaled += seconds * (before + after) / 2.0
        before = after
    h = hashlib.sha256()
    for p in sorted(work.rglob("*.json")):
        h.update(str(p.relative_to(work)).encode() + b"\0" + p.read_bytes())
    return raw, scaled, loaded, h.hexdigest()


def episode_batches(wl: Workload, loaded: list, bench, graph, policy) -> List[Batch]:
    """(scenario, variant) batches, modes interleaved."""
    by_mode = {m: [s for s in loaded if s.mode == m] for m in MODES}
    clock = layers.TaskClock(bench, "run_task")
    batches = []
    for i in range(max(wl.counts.values())):
        for mode in MODES:
            if i >= len(by_mode[mode]):
                continue
            scn = by_mode[mode][i]
            n_carriers = len(graph.build_crsg(scn.scene, scn.crsg).carriers)
            for variant in wl.variants:
                batches.append(Batch(
                    key=f"{scn.name}|{variant}", mode=mode, ops=len(scn.tasks),
                    run=_sequence_runner(bench, clock, scn, policy.VARIANTS[variant]),
                    check=_episode_checker(bench, n_carriers)))
    return batches


def _sequence_runner(bench, clock, scn, variant):
    def run(marks: List[float]) -> list:
        clock.install(marks)
        try:
            results = bench.run_sequence(scn, variant)
        finally:
            clock.uninstall()
        return [(r.task_index, r.success, r.traveled, r.shortest, r.action_count)
                for r in results]
    return run


def _episode_checker(bench, n_carriers: int):
    def check(rows: list) -> List[str]:
        problems = []
        for k, success, traveled, shortest, actions in rows:
            try:
                value = bench.spl(success, shortest, traveled)
            except bench.BenchError as exc:  # a negative length is a broken invariant
                problems.append(f"task {k}: spl raised {exc!r}")
                continue
            problems += [f"task {k}: {p}" for p in checks.episode_problems(
                success, traveled, shortest, actions, n_carriers, value)]
        return problems
    return check


def query_batches(loaded: list, graph) -> List[Batch]:
    """One batch per scene: build its graph, then a plain, a carrier-scoped
    and an image query for every carried object."""
    batches = []
    for scn in loaded:
        crsg = graph.build_crsg(scn.scene, scn.crsg)
        plan = []
        for cid in sorted(crsg.carriers):
            node = crsg.carriers[cid]
            for oid in sorted(node.carried):
                text = node.carried[oid].captions[0]
                plan += [(graph.Query(text=text), oid),
                         (graph.Query(text=text, carrier_text=node.object.captions[0]), oid),
                         (graph.Query(image="img:" + text.replace(" ", "_")), oid)]
        if plan:
            batches.append(Batch(key=scn.name, mode="graph", ops=len(plan),
                                 run=_query_runner(graph, scn, plan),
                                 check=_query_checker))
    return batches


def _query_runner(graph, scn, plan):
    def run(marks: List[float]) -> list:
        crsg = graph.build_crsg(scn.scene, scn.crsg)
        rows = []
        for query, expected in plan:
            try:
                obj, score = graph.query_target(crsg, query)
                rows.append((expected, obj.id, score))
            except graph.QueryError as exc:
                rows.append((expected, None, repr(exc)))
            marks.append(perf_counter())
        return rows
    return run


def _query_checker(rows: list) -> List[str]:
    return [f"query for {expected} raised {err}" for expected, got, err in rows if got is None]


def run_once(i: int, batch: Batch, tally: Tally) -> Optional[Timing]:
    """Run a batch and check it against its first run; None when it raised."""
    scale = speed_scale()
    marks: List[float] = []
    t0 = perf_counter()
    try:
        rows = batch.run(marks)
    except Exception as exc:
        tally.attempted += batch.ops
        tally.fail(batch.ops, f"{batch.key}: {exc!r}")
        return None
    t1 = perf_counter()
    tally.attempted += len(rows)
    problems = batch.check(rows)
    if problems:
        tally.fail(len(problems), f"{batch.key}: {problems[0]}")
    if rows != tally.reference.setdefault(batch.key, rows):
        tally.mismatches += 1
        tally.fail(0, f"{batch.key}: results differ from its first run")
    return Timing(i, t1 - t0, checks.op_latencies(t0, t1, marks, len(rows)), scale)


def measure(batches: List[Batch], seconds: float, tracer: Optional[layers.Tracer]) -> Tally:
    """Warm up on the first batch of each mode, then run whole passes over
    all batches until ``seconds`` have passed, at least ``MIN_PASSES`` and
    ``MIN_SAMPLES`` ops.  With a tracer, each batch runs untraced and then
    traced."""
    tally = Tally()
    for mode in sorted({b.mode for b in batches}):
        run_once(0, next(b for b in batches if b.mode == mode), Tally())
    start = perf_counter()
    samples = 0
    while tally.passes < MIN_PASSES or samples < MIN_SAMPLES or perf_counter() - start < seconds:
        for i, batch in enumerate(batches):
            timing = run_once(i, batch, tally)
            if timing is not None:
                tally.untraced.append(timing)
                samples += len(timing.latencies)
            if tracer is None:
                continue
            tracer.sequence = tally.passes * len(batches) + i
            tracer.install(layers.RUN_SPANS)
            try:
                timing = run_once(i, batch, tally)
            finally:
                tracer.uninstall()
            if timing is not None:
                tally.traced.append(timing)
                tally.scales[tracer.sequence] = timing.scale
        tally.passes += 1
    return tally


def suite_problems(bench, wl: Workload, scenario_file: Path, work: Path, tally: Tally) -> List[str]:
    """``run_suite`` on one scenario file, twice: its artifacts must be
    byte-identical (no timing leaks in) and agree with the measured rows."""
    outs = []
    for name in ("a", "b"):
        bench.run_suite([str(scenario_file)], wl.variants, out_dir=str(work / name))
        outs.append({f: (work / name / f).read_bytes() for f in ("results.jsonl", "report.json")})
    problems = []
    if outs[0] != outs[1]:
        problems.append("run_suite artifacts differ between two identical runs")
    for line in outs[0]["results.jsonl"].decode().splitlines():
        row = json.loads(line)
        ref = tally.reference.get(f"{row['scenario']}|{row['variant']}")
        got = (row["task_index"], row["success"], row["traveled"], row["shortest"], row["actions"])
        if ref is None or got not in ref:
            problems.append(f"run_suite row {got} of {row['scenario']}|{row['variant']} "
                            f"not among the measured results")
    return problems


def quality(wl: Workload, tally: Tally, bench) -> Tuple[float, float, int]:
    """(sr, spl, op count) over one run of every batch."""
    rows = [r for key in sorted(tally.reference) for r in tally.reference[key]]
    if wl.kind == "episodes":
        succ = [r[1] for r in rows]
        spls = [bench.spl(r[1], r[3], r[2]) for r in rows]
    else:
        # a query travels no path, so bench.spl scores a hit 1 and a miss 0
        succ = [r[0] == r[1] for r in rows]
        spls = [bench.spl(s, 0.0, 0.0) for s in succ]
    n = max(len(rows), 1)
    return sum(succ) / n, sum(spls) / n, len(rows)


def results_digest(tally: Tally) -> str:
    return checks.digest([(key, *row) for key in sorted(tally.reference)
                          for row in tally.reference[key]])


def scaled_rate(timings: List[Timing]) -> float:
    ops = sum(len(t.latencies) for t in timings)
    return ops / sum(t.seconds * t.scale for t in timings)


def end_to_end(tally: Tally, setup_s: float, sr: float, spl: float) -> Dict[str, tuple]:
    lat_ms = [x * t.scale * 1000.0 for t in tally.untraced for x in t.latencies]
    return {
        "ops_per_s": (scaled_rate(tally.untraced), "1/s"),
        "op_ms.p50": (checks.percentile(lat_ms, 50), "ms"),
        "op_ms.p90": (checks.percentile(lat_ms, 90), "ms"),
        "sr": (sr, "fraction"),
        "spl": (spl, "fraction"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer: layers.Tracer, tally: Tally, batches: List[Batch],
              n_setups: int) -> Dict[str, tuple]:
    times = layers.self_times(tracer.spans, tally.scales)
    ops = max(sum(len(t.latencies) for t in tally.traced), 1)
    out: Dict[str, tuple] = {}
    for names, per, unit in ((layers.RUN_SPANS, ops, "op"), (layers.SETUP_SPANS, n_setups, "setup")):
        for name in names:
            calls, self_s = times.get(name, (0, 0.0))
            out[f"{name}.calls"] = (calls / per, f"1/{unit}")
            out[f"{name}.self_ms"] = (self_s * 1000.0 / per, f"ms/{unit}")
    c = tracer.counts
    out["world.shortest_path.unreachable"] = (c["world.shortest_path.unreachable"] / ops, "1/op")
    out["world.travel.cells"] = (c["world.travel.cells"] / ops, "1/op")
    out["world.observe.fresh_ratio"] = (
        c["world.travel.kept"] / c["world.observe.built"] if c["world.observe.built"] else 0.0,
        "fraction")
    out["policy.actions"] = (c["policy.actions"] / ops, "1/op")
    out["policy.oracle_fallbacks"] = (c["policy.oracle_fallbacks"] / ops, "1/op")
    reconciled = times.get("update.reconcile_carried", (0, 0.0))[0]
    out["update.reconcile_carried.changed_ratio"] = (
        c["update.reconcile_carried.changed"] / reconciled if reconciled else 0.0, "fraction")
    for mode in MODES:
        runs = [t for t in tally.untraced if batches[t.batch].mode == mode]
        out[f"bench.run_sequence.{mode}.ms_per_episode"] = (
            1000.0 / scaled_rate(runs) if runs else 0.0, "ms/op")
    # each traced run follows its untraced twin, so the two see the same host
    raw = sum(t.seconds for t in tally.untraced)
    out["trace.overhead_ratio"] = (sum(t.seconds for t in tally.traced) / raw - 1.0, "fraction")
    out["trace.absent_spans"] = (len(tracer.absent), "count")
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        bench, graph, policy, scenarios = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    # the traced run counts the policy's fallback warnings; keep them off stderr
    logging.getLogger("carriernav").addHandler(logging.NullHandler())

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}"
    tracer = layers.Tracer() if args.trace else None
    try:
        setup_raw, setup_scaled, digests = [], [], set()
        setup_scales: Dict[int, float] = {}
        for r in range(SETUP_REPEATS):
            if tracer is not None:
                tracer.sequence = -1 - r
                tracer.install(layers.SETUP_SPANS)
            try:
                seconds, scaled, loaded, files = set_up(wl, args.seed, work / f"setup{r}", scenarios)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            setup_raw.append(seconds)
            setup_scaled.append(scaled)
            setup_scales[-1 - r] = scaled / seconds
            digests.add(files)

        if wl.kind == "episodes":
            batches = episode_batches(wl, loaded, bench, graph, policy)
        else:
            batches = query_batches(loaded, graph)
        tally = measure(batches, args.seconds, tracer)
        tally.scales.update(setup_scales)

        problems = list(tally.errors)
        if len(digests) != 1:
            problems.append("set-up repeats wrote different scenario files")
        if wl.kind == "episodes":
            first = work / f"setup{SETUP_REPEATS - 1}" / next(iter(wl.counts)) / "scenario_0000.json"
            try:
                problems += suite_problems(bench, wl, first, work / "suite", tally)
            except Exception as exc:
                problems.append(f"run_suite raised {exc!r}")
        sr, spl, n_ref = quality(wl, tally, bench)
        if wl.kind == "queries" and sr < MIN_QUERY_ACCURACY:
            problems.append(f"query accuracy {sr:.4f} below {MIN_QUERY_ACCURACY}")
        correct = not problems and tally.failed == 0 and tally.mismatches == 0

        raw_ops = sum(len(t.latencies) for t in tally.untraced)
        raw_s = sum(t.seconds for t in tally.untraced)
        print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
              f"{len(batches)} batches x {tally.passes} passes, {n_ref} distinct ops")
        print(f"# results digest {results_digest(tally)}")
        print(f"# unscaled: {raw_ops / raw_s:.6g} ops/s, set-up runs "
              f"{', '.join(f'{s:.3f}' for s in setup_raw)} s; median host scale "
              f"{statistics.median(t.scale for t in tally.untraced):.4f}")
        for p in problems:
            print(f"# problem: {p}")
        if tracer is None:
            metrics = end_to_end(tally, statistics.median(setup_scaled), sr, spl)
            lat = [x * t.scale for t in tally.untraced for x in t.latencies]
            print(f"# op_ms samples {len(lat)}, beyond p90 {checks.tail_samples(lat, 90)}")
        else:
            metrics = per_layer(tracer, tally, batches, SETUP_REPEATS)
            spans_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write(str(spans_file))
            print(f"# {len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}; "
                  f"absent spans: {', '.join(tracer.absent) or 'none'}")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        print(json.dumps({
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
