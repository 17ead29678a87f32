"""Spans around the program's layer boundaries, installed from outside.

A ``Tracer`` wraps each function of ``SPANS`` at every place the name is
looked up: the class attribute for methods, and every loaded ``carriernav``
module that binds a plain function (``bench.run_task`` as well as
``policy.run_task``).  While installed, each call records a span
``(name, start, end, parent, sequence)`` in memory; ``write`` saves them when
the run ends.  A function that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import json
import logging
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (layer, span name, defining module, attribute path)
SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("planning", "world.shortest_path", "carriernav.world", "GridWorld.shortest_path"),
    ("planning", "world.distance_field", "carriernav.world", "GridWorld.distance_field"),
    ("planning", "world.snap_free_cell", "carriernav.world", "GridWorld.snap_free_cell"),
    ("sensing", "world.travel", "carriernav.world", "GridWorld.travel"),
    ("sensing", "world.observe", "carriernav.world", "GridWorld.observe"),
    ("sensing", "world.carried_observations", "carriernav.world", "GridWorld.carried_observations"),
    ("ground-truth", "world.ground_truth_carried", "carriernav.world", "GridWorld.ground_truth_carried"),
    ("ground-truth", "world.apply_displacement", "carriernav.world", "GridWorld.apply_displacement"),
    ("ground-truth", "world.GridWorld", "carriernav.world", "GridWorld.__init__"),
    ("policy", "policy.run_task", "carriernav.policy", "run_task"),
    ("policy", "policy.init_state", "carriernav.policy", "init_state"),
    ("policy", "policy.decide", "carriernav.policy", "decide"),
    ("policy", "policy.collect_transition_inputs", "carriernav.policy", "collect_transition_inputs"),
    ("policy", "policy.confirmation_scores", "carriernav.policy", "confirmation_scores"),
    ("policy", "priors.rank_carriers", "carriernav.priors", "KeywordPriorOracle.rank_carriers"),
    ("update", "policy.apply_observation_updates", "carriernav.policy", "apply_observation_updates"),
    ("update", "update.match_carrier", "carriernav.update", "match_carrier"),
    ("update", "update.reconcile_carried", "carriernav.update", "reconcile_carried"),
    ("update", "update.apply_update", "carriernav.update", "apply_update"),
    ("graph", "graph.build_crsg", "carriernav.graph", "build_crsg"),
    ("graph", "graph.query_target", "carriernav.graph", "query_target"),
    ("set-up", "scenarios.generate_scenarios", "carriernav.scenarios", "generate_scenarios"),
    ("set-up", "scenarios.load_scenario", "carriernav.scenarios", "load_scenario"),
)

SETUP_SPANS = tuple(s[1] for s in SPANS if s[0] == "set-up")
RUN_SPANS = tuple(s[1] for s in SPANS if s[0] != "set-up")

COUNTERS = (
    "world.shortest_path.unreachable",  # UnreachableGoalError raised
    "world.travel.cells",               # path cells sensed
    "world.travel.kept",                # first sightings kept by travel
    "world.observe.built",              # Observations built by observe
    "policy.actions",                   # actions per episode, Stop included
    "policy.oracle_fallbacks",          # warnings on the carriernav.policy logger
    "update.reconcile_carried.changed",  # non-empty diffs
)


def _count(counts: Dict[str, float], name: str, args, kwargs, result) -> None:
    """Work counters read at the span boundaries where the work happens."""
    if name == "world.travel":
        path = args[1] if len(args) > 1 else kwargs.get("path", ())
        counts["world.travel.cells"] += len(path)
        counts["world.travel.kept"] += len(result.observations)
    elif name == "world.observe":
        counts["world.observe.built"] += len(result)
    elif name == "policy.run_task":
        counts["policy.actions"] += result.action_count
    elif name == "update.reconcile_carried":
        counts["update.reconcile_carried.changed"] += not result.empty


class _FallbackCounter(logging.Handler):
    def __init__(self, counts: Dict[str, float]):
        super().__init__(level=logging.WARNING)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        self.counts["policy.oracle_fallbacks"] += 1


def _resolve(module: str, path: str):
    """(owner, attribute, original) for a class method, or (None, name,
    original) for a module function; None when it no longer exists."""
    mod = sys.modules.get(module)
    if mod is None:
        return None
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(mod, owner_name, None)
        if owner is None or attr not in vars(owner):
            return None
        return owner, attr, vars(owner)[attr]
    if not hasattr(mod, attr):
        return None
    return None, attr, getattr(mod, attr)


class Tracer:
    """Installs span wrappers on demand and keeps what they record."""

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.counts: Dict[str, float] = {c: 0 for c in COUNTERS}
        self.sequence = -1
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._sites: List[Tuple[object, str, object, Callable]] = []
        program = [m for n, m in sorted(sys.modules.items())
                   if n == "carriernav" or n.startswith("carriernav.")]
        for _, name, module, path in SPANS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original)
            if owner is not None:
                self._sites.append((owner, attr, original, wrapper))
                continue
            for mod in program:
                if vars(mod).get(attr) is original:
                    self._sites.append((mod, attr, original, wrapper))
        self._fallbacks = _FallbackCounter(self.counts)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name == "world.shortest_path" and type(exc).__name__ == "UnreachableGoalError":
                    counts["world.shortest_path.unreachable"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.sequence)
            _count(counts, name, args, kwargs, result)
            return result

        span.span_name = name
        return span

    def install(self, only: Optional[Sequence[str]] = None) -> None:
        """Wrap every span, or just the spans named in ``only``."""
        for owner, attr, _, wrapper in self._sites:
            if only is None or wrapper.span_name in only:
                setattr(owner, attr, wrapper)
        logging.getLogger("carriernav.policy").addHandler(self._fallbacks)

    def uninstall(self) -> None:
        logging.getLogger("carriernav.policy").removeHandler(self._fallbacks)
        for owner, attr, original, _ in reversed(self._sites):
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, seq in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "sequence": seq}) + "\n")


class TaskClock:
    """Records when each call of ``owner.attr`` returns (one mark per op).

    Installed around whatever ``owner.attr`` is at install time, so it
    composes with a ``Tracer`` installed first.
    """

    def __init__(self, owner, attr: str):
        self.owner, self.attr = owner, attr
        self._inner = None

    def install(self, marks: List[float]) -> None:
        """Append the return time of each call to ``marks`` until uninstalled."""
        self._inner = getattr(self.owner, self.attr, None)
        if self._inner is None:
            return
        inner = self._inner

        @functools.wraps(inner)
        def clocked(*args, **kwargs):
            result = inner(*args, **kwargs)
            marks.append(perf_counter())
            return result

        setattr(self.owner, self.attr, clocked)

    def uninstall(self) -> None:
        if self._inner is not None:
            setattr(self.owner, self.attr, self._inner)
            self._inner = None


def self_times(spans: Sequence[tuple],
               scales: Optional[Dict[int, float]] = None) -> Dict[str, Tuple[int, float]]:
    """Per span name: (calls, self seconds).

    Self time is a span's duration minus its children's durations.  Spans on
    one thread nest without overlap, so that is exactly the part of the
    interval no child covers.  ``scales`` multiplies the self time of each
    span by the factor of its sequence id (default 1).
    """
    scales = scales or {}
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: Dict[str, Tuple[int, float]] = {}
    for i, (name, t0, t1, _, seq) in enumerate(spans):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + ((t1 - t0) - child[i]) * scales.get(seq, 1.0))
    return out
