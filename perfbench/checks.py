"""Arithmetic and correctness checks of the benchmark, kept free of I/O.

- ``percentile`` and ``tail_samples``: the percentile rule used for every
  reported latency, and how many samples lie beyond a percentile;
- ``op_latencies``: split a batch's wall time into one latency per op;
- ``episode_problems``: the per-episode invariants of the acceptance gate;
- ``digest``: a stable hash of per-op results, compared across repeats.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import List, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of all samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def tail_samples(samples: Sequence[float], q: float) -> int:
    """Number of samples strictly above the ``q`` percentile."""
    cut = percentile(samples, q)
    return sum(1 for s in samples if s > cut)


def op_latencies(start: float, end: float, marks: Sequence[float], n_ops: int) -> List[float]:
    """Latency of each op in one batch, in seconds.

    ``marks`` are the times each op returned.  Op k waits from the previous
    op's return (the batch start for the first op) until it returns; the last
    op also carries whatever the batch does after it.  The latencies
    therefore sum to the batch time.  Without one mark per op the batch time
    is split evenly.
    """
    if n_ops < 1:
        raise ValueError("a batch has at least one op")
    if len(marks) != n_ops:
        return [(end - start) / n_ops] * n_ops
    bounds = [start, *marks[:-1], end]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def episode_problems(success: bool, traveled: float, shortest: float,
                     actions: int, n_carriers: int, spl_value: float) -> List[str]:
    """Broken invariants of one episode; empty when it is sound.

    An episode takes at most |carriers| + 1 actions (every non-Stop action
    retires a carrier), its SPL lies in [0, 1], and a success has finite,
    non-negative path lengths.  A failed navigation is not a problem.
    """
    problems = []
    if actions > n_carriers + 1:
        problems.append(f"{actions} actions exceed the budget of {n_carriers + 1}")
    if not (0.0 <= spl_value <= 1.0):
        problems.append(f"spl {spl_value!r} outside [0, 1]")
    if success and not (0.0 <= shortest < math.inf and 0.0 <= traveled < math.inf):
        problems.append(f"success with lengths shortest={shortest!r} traveled={traveled!r}")
    return problems


def digest(rows: Sequence[Sequence]) -> str:
    """Order-sensitive SHA-256 of result rows (floats by repr, so exact)."""
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps([repr(x) if isinstance(x, float) else x for x in row]).encode())
        h.update(b"\n")
    return h.hexdigest()
