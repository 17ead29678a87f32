"""The benchmark's per-layer trace must keep up with the program.

``perfbench/layers.py`` wraps program functions by name and reports a name
it cannot find as an absent span.  A refactor that drops or renames a
traced function must fail here, not only move a benchmark counter.
"""

import sys
from pathlib import Path

import carriernav  # noqa: F401  (loads every module the span table names)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402


def test_every_traced_layer_exists():
    assert layers.Tracer().absent == []
