"""Kept answers: the facts of the last grid, of the last scene, and of content.

Each derived fact is computed once per change to its inputs.  Three kinds
outlive the world that computed them, and this module is the one home of
the rules that keep and drop them.  It imports nothing from the package.

* Facts of the grid, which no world changes: the read-only occupancy, the
  free-cell graph, its connected components, the snap of every point asked
  for, each source's search and the paths walked on it.  They belong to the
  grid, not the world: every world built on an equal grid (same resolution,
  origin and occupancy, compared by content) shares one :class:`Grid`, so
  the worlds a task sequence builds in one house, one per variant, build
  one graph and search each source once.  The module keeps the facts of
  the last grid built only, and drops them when a world on another grid is
  built, before that grid's graph exists; the worlds alive hold theirs.  Of
  the searches, a grid keeps the latest ``SEARCHES_PER_GRID`` sources read,
  and a path is kept with its source's search and dropped with it.  Sharing
  cannot change a result: a snap and a component label are pure functions
  of the grid, each search is exact at every cell it reads whatever its
  limit, and a path's walk-back reads only cells nearer than its goal, so a
  kept path is the one any later search would give.  An unreachable goal
  is not kept.
* Facts of the scene, which no variant's policy changes: the objects each
  move makes, each leg's sightings, length and final heading, the carrying
  relation, the answers of ``graph.nearest_carrier`` and
  ``update.match_carrier``, and each pairing of
  ``update.reconcile_carried``.  They belong to the scene object, not the
  world: every world and every graph built on the same ``SceneMap`` shares
  one :class:`Scene`, so the six variants' ``run_sequence`` calls on one
  scenario displace its objects once, sense each leg once and ask each
  carrier question once.  The module keeps the facts of the last scene
  built on only, matched by identity, and drops them when a world or graph
  is built on another scene.  Sharing cannot change a result: objects are
  frozen and hashed by identity, configs are frozen and hashed by value,
  and each answer is kept under all its inputs (the instances asked about:
  every object of the world a move or leg starts from, or the object and
  every candidate carrier; the event, or the grid by content and the
  path's cells; the frozen configs), so it is a pure function of its key.
  A move that is rejected (it still re-seats its object) or raises is not
  kept, nor is a leg that raises; a remove makes no new instance.
* Facts of content, which no scene changes: answers that are pure
  functions of plain values (strings, tuples of them and integers), kept
  by :func:`pure_answer`.  Today these are the embeddings
  ``features.text_feature`` makes, one per token sequence and dimension;
  the one each spelling of a text read at a dimension reads: the carrier
  reference, each query's descriptors, each image token compared and each
  object's joined captions; and the tokens of each caption and descriptor
  the keyword oracle reads (``features.text_tokens``).  A small
  vocabulary recurs across scenes, so they belong to the process, not to
  a scene: a new scene drops none of them, and the scenes a run
  generates, loads and queries embed each token sequence once and
  tokenize each text the oracle reads once.  The latest ``TEXTS_KEPT``
  read are kept, the least recently read dropped first.  Sharing cannot
  change a result: the key holds every input, and each answer is frozen.

:func:`release_facts` drops all three: the next world computes its grid's
facts anew, a scene's answers are computed anew (and not kept) until a
world or graph is built again, and each text is embedded anew when next
read.  Worlds alive keep the grid facts they share.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

# Sources whose searches one grid keeps, the least recently read dropped
# first: a long run of scenarios in one house adds sources, and a field costs
# 8 bytes per free cell.  The generated task sequences read at most 10 per
# grid, so none of theirs is dropped.
SEARCHES_PER_GRID = 16

# Facts of content the process keeps, the least recently read dropped
# first: at most 1024 float64 vectors, 2 MB at the default dim of 256 and
# 32 MB at the largest a scene may declare (4096).  The 60 mixed scenes of
# perfbench's graph-queries and their queries read 422 keys (169 token
# sequences, the 217 spellings that read them and the tokens of 36 texts
# the keyword oracle reads), so none of theirs is dropped.
TEXTS_KEPT = 1024


class Grid:
    """The facts of one occupancy grid, shared by every world built on an
    equal grid.  The world that reads one first computes it."""

    def __init__(self, occupancy: np.ndarray, key: tuple):
        self.occupancy = occupancy  # read-only
        self.key = key  # the grid by content: matched, and in the keys of kept legs
        self.graph = None  # (free-cell graph, free-cell index, flat cell per row)
        self.labels: Optional[np.ndarray] = None
        self.snaps: Dict[Tuple[float, float], Tuple[int, int]] = {}
        # source -> (limit, dist, goal cell -> (path cells, length)), the
        # least recently read first
        self.searches: Dict[Tuple[int, int], tuple] = {}

    def keep_search(self, source: Tuple[int, int], search: tuple) -> None:
        """Keep ``search`` as ``source``'s, now the most recently read; past
        ``SEARCHES_PER_GRID`` sources the least recently read is dropped,
        with its paths."""
        self.searches.pop(source, None)
        self.searches[source] = search
        if len(self.searches) > SEARCHES_PER_GRID:
            del self.searches[next(iter(self.searches))]


class Scene:
    """The answers about the object instances of one scene.  A key is its
    kind (``move``, ``leg``, ``carried``, ``carrier``, ``match`` or
    ``reconcile``) and every input of the answer: instances by identity,
    anything else by value, then the frozen config."""

    def __init__(self, scene):
        self.scene = scene
        self.answers: Dict[tuple, object] = {}


_grid: Optional[Grid] = None
_scene: Optional[Scene] = None
# key -> answer of content, the least recently read first
_pure: Dict[tuple, object] = {}
_UNKNOWN = object()


def keep_grid(occupancy: np.ndarray, resolution: float, origin: np.ndarray) -> Grid:
    """The kept grid's facts if they describe this grid, else new facts
    that replace them.  The new graph is built on the first read, so the
    last grid's graph is gone by then unless a live world holds it."""
    global _grid
    key = (resolution, tuple(origin.tolist()), occupancy.shape, occupancy.tobytes())
    if _grid is None or _grid.key != key:
        _grid = Grid(occupancy, key)
    return _grid


def keep_scene(scene) -> None:
    """Keep ``scene``'s answers: the kept ones if they are this scene's (the
    same object), else new ones that replace them."""
    global _scene
    if _scene is None or _scene.scene is not scene:
        _scene = Scene(scene)


def answer(key: tuple, compute: Callable, *args):
    """The kept answer for ``key``, else ``compute(*args)``, kept when it
    returns.  With no scene kept, nothing is kept."""
    scene = _scene
    if scene is None:
        return compute(*args)
    found = scene.answers.get(key, _UNKNOWN)
    if found is _UNKNOWN:
        found = scene.answers[key] = compute(*args)
    return found


def pure_answer(key: tuple, compute: Callable, *args):
    """The kept answer for ``key``, else ``compute(*args)``, kept when it
    returns; either way now the most recently read.  ``key`` is its kind
    (``text`` or ``spelling``) and every input of the answer, all plain
    values.  Past ``TEXTS_KEPT`` answers the least recently read is dropped."""
    found = _pure.pop(key, _UNKNOWN)
    if found is _UNKNOWN:
        found = compute(*args)
    _pure[key] = found
    if len(_pure) > TEXTS_KEPT:
        del _pure[next(iter(_pure))]
    return found


def release_facts() -> None:
    """Drop the kept grid's facts, the kept scene's answers and the kept
    answers of content."""
    global _grid, _scene
    _grid = _scene = None
    _pure.clear()
