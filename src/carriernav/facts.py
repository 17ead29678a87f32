"""Kept answers: of the last grid, of the last scene, and of content.

Each derived fact is computed once per change to its inputs.  Three kinds
outlive the world that computed them, and this module is the one home of
the rules that keep and drop them.  It imports nothing from the package.

* The last grid's planner (``carriernav.planning``), which no world
  changes, kept by :func:`keep_grid` and matched by the grid's content; the
  planner's module says what it keeps and why sharing it cannot change a
  result.  It is dropped when a world on another grid is built, before that
  grid's facts exist; the worlds alive hold theirs.
* Facts of the scene, which no variant's policy changes: the graph's
  construction funnel (its carriers, each carrier's room and carried
  objects, and the orphans, as tuples), kept per (the scene's objects and
  rooms, config, oracle instance), the objects each move makes, each
  leg's sightings, length and final heading, the carrying relation, the
  answers of ``graph.nearest_carrier``, each match of
  ``update.match_carrier``, kept per (sighting, the graph's carrier table,
  config), and each pairing of ``update.reconcile_carried``.  They belong
  to the scene object, not the world: every world and every graph built on
  the same ``SceneMap`` shares one :class:`Scene`, so the six variants'
  ``run_sequence`` calls on one scenario run the funnel once, displace its
  objects once, sense each leg once and ask each carrier question once;
  each graph still gets its own carried dicts and orphan dict, so one
  variant's updates reach no other's graph.  The module keeps the
  facts of the last scene built on only, matched by identity, and drops
  them when a world or graph is built on another scene.  Sharing cannot
  change a result: objects and rooms are frozen and hashed by identity,
  configs are frozen and hashed by value, and each answer is kept under
  all its inputs (the instances asked about: the scene's objects and rooms,
  every object of the world a move or leg starts from, the object and
  every candidate carrier, or the sighting and the graph's read-only
  carrier table, fixed at build; the event, or the grid by content and the
  path's cells; the frozen configs; the prior oracle, by identity, which
  the callers that run a scenario's variants pass as one instance), so it
  is a pure function of its key.  An answer whose computation raises (a
  funnel whose oracle fails, a move, a leg) is not kept; a remove makes no
  new instance.
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

:func:`release_facts` drops all three: the next world gets a new planner,
which computes its grid's facts anew, a scene's answers are computed anew
(and not kept) until a world or graph is built again, and each text is
embedded anew when next read.  Worlds alive keep the planner they share.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

# Facts of content the process keeps, the least recently read dropped
# first: at most 1024 float64 vectors, 2 MB at the default dim of 256 and
# 32 MB at the largest a scene may declare (4096).  The 60 mixed scenes of
# perfbench's graph-queries and their queries read 422 keys (169 token
# sequences, the 217 spellings that read them and the tokens of 36 texts
# the keyword oracle reads), so none of theirs is dropped.
TEXTS_KEPT = 1024


class Scene:
    """The answers about the object instances of one scene.  A key is its
    kind (``funnel``, ``move``, ``leg``, ``carried``, ``carrier``, ``match``
    or ``reconcile``) and every input of the answer: instances by identity,
    anything else by value, then the frozen config (and for ``funnel`` the
    prior oracle, by identity)."""

    def __init__(self, scene):
        self.scene = scene
        self.answers: Dict[tuple, object] = {}


_grid: Optional[tuple] = None  # (key, the last grid's planner)
_scene: Optional[Scene] = None
# key -> answer of content, the least recently read first
_pure: Dict[tuple, object] = {}
_UNKNOWN = object()


def keep_grid(key: tuple, build: Callable[[], object]):
    """The kept grid's planner if it was kept under ``key``, else
    ``build()``, kept under ``key`` in its place."""
    global _grid
    if _grid is None or _grid[0] != key:
        _grid = (key, build())
    return _grid[1]


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
    """Drop the kept grid's planner, the kept scene's answers and the kept
    answers of content."""
    global _grid, _scene
    _grid = _scene = None
    _pure.clear()
