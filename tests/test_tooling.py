"""Checks that tooling keeps up with the program.

``perfbench/layers.py`` wraps program functions by name and reports a name
it cannot find as an absent span.  A refactor that drops or renames a
traced function must fail here, not only move a benchmark counter.  So must
one that routes calls around a traced function (a memo outside it, say), so
a run must record a call of every span that has a caller.

The scene and scenario files are read by one annotation-driven reader.  A
field whose annotation that reader does not handle must fail here, not on
a user's file.

Every JSON file is written by ``scene.write_json``.  A writer that calls
``json.dump`` or passes ``indent=`` brings back the pure-Python encoder and
must fail here.

Every answer a scene's facts keep is checked against the rule it replaced
by ``conftest.assert_every_kept_answer_is_its_rule``, one check per kind of
key.  A new kind of kept answer without its check must fail here.  Every
later reader shares a kept answer, so the check also fails on any writable
array the answer holds.

Kept-answer keys hold the configs, rooms, events and the world's objects
themselves, and holders share poses without copying them.  A config, pose,
room or displacement event that can be changed in place must fail here, and
so must a world whose object table can.  Only ``GridWorld._set_objects``
writes that table and its items, the objects part of those keys, so a
displacement that raises changes nothing; a write anywhere else in
``world.py`` must fail here.  The graph's carrier table is read-only and
fixed when the graph is built, and its one ``carrier_objects`` tuple is
the carrier part of every match key: a write of ``.carriers`` or of an
item of it, or a tuple built from it, anywhere but ``Crsg.__post_init__``
must fail here.  So must a policy value (a candidate, action,
state, transition input, leg or episode result): a state, the action
decided on it and the next state share them, so none may hold a list,
dict, set or writable array at any depth.

``features.cosine`` is the one similarity rule: it skips the dot product of
two features that share no bucket.  A dot product of feature vectors
anywhere else in the package bypasses that rule and must fail here.  So
``scene.distance`` is the one distance rule: a ``numpy.linalg.norm`` read
anywhere in the package must fail here.

Planning is ``planning.py``, and it reads nothing of the package but the
kept-grid rule of ``facts`` and the distance rule ``scene.distance``: a
second import from the package must fail here.  A distance read is the
length of the path the robot would walk, so no raw search float leaves the
planner: a search's distance array is read only by ``Planner._answers``,
which tells ``Planner._search`` whether a search answers a goal, and
``Planner._walk_back``, which walks a path over it.  A read of it anywhere
else in ``planning.py`` must fail here.

Planning has one site for each of its rules in ``planning.py``: only the
graph builder (``Planner._node_graph``) constructs a ``csr_matrix`` of
cells, whatever cells a search may cross, only the component labels
(``Planner._labels``) construct one from (data, (rows, cols)) pairs, the
graph of their runs, and call ``connected_components``, only
``Planner._search`` calls ``dijkstra`` and only the move table
(``Planner.moves``) tests a diagonal's two orthogonal cells (the corner
rule).  A second site of any of them must fail here.

No module of the package imports ``scipy.ndimage``: its import alone adds
about 5 MB of resident memory, which the component labels, the one place
that might use it, do without.

A graph's construction funnel is a kept answer of the scene's facts,
``graph._funnel``, and it is the one caller of the funnel's first two
stages: a second site of ``select_carrier_candidates`` or
``filter_by_prior`` anywhere in the package is a second construction path
beside the kept one and must fail here.

An episode records each action at one site: ``run_task``'s ``record``, the
one construction of ``policy.ActionRecord``.  A second construction, a
call or a reference that calls it later, gives an action a record of its
own and must fail here.

The package exposes only what its program reads: its submodules are the
API, and each public module-level function and public method is read by
some module of the package outside its own definition.  A public name
that only tests, perfbench or a docstring reads must fail here, unless
``UNREAD_PUBLIC_NAMES`` names it with its reason; a test's reference
implementation belongs in ``tests/oracles.py``.
"""

import ast
import dataclasses
import sys
from collections import Counter
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np
import pytest

from carriernav.bench import run_sequence  # loads every module the span table names
from carriernav.features import Feature
from carriernav.graph import build_crsg
from carriernav.policy import (VARIANTS, ActionRecord, CandidateTarget, EpisodeResult, Leg,
                               NavAction, NavState, Task, TransitionInputs)
from carriernav.scene import Room, _SceneFile, _schema, scene_from_dict
from carriernav.scenarios import EventSpec, _ScenarioFile, build_scenario
from carriernav.world import DisplacementEvent, GridWorld, Observation, Pose
from conftest import KEPT_ANSWER_CHECKS, obj_dict, scene_dict, writable_arrays

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402


def test_every_traced_layer_exists():
    assert layers.Tracer().absent == []


def test_every_traced_layer_is_called():
    # world.observe has no caller in the program, only tests and perfbench.
    # world.snap_free_cell's one caller is the check that ends a direct leg
    # to a carrier or orphan target, which no generated task makes, so the
    # run ends with a task whose target is a carrier
    sc = build_scenario("mixed", 0, 3)
    carrier = sc.scene.objects[min(build_crsg(sc.scene, sc.crsg).carriers)]
    sc = dataclasses.replace(sc, tasks=[*sc.tasks, Task(carrier.captions[0], carrier.id)])
    tracer = layers.Tracer()
    tracer.install(layers.RUN_SPANS)
    try:
        run_sequence(sc, VARIANTS["ours"])
    finally:
        tracer.uninstall()
    called = {span[0] for span in tracer.spans}
    assert [name for name in layers.RUN_SPANS if name not in called] == ["world.observe"]


SCALARS = (str, int, float, bool)


def _kind(hint):
    """What the file reader must do with annotation ``hint``, or None."""
    origin, args = get_origin(hint), get_args(hint)
    if hint in SCALARS:
        return "scalar"
    if dataclasses.is_dataclass(hint):
        return "record"
    if origin is Union and len(args) == 2 and type(None) in args:
        return "optional"
    if origin is Union and all(a in SCALARS + (type(None),) for a in args):
        return "union of scalars"
    if origin is list and len(args) == 1:
        return "list"
    if origin is tuple and args and Ellipsis not in args:
        return "fixed-length tuple"
    return None


def test_the_file_reader_handles_every_annotation():
    seen, kinds, todo = set(), set(), [_SceneFile, _ScenarioFile]
    while todo:
        hint = todo.pop()
        kind = _kind(hint)
        assert kind is not None, f"the file reader has no rule for {hint!r}"
        kinds.add(kind)
        if kind == "record":
            if hint in seen:
                continue
            seen.add(hint)
            _schema(hint)  # builds every field's reader
            hints = get_type_hints(hint)
            todo += [hints[f.name] for f in dataclasses.fields(hint) if f.init]  # the keys a file may name
        elif kind != "union of scalars":
            todo += [a for a in get_args(hint) if a is not type(None)]
    assert {"SensorConfig", "PolicyConfig", "CrsgConfig", "MatchConfig", "Task",
            "EventSpec", "_SceneObject", "_SceneBox", "_SceneGrid"} <= {c.__name__ for c in seen}
    assert kinds == {"scalar", "record", "optional", "union of scalars", "list",
                     "fixed-length tuple"}


def pure_encoder_calls(source: str) -> list:
    """``(line, what)`` of each ``json.dump(`` call and ``indent=`` keyword
    in module ``source`` outside the body of ``write_json``."""
    tree = ast.parse(source)
    allowed = {id(node) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == "write_json"
               for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in allowed:
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "dump"
                and isinstance(func.value, ast.Name) and func.value.id == "json"):
            found.append((node.lineno, "json.dump("))
        found += [(node.lineno, "indent=") for kw in node.keywords if kw.arg == "indent"]
    return found


def test_every_json_file_is_written_by_write_json():
    modules = sorted((ROOT / "src" / "carriernav").glob("*.py"))
    assert len(modules) > 10
    found = {p.name: pure_encoder_calls(p.read_text()) for p in modules}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_the_writer_guard_sees_pure_encoder_calls():
    source = ("import json\n"
              "def write_json(path, tree):\n    json.dumps(tree, indent=2)\n"
              "def save(fh, tree):\n    json.dump(tree, fh)\n    return json.dumps(tree, indent=1)\n")
    assert pure_encoder_calls(source) == [(5, "json.dump("), (6, "indent=")]


ANSWER_CALLS = {"answer", "pure_answer"}


def is_answer_call(call: ast.Call) -> bool:
    """Whether ``call`` asks the facts module for a kept answer:
    ``facts.answer(...)``, ``facts.pure_answer(...)`` or either bare."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in ANSWER_CALLS
    return (isinstance(func, ast.Attribute) and func.attr in ANSWER_CALLS
            and isinstance(func.value, ast.Name) and func.value.id == "facts")


def kept_answer_kinds(source: str) -> tuple:
    """(kinds, lines): the kind, the leading string, of each key literal
    that reaches a kept-answer call (:func:`is_answer_call`) in module
    ``source``, as its first argument or through a name assigned in the
    same function, and the line of each call whose key is neither."""
    kinds, unresolved = set(), []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        assigned = {target.id: node.value for node in ast.walk(fn)
                    if isinstance(node, ast.Assign) for target in node.targets
                    if isinstance(target, ast.Name)}
        for call in ast.walk(fn):
            if not (isinstance(call, ast.Call) and is_answer_call(call)):
                continue
            key = call.args[0] if call.args else None
            if isinstance(key, ast.Name):
                key = assigned.get(key.id)
            if (isinstance(key, ast.Tuple) and key.elts and isinstance(key.elts[0], ast.Constant)
                    and isinstance(key.elts[0].value, str)):
                kinds.add(key.elts[0].value)
            else:
                unresolved.append(call.lineno)
    return kinds, unresolved


def test_every_kind_of_kept_answer_has_its_check():
    modules = sorted((ROOT / "src" / "carriernav").glob("*.py"))
    kinds, unresolved = set(), {}
    for path in modules:
        found, lines = kept_answer_kinds(path.read_text())
        kinds |= found
        if lines:
            unresolved[path.name] = lines
    assert unresolved == {}
    assert kinds == set(KEPT_ANSWER_CHECKS)


def test_the_kind_guard_sees_every_key_literal():
    source = ("def a(x):\n    return facts.answer((\"one\", x), f, x)\n"
              "def b(x):\n    key = (\"two\", x)\n    return answer(key, f, x)\n"
              "def c(key):\n    return facts.answer(key, f)\n"
              "def d(x):\n    return other((\"three\", x))\n"
              "def e(x):\n    return cache.answer((\"four\", x), f, x)\n"
              "def g(key):\n    return answer(key, f)\n"
              "def h(x):\n    return facts.pure_answer((\"five\", x), f, x)\n")
    assert kept_answer_kinds(source) == ({"one", "two", "five"}, [7, 13])


@dataclasses.dataclass
class Holder:
    array: np.ndarray


def test_the_kept_answer_guard_sees_every_writable_array():
    frozen, loose, held = np.zeros(2), np.ones(3), np.ones(2)
    frozen.setflags(write=False)
    found = writable_arrays({"a": [(frozen, Feature.of(loose))], loose.tobytes(): [Holder(held)]})
    assert sorted(map(id, found)) == sorted([id(loose), id(held)])


def test_configs_poses_and_rooms_are_frozen():
    configs = [hint for hint in get_type_hints(_ScenarioFile).values()
               if getattr(hint, "__name__", "").endswith("Config")]
    assert {"SensorConfig", "PolicyConfig", "CrsgConfig", "MatchConfig"} <= {
        c.__name__ for c in configs}
    given = np.array([1.0, 2.0])
    pose, room = Pose(given), Room("r", [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert pose.position is not given and given.flags.writeable  # the pose's own copy
    events = [DisplacementEvent(kind="remove", object_id="cup_0"),
              EventSpec(kind="move", object_id="cup_0", target_carrier_id="table_0",
                        trigger="before-episode")]
    for value in [config() for config in configs] + [pose, room] + events:
        assert type(value).__dataclass_params__.frozen
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))
    for array in (pose.position, room.polygon):
        with pytest.raises(ValueError):
            array[0] = 0.0
    world = GridWorld(scene_from_dict(scene_dict(
        [obj_dict("cup_0", ["red cup"], 1.0, 1.0, 0.1, 0.1, 0.0, 0.1)])))
    with pytest.raises(TypeError):
        world.objects["cup_1"] = world.object("cup_0")
    assert isinstance(world.objects, MappingProxyType) and list(world.objects) == ["cup_0"]


TABLE_FIELDS = ("objects", "_items")


def object_table_writes(source: str) -> list:
    """(function, line) of each write of ``self.objects`` or ``self._items``
    in module ``source``: an assignment (plain, annotated, augmented or
    unpacked), a ``del``, or a ``setattr`` call naming the field."""
    found = []

    def names_a_field(target) -> bool:
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(names_a_field(t) for t in target.elts)
        if isinstance(target, ast.Starred):
            return names_a_field(target.value)
        return (isinstance(target, ast.Attribute) and target.attr in TABLE_FIELDS
                and isinstance(target.value, ast.Name) and target.value.id == "self")

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            targets = []
        named = (isinstance(node, ast.Call) and len(node.args) >= 2
                 and isinstance(node.args[1], ast.Constant) and node.args[1].value in TABLE_FIELDS
                 and getattr(node.func, "id", getattr(node.func, "attr", None))
                 in ("setattr", "__setattr__"))
        if named or any(names_a_field(t) for t in targets):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_only_set_objects_writes_the_object_table():
    source = (ROOT / "src" / "carriernav" / "world.py").read_text()
    writes = object_table_writes(source)
    assert writes and {function for function, _ in writes} == {"_set_objects"}


def test_the_object_table_guard_sees_every_write():
    source = ("class W:\n"
              "    def _set_objects(self, objects):\n"
              "        self.objects = objects\n"
              "    def move(self, objects, other):\n"
              "        self._items: tuple = ()\n"
              "        (self.objects, x), self.seen = (objects, 1), ()\n"
              "        self._items += ()\n"
              "        setattr(self, 'objects', objects)\n"
              "        object.__setattr__(self, '_items', ())\n"
              "        del self._items\n"
              "        other.objects = self.objects_seen = objects\n"
              "        return [self.objects, getattr(self, '_items')]\n")
    assert object_table_writes(source) == [
        ("_set_objects", 3), ("move", 5), ("move", 6), ("move", 7), ("move", 8), ("move", 9),
        ("move", 10)]


CARRIER_TABLE_EDITS = ("pop", "popitem", "clear", "update", "setdefault", "__setitem__",
                       "__delitem__")


def carrier_table_uses(source: str) -> list:
    """(function, line, what) of each use of a ``.carriers`` table in
    module ``source`` that only its owner may make: a ``write`` (an
    assignment, plain, annotated, augmented or unpacked, or a ``del`` of the
    table or an item of it; a ``setattr`` naming it; a call of an editing
    method on it) or a ``tuple`` (a ``tuple(`` call over the table, one of
    its views, a comprehension over either, or a plain call such as
    ``sorted(`` of one)."""
    found = []

    def is_table(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "carriers"

    def iterates_table(node) -> bool:
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            return any(iterates_table(g.iter) for g in node.generators)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ("keys", "values", "items"):
                return is_table(func.value)
            return isinstance(func, ast.Name) and any(map(iterates_table, node.args))
        return is_table(node)

    def names_the_table(target) -> bool:
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(names_the_table(t) for t in target.elts)
        if isinstance(target, ast.Starred):
            return names_the_table(target.value)
        return is_table(target.value if isinstance(target, ast.Subscript) else target)

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            targets = []
        if any(names_the_table(t) for t in targets):
            found.append((function, node.lineno, "write"))
        if isinstance(node, ast.Call):
            func, args = node.func, node.args
            name = getattr(func, "id", getattr(func, "attr", None))
            if (name in ("setattr", "__setattr__") and len(args) >= 2
                    and isinstance(args[1], ast.Constant) and args[1].value == "carriers") or (
                    name in CARRIER_TABLE_EDITS and is_table(getattr(func, "value", None))):
                found.append((function, node.lineno, "write"))
            elif isinstance(func, ast.Name) and name == "tuple" and any(map(iterates_table, args)):
                found.append((function, node.lineno, "tuple"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sorted(found, key=lambda use: use[1])


def test_only_the_graph_builds_and_writes_its_carrier_table():
    modules = sorted((ROOT / "src" / "carriernav").glob("*.py"))
    assert len(modules) > 10
    found = {p.name: carrier_table_uses(p.read_text()) for p in modules}
    owner = found.pop("graph.py")
    assert owner and {function for function, _, _ in owner} == {"__post_init__"}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_the_carrier_table_guard_sees_every_use():
    source = ("def step(crsg, node, other):\n"
              "    crsg.carriers['t'] = node\n"
              "    del crsg.carriers['t']\n"
              "    crsg.carriers, x = {}, 1\n"
              "    crsg.carriers.pop('t')\n"
              "    setattr(crsg, 'carriers', {})\n"
              "    ids = tuple(crsg.carriers)\n"
              "    objs = tuple(n.object for n in crsg.carriers.values())\n"
              "    crsg.carriers['t'].carried['c'] = node\n"
              "    other.carried.clear()\n"
              "    ids = tuple(sorted(crsg.carriers.items()))\n"
              "    caps = tuple(crsg.carriers['t'].object.captions)\n"
              "    return sorted(crsg.carriers), tuple(crsg.carrier_objects), ids, objs, caps\n")
    assert carrier_table_uses(source) == [
        ("step", 2, "write"), ("step", 3, "write"), ("step", 4, "write"), ("step", 5, "write"),
        ("step", 6, "write"), ("step", 7, "tuple"), ("step", 8, "tuple"), ("step", 11, "tuple")]


def mutable_parts(value) -> list:
    """Every list, dict, set and writable numpy array reachable from
    ``value`` through tuples, frozensets, mappings, named tuples and
    dataclass fields."""
    found, seen, todo = [], set(), [value]
    while todo:
        value = todo.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, (list, dict, set)) or (
                isinstance(value, np.ndarray) and value.flags.writeable):
            found.append(value)
        elif isinstance(value, Mapping):
            todo += [*value.keys(), *value.values()]
        elif isinstance(value, (tuple, frozenset)):
            todo += value
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            todo += [getattr(value, f.name) for f in dataclasses.fields(value)]
    return found


def test_the_mutable_parts_guard_sees_every_container():
    frozen, loose = np.zeros(2), np.ones(2)
    frozen.setflags(write=False)
    inner, bag = [1], {2}
    value = (MappingProxyType({"a": Holder((frozen, inner))}), frozenset({3}), Feature.of(loose),
             Holder(MappingProxyType({"b": bag})))
    assert sorted(map(id, mutable_parts(value))) == sorted(map(id, [inner, loose, bag]))
    assert mutable_parts({}) != [] and mutable_parts((frozen, "x", 1.0)) == []


def test_the_policy_values_are_frozen():
    given = np.array([1.0, 1.0, 0.5])
    cand = CandidateTarget("cup_0", "table_0", 0.9, 0.0, given)
    assert cand.position is not given and given.flags.writeable  # its own copy
    cup = scene_from_dict(scene_dict([obj_dict("cup_0", ["red cup"], 1.0, 1.0, 0.1, 0.1, 0.0,
                                                0.1)])).objects["cup_0"]
    sighting = Observation(cup, 1.5)
    stop = ActionRecord("stop", "", np.array([1.0, 2.0]), 0, 0, None, 0.0, False, ["table_0"])
    values = [
        cand,
        CandidateTarget("cup_1", "table_0", 0.9, 0.0, [1.0, 1.0, 0.5]),
        NavAction(kind="goto", carrier_id="table_0", candidate=cand, priority=2.7),
        NavState(unexplored=["table_0"], candidates={"cup_0": cand}),
        TransitionInputs(cr_observed={"table_1"}, ct_new={"cup_0": cand}),
        Leg(1.0, {"cup_0": sighting}, {"cup_0": None}, [sighting]),
        stop,
        EpisodeResult(task_index=0, success=True, traveled=1.0, shortest=1.0, records=[stop]),
    ]
    for value in values:
        assert type(value).__dataclass_params__.frozen
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))
        assert mutable_parts(value) == [], value


def _is_feature_vector(node) -> bool:
    """Whether expression ``node`` reads a feature's vector: a ``.vec``, or
    a name or attribute ending in ``_feature`` (``obj.text_feature``)."""
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
    return name == "vec" or name.endswith("_feature")


def feature_dot_products(source: str) -> list:
    """Lines of each dot product of a feature vector in module ``source``:
    ``np.dot(`` or ``.dot(`` with such an operand, or ``@`` with one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "dot":
            operands = list(node.args)
            receiver = node.func.value
            if not (isinstance(receiver, ast.Name) and receiver.id in ("np", "numpy")):
                operands.append(receiver)  # x in x.dot(y)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = [node.left, node.right]
        else:
            continue
        if any(map(_is_feature_vector, operands)):
            found.append(node.lineno)
    return sorted(found)


def test_no_feature_dot_product_outside_features():
    modules = sorted((ROOT / "src" / "carriernav").glob("*.py"))
    assert len(modules) > 10
    found = {p.name: feature_dot_products(p.read_text()) for p in modules
             if p.name != "features.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_dot_guard_sees_feature_dot_products():
    source = ("import numpy as np\n"
              "def score(a, b, obj, q):\n"
              "    s = np.dot(a.vec, b.vec) / (a.norm * b.norm)\n"
              "    s += obj.text_feature.dot(q)\n"
              "    s += q @ obj.visual_feature\n"
              "    s += float(np.dot(q, text_feature))\n"
              "    return s + np.dot(a, b) + (a @ b) + q.dot(a) + a.vec.sum()\n")
    assert feature_dot_products(source) == [3, 4, 5, 6]


def linalg_norm_reads(source: str) -> list:
    """Lines of each read of numpy's ``linalg.norm`` in module ``source``:
    ``np.linalg.norm``, ``norm`` on a name bound to ``numpy.linalg``, or a
    name bound to ``numpy.linalg.norm`` itself."""
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name == "numpy.linalg" and a.asname}
        elif isinstance(node, ast.ImportFrom):
            wanted = {"numpy": "linalg", "numpy.linalg": "norm"}.get(node.module)
            bound = {a.asname or a.name for a in node.names if a.name == wanted}
            (modules if node.module == "numpy" else functions).update(bound)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "norm":
            owner = node.value
            if (isinstance(owner, ast.Attribute) and owner.attr == "linalg") or (
                    isinstance(owner, ast.Name) and owner.id in modules):
                found.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in functions and isinstance(node.ctx, ast.Load):
            found.append(node.lineno)
    return sorted(found)


def test_one_distance_rule():
    # ``scene.distance`` is numpy's norm of a 1-D float64 vector without its
    # dispatch; a norm anywhere in the package is a second distance rule
    modules = sorted((ROOT / "src" / "carriernav").glob("*.py"))
    assert len(modules) > 10
    found = {p.name: linalg_norm_reads(p.read_text()) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_distance_guard_sees_every_norm():
    source = ("import numpy as np\n"
              "import numpy.linalg as la\n"
              "from numpy import linalg\n"
              "from numpy.linalg import norm as n2\n"
              "def far(a, b, feat):\n"
              "    d = float(np.linalg.norm(a - b)) + la.norm(a) + linalg.norm(b)\n"
              "    f = np.linalg.norm\n"
              "    return d + n2(a) + feat.norm + np.hypot(*a) + f(b)\n")
    assert linalg_norm_reads(source) == [6, 6, 6, 7, 8]


def call_name(node):
    """The called name of a ``Call`` node, else None."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None))
    return None


def distance_array_reads(source: str) -> list:
    """(function, line) of each item read of a search's distance array in
    module ``source``.  A distance array is a ``dijkstra(`` call, item 1 of
    the ``(box, dist)`` a ``_search(`` call gives, the second name unpacked
    from one, the third name unpacked from a search entry (``(limit, box,
    dist, paths)``: a ``.searches`` read, a ``_kept(`` call, a name bound to
    one or to a 4-tuple, or a parameter a call passes an entry to), item 2
    of an entry, a name bound to any of these, or a parameter a call passes
    one to, a ``*_search(`` call's second item included."""
    found = []

    def reads_searches(node) -> bool:
        return any(isinstance(n, ast.Attribute) and n.attr == "searches" for n in ast.walk(node))

    def is_array(node, arrays, entries) -> bool:
        if call_name(node) == "dijkstra" or (isinstance(node, ast.Name) and node.id in arrays):
            return True
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            item = node.slice.value
            return ((item == 1 and call_name(node.value) == "_search")
                    or (item == 2 and is_entry(node.value, entries)))
        return False

    def is_entry(node, entries) -> bool:
        return (reads_searches(node) or call_name(node) == "_kept"
                or (isinstance(node, ast.Name) and node.id in entries)
                or (isinstance(node, ast.Tuple) and len(node.elts) == 4))

    tree = ast.parse(source)
    # function -> positions of the parameters a call passes an array, or an entry, to
    passed_arrays, passed_entries = {}, {}

    def note_calls(node, arrays, entries):
        name = call_name(node)
        method = isinstance(node.func, ast.Attribute)  # self is parameter 0
        for k, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred) and call_name(arg.value) == "_search":
                passed_arrays.setdefault(name, set()).add(k + 1 + method)
            elif is_array(arg, arrays, entries):
                passed_arrays.setdefault(name, set()).add(k + method)
            elif is_entry(arg, entries):
                passed_entries.setdefault(name, set()).add(k + method)

    def visit(node, function, arrays, entries, record):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = [a.arg for a in node.args.args]
            function = node.name
            arrays = {params[k] for k in passed_arrays.get(function, ()) if k < len(params)}
            entries = {params[k] for k in passed_entries.get(function, ()) if k < len(params)}
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if is_array(node.value, arrays, entries):
                        arrays.add(target.id)
                    elif is_entry(node.value, entries) or isinstance(node.value, ast.BoolOp) and any(
                            is_entry(v, entries) for v in node.value.values):
                        entries.add(target.id)
                elif isinstance(target, ast.Tuple) and all(
                        isinstance(e, ast.Name) for e in target.elts):
                    names = [e.id for e in target.elts]
                    if len(names) == 2 and call_name(node.value) == "_search":
                        arrays.add(names[1])
                    elif len(names) == 4 and is_entry(node.value, entries):
                        arrays.add(names[2])
        if isinstance(node, ast.Call):
            note_calls(node, arrays, entries)
        if record and isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            if is_array(node.value, arrays, entries):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function, arrays, entries, record)

    visit(tree, None, set(), set(), False)  # what each call passes, wherever it lies
    visit(tree, None, set(), set(), True)
    return sorted(found, key=lambda read: read[1])


def test_only_the_search_and_the_walk_back_read_distances():
    # the search reads its goal's distance in ``_answers``, which gives a
    # bool, and the walk-back walks a path over the array
    reads = distance_array_reads((ROOT / "src" / "carriernav" / "planning.py").read_text())
    assert reads and {function for function, _ in reads} == {"_answers", "_walk_back"}


def test_the_distance_array_guard_sees_every_read():
    # the first function is distance_field as it read raw search floats
    source = ("def distance_field(self, start):\n"
              "    source = self.snap_free_cell(start)\n"
              "    def distance(point):\n"
              "        cell = self.snap_free_cell(point)\n"
              "        if cell == source:\n"
              "            return 0.0\n"
              "        return float(self._search(source, cell)[1][cell[1] * self.width + cell[0]])\n"
              "    return distance\n"
              "def peek(self, s, c, i):\n"
              "    box, dist = self._search(s, c)\n"
              "    limit, box, far, paths = self._grid.searches[s]\n"
              "    entry = self._grid.searches.get(s) or (0.0, None, None, {})\n"
              "    paths[c] = self._walk_back(*self._search(s, c), s, c)\n"
              "    self.check(entry, s)\n"
              "    return dist[i], far[i], self._grid.searches[s][2][i], entry[2][i], paths[c]\n"
              "def latest(self, s, i):\n"
              "    return self._kept(s)[2][i]\n"
              "def _search(self, s, c):\n"
              "    dist = dijkstra(s)\n"
              "    search = (1.0, None, dist, {})\n"
              "    return search[1], dist[c]\n"
              "def check(self, search, s):\n"
              "    limit, box, dist, _ = search\n"
              "    return box[0], dist[s]\n"
              "def _walk_back(self, box, dist, s, c):\n"
              "    return dist[c], s[0], box[1]\n")
    assert distance_array_reads(source) == [
        ("distance", 7), ("peek", 15), ("peek", 15), ("peek", 15), ("peek", 15), ("latest", 17),
        ("_search", 21), ("check", 24), ("_walk_back", 26)]


def reference_sites(source: str, name: str) -> list:
    """(function, line) of each reference to ``name`` in module ``source``,
    by bare name or as an attribute, imports and annotations left out."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
            node.returns = None
            for arg in node.args.args:
                arg.annotation = None
        if isinstance(node, ast.AnnAssign):
            node.annotation = ast.Constant(None)
        if (isinstance(node, ast.Name) and node.id == name) or (
                isinstance(node, ast.Attribute) and node.attr == name):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def corner_rule_sites(source: str) -> list:
    """(function, line) of each test of a diagonal's two orthogonal cells in
    module ``source``: an ``&`` or ``and`` of two reads of one callee or
    array whose two items differ in both places, as (x + dx, y) and (x,
    y + dy) or (dx, 0) and (0, dy) do."""
    def items(node):
        if isinstance(node, ast.Call) and len(node.args) == 2 and not node.keywords:
            return ast.dump(node.func), node.args
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple) and len(
                node.slice.elts) == 2:
            return ast.dump(node.value), node.slice.elts
        return None

    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        def operands(node):  # of a chain of ``&`` or ``and``
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
                return [o for value in node.values for o in operands(value)]
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
                return operands(node.left) + operands(node.right)
            return [node]

        chain = operands(node) if isinstance(node, (ast.BoolOp, ast.BinOp)) else []
        reads = [r for r in map(items, chain) if r is not None]
        if any(a[0] == b[0] and all(ast.dump(p) != ast.dump(q) for p, q in zip(a[1], b[1]))
               for k, a in enumerate(reads) for b in reads[k + 1:]):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def pair_graph_sites(source: str) -> list:
    """(function, line) of each ``csr_matrix`` call in module ``source`` that
    builds its matrix from (data, (rows, cols)) pairs."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if call_name(node) == "csr_matrix" and node.args:
            first = node.args[0]
            if (isinstance(first, ast.Tuple) and len(first.elts) == 2
                    and isinstance(first.elts[1], ast.Tuple)):
                found.append((function, node.func.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


# (what is done, the one function of planning.py that may do it): any other
# ``csr_matrix`` reference is a graph of cells
PLANNING_OWNERS = (("csr_matrix", "_node_graph"), ("csr_matrix of pairs", "_labels"),
                   ("dijkstra", "_search"), ("connected_components", "_labels"),
                   ("corner rule", "moves"))


def planning_sites(source: str) -> dict:
    """What each ``PLANNING_OWNERS`` entry names -> the functions of module
    ``source`` that do it."""
    pairs = Counter(function for function, _ in pair_graph_sites(source))
    cells = Counter(function for function, _ in reference_sites(source, "csr_matrix")) - pairs
    sites = {"corner rule": {function for function, _ in corner_rule_sites(source)},
             "csr_matrix of pairs": set(pairs), "csr_matrix": set(cells)}
    return {what: sorted(sites[what] if what in sites else {
        function for function, _ in reference_sites(source, what)})
        for what, _ in PLANNING_OWNERS}


def test_each_planning_rule_has_one_site():
    # one builder of graphs of cells, one search, one labelling with its
    # graph of runs, and one movement rule: the move table is the one
    # place a diagonal's corners are tested
    sites = planning_sites((ROOT / "src" / "carriernav" / "planning.py").read_text())
    assert sites == {what: [owner] for what, owner in PLANNING_OWNERS}


def test_the_planning_guard_sees_a_second_site():
    source = ("from scipy.sparse import csr_matrix\n"
              "def _node_graph(self, box):\n"
              "    return csr_matrix(box)\n"
              "def _search(self, s):\n"
              "    return dijkstra(self._node_graph(s), indices=0)\n"
              "def _labels(self, a, b):\n"
              "    return connected_components(csr_matrix((w, (a, b)), shape=(n, n)))\n"
              "def moves(self):\n"
              "    return shifted(dx, dy) & shifted(dx, 0) & shifted(0, dy)\n"
              "def _check_moves(self, x, y, dx, dy):\n"
              "    ok = self.free[y, x + dx] and self.free[y + dy, x]\n"
              "    labels = sparse.csgraph.connected_components(self._graph())\n"
              "    return ok, sparse.csr_matrix(x), dijkstra(x, indices=1)\n"
              "def _runs(self, a, b):\n"
              "    return sparse.csr_matrix((w, (a, b)), shape=(n, n)), csr_matrix((w, a, b))\n")
    assert planning_sites(source) == {
        "csr_matrix": ["_check_moves", "_node_graph", "_runs"],
        "csr_matrix of pairs": ["_labels", "_runs"], "dijkstra": ["_check_moves", "_search"],
        "connected_components": ["_check_moves", "_labels"],
        "corner rule": ["_check_moves", "moves"]}


def ndimage_imports(source: str) -> list:
    """Lines of module ``source`` that import ``scipy.ndimage`` or one of its
    names, or read it as an attribute of ``scipy``, which imports it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and not node.level:
            module = node.module or ""
            if module.startswith("scipy.ndimage") or (
                    module == "scipy" and any(a.name == "ndimage" for a in node.names)):
                found.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name.startswith("scipy.ndimage") for a in node.names):
                found.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "ndimage"
              and isinstance(node.value, ast.Name) and node.value.id == "scipy"):
            found.append(node.lineno)
    return sorted(found)


def test_no_module_imports_ndimage():
    """``scipy.ndimage`` adds about 5 MB of resident memory on import (5.1
    to 6.3 MB of peak RSS on the 0.25 m benchmark workloads, about 8% of
    their peak), for labels that runs of free cells give with no import."""
    sources = sorted((ROOT / "src" / "carriernav").glob("*.py"))
    assert len(sources) > 10
    assert {p.name: ndimage_imports(p.read_text()) for p in sources} == {
        p.name: [] for p in sources}


def test_the_ndimage_guard_sees_an_import():
    source = ("import scipy\n"
              "import scipy.sparse\n"
              "from scipy import ndimage\n"
              "from scipy.ndimage import label\n"
              "import scipy.ndimage as ndi\n"
              "def labels(free):\n"
              "    return scipy.ndimage.label(free)[0]\n")
    assert ndimage_imports(source) == [3, 4, 5, 7]


def package_imports(source: str) -> list:
    """What module ``source`` of the package imports from the package,
    sorted: ``module.name`` for each name a ``from`` import binds (``name``
    for ``from . import name``), and the module an ``import`` names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "carriernav":
                    continue
                module = module[len("carriernav."):]
            found += [f"{module}.{alias.name}" if module else alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "carriernav"]
    return sorted(found)


def test_planning_imports_only_the_kept_grid_and_the_distance_rule():
    source = (ROOT / "src" / "carriernav" / "planning.py").read_text()
    assert package_imports(source) == ["facts", "scene.distance"]


def test_the_import_guard_sees_a_second_import():
    source = ("import numpy as np\n"
              "from . import facts\n"
              "from .scene import MAX_GRID_CELLS, distance\n"
              "from carriernav.world import GridWorld\n"
              "import carriernav.graph\n"
              "def decide_later():\n"
              "    from .policy import decide\n"
              "    return decide\n")
    assert package_imports(source) == ["carriernav.graph", "facts", "policy.decide",
                                       "scene.MAX_GRID_CELLS", "scene.distance",
                                       "world.GridWorld"]


# the funnel's stages that only ``graph._funnel`` may call
FUNNEL_STAGES = ("select_carrier_candidates", "filter_by_prior")


def funnel_stage_sites(sources: dict) -> dict:
    """Each ``FUNNEL_STAGES`` name -> the (module, function) pairs of
    ``sources``, module name -> source, that reference it; module-level
    code is ``<module>``."""
    return {name: sorted({(module, function or "<module>")
                          for module, source in sources.items()
                          for function, _ in reference_sites(source, name)})
            for name in FUNNEL_STAGES}


def test_the_funnel_has_one_site():
    sources = {p.name: p.read_text() for p in sorted((ROOT / "src" / "carriernav").glob("*.py"))}
    assert len(sources) > 10
    assert funnel_stage_sites(sources) == {name: [("graph.py", "_funnel")]
                                           for name in FUNNEL_STAGES}


def test_the_funnel_guard_sees_a_second_site():
    sources = {"graph.py": ("def _funnel(objects, config, prior):\n"
                            "    return filter_by_prior(select_carrier_candidates(objects, config),"
                            " prior)\n"
                            "def build_crsg(scene, prior):\n"
                            "    return graph.filter_by_prior(scene.objects, prior)\n"),
               "policy.py": ("from .graph import select_carrier_candidates\n"
                             "STAGE = select_carrier_candidates\n"
                             "def decide(state):\n"
                             "    return STAGE(state)\n")}
    assert funnel_stage_sites(sources) == {
        "select_carrier_candidates": [("graph.py", "_funnel"), ("policy.py", "<module>")],
        "filter_by_prior": [("graph.py", "_funnel"), ("graph.py", "build_crsg")]}


def action_record_sites(source: str) -> list:
    """Lines of each construction of ``ActionRecord`` in module ``source``: a
    call or any other reference outside an annotation, by bare name or as an
    attribute."""
    tree = ast.parse(source)
    notes = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) or isinstance(node, ast.AnnAssign):
            roots = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots = [node.returns]
        else:
            continue
        notes.update(id(n) for root in roots if root is not None for n in ast.walk(root))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name == "ActionRecord" and id(node) not in notes:
            found.append(node.lineno)
    return sorted(found)


def test_each_action_is_recorded_at_one_site():
    assert len(action_record_sites((ROOT / "src" / "carriernav" / "policy.py").read_text())) == 1


def test_the_record_guard_sees_every_construction():
    source = ("class ActionRecord:\n    kind: str\n"
              "def run(records: List[ActionRecord], policy) -> ActionRecord:\n"
              "    records.append(ActionRecord(\"stop\"))\n"
              "    make = ActionRecord\n"
              "    records.append(policy.ActionRecord(\"stop\"))\n"
              "    kept: Tuple[ActionRecord, ...] = (make(),)\n"
              "    return action_record(2), kept\n")
    assert action_record_sites(source) == [4, 5, 6]


# public names no module of the package reads, each with the reason it stays
UNREAD_PUBLIC_NAMES = {
    "facts.release_facts": "the documented reset of the kept facts, which the test "
                           "fixtures call",
    "world.GridWorld.observe": "perfbench's world.observe span wraps it; it goes with the "
                               "span table (ROADMAP item 2, Step B)",
}


def unread_public_names(sources: dict) -> list:
    """Sorted ``module.name`` (``module.Class.name`` for a method) of each
    public module-level function and public method of ``sources``, module
    file name -> source, whose name no module reads outside its own
    definition.  A read is a loaded ``Name`` or ``Attribute`` of that name,
    so a docstring, a comment, an import or a store is none; names are
    matched by spelling, not resolved."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    definitions = []
    for module, tree in trees.items():
        stem = module.removesuffix(".py")
        for node in tree.body:
            if isinstance(node, functions):
                definitions.append((f"{stem}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                definitions += [(f"{stem}.{node.name}.{item.name}", item)
                                for item in node.body if isinstance(item, functions)]
    reads = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
                reads.setdefault(name, []).append(node)
    unread = []
    for qualified, definition in definitions:
        if definition.name.startswith("_"):
            continue
        own = {id(node) for node in ast.walk(definition)}
        if all(id(node) in own for node in reads.get(definition.name, [])):
            unread.append(qualified)
    return sorted(unread)


def test_every_public_function_and_method_has_a_reader():
    sources = {p.name: p.read_text() for p in sorted((ROOT / "src" / "carriernav").glob("*.py"))}
    assert len(sources) > 10
    assert unread_public_names(sources) == sorted(UNREAD_PUBLIC_NAMES)


def test_the_unread_name_guard_sees_every_unread_name():
    sources = {"a.py": ("def used():\n"
                        "    return 1\n"
                        "def recursive(n):\n"
                        "    \"\"\"Calls used() and Box.stored().\"\"\"\n"
                        "    return recursive(n - 1)\n"
                        "def imported():\n"
                        "    pass\n"
                        "class Box:\n"
                        "    def read(self):\n"
                        "        return self.size()\n"
                        "    def size(self):\n"
                        "        return 1\n"
                        "    def stored(self):\n"
                        "        pass\n"
                        "    def _private(self):\n"
                        "        pass\n"
                        "def _helper():\n"
                        "    pass\n"),
               "b.py": ("from .a import Box, imported, used\n"
                        "VALUE = used()\n"
                        "READ = Box().read\n"
                        "# imported() in a comment\n"
                        "def set_it(box):\n"
                        "    box.stored = None\n")}
    assert unread_public_names(sources) == ["a.Box.stored", "a.imported", "a.recursive",
                                            "b.set_it"]
