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

Kept-answer keys hold the configs and rooms themselves, and holders share
poses without copying them.  A config, pose or room that can be changed in
place must fail here.  So must a policy value (a candidate, action, state,
transition input, leg or episode result): a state, the action decided on
it and the next state share them, so none may hold a list, dict, set or
writable array at any depth.

``features.cosine`` is the one similarity rule: it skips the dot product of
two features that share no bucket.  A dot product of feature vectors
anywhere else in the package bypasses that rule and must fail here.  So
``scene.distance`` is the one distance rule: a ``numpy.linalg.norm`` read
anywhere in the package must fail here.

An episode records each action at one site: ``run_task``'s ``record``, the
one reader of ``policy._trace_line``.  A second reader, a call or a
reference that calls it later, gives an action a record of its own and
must fail here.
"""

import ast
import dataclasses
import sys
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np
import pytest

import carriernav  # noqa: F401  (loads every module the span table names)
from carriernav.bench import run_sequence
from carriernav.features import Feature
from carriernav.policy import (VARIANTS, CandidateTarget, EpisodeResult, Leg, NavAction,
                               NavState, TransitionInputs)
from carriernav.scene import Room, _SceneFile, _schema, scene_from_dict
from carriernav.scenarios import _ScenarioFile, build_scenario
from carriernav.world import Observation, Pose
from conftest import KEPT_ANSWER_CHECKS, obj_dict, scene_dict, writable_arrays

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402


def test_every_traced_layer_exists():
    assert layers.Tracer().absent == []


def test_every_traced_layer_is_called():
    # world.observe has no caller in the program, only tests and perfbench
    sc = build_scenario("mixed", 0, 3)
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
    for value in [config() for config in configs] + [pose, room]:
        assert type(value).__dataclass_params__.frozen
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))
    for array in (pose.position, room.polygon):
        with pytest.raises(ValueError):
            array[0] = 0.0


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
    values = [
        cand,
        CandidateTarget("cup_1", "table_0", 0.9, 0.0, [1.0, 1.0, 0.5]),
        NavAction(kind="goto", carrier_id="table_0", candidate=cand, priority=2.7),
        NavState(pose=Pose([0.0, 0.0]), unexplored=["table_0"], candidates={"cup_0": cand}),
        TransitionInputs(cr_observed={"table_1"}, ct_new={"cup_0": cand},
                         ct_star={"cup_0": cand}),
        Leg(1.0, {"cup_0": sighting}, {"cup_0": None}, [sighting]),
        EpisodeResult(task_index=0, success=True, traveled=1.0, shortest=1.0,
                      actions=["t=0 Stop"]),
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


def trace_line_reads(source: str) -> list:
    """Lines of each read of ``_trace_line`` in module ``source``: a call
    or any other reference, by bare name or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name == "_trace_line":
            found.append(node.lineno)
    return sorted(found)


def test_each_action_is_recorded_at_one_site():
    assert len(trace_line_reads((ROOT / "src" / "carriernav" / "policy.py").read_text())) == 1


def test_the_record_guard_sees_every_trace_line_read():
    source = ("def _trace_line(t, label):\n    return f\"t={t} {label}\"\n"
              "def run(trace, policy):\n"
              "    trace.append(_trace_line(0, \"Stop\"))\n"
              "    line = _trace_line\n"
              "    trace.append(policy._trace_line(1, \"Stop\"))\n"
              "    return trace_line(2), line\n")
    assert trace_line_reads(source) == [4, 5, 6]
