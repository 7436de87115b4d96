"""The body language: its checks when a scop is read, its evaluation
errors in the sequential executor and in the simulator, and the work its
compiler does."""

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polydist.placement import Placement

import polydist
from polydist import exprs
from polydist import scop as scop_module
from polydist.cli import main
from polydist.errors import EvaluationError, ValidationError
from polydist.exprs import PureFunction
from polydist.fields import first_divergence, random_contents
from polydist.pipeline import plan_scop
from polydist.scop import sequential_execute
from polydist.scopio import parse_scop
from polydist.simrt import init_runtime, run

import oracle
from oracle import contents_equal


def _gol16_with(gol16_path, edit):
    doc = json.loads(gol16_path.read_text())
    edit(doc)
    return json.dumps(doc)


def _body(stmt, body):
    def edit(doc):
        doc["statements"][stmt]["body"] = body

    return edit


def _function(name, params, body):
    def edit(doc):
        doc["functions"][name] = {"params": params, "body": body}

    return edit


def _then(*edits):
    def edit(doc):
        for e in edits:
            e(doc)

    return edit


_RECURSIVE = ["call", "hasLife", ["var", "hadLife"], ["var", "neighbors"]]

# statement 0 is S1.1, which reads front; statement 6 is S1.7, which writes back
BAD_BODIES = {
    "malformed": (_body(0, []), "S1.1: malformed expression node: []"),
    "int": (_body(0, ["int", 1.5]), "S1.1: bad int literal: ['int', 1.5]"),
    "float": (_body(0, ["float", "x"]), "S1.1: bad float literal: ['float', 'x']"),
    "bool": (_body(0, ["bool", 1]), "S1.1: bad bool literal: ['bool', 1]"),
    "scalar": (_body(0, ["var", "ghost"]), "S1.1: unknown scalar in body: ['var', 'ghost']"),
    "access": (_body(0, ["access", 1]), "S1.1: bad access reference: ['access', 1]"),
    "write_access": (_body(6, ["access", 0]), "S1.7: body references write access 0"),
    "one_operand": (_body(0, ["neg"]), "S1.1: neg takes one operand"),
    "two_operands": (_body(0, ["add", ["int", 1]]), "S1.1: add takes two operands"),
    "if_operands": (_body(0, ["if", ["bool", True], ["int", 1]]),
                    "S1.1: if takes condition, then, else"),
    "function": (_body(0, ["call", "nope"]), "S1.1: call to unknown function: ['call', 'nope']"),
    "operator": (_body(0, ["pow", ["int", 2], ["int", 3]]),
                 "S1.1: unknown expression operator: 'pow'"),
    "arguments": (_body(0, ["call", "hasLife", ["bool", True]]),
                  "S1.1: hasLife expects 2 arguments, got 1"),
    "function_body": (_function("hasLife", ["hadLife", "neighbors"], ["var", "ghost"]),
                      "function hasLife: unknown scalar in body: ['var', 'ghost']"),
    "function_access": (_function("hasLife", ["hadLife", "neighbors"], ["access", 0]),
                        "function hasLife: pure functions cannot access fields"),
    "recursion": (_function("hasLife", ["hadLife", "neighbors"], _RECURSIVE),
                  "function hasLife: call cycle hasLife -> hasLife"),
    "mutual_recursion": (
        _then(_function("hasLife", ["hadLife", "neighbors"], ["call", "g", ["int", 0]]),
              _function("g", ["x"], _RECURSIVE[:2] + [["bool", True], ["var", "x"]])),
        "function g: call cycle hasLife -> g -> hasLife",
    ),
    # a repeated parameter would leave its earlier argument unread
    "repeated_param": (
        _then(lambda doc: doc["functions"]["hasLife"].update(params=["hadLife", "neighbors", "hadLife"]),
              _body(5, ["call", "hasLife", ["bool", False], ["var", "neighbors"], ["var", "hadLife"]])),
        "function hasLife: parameter 'hadLife' given twice",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_BODIES))
def test_bad_body_is_a_validation_error(gol16_path, case):
    edit, message = BAD_BODIES[case]
    with pytest.raises(ValidationError) as exc:
        parse_scop(_gol16_with(gol16_path, edit))
    assert str(exc.value) == message


def test_recursive_function_exits_2(gol16_path, tmp_path, capsys):
    path = tmp_path / "recursive.scop"
    path.write_text(_gol16_with(gol16_path, _function("hasLife", ["hadLife", "neighbors"],
                                                      _RECURSIVE)))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == (
        "validation error: function hasLife: call cycle hasLife -> hasLife\n"
    )


def _tiny(body, element_type="int64", functions=None):
    """T[x] writes scalar t, then W[x] stores the body, which may read t,
    into a[x], for x in 0..3 on a 2-node grid."""
    return parse_scop(json.dumps(_tiny_doc(body, element_type, functions)))


def _tiny_doc(body, element_type="int64", functions=None) -> dict:
    return {
        "name": "tiny", "grid": [2], "scatter_arity": 2,
        "fields": [{"name": "a", "type": element_type, "extents": [4]}],
        "functions": functions or {},
        "statements": [
            {"id": "T", "domain": "{ [x] : 0 <= x < 4 }", "schedule": "{ [x] -> [0, x] }",
             "body": ["int", 0], "scalar_writes": ["t"]},
            {"id": "W", "domain": "{ [x] : 0 <= x < 4 }", "schedule": "{ [x] -> [1, x] }",
             "accesses": [{"field": "a", "kind": "write", "index": ["x"]}],
             "body": body, "scalar_reads": ["t"]},
        ],
    }


def _both(scop):
    """The final contents from the sequential executor and the simulator."""
    analysis, plan = plan_scop(scop)
    init = random_contents(scop, 1)
    final, _ = run(init_runtime(plan, analysis.scop.grid, init), analysis.scop)
    return sequential_execute(scop, init), final


def _errors(scop, skip=("T",)) -> list:
    """The EvaluationError messages of the sequential executor and of the
    simulator, both without the statements in ``skip``; without T, W reads
    t before any write."""
    analysis, plan = plan_scop(scop)
    plan = dataclasses.replace(plan, stmt_placement=Placement(
        {sid: m for sid, m in plan.stmt_placement.maps.items() if sid not in skip}))
    init = random_contents(scop, 1)
    kept, virt = (dataclasses.replace(sc, statements=tuple(s for s in sc.statements if s.id not in skip))
                  for sc in (scop, analysis.scop))
    messages = []
    for go in (lambda: sequential_execute(kept, init),
               lambda: run(init_runtime(plan, virt.grid, init), virt)):
        with pytest.raises(EvaluationError) as exc:
            go()
        messages.append(str(exc.value))
    return messages


_INT, _BOOL = ["int", 1], ["bool", True]

ILL_TYPED = {
    "b2i": (["b2i", _INT], "b2i requires a bool, got int"),
    "neg": (["neg", _BOOL], "neg requires int or float, got bool"),
    "not": (["b2i", ["not", _INT]], "not requires a bool, got int"),
    "add": (["add", _INT, _BOOL], "add requires int or float, got bool"),
    "sub": (["sub", _BOOL, ["b2i", _INT]], "sub requires int or float, got bool"),
    "mul": (["mul", ["b2i", _INT], _BOOL], "b2i requires a bool, got int"),
    "lt": (["b2i", ["lt", _INT, _BOOL]], "lt requires int or float, got bool"),
    # a comparison evaluates both operands before checking either
    "ge": (["b2i", ["ge", _BOOL, ["b2i", _INT]]], "b2i requires a bool, got int"),
    "and": (["b2i", ["and", _INT, _BOOL]], "and requires a bool, got int"),
    "or": (["b2i", ["or", ["bool", False], _INT]], "or requires a bool, got int"),
    "if": (["if", _INT, _INT, _INT], "if requires a bool, got int"),
    "eq": (["b2i", ["eq", _BOOL, _INT]], "eq/ne operands must have matching types"),
    "ne": (["b2i", ["ne", ["float", 1.0], _BOOL]], "eq/ne operands must have matching types"),
    "unwritten": (["add", ["var", "t"], ["b2i", _INT]], "scalar 't' read before any write"),
    "in_function": (["call", "f", _BOOL], "neg requires int or float, got bool"),
}


@pytest.mark.parametrize("case", sorted(ILL_TYPED))
def test_evaluation_errors_agree(case):
    body, message = ILL_TYPED[case]
    scop = _tiny(body, functions={"f": {"params": ["p"], "body": ["neg", ["var", "p"]]}})
    assert _errors(scop) == [message, message]


def test_field_access_in_a_function_is_rejected_by_both_runners():
    # a scop built without validation still compiles its functions first
    scop = _tiny(["call", "f", _INT], functions={"f": {"params": ["p"], "body": ["var", "p"]}})
    bad = dataclasses.replace(scop, functions={"f": PureFunction("f", ["p"], ["access", 0])})
    analysis, plan = plan_scop(scop)
    virt = dataclasses.replace(analysis.scop, functions=bad.functions)
    init = random_contents(scop, 1)
    message = "function f: pure functions cannot access fields"
    with pytest.raises(ValidationError, match=message):
        sequential_execute(bad, init)
    with pytest.raises(ValidationError, match=message):
        run(init_runtime(plan, virt.grid, init), virt)


_ILL = ["b2i", _INT]


@pytest.mark.parametrize(
    "body, value",
    [
        (["and", ["bool", False], _ILL], False),
        (["or", _BOOL, _ILL], True),
        (["if", _BOOL, ["bool", False], _ILL], False),
        (["if", ["bool", False], _ILL, _BOOL], True),
    ],
    ids=["and", "or", "if-then", "if-else"],
)
def test_untaken_operands_are_never_evaluated(body, value):
    for final in _both(_tiny(body, element_type="bool")):
        assert final["a"].tolist() == [value] * 4


def test_float_literal_of_an_integer_is_a_float():
    for final in _both(_tiny(["float", 3], element_type="float64")):
        assert final["a"].tolist() == [3.0] * 4


@pytest.mark.parametrize("reads", [["i,0"], ["i,0", "i,1"]], ids=["one-read", "two-reads"])
def test_statement_without_a_body_does_nothing(gol16_path, tmp_path, capsys, reads):
    def add_reader(doc):
        doc["statements"].append({
            "id": "R", "domain": "{ [i] : 0 <= i < 2 }", "schedule": "{ [i] -> [1,i,0,0,0,0,0] }",
            "accesses": [{"field": "front", "kind": "read", "index": r.split(",")} for r in reads],
        })

    path = tmp_path / "reader.scop"
    path.write_text(_gol16_with(gol16_path, add_reader))
    assert main(["verify", str(path), "--seed", "2"]) == 0
    assert capsys.readouterr().out == "verify: PASS (grid=2x2, seed=2)\n"


def _recording_sources(monkeypatch) -> list:
    """The list of every generated source that runs from now on."""
    sources = []

    def recording(source, space):
        sources.append(source)
        exec(source, space)

    monkeypatch.setattr(exprs, "exec", recording, raising=False)
    return sources


def test_bodies_compiled_once_per_scop(gol16_path, monkeypatch):
    # hasLife gets a second caller, and is still compiled once per scop:
    # checked when the scop is read, defined by its first run, and again
    # only for the isolated scop a simulation uses
    def second_caller(doc):
        s = dict(doc["statements"][5], id="S1.6b", scalar_writes=["spare"])
        s["schedule"] = "{ [i,x,y] -> [0,i,0,x,0,y,8] }"
        doc["statements"].append(s)

    compiled, defined = [], _recording_sources(monkeypatch)
    real = exprs.compile_expr

    def counting(node, scalars, accesses, function, where):
        compiled.append(where)
        return real(node, scalars, accesses, function, where)

    for module in (exprs, scop_module):
        monkeypatch.setattr(module, "compile_expr", counting)
    scop = parse_scop(_gol16_with(gol16_path, second_caller))
    bodies = [s.id for s in scop.statements if s.body is not None]
    assert compiled == ["function hasLife"] + bodies
    assert defined == []  # reading a scop only checks its bodies
    compiled.clear()
    init = random_contents(scop, 4)
    expected = sequential_execute(scop, init)
    assert compiled == [] and len(defined) == 1 + len(scop.real_statements())
    defined.clear()
    assert contents_equal(sequential_execute(scop, init), expected)
    assert compiled == defined == []
    analysis, plan = plan_scop(scop)
    compiled.clear()
    final, _ = run(init_runtime(plan, analysis.scop.grid, init), analysis.scop)
    bodies = [s.id for s in analysis.scop.statements if s.body is not None]
    assert compiled == ["function hasLife"] + bodies
    assert len(defined) == 1 + len(analysis.scop.real_statements())
    compiled.clear()
    defined.clear()
    again, _ = run(init_runtime(plan, analysis.scop.grid, init), analysis.scop)
    assert compiled == defined == []
    assert contents_equal(final, expected) and contents_equal(again, expected)


_2_62 = ["int", 1 << 62]


@pytest.mark.parametrize("body, value", [
    (["mul", _2_62, ["int", 4]], 1 << 64),
    (["add", ["mul", _2_62, ["int", 2]], ["int", 0]], 1 << 63),
    (["sub", ["mul", _2_62, ["int", -2]], ["int", 1]], -(1 << 63) - 1),
])
def test_int64_store_out_of_range(body, value):
    """Both executors refuse to store an int64 outside [-2^63, 2^63) with
    the same message."""
    assert _errors(_tiny(body), skip=()) == [f"field a stores int64, got {value}, out of range"] * 2


@pytest.mark.parametrize("body, value", [
    (["mul", _2_62, ["int", -2]], -(1 << 63)),
    (["sub", ["mul", _2_62, ["int", 2]], ["int", 1]], (1 << 63) - 1),
])
def test_int64_store_at_the_range_ends(body, value):
    for final in _both(_tiny(body)):
        assert final["a"].tolist() == [value] * 4


# each body as (opening text, innermost node, closing text, element type), nested 960 deep
DEEP_BODIES = {
    "neg": ('["neg", ', '["int", 1]', "]", "int64"),
    "add-left": ('["add", ', '["int", 0]', ', ["int", 1]]', "int64"),
    "add-right": ('["add", ["int", 1], ', '["int", 0]', "]", "int64"),
    "if-and": ('["if", ["and", ["bool", true], ', '["bool", true]', '], ["bool", true], ["bool", false]]',
               "bool"),
}


@pytest.mark.parametrize("case", sorted(DEEP_BODIES))
def test_deep_bodies_verify(tmp_path, case):
    """960 levels of nesting (if-and: 480 of each) compile into helper
    functions CPython can parse, and every level still evaluates.  The
    document is written as text and verified in a fresh interpreter,
    whose stack is as shallow as a user's."""
    opening, leaf, closing, element_type = DEEP_BODIES[case]
    depth = 480 if case == "if-and" else 960
    path = tmp_path / "deep.scop"
    path.write_text(json.dumps(_tiny_doc("BODY", element_type))
                    .replace('"BODY"', opening * depth + leaf + closing * depth))
    src = str(Path(polydist.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-m", "polydist.cli", "verify", str(path), "--seed", "1"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "verify: PASS (grid=2, seed=1)\n", "")


_SCALARS = ("a", "b", "c", "u")  # u is never written
_ACCESSES = ("read", "read", "write")
_VALUES = {"num": (0, 1, -3, 2, 1 << 62, 0.5, -0.0, 2.0, float("inf"), float("nan")),
           "bool": (True, False)}
# operator -> the kinds of its operands (None: its result's) and of its result (None: either)
_OPERATORS = {"b2i": (("bool",), "num"), "neg": (("num",), "num"), "not": (("bool",), "bool"),
              **dict.fromkeys(("add", "sub", "mul"), (("num", "num"), "num")),
              **dict.fromkeys(("lt", "le", "gt", "ge"), (("num", "num"), "bool")),
              **dict.fromkeys(("eq", "ne", "and", "or"), (("bool", "bool"), "bool")),
              "if": (("bool", None, None), None)}
_MALFORMED = (["var", "ghost"], ["neg"], ["pow", _INT, _INT], ["access", 2], ["int", True], [],
              ["call", "f0"], ["call", "nope", _INT])


def _random_tree(rng, size, kind, scalars, reads, functions):
    """A random tree of about ``size`` nodes over every node form: literals,
    the ``scalars`` and ``reads`` ({kind: names or access ordinals}), calls
    to ``functions`` ({name: parameter count}) and every operator.  Most
    operands have the kind their operator needs; the tree has that
    ``kind`` (None: either) unless an operand breaks it."""
    if kind is None or rng.random() < 0.03:
        kind = rng.choice(("num", "bool"))
    if size <= 1 or rng.random() < 0.1:
        leaf = rng.randrange(6)
        if leaf == 0 and reads:
            return ["access", rng.choice(reads[kind])]
        if leaf == 1:
            return ["var", rng.choice(scalars[kind])]
        v = rng.choice(_VALUES[kind])
        return ["bool" if isinstance(v, bool) else "float" if isinstance(v, float) else "int", v]
    if functions and rng.random() < 0.1:
        name = rng.choice(sorted(functions))
        node, kinds = ["call", name], [None] * functions[name]
    else:
        op = rng.choice([op for op, (_, out) in _OPERATORS.items() if out in (kind, None)])
        node, kinds = [op], [k or kind for k in _OPERATORS[op][0]]
        if op in ("eq", "ne"):
            kinds = [rng.choice(("num", "bool"))] * 2
    cuts = sorted(rng.choice((1, size - 2, rng.randrange(size))) for _ in range(len(kinds) - 1))
    sizes = [max(b - a, 1) for a, b in zip([0] + cuts, cuts + [size - 1])]
    return node + [_random_tree(rng, n, k, scalars, reads, functions) for n, k in zip(sizes, kinds)]


def _outcome(evaluate):
    """An evaluation's value with its exact type, or its error."""
    try:
        v = evaluate()
    except (EvaluationError, ValidationError) as e:
        return type(e), str(e)
    return type(v), repr(v)


def _generated(tree, functions, values):
    """The tree's Code and its function of (row, scalars, read, where), whose
    read access j reads ``values[j]``."""
    code = exprs.compile_expr(tree, set(_SCALARS), _ACCESSES,
                              exprs.compile_functions(functions).get, "body")
    names = {}
    for j, v in enumerate(values):
        names[f"d{j}"], names[f"e{j}"] = j, [v]
    return code, code.define("row, sc, read, where", [f"return {code.expr}"], names)


def test_generated_code_agrees_with_the_closure_interpreter():
    """Random trees of every node form, ill-typed operands, unwritten
    scalars, calls and short-circuits that skip a failing operand give
    the same value of the same type, or the same error, from the
    generated code and from the closure interpreter in the oracle."""
    rng = random.Random(29)
    outcomes, split = set(), 0
    for _ in range(1500):
        functions = {}
        for i, params in enumerate((["x"], ["x", "y"], ["x", "y", "x"])):
            body = _random_tree(rng, 12, None, {"num": params[:1], "bool": params[-2:]}, None,
                                {f: len(functions[f].params) for f in functions})
            functions[f"f{i}"] = PureFunction(f"f{i}", params, body)
        # a holds a number, b a bool, c either, u nothing; access 0 reads a number, 1 a bool
        tree = _random_tree(rng, rng.choice((8, 40, 120)), None, {"num": "aacu", "bool": "bbcu"},
                            {"num": (0, 0, 1), "bool": (1, 1, 0)},
                            {name: len(f.params) for name, f in functions.items()})
        if rng.random() < 0.05:  # a node the checks reject, somewhere in the tree
            node = tree
            while len(node) > 1 and isinstance(node[-1], list):
                node = node[-1]
            node[-1] = rng.choice(_MALFORMED)
        scalars = {"a": rng.choice(_VALUES["num"]), "b": rng.choice(_VALUES["bool"]),
                   "c": rng.choice(_VALUES["num"] + _VALUES["bool"])}
        values = [rng.choice(_VALUES["num"]), rng.choice(_VALUES["bool"]), None]
        expected = _outcome(lambda: oracle.compile_expr(
            tree, set(_SCALARS), _ACCESSES, oracle.compile_functions(functions).get, "body",
        )(dict(scalars), values.__getitem__))
        assert _outcome(lambda: _generated(tree, functions, values)[1](
            0, dict(scalars), lambda where, decl, value: value, None)) == expected, tree
        outcomes.add(expected[0])
        split += expected[0] is not ValidationError and bool(_generated(tree, functions, values)[0].defs)
    assert outcomes == {int, float, bool, EvaluationError, ValidationError}
    assert split  # some trees were deep enough to need helper functions


_EVIL = '"]\n__import__("os")._exit(7)#\'[{'


def test_names_and_literals_stay_data(monkeypatch):
    """Scalar, function and parameter names that would be code, and float
    literals Python cannot write as text, are values in the generated
    namespace: the sources hold none of them, and both executors agree bit
    for bit."""
    scalar, function, param = f"s{_EVIL}", f"f{_EVIL}", f"p{_EVIL}"
    text = json.dumps({
        "name": "evil", "grid": [2], "scatter_arity": 2,
        "fields": [{"name": "a", "type": "float64", "extents": [4]},
                   {"name": "b", "type": "float64", "extents": [4]}],
        "functions": {function: {"params": [param], "body": [
            "if", ["lt", ["var", param], ["float", 0.0]], ["float", -math.inf],
            ["mul", ["var", param], ["float", -0.0]]]}},
        "statements": [
            {"id": "T", "domain": "{ [x] : 0 <= x < 4 }", "schedule": "{ [x] -> [x, 0] }",
             "accesses": [{"field": "a", "kind": "read", "index": ["x"]}],
             "body": ["call", function, ["access", 0]], "scalar_writes": [scalar]},
            {"id": "W", "domain": "{ [x] : 0 <= x < 4 }", "schedule": "{ [x] -> [x, 1] }",
             "accesses": [{"field": "b", "kind": "write", "index": ["x"]}],
             "body": ["if", ["eq", ["var", scalar], ["float", -math.inf]],
                      ["add", ["var", scalar], ["float", math.inf]],
                      ["if", ["ne", ["var", scalar], ["float", math.nan]], ["var", scalar], ["float", 1.0]]],
             "scalar_reads": [scalar]},
        ],
    })
    assert "Infinity" in text and "NaN" in text and "-0.0" in text
    sources = _recording_sources(monkeypatch)
    scop = parse_scop(text)
    init = {"a": np.array([-1.5, 2.0, -0.0, math.inf]), "b": np.zeros(4)}
    expected = sequential_execute(scop, init)
    analysis, plan = plan_scop(scop)
    final, _ = run(init_runtime(plan, analysis.scop.grid, init), analysis.scop)
    assert first_divergence(expected, final) is None
    # -inf + inf, then a * -0.0 for a = 2.0, -0.0 and inf
    assert [v == v and math.copysign(1, v) for v in final["b"].tolist()] == [False, -1, 1, False]
    assert len(sources) == 2 * 3  # the function and both statements, once per scop
    for fragment in (scalar, function, param, _EVIL, "__import__", "_exit", "Infinity", "inf",
                     "NaN", "nan", "-0.0", "0.0"):
        assert not any(fragment in source for source in sources), fragment
