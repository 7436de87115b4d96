"""The body language: its checks when a scop is read, its evaluation
errors in the sequential executor and in the simulator, and the work its
compiler does."""

import dataclasses
import json

import numpy as np
import pytest

from polydist import exprs
from polydist import scop as scop_module
from polydist.cli import main
from polydist.errors import EvaluationError, ValidationError
from polydist.exprs import PureFunction
from polydist.fields import random_contents
from polydist.pipeline import plan_scop
from polydist.scop import sequential_execute
from polydist.scopio import parse_scop
from polydist.simrt import init_runtime, run


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
    return parse_scop(json.dumps({
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
    }))


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
    plan = dataclasses.replace(plan, events={
        node: [ev for ev in evs if ev.stmt not in skip] for node, evs in plan.events.items()})
    init = random_contents(scop, 1)
    kept = dataclasses.replace(scop, statements=tuple(s for s in scop.statements
                                                      if s.id not in skip))
    messages = []
    for go in (lambda: sequential_execute(kept, init),
               lambda: run(init_runtime(plan, analysis.scop.grid, init), analysis.scop)):
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


def test_bodies_compiled_once_per_scop(gol16_path, monkeypatch):
    # hasLife gets a second caller, and is still compiled once per scop:
    # when the scop is read, and again only for the isolated scop a run uses
    def second_caller(doc):
        s = dict(doc["statements"][5], id="S1.6b", scalar_writes=["spare"])
        s["schedule"] = "{ [i,x,y] -> [0,i,0,x,0,y,8] }"
        doc["statements"].append(s)

    compiled = []
    real = exprs.compile_expr

    def counting(node, scalars, accesses, function, where):
        compiled.append(where)
        return real(node, scalars, accesses, function, where)

    monkeypatch.setattr(exprs, "compile_expr", counting)
    monkeypatch.setattr(scop_module, "compile_expr", counting)
    scop = parse_scop(_gol16_with(gol16_path, second_caller))
    bodies = [s.id for s in scop.statements if s.body is not None]
    assert compiled == ["function hasLife"] + bodies
    compiled.clear()
    init = random_contents(scop, 4)
    expected = sequential_execute(scop, init)
    assert compiled == bodies
    analysis, plan = plan_scop(scop)
    compiled.clear()
    final, _ = run(init_runtime(plan, analysis.scop.grid, init), analysis.scop)
    bodies = [s.id for s in analysis.scop.statements if s.body is not None]
    assert compiled == ["function hasLife"] + bodies
    assert all(np.array_equal(final[f], expected[f]) for f in final)


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
