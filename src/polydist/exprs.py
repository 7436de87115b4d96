"""Statement bodies as prefix-notation expression trees.

Bodies come in from the JSON scop format as nested lists, e.g.::

    ["call", "hasLife", ["access", 0], ["var", "neighbors"]]

Node forms:
    ["int", n] / ["float", f] / ["bool", b]     literals
    ["var", name]                               scalar variable read
    ["access", ordinal]                         value of the ordinal-th access
    ["b2i", e]                                  bool -> int conversion
    ["neg", e]; ["add"|"sub"|"mul", a, b]       integer/float arithmetic
    ["lt"|"le"|"gt"|"ge"|"eq"|"ne", a, b]       comparisons -> bool
    ["and"|"or", a, b]; ["not", e]              short-circuit boolean logic
    ["if", c, t, f]                             conditional expression
    ["call", fname, args...]                    pure function call

``compile_expr`` defines the language: one walk checks a tree and writes
the Python that evaluates it, which ``Code.define`` runs when first needed.
Evaluation is strict about types: boolean operands are not silently treated
as integers (use ``b2i``), which keeps the simulator's semantics unambiguous
across nodes.  Names and literals reach the source only as generated names.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from .errors import EvaluationError, ValidationError

__all__ = ["PureFunction", "Code", "compile_expr", "compile_functions"]

_SPLIT = 16  # node levels per generated function, far below CPython's nesting limits


@dataclass(frozen=True)
class PureFunction:
    """A named side-effect-free function: parameter names plus a body tree."""

    name: str
    params: Sequence[str]
    body: object


def _need_bool(v, op):
    if not isinstance(v, bool):
        raise EvaluationError(f"{op} requires a bool, got {type(v).__name__}")
    return v


def _need_num(v, op):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise EvaluationError(f"{op} requires int or float, got {type(v).__name__}")
    return v


def _unwritten(name):
    raise EvaluationError(f"scalar {name!r} read before any write")


def _mismatched():
    raise EvaluationError("eq/ne operands must have matching types")


_LITERALS = {"int": int, "float": (int, float), "bool": bool}
# operator -> (the kinds its operands need, None for any; its source over them; its value's kind)
_OPERATORS = {"b2i": (("bool",), "(1 if {0} else 0)", "num"), "neg": (("num",), "(-{0})", "num"),
              "not": (("bool",), "(not {0})", "bool"), "add": (("num", "num"), "({0} + {1})", "num"),
              "sub": (("num", "num"), "({0} - {1})", "num"), "mul": (("num", "num"), "({0} * {1})", "num"),
              "and": (("bool", "bool"), "({1} if {0} else False)", "bool"),
              "or": (("bool", "bool"), "(True if {0} else {1})", "bool"),
              "if": (("bool", None, None), "({1} if {0} else {2})", None)}
# a comparison checks its operands, held in the temporaries x and y, once both are evaluated
_ORDER = "({x} %s {y} if type({x} := {0}) is type({y} := {1}) in _NUM else _need_num({x}, %r) %s _need_num({y}, %r))"
_EQUAL = "({x} %s {y} if (type({x} := {0}) is bool) is (type({y} := {1}) is bool) else _mismatched())"
_OPERATORS.update({op: ((None, None), _ORDER % (t, op, t, op), "bool")
                   for op, t in (("lt", "<"), ("le", "<="), ("gt", ">"), ("ge", ">="))})
_OPERATORS.update({op: ((None, None), _EQUAL % t, "bool") for op, t in (("eq", "=="), ("ne", "!="))})
_CHECKS = {"_need_bool": _need_bool, "_need_num": _need_num, "_unwritten": _unwritten, "_mismatched": _mismatched,
           "_NUM": frozenset((int, float))}
# a need -> the source of an operand t checked for it
_CHECKED = {"bool": "({t} if type({t} := {src}) is bool else _need_bool({t}, {op!r}))",
            "num": "({t} if type({t} := {src}) is int or type({t}) is float else _need_num({t}, {op!r}))"}


@dataclass(frozen=True, eq=False)
class Code:
    """A checked body tree as Python: ``expr`` evaluates it over ``args``, calling
    the helpers ``defs`` for deep subtrees; ``names`` binds every other name it
    uses.  ``kind`` is "bool" or "num" when every value is one, else None."""

    expr: str
    kind: Optional[str]
    args: str
    defs: tuple
    names: dict

    def define(self, params: str, lines, names: dict) -> Callable:
        """``def run(params)`` over the lines, with the code's names, ``names`` and the checks bound."""
        source = "\n".join([*self.defs, f"def run({params}):", *("    " + line for line in lines)])
        space = dict(_CHECKS, **{k: v.function if isinstance(v, Code) else v for k, v in (self.names | names).items()})
        exec(source, space)
        return space["run"]

    @cached_property
    def function(self) -> Callable:
        """``run(*args)``, the tree's value; a callee's Code stands for it."""
        return self.define(self.args, [f"return {self.expr}"], {})


def compile_expr(node, scalars, accesses: Optional[Sequence[str]],
                 function: Callable[[str], Optional[tuple]], where: str) -> Code:
    """Check a body tree and write it as Python.  ``scalars`` are the names it
    may read, ``accesses`` the statement's access kinds and ``function(name)``
    a callee's (parameters, Code) or None.  A statement body reads ``sc`` and
    access j as ``read(where, dj, ej[row])``, for the caller to bind dj and
    ej; a function body (``accesses`` None) reads parameter i as ``pi``.  A
    bad tree raises ValidationError prefixed with ``where``."""
    names, defs, temps = {}, [], itertools.count()
    local = None if accesses is not None else {name: f"p{i}" for i, name in enumerate(scalars)}
    args = "row, sc, read, where" if local is None else ", ".join(f"p{i}" for i in range(len(scalars)))

    def fail(message):
        raise ValidationError(f"{where}: {message}")

    def bind(value, prefix: str) -> str:
        names[name := f"{prefix}{len(names)}"] = value
        return name

    def checked(operand: tuple, need: Optional[str], op: str) -> str:
        src, kind = operand
        return src if need in (None, kind) else _CHECKED[need].format(t=f"t{next(temps)}", src=src, op=op)

    def walk(n, depth: int) -> tuple:
        if not isinstance(n, (list, tuple)) or not n:
            fail(f"malformed expression node: {n!r}")
        op = n[0]
        if not isinstance(op, str):
            fail(f"unknown expression operator: {op!r}")
        if op in _LITERALS:
            v = n[1] if len(n) == 2 else None
            if not isinstance(v, _LITERALS[op]) or (op != "bool" and isinstance(v, bool)):
                fail(f"bad {op} literal: {n!r}")
            if op == "float":
                try:
                    v = float(v)
                except OverflowError:
                    fail(f"bad float literal: {n!r}")
            return bind(v, "c"), "bool" if op == "bool" else "num"
        if op == "var":
            name = n[1] if len(n) == 2 else None
            if not isinstance(name, str) or name not in scalars:
                fail(f"unknown scalar in body: {n!r}")
            if local is not None:  # a repeated parameter name is the last
                return local[name], None
            k = bind(name, "k")
            return f"(sc[{k}] if {k} in sc else _unwritten({k}))", None
        if op == "access":
            if accesses is None:
                fail("pure functions cannot access fields")
            j = n[1] if len(n) == 2 else None
            if not isinstance(j, int) or not 0 <= j < len(accesses):
                fail(f"bad access reference: {n!r}")
            if accesses[j] != "read":
                fail(f"body references write access {j}")
            return f"read(where, d{j}, e{j}[row])", None
        if op == "call":
            fn = function(n[1]) if len(n) >= 2 and isinstance(n[1], str) else None
            if fn is None:
                fail(f"call to unknown function: {n!r}")
            params, callee = fn
            if len(n) - 2 != len(params):
                fail(f"{n[1]} expects {len(params)} arguments, got {len(n) - 2}")
            operands = ", ".join("{%d}" % i for i in range(len(params)))
            needs, template, kind = (None,) * len(params), f"{bind(callee, 'f')}({operands})", callee.kind
        elif op not in _OPERATORS:
            fail(f"unknown expression operator: {op!r}")
        elif len(n) != len(needs := _OPERATORS[op][0]) + 1:
            fail(f"{op} takes one operand" if len(needs) == 1 else
                 f"{op} takes two operands" if len(needs) == 2 else "if takes condition, then, else")
        else:
            _, template, kind = _OPERATORS[op]
        kids = []  # the operands' (source, kind), walked left to right
        for x in n[len(n) - len(needs):]:
            kids.append(walk(x, depth + 1))
        src = template.format(*(checked(k, need, op) for k, need in zip(kids, needs)),
                              x=f"t{next(temps)}", y=f"t{next(temps)}")
        if depth % _SPLIT == 0 and depth:  # the subtree becomes a helper function
            defs.append(f"def h{len(defs)}({args}):\n    return {src}")
            src = f"h{len(defs) - 1}({args})"
        return src, kind

    return Code(*walk(node, 0), args, tuple(defs), names)  # the walk fills defs and names


def compile_functions(functions: dict[str, PureFunction]) -> dict[str, tuple]:
    """Every function's (parameters, Code), each body compiled once and its
    callees before it; a direct or mutual call cycle is a ValidationError
    naming the function whose call closes it."""
    compiled: dict[str, tuple] = {}
    calling: list[str] = []  # the functions being compiled, outermost first

    def resolve(name: str) -> Optional[tuple]:
        if name in calling:
            cycle = " -> ".join(calling[calling.index(name):] + [name])
            raise ValidationError(f"function {calling[-1]}: call cycle {cycle}")
        if name in functions and name not in compiled:
            fn = functions[name]
            calling.append(name)
            compiled[name] = fn.params, compile_expr(fn.body, fn.params, None, resolve,
                                                     f"function {name}")
            calling.pop()
        return compiled.get(name)

    for name in functions:
        resolve(name)
    return compiled
