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

``compile_expr`` defines the language: one walk checks a tree and builds
the closure that evaluates it.  Evaluation is strict about types: boolean
operands are not silently treated as integers (use ``b2i``), which keeps
the simulator's semantics unambiguous across nodes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import EvaluationError, ValidationError

__all__ = ["PureFunction", "compile_expr", "compile_functions"]


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


def _numbers(x, y, op):
    return _need_num(x, op), _need_num(y, op)


def _same_kind(x, y, op):
    if isinstance(x, bool) != isinstance(y, bool):
        raise EvaluationError("eq/ne operands must have matching types")
    return x, y


def _unwritten(name):
    raise EvaluationError(f"scalar {name!r} read before any write")


_LITERALS = {"int": int, "float": (int, float), "bool": bool}
_UNARY = {"b2i": lambda v: int(_need_bool(v, "b2i")), "neg": lambda v: -_need_num(v, "neg"),
          "not": lambda v: not _need_bool(v, "not")}
_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
# comparison -> (operator, check of both operands once both are evaluated)
_COMPARE = {"lt": (operator.lt, _numbers), "le": (operator.le, _numbers),
            "gt": (operator.gt, _numbers), "ge": (operator.ge, _numbers),
            "eq": (operator.eq, _same_kind), "ne": (operator.ne, _same_kind)}


def compile_expr(node, scalars, accesses: Optional[Sequence[str]],
                 function: Callable[[str], Optional[tuple]], where: str) -> Callable:
    """Check a body tree and compile it into ``f(scalars, access)``, which
    evaluates it against a scalar environment and an accessor of access
    ordinals.  ``scalars`` are the names it may read, ``accesses`` the
    statement's access kinds (None in a function body, which may access no
    field) and ``function(name)`` a callee's (parameters, compiled body) or
    None.  A bad tree raises ValidationError prefixed with ``where``."""

    def fail(message):
        raise ValidationError(f"{where}: {message}")

    def walk(n):
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
            return lambda sc, acc: v
        if op == "var":
            name = n[1] if len(n) == 2 else None
            if not isinstance(name, str) or name not in scalars:
                fail(f"unknown scalar in body: {n!r}")
            return lambda sc, acc: sc[name] if name in sc else _unwritten(name)
        if op == "access":
            if accesses is None:
                fail("pure functions cannot access fields")
            j = n[1] if len(n) == 2 else None
            if not isinstance(j, int) or not 0 <= j < len(accesses):
                fail(f"bad access reference: {n!r}")
            if accesses[j] != "read":
                fail(f"body references write access {j}")
            return lambda sc, acc: acc(j)
        if op in _UNARY:
            if len(n) != 2:
                fail(f"{op} takes one operand")
            f, a = _UNARY[op], walk(n[1])
            return lambda sc, acc: f(a(sc, acc))
        if op in _ARITH or op in _COMPARE or op in ("and", "or"):
            if len(n) != 3:
                fail(f"{op} takes two operands")
            a, b = walk(n[1]), walk(n[2])
            if op in ("and", "or"):
                decided = op == "or"  # the first operand's value that decides the result
                return lambda sc, acc: (decided if _need_bool(a(sc, acc), op) == decided
                                        else _need_bool(b(sc, acc), op))
            if op in _ARITH:  # each operand checked as it comes
                f = _ARITH[op]
                return lambda sc, acc: f(_need_num(a(sc, acc), op), _need_num(b(sc, acc), op))
            f, check = _COMPARE[op]
            return lambda sc, acc: f(*check(a(sc, acc), b(sc, acc), op))
        if op == "if":
            if len(n) != 4:
                fail("if takes condition, then, else")
            c, t, e = map(walk, n[1:])
            return lambda sc, acc: t(sc, acc) if _need_bool(c(sc, acc), op) else e(sc, acc)
        if op == "call":
            fn = function(n[1]) if len(n) >= 2 and isinstance(n[1], str) else None
            if fn is None:
                fail(f"call to unknown function: {n!r}")
            params, body = fn
            if len(n) - 2 != len(params):
                fail(f"{n[1]} expects {len(params)} arguments, got {len(n) - 2}")
            args = [walk(x) for x in n[2:]]
            return lambda sc, acc: body(dict(zip(params, [x(sc, acc) for x in args])), None)
        fail(f"unknown expression operator: {op!r}")

    return walk(node)


def compile_functions(functions: dict[str, PureFunction]) -> dict[str, tuple]:
    """Every function's (parameters, compiled body), each body compiled
    once and its callees before it; a direct or mutual call cycle is a
    ValidationError naming the function whose call closes it."""
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

