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
    ["and"|"or", a, b]; ["not", e]              strict boolean logic
    ["if", c, t, f]                             conditional expression
    ["call", fname, args...]                    pure function call

Evaluation is strict about types: boolean operands are not silently
treated as integers (use ``b2i``), which keeps the simulator's semantics
unambiguous across nodes.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import EvaluationError, ValidationError

__all__ = ["PureFunction", "validate_expr", "eval_expr", "expr_reads"]

_ARITH = {"add", "sub", "mul"}
_CMP = {"lt", "le", "gt", "ge", "eq", "ne"}
_BOOL2 = {"and", "or"}


class PureFunction:
    """A named side-effect-free function: parameter names plus a body tree."""

    def __init__(self, name: str, params: Sequence[str], body):
        self.name = name
        self.params = tuple(params)
        self.body = body

    def __repr__(self):
        return f"PureFunction({self.name}, params={self.params})"


def validate_expr(node, scalars: set[str], n_accesses: int, functions: dict[str, PureFunction]):
    """Structural validation; raises ValidationError on bad references."""
    if not isinstance(node, (list, tuple)) or not node:
        raise ValidationError(f"malformed expression node: {node!r}")
    op = node[0]
    if op == "int":
        if len(node) != 2 or not isinstance(node[1], int) or isinstance(node[1], bool):
            raise ValidationError(f"bad int literal: {node!r}")
    elif op == "float":
        if len(node) != 2 or not isinstance(node[1], (int, float)) or isinstance(node[1], bool):
            raise ValidationError(f"bad float literal: {node!r}")
    elif op == "bool":
        if len(node) != 2 or not isinstance(node[1], bool):
            raise ValidationError(f"bad bool literal: {node!r}")
    elif op == "var":
        if len(node) != 2 or node[1] not in scalars:
            raise ValidationError(f"unknown scalar in body: {node!r}")
    elif op == "access":
        if len(node) != 2 or not isinstance(node[1], int) or not 0 <= node[1] < n_accesses:
            raise ValidationError(f"bad access reference: {node!r}")
    elif op in ("b2i", "neg", "not"):
        if len(node) != 2:
            raise ValidationError(f"{op} takes one operand")
        validate_expr(node[1], scalars, n_accesses, functions)
    elif op in _ARITH or op in _CMP or op in _BOOL2:
        if len(node) != 3:
            raise ValidationError(f"{op} takes two operands")
        validate_expr(node[1], scalars, n_accesses, functions)
        validate_expr(node[2], scalars, n_accesses, functions)
    elif op == "if":
        if len(node) != 4:
            raise ValidationError("if takes condition, then, else")
        for child in node[1:]:
            validate_expr(child, scalars, n_accesses, functions)
    elif op == "call":
        if len(node) < 2 or node[1] not in functions:
            raise ValidationError(f"call to unknown function: {node!r}")
        fn = functions[node[1]]
        if len(node) - 2 != len(fn.params):
            raise ValidationError(
                f"{fn.name} expects {len(fn.params)} arguments, got {len(node) - 2}"
            )
        for child in node[2:]:
            validate_expr(child, scalars, n_accesses, functions)
    else:
        raise ValidationError(f"unknown expression operator: {op!r}")


def _need_bool(v, op):
    if not isinstance(v, bool):
        raise EvaluationError(f"{op} requires a bool, got {type(v).__name__}")
    return v


def _need_num(v, op):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise EvaluationError(f"{op} requires int or float, got {type(v).__name__}")
    return v


def eval_expr(node, scalars: dict, access: Callable[[int], object], functions: dict[str, PureFunction]):
    op = node[0]
    if op == "int" or op == "float" or op == "bool":
        return node[1]
    if op == "var":
        if node[1] not in scalars:
            raise EvaluationError(f"scalar {node[1]!r} read before any write")
        return scalars[node[1]]
    if op == "access":
        return access(node[1])
    if op == "b2i":
        return int(_need_bool(eval_expr(node[1], scalars, access, functions), "b2i"))
    if op == "neg":
        return -_need_num(eval_expr(node[1], scalars, access, functions), "neg")
    if op in _ARITH:
        a = _need_num(eval_expr(node[1], scalars, access, functions), op)
        b = _need_num(eval_expr(node[2], scalars, access, functions), op)
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        return a * b
    if op in _CMP:
        a = eval_expr(node[1], scalars, access, functions)
        b = eval_expr(node[2], scalars, access, functions)
        if op in ("eq", "ne"):
            if isinstance(a, bool) != isinstance(b, bool):
                raise EvaluationError("eq/ne operands must have matching types")
        else:
            _need_num(a, op)
            _need_num(b, op)
        if op == "lt":
            return a < b
        if op == "le":
            return a <= b
        if op == "gt":
            return a > b
        if op == "ge":
            return a >= b
        if op == "eq":
            return a == b
        return a != b
    if op in _BOOL2:
        a = _need_bool(eval_expr(node[1], scalars, access, functions), op)
        if op == "and":
            return a and _need_bool(eval_expr(node[2], scalars, access, functions), op)
        return a or _need_bool(eval_expr(node[2], scalars, access, functions), op)
    if op == "not":
        return not _need_bool(eval_expr(node[1], scalars, access, functions), op)
    if op == "if":
        cond = _need_bool(eval_expr(node[1], scalars, access, functions), "if")
        branch = node[2] if cond else node[3]
        return eval_expr(branch, scalars, access, functions)
    if op == "call":
        fn = functions[node[1]]
        args = [eval_expr(a, scalars, access, functions) for a in node[2:]]
        env = dict(zip(fn.params, args))
        return eval_expr(fn.body, env, _no_access, functions)
    raise EvaluationError(f"unknown operator {op!r}")


def _no_access(_ordinal):
    raise EvaluationError("pure functions cannot access fields")


def expr_reads(node) -> tuple[set[str], set[int]]:
    """The scalar names and the access ordinals an expression reads."""
    scalars: set[str] = set()
    accesses: set[int] = set()

    def walk(n):
        if n[0] == "var":
            scalars.add(n[1])
        elif n[0] == "access":
            accesses.add(n[1])
        else:
            for child in n[1:]:
                if isinstance(child, (list, tuple)):
                    walk(child)

    walk(node)
    return scalars, accesses
