"""Set-kernel cases: generation, the timed kernel calls, and the reference check.

The generator is this benchmark's own copy of the randomized distribution
behind acceptance criterion 7, so editing the test suite cannot change
the workload.  A case seed draws, in this order: a space of 1-4 dims, two
bounded sets ``a`` and ``b`` over it, a range space of 1-3 dims and a
relation ``m`` from the first space to it; the seed modulo 3 then picks
the relation operation (0 apply, 1 compose with a further relation ``g``,
2 inverse).

Only ``kernel_calls`` is timed.  ``check`` rebuilds every answer from
enumerated operands with plain Python sets, outside the timed region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from polydist.isets import (
    AffineExpr,
    DivTerm,
    IntMap,
    IntSet,
    Space,
    apply,
    compose,
    enumerate_set,
    eq0,
    ge0,
    intersect,
    inverse,
    is_empty,
    lexmax,
    lexmin,
    subtract,
    union,
)

MAX_POINTS = 250


def _space(rng: random.Random, name: str, max_dims: int = 4) -> Space:
    n = rng.randint(1, max_dims)
    return Space(name, tuple(f"{name}{i}" for i in range(n)))


def _expr(rng: random.Random, arity: int) -> AffineExpr:
    coeffs = tuple(rng.choice([-2, -1, -1, 0, 0, 1, 1, 2]) for _ in range(arity))
    const = rng.randint(-6, 6)
    divs = ()
    if arity and rng.random() < 0.25:
        inner = AffineExpr(tuple(rng.choice([-1, 0, 1]) for _ in range(arity)), rng.randint(-3, 3))
        if not inner.is_constant():
            divs = (DivTerm(rng.choice([-1, 1]), inner, rng.choice([2, 3, 4, 8])),)
    return AffineExpr(coeffs, const, divs)


def _set(rng: random.Random, space: Space, max_extent: int = 10) -> IntSet:
    """One or two box pieces of at most MAX_POINTS points, each with at
    most one extra random constraint."""
    n = space.arity
    pieces = []
    for _ in range(rng.randint(1, 2)):
        cons = []
        volume = 1
        for d in range(n):
            lo = rng.randint(-3, 3)
            hi = lo + rng.randint(0, max_extent - 1)
            while volume * (hi - lo + 1) > MAX_POINTS and hi > lo:
                hi -= 1
            volume *= hi - lo + 1
            cons.append(ge0(AffineExpr.var(n, d).plus_const(-lo)))
            cons.append(ge0(AffineExpr.var(n, d, -1).plus_const(hi)))
        for _ in range(rng.randint(0, 1)):
            expr = _expr(rng, n)
            cons.append(eq0(expr) if rng.random() < 0.25 else ge0(expr))
        pieces.append(cons)
    return IntSet.make(space, pieces)


def _map(rng: random.Random, dom: Space, ran: Space, max_extent: int) -> IntMap:
    base = _set(rng, Space("mr", dom.dims + tuple(f"{d}'" for d in ran.dims)), max_extent)
    return IntMap(dom, ran, base.pieces)


@dataclass(frozen=True)
class Case:
    seed: int
    a: IntSet
    b: IntSet
    m: IntMap
    g: Optional[IntMap]  # only for the compose rotation

    @property
    def rotation(self) -> str:
        return ("apply", "compose", "inverse")[self.seed % 3]


def make_case(seed: int) -> Case:
    rng = random.Random(seed)
    space = _space(rng, "s")
    a = _set(rng, space)
    b = _set(rng, space)
    ran = _space(rng, "r", max_dims=3)
    m = _map(rng, space, ran, max_extent=4)
    g = None
    if seed % 3 == 1:
        g = _map(rng, ran, _space(rng, "t", max_dims=2), max_extent=3)
    return Case(seed, a, b, m, g)


def kernel_calls(case: Case, rec) -> dict:
    """The timed part: every kernel operation of the case, each result enumerated."""
    out = {}

    def enumerated(name, result):
        with rec.span("isets.enumerate"):
            out[name] = enumerate_set(result)

    a, b = case.a, case.b
    with rec.span("isets.intersect"):
        r = intersect(a, b)
    enumerated("intersect", r)
    with rec.span("isets.union"):
        r = union(a, b)
    enumerated("union", r)
    with rec.span("isets.subtract"):
        r = subtract(a, b)
    enumerated("subtract", r)
    with rec.span("isets.is_empty"):
        out["is_empty"] = is_empty(a)
    if not out["is_empty"]:
        with rec.span("isets.lexmin"):
            out["lexmin"] = lexmin(a)
        with rec.span("isets.lexmax"):
            out["lexmax"] = lexmax(a)
    if case.rotation == "apply":
        with rec.span("isets.apply"):
            r = apply(case.m, a)
        enumerated("apply", r)
    elif case.rotation == "compose":
        with rec.span("isets.compose"):
            r = compose(case.g, case.m)
        enumerated("compose", r.as_set())
    else:
        with rec.span("isets.inverse"):
            r = inverse(case.m)
        enumerated("inverse", r.as_set())
    return out


def points(out: dict) -> int:
    """Points enumerated from kernel results."""
    return sum(len(v) for k, v in out.items() if k not in ("is_empty", "lexmin", "lexmax"))


def check(case: Case, out: dict) -> list[str]:
    """Names of the results that differ from the point-set reference."""
    ea, eb = set(enumerate_set(case.a)), set(enumerate_set(case.b))
    n = case.a.arity
    pairs = enumerate_set(case.m.as_set())
    want = {
        "intersect": sorted(ea & eb),
        "union": sorted(ea | eb),
        "subtract": sorted(ea - eb),
        "is_empty": not ea,
    }
    if ea:
        want["lexmin"] = min(ea)
        want["lexmax"] = max(ea)
    if case.rotation == "apply":
        want["apply"] = sorted({p[n:] for p in pairs if p[:n] in ea})
    elif case.rotation == "compose":
        nb = case.m.ran.arity
        g_by_in: dict = {}
        for p in enumerate_set(case.g.as_set()):
            g_by_in.setdefault(p[:nb], []).append(p[nb:])
        want["compose"] = sorted({p[:n] + q for p in pairs for q in g_by_in.get(p[n:], [])})
    else:
        want["inverse"] = sorted(p[n:] + p[:n] for p in pairs)
    return sorted(k for k in want.keys() | out.keys() if want.get(k) != out.get(k))
