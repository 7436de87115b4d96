"""Exact finite integer sets and quasi-affine relations over named spaces.

Everything downstream (dependence analysis, placement, chunking, plan
generation) is phrased in terms of the two value types defined here:

* ``IntSet``   -- a finite union of conjunctions of affine constraints over
  the dimensions of one ``Space``.
* ``IntMap``   -- a binary relation between two spaces, stored as an
  ``IntSet``-style piece list over the concatenated dimensions.

Sets must be finite.  ``syntax.parse_set``, where sets enter from text,
rejects a set with ``UnboundedSet`` unless interval propagation derives
a lower and upper bound for every dimension of every piece; the
operations here derive finite sets from finite ones, and enumeration
(``enumerate_set``, ``lexmin``, ``lexmax``, ``is_empty``) raises
``UnboundedSet`` on an unbounded piece.  Finiteness is what licenses the
enumeration oracle used throughout the test suite, and the splitting
fallback that keeps integer projection exact.

Affine expressions may contain floor divisions by positive constants,
nested at most two deep (enough for block placements like floor(x/8)).
All symbolic operations are exact; none of them fall back to enumerating
the operand sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    EmptySet,
    IterationCapExceeded,
    SpaceMismatch,
    UnboundedSet,
)

__all__ = [
    "Space",
    "AffineExpr",
    "DivTerm",
    "Constraint",
    "IntSet",
    "IntMap",
    "intersect",
    "union",
    "subtract",
    "is_empty",
    "enumerate_set",
    "apply",
    "compose",
    "inverse",
    "lexmin",
    "lexmax",
    "select_lex_extreme",
]

MAX_DIV_DEPTH = 2


# ---------------------------------------------------------------------------
# Spaces


@dataclass(frozen=True)
class Space:
    """A named tuple space with one name per dimension."""

    name: str
    dims: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.dims)) != len(self.dims):
            raise ValueError(f"duplicate dim names in space {self.name!r}: {self.dims}")

    @property
    def arity(self) -> int:
        return len(self.dims)

    def renamed(self, name: str) -> "Space":
        return Space(name, self.dims)


def _merge_dim_names(a: Sequence[str], b: Sequence[str]) -> tuple[str, ...]:
    """Concatenate dim name lists, priming collisions from the second list."""
    out = list(a)
    for d in b:
        cand = d
        while cand in out:
            cand += "'"
        out.append(cand)
    return tuple(out)


def product_space(a: Space, b: Space, name: Optional[str] = None) -> Space:
    return Space(name or f"{a.name}*{b.name}", _merge_dim_names(a.dims, b.dims))


# ---------------------------------------------------------------------------
# Affine expressions


def _fdiv(a: int, b: int) -> int:
    return a // b


def _cdiv(a: int, b: int) -> int:
    return -((-a) // b)


@dataclass(frozen=True)
class DivTerm:
    """coeff * floor(inner / div) with div > 0."""

    coeff: int
    inner: "AffineExpr"
    div: int

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.coeff, self.inner, self.div))
            object.__setattr__(self, "_hash", h)
            return h


@dataclass(frozen=True)
class AffineExpr:
    """sum(coeffs[i] * x_i) + const + sum(div terms), over a fixed arity."""

    coeffs: tuple[int, ...]
    const: int = 0
    divs: tuple[DivTerm, ...] = ()

    def __post_init__(self):
        if not self.divs:
            return
        # Normalize: fold constant inners, merge identical div terms, drop zeros.
        divs = []
        const = self.const
        for dt in self.divs:
            if dt.div <= 0:
                raise ValueError("floordiv divisor must be positive")
            if dt.coeff == 0:
                continue
            if dt.inner.is_constant():
                const += dt.coeff * _fdiv(dt.inner.const, dt.div)
                continue
            divs.append(dt)
        merged: dict[tuple, DivTerm] = {}
        for dt in divs:
            key = (dt.inner.key(), dt.div)
            if key in merged:
                prev = merged[key]
                merged[key] = DivTerm(prev.coeff + dt.coeff, dt.inner, dt.div)
            else:
                merged[key] = dt
        final = tuple(
            sorted(
                (dt for dt in merged.values() if dt.coeff != 0),
                key=lambda dt: (dt.div, dt.inner.key(), dt.coeff),
            )
        )
        if self.depth_of(final) > MAX_DIV_DEPTH:
            raise ValueError("floordiv nesting deeper than supported")
        object.__setattr__(self, "divs", final)
        object.__setattr__(self, "const", const)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.coeffs, self.const, self.divs))
            object.__setattr__(self, "_hash", h)
            return h

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(arity: int, value: int) -> "AffineExpr":
        return AffineExpr((0,) * arity, value)

    @staticmethod
    def var(arity: int, index: int, coeff: int = 1) -> "AffineExpr":
        c = [0] * arity
        c[index] = coeff
        return AffineExpr(tuple(c), 0)

    # -- queries ------------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    @staticmethod
    def depth_of(divs: tuple[DivTerm, ...]) -> int:
        if not divs:
            return 0
        return 1 + max(AffineExpr.depth_of(dt.inner.divs) for dt in divs)

    def depth(self) -> int:
        return self.depth_of(self.divs)

    def is_constant(self) -> bool:
        return not self.divs and all(c == 0 for c in self.coeffs)

    def uses_dim(self, k: int) -> bool:
        if self.coeffs[k] != 0:
            return True
        return any(dt.inner.uses_dim(k) for dt in self.divs)

    def dim_in_div(self, k: int) -> bool:
        return any(dt.inner.uses_dim(k) for dt in self.divs)

    def key(self):
        return (
            self.coeffs,
            self.const,
            tuple((dt.coeff, dt.div, dt.inner.key()) for dt in self.divs),
        )

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "AffineExpr") -> "AffineExpr":
        return AffineExpr(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            self.const + other.const,
            self.divs + other.divs,
        )

    def __sub__(self, other: "AffineExpr") -> "AffineExpr":
        return self + other.scale(-1)

    def __neg__(self) -> "AffineExpr":
        return self.scale(-1)

    def scale(self, k: int) -> "AffineExpr":
        return AffineExpr(
            tuple(k * c for c in self.coeffs),
            k * self.const,
            tuple(DivTerm(k * dt.coeff, dt.inner, dt.div) for dt in self.divs),
        )

    def plus_const(self, k: int) -> "AffineExpr":
        return AffineExpr(self.coeffs, self.const + k, self.divs)

    # -- structural rewrites -------------------------------------------------

    def remap(self, mapping: Sequence[int], new_arity: int) -> "AffineExpr":
        """Move dim i to position mapping[i]; mapping[i] < 0 requires coeff 0."""
        coeffs = [0] * new_arity
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if mapping[i] < 0:
                raise ValueError("cannot drop a used dimension")
            coeffs[mapping[i]] += c
        divs = tuple(
            DivTerm(dt.coeff, dt.inner.remap(mapping, new_arity), dt.div)
            for dt in self.divs
        )
        return AffineExpr(tuple(coeffs), self.const, divs)

    def substitute(self, args: Sequence["AffineExpr"]) -> "AffineExpr":
        """Replace dim i by args[i]; args share one target arity."""
        arity = args[0].arity if args else 0
        out = AffineExpr.constant(arity, self.const)
        for c, a in zip(self.coeffs, args):
            if c:
                out = out + a.scale(c)
        for dt in self.divs:
            out = out + AffineExpr(
                (0,) * arity, 0, (DivTerm(dt.coeff, dt.inner.substitute(args), dt.div),)
            )
        return out

    def substitute_dim(self, k: int, repl: "AffineExpr") -> "AffineExpr":
        """Replace dim k by an expression of the same arity."""
        if repl.is_constant():
            return self.assign_dim(k, repl.const)
        args = [AffineExpr.var(self.arity, i) for i in range(self.arity)]
        args[k] = repl
        return self.substitute(args)

    def assign_dim(self, k: int, value: int) -> "AffineExpr":
        """Replace dim k by a constant (cheap path for enumeration)."""
        if self.coeffs[k] == 0 and not any(dt.inner.uses_dim(k) for dt in self.divs):
            return self
        coeffs = tuple(0 if i == k else c for i, c in enumerate(self.coeffs))
        const = self.const + self.coeffs[k] * value
        divs = tuple(
            DivTerm(dt.coeff, dt.inner.assign_dim(k, value), dt.div) for dt in self.divs
        )
        return AffineExpr(coeffs, const, divs)


# ---------------------------------------------------------------------------
# Constraints and pieces


@dataclass(frozen=True)
class Constraint:
    """expr >= 0, or expr == 0 when is_eq."""

    expr: AffineExpr
    is_eq: bool = False

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.expr, self.is_eq))
            object.__setattr__(self, "_hash", h)
            return h

    def key(self):
        return (self.is_eq, self.expr.key())


def ge0(expr: AffineExpr) -> Constraint:
    return Constraint(expr, False)


def eq0(expr: AffineExpr) -> Constraint:
    return Constraint(expr, True)


Piece = tuple[Constraint, ...]


def _gcd_list(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = _gcd(g, abs(v))
    return g


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _all_coeffs(expr: AffineExpr) -> list[int]:
    out = [c for c in expr.coeffs if c]
    out.extend(dt.coeff for dt in expr.divs)
    return out


def _normalize_constraint(c: Constraint) -> Optional[Constraint]:
    """Canonical form; None means trivially true; FALSE means trivially false."""
    expr = c.expr
    coeffs = _all_coeffs(expr)
    if not coeffs:
        ok = expr.const == 0 if c.is_eq else expr.const >= 0
        return None if ok else FALSE
    g = _gcd_list(coeffs)
    if g > 1:
        if c.is_eq:
            if expr.const % g != 0:
                return FALSE
            expr = AffineExpr(
                tuple(x // g for x in expr.coeffs),
                expr.const // g,
                tuple(DivTerm(dt.coeff // g, dt.inner, dt.div) for dt in expr.divs),
            )
        else:
            expr = AffineExpr(
                tuple(x // g for x in expr.coeffs),
                _fdiv(expr.const, g),
                tuple(DivTerm(dt.coeff // g, dt.inner, dt.div) for dt in expr.divs),
            )
    if c.is_eq:
        lead = next(iter(_all_coeffs(expr)), 0)
        if lead < 0:
            expr = expr.scale(-1)
    return Constraint(expr, c.is_eq)


FALSE = Constraint(AffineExpr((), -1), False)  # sentinel: unsatisfiable


def _interval_groups(constraints: Iterable[Constraint]) -> list[list]:
    """Fold constraints sharing one linear part into 'lo <= canon <= hi'.

    canon is the part without its constant, signed so that its leading
    coefficient is positive.  One [canon, lo, hi, members] per linear part,
    in order of first appearance, with lo/hi None when that side is
    unconstrained.
    """
    groups: dict[tuple, list] = {}
    for c in constraints:
        base = AffineExpr(c.expr.coeffs, 0, c.expr.divs)
        sign = 1 if next(iter(_all_coeffs(base)), 0) > 0 else -1
        canon = base if sign > 0 else base.scale(-1)
        key = canon.key()
        entry = groups.get(key)
        if entry is None:
            entry = groups[key] = [canon, None, None, []]
        v = -c.expr.const * sign  # c.expr == sign * (canon - v)
        if c.is_eq or sign > 0:  # canon >= v
            entry[1] = v if entry[1] is None else max(entry[1], v)
        if c.is_eq or sign < 0:  # canon <= v
            entry[2] = v if entry[2] is None else min(entry[2], v)
        entry[3].append(c)
    return list(groups.values())


def _interval_constraints(canon: AffineExpr, lo, hi) -> list[Constraint]:
    """lo <= canon <= hi as constraints: one equality when lo == hi."""
    if lo is not None and lo == hi:
        return [eq0(canon.plus_const(-lo))]
    out = []
    if lo is not None:
        out.append(ge0(canon.plus_const(-lo)))
    if hi is not None:
        out.append(ge0(canon.scale(-1).plus_const(hi)))
    return out


def normalize_piece(constraints: Iterable[Constraint]) -> Optional[Piece]:
    """Canonicalize a conjunction; None when it is syntactically false.

    Constraints sharing one linear part are folded into a single interval:
    opposite inequalities become an equality, dominated bounds are
    dropped, and contradictions are detected here.
    """
    normalized = []
    for c in constraints:
        n = _normalize_constraint(c)
        if n is FALSE:
            return None
        if n is not None:
            normalized.append(n)
    out = {}
    for canon, lo, hi, _ in _interval_groups(normalized):
        if lo is not None and hi is not None and lo > hi:
            return None
        for c in _interval_constraints(canon, lo, hi):
            out[c.key()] = c
    return tuple(out[k] for k in sorted(out))


# ---------------------------------------------------------------------------
# Interval propagation

_PROP_ROUND_CAP = 10_000  # bounds use None for +/- infinity


def _add_b(a, b):
    if a is None or b is None:
        return None
    return a + b


def _mul_iv(k: int, lo, hi):
    if k == 0:
        return 0, 0
    if k > 0:
        return (None if lo is None else k * lo, None if hi is None else k * hi)
    return (None if hi is None else k * hi, None if lo is None else k * lo)


def _expr_interval(expr: AffineExpr, bounds, skip_dim: int = -1):
    """Interval of expr given per-dim bounds; skip_dim's linear term omitted."""
    lo = hi = expr.const
    for i, c in enumerate(expr.coeffs):
        if c == 0 or i == skip_dim:
            continue
        tlo, thi = _mul_iv(c, bounds[i][0], bounds[i][1])
        lo = _add_b(lo, tlo)
        hi = _add_b(hi, thi)
        if lo is None and hi is None:
            break
    for dt in expr.divs:
        ilo, ihi = _expr_interval(dt.inner, bounds)
        dlo = None if ilo is None else _fdiv(ilo, dt.div)
        dhi = None if ihi is None else _fdiv(ihi, dt.div)
        tlo, thi = _mul_iv(dt.coeff, dlo, dhi)
        lo = _add_b(lo, tlo)
        hi = _add_b(hi, thi)
    return lo, hi


class _Infeasible(Exception):
    pass


def _iv_meet(a, b):
    """Intersection of two intervals with None as +/- infinity."""
    lo = a[0] if b[0] is None else (b[0] if a[0] is None else max(a[0], b[0]))
    hi = a[1] if b[1] is None else (b[1] if a[1] is None else min(a[1], b[1]))
    if lo is not None and hi is not None and lo > hi:
        raise _Infeasible
    return lo, hi


def _iv_sub(a, b):
    """Interval of x - y for x in a, y in b."""
    lo = None if a[0] is None or b[1] is None else a[0] - b[1]
    hi = None if a[1] is None or b[0] is None else a[1] - b[0]
    return lo, hi


def _div_coeff_solve(coeff: int, tlo, thi):
    """Interval of v given coeff*v in [tlo, thi]."""
    if coeff > 0:
        lo = None if tlo is None else _cdiv(tlo, coeff)
        hi = None if thi is None else _fdiv(thi, coeff)
    else:
        lo = None if thi is None else _cdiv(thi, coeff)
        hi = None if tlo is None else _fdiv(tlo, coeff)
    return lo, hi


def _tighten_expr(expr: AffineExpr, req, bounds, state):
    """Require expr's value to lie within `req`; tighten dim bounds in place."""
    terms = []  # (kind, payload, (lo, hi))
    for i, c in enumerate(expr.coeffs):
        if c:
            terms.append(("dim", (i, c), _mul_iv(c, bounds[i][0], bounds[i][1])))
    for dt in expr.divs:
        ilo, ihi = _expr_interval(dt.inner, bounds)
        dlo = None if ilo is None else _fdiv(ilo, dt.div)
        dhi = None if ihi is None else _fdiv(ihi, dt.div)
        terms.append(("div", dt, _mul_iv(dt.coeff, dlo, dhi)))
    n = len(terms)
    # prefix[i] / suffix[i]: interval sum of terms before / from index i
    prefix = [(expr.const, expr.const)]
    for _, _, iv in terms:
        last = prefix[-1]
        prefix.append((_add_b(last[0], iv[0]), _add_b(last[1], iv[1])))
    suffix = [(0, 0)] * (n + 1)
    for i in range(n - 1, -1, -1):
        iv = terms[i][2]
        nxt = suffix[i + 1]
        suffix[i] = (_add_b(nxt[0], iv[0]), _add_b(nxt[1], iv[1]))
    total = prefix[n]
    # feasibility
    if req[0] is not None and total[1] is not None and total[1] < req[0]:
        raise _Infeasible
    if req[1] is not None and total[0] is not None and total[0] > req[1]:
        raise _Infeasible
    for idx in range(n):
        kind, payload, _ = terms[idx]
        a, b = prefix[idx]
        c2, d2 = suffix[idx + 1]
        rest = (_add_b(a, c2), _add_b(b, d2))
        need = _iv_sub(req, rest)  # required interval for this term's value
        if need == (None, None):
            continue
        if kind == "dim":
            k, coeff = payload
            lo, hi = _div_coeff_solve(coeff, need[0], need[1])
            new = _iv_meet(bounds[k], (lo, hi))
            if new != bounds[k]:
                bounds[k] = new
                state["changed"] = True
        else:
            dt = payload
            flo, fhi = _div_coeff_solve(dt.coeff, need[0], need[1])
            inner_req = (
                None if flo is None else flo * dt.div,
                None if fhi is None else fhi * dt.div + dt.div - 1,
            )
            if inner_req != (None, None):
                _tighten_expr(dt.inner, inner_req, bounds, state)


@lru_cache(maxsize=200_000)
def propagate(arity: int, piece: Piece):
    """Per-dim integer bounds implied by the piece, or None when empty.

    Sound in both directions: a returned box over-approximates the piece,
    and an 'empty' verdict is always correct.  Bounds entries are
    (lo, hi) with None for unbounded sides.  Requirements are pushed
    through floor-division terms, so dims occurring only inside divs
    still receive bounds.
    """
    # single-variable linear pieces settle in one pass
    single = []
    for c in piece:
        if c.expr.divs:
            single = None
            break
        dim = -1
        for i, v in enumerate(c.expr.coeffs):
            if v:
                if dim >= 0:
                    dim = -2
                    break
                dim = i
        if dim == -2:
            single = None
            break
        single.append((c, dim))
    if single is not None:
        bounds = [(None, None)] * arity
        for c, dim in single:
            const = c.expr.const
            if dim < 0:
                if const != 0 if c.is_eq else const < 0:
                    return None
                continue
            a = c.expr.coeffs[dim]
            lo, hi = _div_coeff_solve(a, -const, -const if c.is_eq else None)
            cur = bounds[dim]
            nlo = lo if cur[0] is None else (lo if lo is not None and lo > cur[0] else cur[0])
            nhi = hi if cur[1] is None else (hi if hi is not None and hi < cur[1] else cur[1])
            if nlo is not None and nhi is not None and nlo > nhi:
                return None
            bounds[dim] = (nlo, nhi)
        return tuple(bounds)
    bounds = [(None, None)] * arity
    try:
        for _ in range(_PROP_ROUND_CAP):
            state = {"changed": False}
            for c in piece:
                req = (0, 0) if c.is_eq else (0, None)
                _tighten_expr(c.expr, req, bounds, state)
            if not state["changed"]:
                break
        else:
            raise IterationCapExceeded("interval propagation did not converge")
    except _Infeasible:
        return None
    return tuple(bounds)


def piece_box(arity: int, piece: Piece):
    """Finite bounding box of a piece; None if empty; raises if unbounded."""
    bounds = propagate(arity, piece)
    if bounds is None:
        return None
    for k, (lo, hi) in enumerate(bounds):
        if lo is None or hi is None:
            raise UnboundedSet(f"dimension {k} is unbounded")
    return bounds


# ---------------------------------------------------------------------------
# Box scanning (polyhedral scanning of a finite box, evaluated with numpy)

_SCAN_BLOCK = 1 << 14  # points evaluated per numpy pass; bounds the scan's memory
_ENUM_SCAN_CAP = 1 << 20  # largest free box that _enumerate_piece scans
_SOLVE_SCAN_CAP = 1 << 12  # largest free box that _solve_piece scans
_INT64_SAFE = 1 << 62  # every value the scan computes stays below this in magnitude


@dataclass(frozen=True)
class _ScanProgram:
    """Column program that scans one piece.

    Columns 0..arity-1 hold the dimensions and each distinct floor
    division gets a column after them.  Free dimensions come from the box
    (flat index -> index // stride % extent + lo, so ravel order is
    lexicographic).  Each stage (cols, rows, consts, divs) then fills its
    columns at once with (y @ rows + consts) // divs, and a point is kept
    when y @ checks + bases >= 0 in every column (an equality appears as
    two opposite inequalities).
    """

    volume: int
    ncols: int
    free: np.ndarray
    strides: np.ndarray
    extents: np.ndarray
    los: np.ndarray
    stages: tuple
    checks: np.ndarray
    bases: np.ndarray


@lru_cache(maxsize=10_000)
def _scan_program(arity: int, piece: Piece) -> Optional[_ScanProgram]:
    """How to scan a non-empty piece, or None when the scan does not apply.

    Each equality with a unit coefficient on a dimension outside its floor
    divisions defines that dimension from the others (the highest such
    dimension that closes no cycle).  The remaining free dimensions span
    the box to scan; every other constraint, floor divisions included, is
    checked point by point.  None when a dimension is unbounded (the search
    reports that) or when int64 evaluation could overflow.
    """
    bounds = propagate(arity, piece)
    if any(lo is None or hi is None for lo, hi in bounds):
        return None
    steps: dict[int, tuple[dict, int, int]] = {}  # computed col -> (row, const, div)
    div_cols: dict[tuple, int] = {}

    def lift(expr: AffineExpr) -> tuple[dict, int]:
        """expr as a row {col: coeff} plus a constant."""
        row = {i: c for i, c in enumerate(expr.coeffs) if c}
        for dt in expr.divs:
            key = (dt.inner.key(), dt.div)
            if key not in div_cols:
                inner_row, inner_const = lift(dt.inner)
                div_cols[key] = arity + len(div_cols)
                steps[div_cols[key]] = (inner_row, inner_const, dt.div)
            j = div_cols[key]
            row[j] = row.get(j, 0) + dt.coeff
        return row, expr.const

    def reaches(cols: Iterable[int], k: int) -> bool:
        stack, seen = list(cols), set()
        while stack:
            j = stack.pop()
            if j == k:
                return True
            if j in steps and j not in seen:
                seen.add(j)
                stack.extend(steps[j][0])
        return False

    rows, bases = [], []
    for c in piece:
        row, const = lift(c.expr)
        if c.is_eq:
            for k in sorted((j for j in row if j < arity and abs(row[j]) == 1), reverse=True):
                rest = {j: v for j, v in row.items() if j != k}
                if k not in steps and not reaches(rest, k):
                    a = row[k]  # a*x_k + rest + const == 0 with a in {1, -1}
                    steps[k] = ({j: -a * v for j, v in rest.items()}, -a * const, 1)
                    break
            else:
                rows.append({j: -v for j, v in row.items()})
                bases.append(-const)
                rows.append(row)
                bases.append(const)
            continue
        rows.append(row)
        bases.append(const)

    free = [d for d in range(arity) if d not in steps]
    level = {d: 0 for d in free}
    mag = {d: max(abs(bounds[d][0]), abs(bounds[d][1])) for d in free}

    def settle(col: int):
        """Stage and magnitude bound of a computed column: the bound covers
        every partial sum of its row, and |floor(v / d)| <= |v|."""
        if col not in level:
            row, const, _ = steps[col]
            for j in row:
                settle(j)
            level[col] = 1 + max((level[j] for j in row), default=0)
            mag[col] = abs(const) + sum(abs(v) * mag[j] for j, v in row.items())

    for col in steps:
        settle(col)
    if any(m >= _INT64_SAFE for m in mag.values()) or any(
        abs(b) + sum(abs(v) * mag[j] for j, v in row.items()) >= _INT64_SAFE
        for row, b in zip(rows, bases)
    ):
        return None

    ncols = arity + len(div_cols)

    def dense(rows):
        out = np.zeros((ncols, len(rows)), dtype=np.int64)
        for i, row in enumerate(rows):
            for j, v in row.items():
                out[j, i] = v
        return out

    stages = []
    for lv in sorted(set(level[col] for col in steps)):
        group = [col for col in steps if level[col] == lv]
        stages.append(
            (
                np.array(group, dtype=np.intp),
                dense([steps[col][0] for col in group]),
                np.array([steps[col][1] for col in group], dtype=np.int64),
                np.array([steps[col][2] for col in group], dtype=np.int64),
            )
        )
    extents = [bounds[d][1] - bounds[d][0] + 1 for d in free]
    strides = [1] * len(free)
    for i in range(len(free) - 2, -1, -1):
        strides[i] = strides[i + 1] * extents[i + 1]
    return _ScanProgram(
        volume=strides[0] * extents[0] if free else 1,
        ncols=ncols,
        free=np.array(free, dtype=np.intp),
        strides=np.array(strides, dtype=np.int64),
        extents=np.array(extents, dtype=np.int64),
        los=np.array([bounds[d][0] for d in free], dtype=np.int64),
        stages=tuple(stages),
        checks=dense(rows),
        bases=np.array(bases, dtype=np.int64),
    )


def _scan_piece(arity: int, piece: Piece, cap: int):
    """Points of a non-empty piece as an int64 array, one row per point in
    lexicographic order of the free dimensions; None when the scan does not
    apply or the free box holds more than `cap` points."""
    prog = _scan_program(arity, piece)
    if prog is None or prog.volume > cap:
        return None
    found = []
    for start in range(0, prog.volume, _SCAN_BLOCK):
        idx = np.arange(start, min(prog.volume, start + _SCAN_BLOCK), dtype=np.int64)
        y = np.zeros((len(idx), prog.ncols), dtype=np.int64)
        y[:, prog.free] = idx[:, None] // prog.strides % prog.extents + prog.los
        for cols, rows, consts, divs in prog.stages:
            y[:, cols] = (y @ rows + consts) // divs
        keep = (y @ prog.checks + prog.bases >= 0).all(axis=1)
        found.append(y[keep, :arity])
    return np.concatenate(found)


def _search_piece(arity: int, piece: Piece, descending: bool):
    """Points of a piece in lexicographic order, descending when asked.

    Backtracking over the dimensions in order: each value is substituted
    into the constraints, and interval propagation prunes empty subtrees.
    Once every remaining constraint is linear in a single dimension, the
    propagated bounds are exact and independent, so the rest of the
    subtree is a box and is emitted wholesale.  Raises UnboundedSet when a
    dimension to branch on or emit is unbounded.
    """
    point = [0] * arity

    def values(bounds, d):
        lo, hi = bounds[d]
        if lo is None or hi is None:
            raise UnboundedSet(f"dimension {d} is unbounded")
        return range(hi, lo - 1, -1) if descending else range(lo, hi + 1)

    def rec(cons: Piece, d: int):
        bounds = propagate(arity, cons)
        if bounds is None:
            return
        if all(not c.expr.divs and sum(1 for x in c.expr.coeffs if x) <= 1 for c in cons):
            for tail in itertools.product(*(values(bounds, k) for k in range(d, arity))):
                point[d:] = tail
                yield tuple(point)
            return
        for v in values(bounds, d):
            nxt = []
            for c in cons:
                e = c.expr.assign_dim(d, v)
                if not e.divs and not any(e.coeffs):
                    if e.const != 0 if c.is_eq else e.const < 0:
                        break
                    continue  # trivially true after substitution
                nxt.append(c if e is c.expr else Constraint(e, c.is_eq))
            else:
                point[d] = v
                yield from rec(tuple(nxt), d + 1)

    return rec(piece, 0)


def _solve_piece(arity: int, piece: Piece, maximize: bool) -> Optional[tuple[int, ...]]:
    """Lexicographic extreme point of a piece, or None when empty: the
    extreme of the scanned points when the box is small, else the first
    point of the search."""
    if propagate(arity, piece) is None:
        return None
    points = _scan_piece(arity, piece, _SOLVE_SCAN_CAP)
    if points is None:
        return next(_search_piece(arity, piece, maximize), None)
    if not len(points):
        return None
    for d in range(arity):
        col = points[:, d]
        points = points[col == (col.max() if maximize else col.min())]
    return tuple(points[0].tolist())


def piece_is_empty(arity: int, piece: Piece) -> bool:
    return _solve_piece(arity, piece, False) is None


def _enumerate_piece(arity: int, piece: Piece) -> list[tuple[int, ...]]:
    """All points of a piece: scanned when the box is small enough (see
    _scan_program), else searched."""
    if propagate(arity, piece) is None:
        return []
    points = _scan_piece(arity, piece, _ENUM_SCAN_CAP)
    if points is None:
        return list(_search_piece(arity, piece, False))
    return list(map(tuple, points.tolist()))


# ---------------------------------------------------------------------------
# Exact projection


def _replace_div(expr: AffineExpr, target: DivTerm, q: int) -> AffineExpr:
    """Replace floor(target.inner / target.div) by dim q, recursively."""
    divs = []
    extra = AffineExpr.constant(expr.arity, 0)
    for dt in expr.divs:
        inner = _replace_div(dt.inner, target, q)
        if inner.key() == target.inner.key() and dt.div == target.div:
            extra = extra + AffineExpr.var(expr.arity, q, dt.coeff)
        else:
            divs.append(DivTerm(dt.coeff, inner, dt.div))
    base = AffineExpr(expr.coeffs, expr.const, tuple(divs))
    return base + extra


def _find_div_with_dim(expr: AffineExpr, k: int) -> Optional[DivTerm]:
    """An innermost div term whose inner uses dim k."""
    for dt in expr.divs:
        nested = _find_div_with_dim(dt.inner, k)
        if nested is not None:
            return nested
        if dt.inner.uses_dim(k):
            return dt
    return None


def _drop_dim(piece: Piece, k: int, arity: int) -> Piece:
    mapping = [i if i < k else i - 1 for i in range(arity)]
    mapping[k] = -1
    out = []
    for c in piece:
        out.append(Constraint(c.expr.remap(mapping, arity - 1), c.is_eq))
    return tuple(out)


def _eliminate_dim(arity: int, piece: Piece, k: int) -> list[Piece]:
    """Exact integer projection of one dimension out of one piece.

    Strategy: substitute through unit-coefficient equalities, elaborate
    floor divisions over fresh dimensions, use Fourier-Motzkin when every
    lower/upper pair has a unit side, and otherwise split on the finite
    value range of the dimension.  Returns pieces over arity-1 dims.
    """
    piece_n = normalize_piece(piece)
    if piece_n is None:
        return []
    piece = piece_n

    used_lin = [c for c in piece if c.expr.coeffs[k] != 0]
    used_div = [c for c in piece if c.expr.dim_in_div(k)]
    if not used_lin and not used_div:
        return [_drop_dim(piece, k, arity)]

    # Elaborate a floordiv that mentions dim k behind a fresh dimension.
    if used_div:
        target = None
        for c in used_div:
            target = _find_div_with_dim(c.expr, k)
            if target is not None:
                break
        assert target is not None
        q = arity
        mapping = list(range(arity))
        widened = []
        for c in piece:
            expr = c.expr.remap(mapping, arity + 1)
            widened.append(Constraint(_replace_div(expr, _widen_div(target, arity + 1), q), c.is_eq))
        inner = target.inner.remap(mapping, arity + 1)
        qv = AffineExpr.var(arity + 1, q)
        widened.append(ge0(inner - qv.scale(target.div)))
        widened.append(ge0(qv.scale(target.div) - inner + AffineExpr.constant(arity + 1, target.div - 1)))
        out = []
        for p1 in _eliminate_dim(arity + 1, tuple(widened), k):
            out.extend(_eliminate_dim(arity, p1, arity - 1))
        return out

    # Unit-coefficient equality: substitute.
    for c in used_lin:
        if c.is_eq and abs(c.expr.coeffs[k]) == 1 and not c.expr.dim_in_div(k):
            a = c.expr.coeffs[k]
            # a*x_k + E == 0  =>  x_k = -E/a
            rest = AffineExpr(
                tuple(0 if i == k else v for i, v in enumerate(c.expr.coeffs)),
                c.expr.const,
                c.expr.divs,
            )
            repl = rest.scale(-a)  # a in {1,-1}
            out = []
            for other in piece:
                if other is c:
                    continue
                out.append(Constraint(other.expr.substitute_dim(k, repl), other.is_eq))
            result = normalize_piece(out)
            return [] if result is None else [_drop_dim(result, k, arity)]

    # Fourier-Motzkin over inequalities (equalities as two inequalities).
    # Non-unit equalities fall through to here and, when FM would be inexact,
    # to the finite splitting below; introducing divisibility floor terms
    # instead can ping-pong with div elaboration and never terminate.
    lowers, uppers, rest_cons = [], [], []
    for c in piece:
        a = c.expr.coeffs[k]
        if a == 0:
            rest_cons.append(c)
            continue
        exprs = [c.expr]
        if c.is_eq:
            exprs.append(c.expr.scale(-1))
        for e in exprs:
            a = e.coeffs[k]
            rest = AffineExpr(
                tuple(0 if i == k else v for i, v in enumerate(e.coeffs)), e.const, e.divs
            )
            if a > 0:
                lowers.append((a, rest))  # a*x_k >= -rest
            elif a < 0:
                uppers.append((-a, rest))  # (-a)*x_k <= rest

    exact_fm = all(a == 1 or b == 1 for a, _ in lowers for b, _ in uppers)
    if exact_fm:
        out = list(rest_cons)
        for a, el in lowers:
            for b, eu in uppers:
                # a*x >= -el and b*x <= eu  =>  a*eu + b*el >= 0
                out.append(ge0(eu.scale(a) + el.scale(b)))
        result = normalize_piece(out)
        return [] if result is None else [_drop_dim(result, k, arity)]

    # Splitting fallback over the finite range of dim k.
    box = piece_box(arity, piece)
    if box is None:
        return []
    lo, hi = box[k]
    out = []
    for v in range(lo, hi + 1):
        sub = []
        for c in piece:
            sub.append(
                Constraint(c.expr.substitute_dim(k, AffineExpr.constant(arity, v)), c.is_eq)
            )
        result = normalize_piece(sub)
        if result is not None and propagate(arity, result) is not None:
            out.append(_drop_dim(result, k, arity))
    return out


def _widen_div(dt: DivTerm, new_arity: int) -> DivTerm:
    mapping = list(range(dt.inner.arity))
    return DivTerm(dt.coeff, dt.inner.remap(mapping, new_arity), dt.div)


def project_pieces(arity: int, pieces: Iterable[Piece], drop: Sequence[int]) -> list[Piece]:
    """Project the given dimensions out of every piece (exact)."""
    current = [(arity, p) for p in pieces]
    for k in sorted(drop, reverse=True):
        nxt = []
        for ar, p in current:
            for q in _eliminate_dim(ar, p, k):
                if propagate(ar - 1, q) is not None:
                    nxt.append((ar - 1, q))
        current = nxt
    return coalesce_pieces(arity - len(set(drop)), [p for _, p in current])


# ---------------------------------------------------------------------------
# Piece coalescing (keeps unions small in fixpoint loops)


@lru_cache(maxsize=100_000)
def _interval_signatures(piece: Piece):
    """All decompositions of a piece as 'others AND lo <= e <= hi' for one
    sign-canonical expression e.  Yields (others, canon, lo, hi); lo/hi may
    be None when that side is unconstrained within the piece."""
    out = []
    for canon, lo, hi, members in _interval_groups(piece):
        ids = {id(c) for c in members}
        others = tuple(c for c in piece if id(c) not in ids)
        out.append((others, canon, lo, hi))
    return tuple(out)


def coalesce_pieces(arity: int, pieces: Iterable[Piece]) -> list[Piece]:
    """Merge pieces differing only in a contiguous interval of one expression.

    Pieces sharing identical side constraints are bucketed per carrier
    expression and their intervals merged with a sort-and-sweep pass;
    passes repeat until a fixpoint.
    """
    work: list[Piece] = []
    seen = set()
    for p in pieces:
        if p not in seen:
            seen.add(p)
            work.append(p)
    while len(work) > 1:
        buckets: dict[tuple, list] = {}
        for idx, p in enumerate(work):
            for others, canon, lo, hi in _interval_signatures(p):
                if lo is None or hi is None:
                    continue
                buckets.setdefault((others, canon.key()), []).append(
                    (lo, hi, idx, canon, others)
                )
        consumed: set[int] = set()
        merged_pieces: list[Piece] = []
        for entries in buckets.values():
            if len(entries) < 2 or any(e[2] in consumed for e in entries):
                continue
            entries.sort(key=lambda e: (e[0], e[1]))
            run = [entries[0]]
            lo, hi = entries[0][0], entries[0][1]
            groups = []
            for e in entries[1:]:
                if e[0] <= hi + 1:
                    run.append(e)
                    hi = max(hi, e[1])
                else:
                    groups.append((lo, hi, run))
                    run, lo, hi = [e], e[0], e[1]
            groups.append((lo, hi, run))
            for glo, ghi, grun in groups:
                idxs = {e[2] for e in grun}
                if len(idxs) < 2:
                    continue
                _, _, _, canon, others = grun[0]
                mp = normalize_piece(others + tuple(_interval_constraints(canon, glo, ghi)))
                if mp is None:
                    continue
                consumed.update(idxs)
                merged_pieces.append(mp)
        if not consumed:
            break
        work = [p for idx, p in enumerate(work) if idx not in consumed]
        for mp in merged_pieces:
            if mp not in work:
                work.append(mp)
    return sorted(set(work), key=_piece_key)


def _piece_key(piece: Piece):
    return tuple(c.key() for c in piece)


# ---------------------------------------------------------------------------
# IntSet


@dataclass(frozen=True)
class IntSet:
    """Finite union of constraint conjunctions over one space."""

    space: Space
    pieces: tuple[Piece, ...] = ()

    @staticmethod
    def make(space: Space, pieces: Iterable[Iterable[Constraint]]) -> "IntSet":
        norm = []
        for p in pieces:
            np_ = normalize_piece(tuple(p))
            if np_ is None:
                continue
            if propagate(space.arity, np_) is None:
                continue
            norm.append(np_)
        return IntSet(space, tuple(coalesce_pieces(space.arity, norm)))

    @staticmethod
    def from_box(space: Space, bounds: Sequence[tuple[int, int]]) -> "IntSet":
        cons = []
        n = space.arity
        for i, (lo, hi) in enumerate(bounds):
            cons.append(ge0(AffineExpr.var(n, i).plus_const(-lo)))
            cons.append(ge0(AffineExpr.var(n, i, -1).plus_const(hi)))
        return IntSet.make(space, [cons])

    @property
    def arity(self) -> int:
        return self.space.arity


def _require_same_space(a: IntSet, b: IntSet):
    if a.space != b.space:
        raise SpaceMismatch(f"{a.space.name}:{a.space.dims} vs {b.space.name}:{b.space.dims}")


def intersect(a: IntSet, b: IntSet) -> IntSet:
    _require_same_space(a, b)
    pieces = []
    for p in a.pieces:
        for q in b.pieces:
            pieces.append(p + q)
    return IntSet.make(a.space, pieces)


def union(a: IntSet, b: IntSet) -> IntSet:
    _require_same_space(a, b)
    return IntSet.make(a.space, list(a.pieces) + list(b.pieces))


def _subtract_pieces(arity: int, base: list[Piece], minus: Piece) -> list[Piece]:
    out = []
    for p in base:
        merged = normalize_piece(p + minus)
        if merged is None or propagate(arity, merged) is None:
            out.append(p)  # disjoint: survives whole
            continue
        prefix: list[Constraint] = []
        for c in minus:
            negs = []
            if c.is_eq:
                negs.append(ge0(c.expr.plus_const(-1)))
                negs.append(ge0(c.expr.scale(-1).plus_const(-1)))
            else:
                negs.append(ge0(c.expr.scale(-1).plus_const(-1)))
            for neg in negs:
                cand = normalize_piece(p + tuple(prefix) + (neg,))
                if cand is not None and propagate(arity, cand) is not None:
                    out.append(cand)
            prefix.append(c)
    return out


def subtract(a: IntSet, b: IntSet) -> IntSet:
    _require_same_space(a, b)
    pieces = list(a.pieces)
    for q in b.pieces:
        pieces = _subtract_pieces(a.arity, pieces, q)
    pieces = [p for p in pieces if not piece_is_empty(a.arity, p)]
    return IntSet.make(a.space, pieces)


def is_empty(a: IntSet) -> bool:
    return all(piece_is_empty(a.arity, p) for p in a.pieces)


def enumerate_set(a: IntSet) -> list[tuple[int, ...]]:
    """All points, in lexicographic order."""
    points = set()
    for p in a.pieces:
        points.update(_enumerate_piece(a.arity, p))
    return sorted(points)


def _lex_extreme(a: IntSet, maximize: bool) -> tuple[int, ...]:
    found = [got for p in a.pieces if (got := _solve_piece(a.arity, p, maximize)) is not None]
    if not found:
        raise EmptySet(f"{'lexmax' if maximize else 'lexmin'} of empty set")
    return max(found) if maximize else min(found)


def lexmin(a: IntSet) -> tuple[int, ...]:
    return _lex_extreme(a, False)


def lexmax(a: IntSet) -> tuple[int, ...]:
    return _lex_extreme(a, True)


# ---------------------------------------------------------------------------
# IntMap


@dataclass(frozen=True)
class IntMap:
    """Relation between two spaces; pieces range over dom dims ++ ran dims."""

    dom: Space
    ran: Space
    pieces: tuple[Piece, ...] = ()

    @staticmethod
    def make(dom: Space, ran: Space, pieces) -> "IntMap":
        s = IntSet.make(product_space(dom, ran), pieces)
        return IntMap(dom, ran, s.pieces)

    @staticmethod
    def from_exprs(
        dom: Space,
        ran: Space,
        exprs: Sequence[AffineExpr],
        guards: Iterable[Constraint] = (),
    ) -> "IntMap":
        """Functional construction: out_j == exprs[j](in), under guards on in."""
        n_in, n_out = dom.arity, ran.arity
        if len(exprs) != n_out:
            raise ValueError("one expression per output dimension required")
        arity = n_in + n_out
        mapping = list(range(n_in))
        cons = []
        for c in guards:
            cons.append(Constraint(c.expr.remap(mapping, arity), c.is_eq))
        for j, e in enumerate(exprs):
            lhs = AffineExpr.var(arity, n_in + j)
            cons.append(eq0(lhs - e.remap(mapping, arity)))
        return IntMap.make(dom, ran, [cons])

    @property
    def n_in(self) -> int:
        return self.dom.arity

    @property
    def n_out(self) -> int:
        return self.ran.arity

    def as_set(self) -> IntSet:
        return IntSet(product_space(self.dom, self.ran), self.pieces)


def _map_same_shape(a: IntMap, b: IntMap):
    if a.dom != b.dom or a.ran != b.ran:
        raise SpaceMismatch(
            f"map spaces differ: {a.dom.name}->{a.ran.name} vs {b.dom.name}->{b.ran.name}"
        )


def map_union(a: IntMap, b: IntMap) -> IntMap:
    _map_same_shape(a, b)
    return IntMap(a.dom, a.ran, union(a.as_set(), b.as_set()).pieces)


def map_subtract(a: IntMap, b: IntMap) -> IntMap:
    _map_same_shape(a, b)
    return IntMap(a.dom, a.ran, subtract(a.as_set(), b.as_set()).pieces)


def map_is_empty(a: IntMap) -> bool:
    return is_empty(a.as_set())


def apply(m: IntMap, s: IntSet) -> IntSet:
    """Image of s under m."""
    if m.dom.dims != s.space.dims:
        raise SpaceMismatch(f"map domain {m.dom.name} does not match set space {s.space.name}")
    n_in, n_out = m.n_in, m.n_out
    arity = n_in + n_out
    mapping = list(range(n_in))
    combined = []
    for sp in s.pieces:
        sp_w = tuple(Constraint(c.expr.remap(mapping, arity), c.is_eq) for c in sp)
        for mp in m.pieces:
            combined.append(sp_w + mp)
    pieces = project_pieces(arity, combined, list(range(n_in)))
    return IntSet.make(m.ran, pieces)


def map_domain(m: IntMap) -> IntSet:
    pieces = project_pieces(m.n_in + m.n_out, m.pieces, list(range(m.n_in, m.n_in + m.n_out)))
    return IntSet.make(m.dom, pieces)


def compose(g: IntMap, f: IntMap) -> IntMap:
    """g after f: (x -> g(f(x)))."""
    if f.ran.dims != g.dom.dims:
        raise SpaceMismatch(f"cannot compose {g.dom.name}<-... with ...->{f.ran.name}")
    na, nb, nc = f.n_in, f.n_out, g.n_out
    arity = na + nb + nc
    f_map = list(range(na + nb))
    g_map = [na + i for i in range(nb + nc)]
    combined = []
    for fp in f.pieces:
        fp_w = tuple(Constraint(c.expr.remap(f_map, arity), c.is_eq) for c in fp)
        for gp in g.pieces:
            gp_w = tuple(Constraint(c.expr.remap(g_map, arity), c.is_eq) for c in gp)
            combined.append(fp_w + gp_w)
    pieces = project_pieces(arity, combined, list(range(na, na + nb)))
    return IntMap(f.dom, g.ran, tuple(pieces))


def inverse(m: IntMap) -> IntMap:
    n_in, n_out = m.n_in, m.n_out
    mapping = [n_out + i for i in range(n_in)] + list(range(n_out))
    pieces = []
    for p in m.pieces:
        pieces.append(
            tuple(Constraint(c.expr.remap(mapping, n_in + n_out), c.is_eq) for c in p)
        )
    return IntMap.make(m.ran, m.dom, pieces)


def restrict_domain(m: IntMap, s: IntSet) -> IntMap:
    if m.dom.arity != s.space.arity:
        raise SpaceMismatch("restriction set arity mismatch")
    arity = m.n_in + m.n_out
    mapping = list(range(m.n_in))
    pieces = []
    for sp in s.pieces:
        sp_w = tuple(Constraint(c.expr.remap(mapping, arity), c.is_eq) for c in sp)
        for mp in m.pieces:
            pieces.append(mp + sp_w)
    return IntMap.make(m.dom, m.ran, pieces)


# ---------------------------------------------------------------------------
# Lexicographic helpers shared by the analyses


def embed_pieces(pieces: Iterable[Piece], mapping: Sequence[int], new_arity: int) -> list[Piece]:
    """Reindex every piece's dims through `mapping` into a wider layout."""
    out = []
    for p in pieces:
        out.append(tuple(Constraint(c.expr.remap(mapping, new_arity), c.is_eq) for c in p))
    return out


def lex_lt_pieces(
    a_exprs: Sequence[AffineExpr], b_exprs: Sequence[AffineExpr]
) -> list[list[Constraint]]:
    """Constraint alternatives for (a_exprs) <_lex (b_exprs); both same arity."""
    alts = []
    n = min(len(a_exprs), len(b_exprs))
    for level in range(n):
        cons = []
        for t in range(level):
            cons.append(eq0(a_exprs[t] - b_exprs[t]))
        cons.append(ge0(b_exprs[level] - a_exprs[level].plus_const(1)))
        alts.append(cons)
    return alts


def select_lex_extreme(s: IntSet, n_group: int, maximize: bool) -> IntSet:
    """Keep tuples whose value part (dims >= n_group) is the lexicographic
    extreme among tuples sharing the same group part (dims < n_group)."""
    n = s.arity
    n_val = n - n_group
    if n_val == 0:
        return s
    arity = n + n_val
    base_map = list(range(n))
    shadow_map = list(range(n_group)) + [n + i for i in range(n_val)]
    val = [AffineExpr.var(arity, n_group + i) for i in range(n_val)]
    val_shadow = [AffineExpr.var(arity, n + i) for i in range(n_val)]
    if maximize:
        lex_alts = lex_lt_pieces(val, val_shadow)  # exists strictly greater
    else:
        lex_alts = lex_lt_pieces(val_shadow, val)  # exists strictly smaller
    combined = []
    for p in s.pieces:
        p_w = tuple(Constraint(c.expr.remap(base_map, arity), c.is_eq) for c in p)
        for q in s.pieces:
            q_w = tuple(Constraint(c.expr.remap(shadow_map, arity), c.is_eq) for c in q)
            for alt in lex_alts:
                combined.append(p_w + q_w + tuple(alt))
    dominated_pieces = project_pieces(arity, combined, list(range(n, arity)))
    dominated = IntSet.make(s.space, dominated_pieces)
    return subtract(s, dominated)
