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

Constraints are written as ``AffineExpr``s, whose floor divisions by
positive constants may nest, and ``IntSet.make`` lifts them once into a
``Piece`` of integer rows.  A row holds a constraint's coefficients over
the piece's columns and then its constant.  The columns are the space's
dimensions followed by the piece's division columns: each division column
q is floor(e/d) of a row e over earlier columns, bounded by the two
ordinary rows d*q <= e <= d*q + d - 1.  An ``AffineExpr`` is kept as
written, and each of its floor terms gets its own column; only
``normalize_piece`` makes them canonical.  Normalisation, propagation,
scanning, projection and coalescing work on these rows and have no case
of their own for divisions; a division whose definition uses a projected
dimension becomes one more dimension to project.  All symbolic
operations are exact; none of them fall back to enumerating the operand
sets.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod
from operator import neg
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    EmptySet,
    IterationCapExceeded,
    SetTooLarge,
    SpaceMismatch,
    UnboundedSet,
)

__all__ = [
    "Space",
    "AffineExpr",
    "DivTerm",
    "Constraint",
    "Piece",
    "IntSet",
    "IntMap",
    "intersect",
    "union",
    "subtract",
    "is_empty",
    "enumerate_set",
    "enumerate_table",
    "apply",
    "compose",
    "inverse",
    "lexmin",
    "lexmax",
    "first_outside",
    "select_lex_extreme",
]


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
# Affine expressions: how constraints are written


def _cdiv(a: int, b: int) -> int:
    return -((-a) // b)


@dataclass(frozen=True)
class DivTerm:
    """coeff * floor(inner / div) with div > 0."""

    coeff: int
    inner: "AffineExpr"
    div: int

    def __post_init__(self):
        if self.div < 1:
            raise ValueError("floordiv divisor must be positive")


@dataclass(frozen=True)
class AffineExpr:
    """sum(coeffs[i] * x_i) + const + sum(div terms) over a fixed arity, as written."""

    coeffs: tuple[int, ...]
    const: int = 0
    divs: tuple[DivTerm, ...] = ()

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

    def is_constant(self) -> bool:
        return not self.divs and all(c == 0 for c in self.coeffs)

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


@dataclass(frozen=True)
class Constraint:
    """expr >= 0, or expr == 0 when is_eq."""

    expr: AffineExpr
    is_eq: bool = False


def ge0(expr: AffineExpr) -> Constraint:
    return Constraint(expr, False)


def eq0(expr: AffineExpr) -> Constraint:
    return Constraint(expr, True)


# ---------------------------------------------------------------------------
# Pieces: integer rows over dims ++ division columns


class Piece:
    """A conjunction of integer rows over the columns dims ++ divisions.

    A row (is_eq, c_0, ..., c_{m-1}, const) states
    sum(c_j * col_j) + const >= 0, or == 0 when is_eq is 1.  Division
    column n + j is floor((sum(c_i * col_i) + const) / d) for
    divs[j] = (d, c_0, ..., c_{m-1}, const); in a normalized piece each
    definition uses earlier columns only.  ``a + b`` is ``conjoin(a, b)``.
    """

    __slots__ = ("divs", "rows", "_hash")

    def __init__(self, divs: tuple = (), rows: tuple = ()):
        self.divs = divs
        self.rows = rows

    def __eq__(self, other) -> bool:
        return isinstance(other, Piece) and self.rows == other.rows and self.divs == other.divs

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.divs, self.rows))
            return self._hash

    def __add__(self, other) -> "Piece":
        return conjoin(self, other)

    def __repr__(self) -> str:
        return f"Piece(divs={self.divs!r}, rows={self.rows!r})"


def _lift(constraints: Iterable[Constraint]) -> Piece:
    """Constraints as rows, with one division column per written floor term
    (``normalize_piece`` merges equal ones)."""
    constraints = list(constraints)
    if not constraints:
        return Piece()
    n = len(constraints[0].expr.coeffs)
    divs: list[tuple] = []  # (d, {col: coeff}, const)

    def terms(expr: AffineExpr) -> tuple[dict, int]:
        row = {i: c for i, c in enumerate(expr.coeffs) if c}
        for dt in expr.divs:
            divs.append((dt.div, *terms(dt.inner)))
            row[n + len(divs) - 1] = dt.coeff
        return row, expr.const

    sparse = [(int(c.is_eq),) + terms(c.expr) for c in constraints]
    m = n + len(divs)

    def dense(head: int, row: dict, const: int) -> tuple:
        return (head, *(row.get(j, 0) for j in range(m)), const)

    return Piece(tuple(dense(*dv) for dv in divs), tuple(dense(*s) for s in sparse))


def conjoin(*parts) -> Piece:
    """The conjunction of pieces and constraint sequences over one set of
    dims; each part's division columns follow those of the parts before it."""
    pieces = [p if isinstance(p, Piece) else _lift(p) for p in parts]
    total = sum(len(p.divs) for p in pieces)
    if not total:
        return Piece((), tuple(itertools.chain.from_iterable(p.rows for p in pieces)))
    divs, rows, offset = [], [], 0
    for p in pieces:
        if not (p.rows or p.divs):
            continue
        k = len(p.divs)
        n = len((p.rows or p.divs)[0]) - 2 - k
        before, after = (0,) * offset, (0,) * (total - offset - k)

        def widen(r: tuple) -> tuple:
            return r[: n + 1] + before + r[n + 1 : -1] + after + r[-1:]

        divs.extend(map(widen, p.divs))
        rows.extend(map(widen, p.rows))
        offset += k
    return Piece(tuple(divs), tuple(rows))


def _ndims(divs: tuple) -> int:
    """Number of dims in front of the division columns `divs` define."""
    return len(divs[0]) - 2 - len(divs) if divs else 0


def _div_rows(divs: tuple) -> tuple:
    """The two rows bounding each division column q = floor(e/d):
    e - d*q >= 0 and d*q - e + d - 1 >= 0."""
    out = []
    n = _ndims(divs)
    for j, dv in enumerate(divs):
        d, body, const = dv[0], list(dv[1:-1]), dv[-1]
        body[n + j] = -d
        out.append((0, *body, const))
        out.append((0, *(-c for c in body), d - 1 - const))
    return tuple(out)


def _rewrite(row: tuple, fixed: dict, twins: dict) -> tuple:
    """row with each column in `fixed` replaced by its value and each column
    in `twins` by its twin column."""
    out = list(row)
    for c, v in fixed.items():
        if out[1 + c]:
            out[-1] += out[1 + c] * v
            out[1 + c] = 0
    for c, t in twins.items():
        if out[1 + c]:
            out[1 + t] += out[1 + c]
            out[1 + c] = 0
    return tuple(out)


def _expr_key(coeffs: tuple, const: int, n: int, keys: Sequence) -> tuple:
    """Sort key of an expression with n dims: its dim coefficients, its
    constant, then (coeff, divisor, definition key) of its division terms
    in the order of (divisor, definition key)."""
    terms = sorted((k, c) for c, k in zip(coeffs[n:], keys) if c)
    return (coeffs[:n], const, tuple((c,) + k for k, c in terms))


@lru_cache(maxsize=10_000)
def _div_keys(divs: tuple) -> tuple:
    """Per division column: (divisor, key of its definition)."""
    keys: list = []
    n = _ndims(divs)
    for dv in divs:
        keys.append((dv[0], _expr_key(dv[1:-1], dv[-1], n, keys)))
    return tuple(keys)


def _row_key(n: int, keys: Sequence):
    return lambda r: (r[0],) + _expr_key(r[1:-1], r[-1], n, keys)


def _canonical_divs(divs: tuple, rows: Sequence[tuple]) -> tuple[tuple, list]:
    """Canonical division columns of a piece.

    Columns with a constant definition are replaced by their value,
    columns equal to an earlier one by that column, and columns no row
    uses are dropped.  The rest are ordered by their keys, each after the
    columns its definition uses.
    """
    nd = len(divs)
    n = _ndims(divs)

    def uses(dv) -> list[int]:
        return [n + j for j in range(nd) if dv[1 + n + j]]

    fixed: dict = {}
    twins: dict = {}
    seen: dict = {}
    keys: list = [None] * nd
    defs = list(divs)
    pending = list(range(nd))
    while pending:  # definitions before their users, whatever the layout
        j = next(j for j in pending if all(c - n not in pending for c in uses(divs[j])))
        pending.remove(j)
        dv = defs[j] = _rewrite(divs[j], fixed, twins)
        if not any(dv[1:-1]):
            fixed[n + j] = dv[-1] // dv[0]
        elif dv in seen:
            twins[n + j] = seen[dv]
        else:
            seen[dv] = n + j
            keys[j] = (dv[0], _expr_key(dv[1:-1], dv[-1], n, keys))
    if fixed or twins:
        rows = [_rewrite(r, fixed, twins) for r in rows]
    used: set = set()
    stack = [c for c in seen.values() if any(r[1 + c] for r in rows)]
    while stack:
        c = stack.pop()
        if c not in used:
            used.add(c)
            stack.extend(uses(defs[c - n]))
    order: list[int] = []
    ready = sorted(used, key=lambda c: keys[c - n])
    while ready:
        c = next(c for c in ready if all(u in order for u in uses(defs[c - n])))
        ready.remove(c)
        order.append(c)
    cols = list(range(n)) + order

    def perm(r: tuple) -> tuple:
        return (r[0], *(r[1 + c] for c in cols), r[-1])

    return tuple(perm(defs[c - n]) for c in order), [perm(r) for r in rows]


# ---------------------------------------------------------------------------
# Normalisation


def _interval_groups(rows: Iterable[tuple]) -> list[list]:
    """Fold rows sharing one linear part into 'lo <= canon <= hi'.

    canon is the coefficient tuple without the constant, signed so that
    its leading coefficient is positive.  One [canon, lo, hi, members] per
    linear part, in order of first appearance, with lo/hi None when that
    side is unconstrained.
    """
    groups: dict[tuple, list] = {}
    for row in rows:
        body = row[1:-1]
        sign = 1 if next((c for c in body if c), 0) > 0 else -1
        canon = body if sign > 0 else tuple(-c for c in body)
        entry = groups.get(canon)
        if entry is None:
            entry = groups[canon] = [canon, None, None, []]
        v = -row[-1] * sign  # row == sign * (canon - v)
        if row[0] or sign > 0:  # canon >= v
            entry[1] = v if entry[1] is None else max(entry[1], v)
        if row[0] or sign < 0:  # canon <= v
            entry[2] = v if entry[2] is None else min(entry[2], v)
        entry[3].append(row)
    return list(groups.values())


def _interval_rows(canon: tuple, lo, hi) -> list[tuple]:
    """lo <= canon <= hi as rows: one equality when lo == hi."""
    if lo is not None and lo == hi:
        return [(1, *canon, -lo)]
    out = []
    if lo is not None:
        out.append((0, *canon, -lo))
    if hi is not None:
        out.append((0, *(-c for c in canon), hi))
    return out


def normalize_piece(piece: Piece) -> Optional[Piece]:
    """Canonicalize a conjunction; None when it is syntactically false.

    Division columns are made canonical (see ``_canonical_divs``).  Each
    row is divided by the gcd of its coefficients, and rows sharing one
    linear part are folded into a single interval: opposite inequalities
    become an equality, dominated bounds are dropped, and contradictions
    are detected here.  Rows are sorted by the key of their expression.
    """
    divs, rows = piece.divs, piece.rows
    if divs:
        divs, rows = _canonical_divs(divs, rows)
    reduced = []
    for row in rows:
        g = gcd(*row[1:-1])
        const = row[-1]
        if g == 0:
            if const != 0 if row[0] else const < 0:
                return None
            continue
        if g > 1:
            if row[0] and const % g:
                return None
            row = (row[0], *(c // g for c in row[1:-1]), const // g)
        reduced.append(row)
    out = []
    for canon, lo, hi, _ in _interval_groups(reduced):
        if lo is not None and hi is not None and lo > hi:
            return None
        out.extend(_interval_rows(canon, lo, hi))
    if divs:
        out.sort(key=_row_key(_ndims(divs), _div_keys(divs)))
    else:
        out.sort()
    return Piece(divs, tuple(out))


def _piece_key(arity: int, piece: Piece):
    """Sort key of a piece: the keys of its rows, in order."""
    keys = _div_keys(piece.divs)
    return tuple(map(_row_key(arity, keys), piece.rows))


# ---------------------------------------------------------------------------
# Interval propagation

_PROP_ROUND_CAP = 10_000  # bounds use None for +/- infinity


class _Infeasible(Exception):
    pass


def _tighten(row: tuple, bounds: list) -> bool:
    """Narrow the column bounds to what `row` allows; True when one moved.

    Each term must lie within the requirement (0 for an equality, >= 0
    otherwise) minus the interval of the rest of the row.
    """
    is_eq = row[0]
    terms = []
    lo_sum = hi_sum = row[-1]
    lo_inf = hi_inf = 0
    for i, c in enumerate(row[1:-1]):
        if not c:
            continue
        blo, bhi = bounds[i] if c > 0 else bounds[i][::-1]
        tlo = None if blo is None else c * blo
        thi = None if bhi is None else c * bhi
        if tlo is None:
            lo_inf += 1
        else:
            lo_sum += tlo
        if thi is None:
            hi_inf += 1
        else:
            hi_sum += thi
        terms.append((i, c, tlo, thi))
    if not hi_inf and hi_sum < 0:
        raise _Infeasible
    if is_eq and not lo_inf and lo_sum > 0:
        raise _Infeasible
    changed = False
    for i, c, tlo, thi in terms:
        # need_lo <= c*x_i <= need_hi, with the rest of the row within
        # [lo_sum - tlo, hi_sum - thi] when those sums are finite
        need_lo = None if hi_inf > (thi is None) else (thi or 0) - hi_sum
        need_hi = None if not is_eq or lo_inf > (tlo is None) else (tlo or 0) - lo_sum
        lo, hi = (need_lo, need_hi) if c > 0 else (need_hi, need_lo)
        lo = None if lo is None else _cdiv(lo, c)
        hi = None if hi is None else hi // c
        blo, bhi = bounds[i]
        nlo = blo if lo is None or (blo is not None and blo >= lo) else lo
        nhi = bhi if hi is None or (bhi is not None and bhi <= hi) else hi
        if nlo is not None and nhi is not None and nlo > nhi:
            raise _Infeasible
        if nlo != blo or nhi != bhi:
            bounds[i] = (nlo, nhi)
            changed = True
    return changed


@lru_cache(maxsize=200_000)
def propagate(arity: int, piece: Piece):
    """Per-dim integer bounds implied by the piece, or None when empty.

    Sound in both directions: a returned box over-approximates the piece,
    and an 'empty' verdict is always correct.  Bounds entries are
    (lo, hi) with None for unbounded sides.  The two rows bounding each
    division column take part like any other row, so dims occurring only
    inside floor divisions still receive bounds.
    """
    rows = piece.rows + _div_rows(piece.divs)
    bounds = [(None, None)] * (arity + len(piece.divs))
    try:
        for _ in range(_PROP_ROUND_CAP):
            if not any([_tighten(row, bounds) for row in rows]):  # a round without a move
                break
        else:
            raise IterationCapExceeded("interval propagation did not converge")
    except _Infeasible:
        return None
    return tuple(bounds[:arity])


# ---------------------------------------------------------------------------
# Box scanning (polyhedral scanning of a finite box, evaluated with numpy)

_SCAN_BLOCK = 1 << 14  # points evaluated per numpy pass; bounds the scan's memory
_FIRST_BLOCK = 1 << 6  # points in the first pass of an emptiness scan
_ENUM_SCAN_CAP = 1 << 20  # largest free box that _piece_points scans
_SOLVE_SCAN_CAP = 1 << 12  # largest free box that _solve_piece and piece_is_empty scan
_INT64_SAFE = 1 << 62  # every value the scan computes stays below this in magnitude


@dataclass(frozen=True)
class _ScanProgram:
    """Column program that scans one piece.

    The columns are the piece's: dimensions, then division columns.  Free
    dimensions come from the box (flat index -> index // stride % extent +
    lo, so ravel order is lexicographic).  Each stage (cols, rows, consts,
    divs) then computes columns at once as (y @ rows + consts) // divs:
    division columns, and dims that equalities or block bounds define.  A
    point is kept when y @ checks + bases >= 0 in every column (an equality
    appears as two opposite inequalities).
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


def _sparse(row: tuple) -> dict:
    return {j: c for j, c in enumerate(row[1:-1]) if c}


@lru_cache(maxsize=10_000)
def _scan_program(arity: int, piece: Piece) -> Optional[_ScanProgram]:
    """How to scan a non-empty piece, or None when the scan does not apply.

    Division columns are computed from their definitions.  Each equality
    with a unit coefficient on a dimension, and each block-bounded
    dimension d*x <= e <= d*x + d - 1 (how block maps hold node dims),
    defines that dimension from the other columns (the highest one that
    closes no cycle).  The remaining free dimensions span the box to scan;
    every other row is checked point by point.  None when a dimension is
    unbounded (the search reports that) or int64 evaluation could overflow.
    """
    bounds = propagate(arity, piece)
    if any(lo is None or hi is None for lo, hi in bounds):
        return None
    # computed col -> (row, const, div)
    steps = {arity + j: (_sparse(dv), dv[-1], dv[0]) for j, dv in enumerate(piece.divs)}

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

    def computes(k: int, rest: dict, const: int, d: int) -> bool:
        """Compute dim k as floor((rest + const) / d) unless that closes a cycle."""
        if k in steps or reaches(rest, k):
            return False
        steps[k] = (rest, const, d)
        return True

    rows, bases = [], []
    for r in piece.rows:
        row, const = _sparse(r), r[-1]
        if r[0]:
            for k in sorted((j for j in row if j < arity and abs(row[j]) == 1), reverse=True):
                a = row[k]  # a*x_k + rest + const == 0 with a in {1, -1}
                if computes(k, {j: -a * v for j, v in row.items() if j != k}, -a * const, 1):
                    break
            else:
                rows += [{j: -v for j, v in row.items()}, row]
                bases += [-const, const]
            continue
        rows.append(row)
        bases.append(const)

    # Rows e - d*x >= 0 and d*x - e + d - 1 >= 0 (negated coefficients,
    # constants summing to d - 1 >= 1) compute x = floor(e/d), staying checks
    uppers = [r for r in piece.rows if not r[0] and min(r[1 : arity + 1], default=0) < -1]
    partners: dict = {}
    for r in piece.rows if uppers else ():
        partners.setdefault(r[1:-1], []).append(r[-1])
    for r in uppers:
        row = _sparse(r)
        for d in [r[-1] + b + 1 for b in partners.get(tuple(map(neg, r[1:-1])), ())]:
            dims = sorted((j for j in row if j < arity and row[j] == -d), reverse=True)
            if any(computes(k, {j: v for j, v in row.items() if j != k}, r[-1], d) for k in dims):
                break

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

    ncols = arity + len(piece.divs)

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


def _scan_piece(arity: int, piece: Piece, cap: int, first: int = _SCAN_BLOCK):
    """Points of a non-empty piece as int64 blocks, one row per point in
    lexicographic order of the free dimensions; None when the scan does not
    apply or the free box holds more than `cap` points.  The blocks are
    made as they are taken and cover `first` points of the box, then four
    times more each, up to _SCAN_BLOCK: a caller that needs one point
    starts small and stops after the first block that keeps one."""
    prog = _scan_program(arity, piece)
    if prog is None or prog.volume > cap:
        return None

    def blocks():
        start, size = 0, first
        while start < prog.volume:
            idx = np.arange(start, min(prog.volume, start + size), dtype=np.int64)
            y = np.zeros((len(idx), prog.ncols), dtype=np.int64)
            y[:, prog.free] = idx[:, None] // prog.strides % prog.extents + prog.los
            for cols, rows, consts, divs in prog.stages:
                y[:, cols] = (y @ rows + consts) // divs
            keep = (y @ prog.checks + prog.bases >= 0).all(axis=1)
            yield y[keep, :arity]
            start, size = start + len(idx), min(4 * size, _SCAN_BLOCK)

    return blocks()


def _assign(piece: Piece, col: int, value: int) -> Optional[Piece]:
    """The piece with column `col` fixed to `value`, and each division
    column whose definition becomes constant fixed in turn; None when a
    row becomes false.  Rows that become trivially true are dropped."""
    divs, rows = list(piece.divs), piece.rows
    n = _ndims(divs)
    todo = [(col, value)]
    while todo:
        col, value = todo.pop()
        i = col + 1
        kept = []
        for r in rows:
            if r[i]:
                r = r[:i] + (0,) + r[i + 1 : -1] + (r[-1] + r[i] * value,)
                if not any(r[1:-1]):
                    if r[-1] != 0 if r[0] else r[-1] < 0:
                        return None
                    continue
            kept.append(r)
        rows = kept
        for j, dv in enumerate(divs):
            if dv[i]:
                dv = divs[j] = dv[:i] + (0,) + dv[i + 1 : -1] + (dv[-1] + dv[i] * value,)
                if not any(dv[1:-1]):
                    todo.append((n + j, dv[-1] // dv[0]))
    return Piece(tuple(divs), tuple(rows))


def _search_piece(arity: int, piece: Piece, descending: bool):
    """Points of a piece in lexicographic order, descending when asked.

    Backtracking over the dimensions in order: each value is substituted
    into the rows, and interval propagation prunes empty subtrees.  Once
    every remaining row is linear in a single dimension, the propagated
    bounds are exact and independent, so the rest of the subtree is a box
    and is emitted wholesale, unless it holds more than ``sys.maxsize``
    points (SetTooLarge after its first point, its corner, so a caller
    that takes only the first point never meets the box's size).
    ``_dim_range`` ranges each dimension and raises UnboundedSet for an
    unbounded one.
    """
    point = [0] * arity

    def values(lo, hi):
        return range(hi, lo - 1, -1) if descending else range(lo, hi + 1)

    def rec(cons: Piece, d: int):
        bounds = propagate(arity, cons)
        if bounds is None:
            return
        coeffs = [r[1:-1] for r in cons.rows]
        if all(sum(map(bool, c)) <= 1 and not any(c[arity:]) for c in coeffs):
            box = [_dim_range(arity, cons, k, bounds) or (0, -1) for k in range(d, arity)]
            if not (size := prod(max(0, hi - lo + 1) for lo, hi in box)):
                return
            point[d:] = [hi if descending else lo for lo, hi in box]
            yield tuple(point)
            if size > sys.maxsize:
                raise SetTooLarge(f"a box of {size} points to search, more than {sys.maxsize}")
            for tail in itertools.islice(itertools.product(*(values(lo, hi) for lo, hi in box)), 1, None):
                point[d:] = tail
                yield tuple(point)
            return
        for v in values(*(_dim_range(arity, cons, d, bounds) or (0, -1))):
            nxt = _assign(cons, d, v)
            if nxt is not None:
                point[d] = v
                yield from rec(nxt, d + 1)

    return rec(piece, 0)


def _solve_piece(arity: int, piece: Piece, maximize: bool) -> Optional[tuple[int, ...]]:
    """Lexicographic extreme point of a piece, or None when empty: the
    extreme of all scanned points when the box is small, else the first
    point of the search.  Only ``lexmin``/``lexmax`` need it; emptiness is
    ``piece_is_empty``."""
    if propagate(arity, piece) is None:
        return None
    blocks = _scan_piece(arity, piece, _SOLVE_SCAN_CAP)
    if blocks is None:
        return next(_search_piece(arity, piece, maximize), None)
    points = np.concatenate(list(blocks))
    return lex_extreme_row(points, maximize) if len(points) else None


@lru_cache(maxsize=10_000)
def piece_is_empty(arity: int, piece: Piece) -> bool:
    """Whether a piece has no integer point, answered once per piece.  The
    scan stops at the first block that keeps a point; a box larger than
    _SOLVE_SCAN_CAP takes the search, which stops at its first point."""
    if propagate(arity, piece) is None:
        return True
    blocks = _scan_piece(arity, piece, _SOLVE_SCAN_CAP, _FIRST_BLOCK)
    if blocks is None:
        return next(_search_piece(arity, piece, False), None) is None
    return not any(len(b) for b in blocks)


def _piece_points(arity: int, piece: Piece) -> np.ndarray:
    """All points of a piece as a table: int64 when the box is small enough
    to scan (see _scan_program), else the search's Python ints."""
    if propagate(arity, piece) is None:
        return np.zeros((0, arity), dtype=np.int64)
    blocks = _scan_piece(arity, piece, _ENUM_SCAN_CAP)
    if blocks is None:
        return point_table(list(_search_piece(arity, piece, False)), arity)
    return np.concatenate(list(blocks))


def point_table(points: Sequence[tuple[int, ...]], arity: int) -> np.ndarray:
    """Points as an (n, arity) table of Python ints (exact, unlike int64), one row each."""
    return np.array(points, dtype=object).reshape(len(points), arity)


def exact_table(table: np.ndarray, bound: int) -> np.ndarray:
    """The table as Python ints when values computed from it may reach
    ``bound`` >= _INT64_SAFE in magnitude: the guard of int64 arithmetic."""
    return table.astype(object) if bound >= _INT64_SAFE else table


def _sorted_runs(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The order that sorts a table's rows lexicographically, the sorted
    rows, and per sorted row whether it differs from the row before."""
    order = np.lexsort(table.T[::-1]) if table.shape[1] else np.arange(len(table))
    rows = table[order]
    new = np.ones(len(table), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return order, rows, new


def distinct_rows(table: np.ndarray) -> np.ndarray:
    """The distinct rows of a table in lexicographic order."""
    _, rows, new = _sorted_runs(table)
    return rows[new]


def unique_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of a table in lexicographic order, every row's
    index among them, and every distinct row's first row in the table."""
    order, rows, new = _sorted_runs(table)
    inverse = np.empty(len(table), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return rows[new], inverse, order[new]


def find_rows(table: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Every point's row in a table of distinct rows in lexicographic order,
    by binary search over row-major keys in the table's bounding box (they
    ascend like the rows); -1 for a point that is no row."""
    if not len(table):
        return np.full(len(points), -1)
    lo, hi = table.min(axis=0), table.max(axis=0)
    stride = row_major_strides((hi - lo + 1)[None])[0]
    keys, want = ((t - lo) @ stride for t in (table, points))
    rows = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    hit = ((points >= lo) & (points <= hi)).all(axis=1) & (keys[rows] == want)
    return np.where(hit, rows, -1)


def row_major_strides(ext: np.ndarray) -> np.ndarray:
    """Row-major strides in boxes of the given extents, one box per row;
    exact (``exact_table``) by the size of the largest box."""
    stride = exact_table(np.ones_like(ext), max(map(prod, ext.tolist()), default=0))
    for d in range(ext.shape[1] - 2, -1, -1):
        stride[:, d] = stride[:, d + 1] * ext[:, d + 1]
    return stride


def lex_extreme_row(points: np.ndarray, maximize: bool) -> tuple[int, ...]:
    """The lexicographically smallest (largest) row of a non-empty table."""
    for d in range(points.shape[1]):
        col = points[:, d]
        points = points[col == (col.max() if maximize else col.min())]
    return tuple(points[0].tolist())


# ---------------------------------------------------------------------------
# Exact projection


def _drop_col(piece: Piece, k: int) -> Piece:
    """The piece without column k, which no row or definition uses."""
    i = k + 1
    return Piece(
        tuple(d[:i] + d[i + 1 :] for d in piece.divs),
        tuple(r[:i] + r[i + 1 :] for r in piece.rows),
    )


def _div_to_dim(arity: int, piece: Piece, q: int) -> Piece:
    """Division column q as a new last dim, bounded by its two rows."""
    j = q - arity
    cols = [*range(arity), q, *(c for c in range(arity, arity + len(piece.divs)) if c != q)]

    def perm(r: tuple) -> tuple:
        return (r[0], *(r[1 + c] for c in cols), r[-1])

    bounding = _div_rows(piece.divs)[2 * j : 2 * j + 2]
    return Piece(
        tuple(perm(d) for i, d in enumerate(piece.divs) if i != j),
        tuple(map(perm, piece.rows + bounding)),
    )


@lru_cache(maxsize=10_000)
def _project_dim(arity: int, piece: Piece, k: int) -> tuple[Piece, ...]:
    """Exact integer projection of dim k out of one piece, as normalized
    pieces over arity-1 dims.  A division column whose definition uses k
    becomes one more dim, projected out after k.  Memoised: placement
    projects the same pieces again and again."""
    piece = normalize_piece(piece)
    if piece is None:
        return ()
    for j, dv in enumerate(piece.divs):
        if dv[k + 1]:
            wide = _div_to_dim(arity, piece, arity + j)
            out = _project_dim(arity + 1, wide, k)
            return tuple(q for p in out for q in _project_dim(arity, p, arity - 1))
    return tuple(_eliminate_dim(arity, piece, k))


def _eliminate_dim(arity: int, piece: Piece, k: int) -> list[Piece]:
    """Exact integer projection of dim k out of a normalized piece whose
    division columns do not use it.

    Substitute through a unit-coefficient equality, use Fourier-Motzkin
    when every lower/upper pair has a unit side, and otherwise split on
    the finite value range of the dimension.
    """
    i = k + 1
    used = [r for r in piece.rows if r[i]]
    if not used:
        return [_drop_col(piece, k)]

    # Unit-coefficient equality a*x_k + E == 0: substitute x_k = -a*E.
    for c in used:
        if c[0] and abs(c[i]) == 1:
            rows = tuple(
                (r[0], *(x - r[i] * c[i] * y for x, y in zip(r[1:], c[1:]))) if r[i] else r
                for r in piece.rows
                if r is not c
            )
            result = normalize_piece(Piece(piece.divs, rows))
            return [] if result is None else [_drop_col(result, k)]

    # Fourier-Motzkin over inequalities (equalities as two inequalities).
    # Non-unit equalities fall through to here and, when FM would be inexact,
    # to the finite splitting below; introducing divisibility floor terms
    # instead can ping-pong with division elimination and never terminate.
    rows, exact = _fourier_motzkin(piece.rows, k)
    if exact:
        result = normalize_piece(Piece(piece.divs, tuple(rows)))
        return [] if result is None else [_drop_col(result, k)]

    # Splitting fallback over the finite range of dim k.
    span = _dim_range(arity, piece, k, propagate(arity, piece))
    if span is None:
        return []
    lo, hi = span
    out = []
    for v in range(lo, hi + 1):
        sub = _assign(piece, k, v)
        result = None if sub is None else normalize_piece(sub)
        if result is not None and propagate(arity, result) is not None:
            out.append(_drop_col(result, k))
    return out


def _fourier_motzkin(rows: Iterable[tuple], k: int) -> tuple[list, bool]:
    """Rows with column k eliminated: the rows without it, and each lower
    bound a*x_k >= -el combined with each upper bound b*x_k <= eu into
    a*eu + b*el >= 0 (equalities as two inequalities).  Exact over the
    integers when every pair has a unit side, which the bool says."""
    lowers, uppers, out = [], [], []
    for r in rows:
        if not r[k + 1]:
            out.append(r)
            continue
        for e in (r[1:], tuple(map(neg, r[1:]))) if r[0] else (r[1:],):
            (lowers if e[k] > 0 else uppers).append((abs(e[k]), e[:k] + (0,) + e[k + 1 :]))
    out += [(0, *(a * u + b * v for u, v in zip(eu, el))) for a, el in lowers for b, eu in uppers]
    return out, all(a == 1 or b == 1 for a, _ in lowers for b, _ in uppers)


def _dim_range(arity: int, piece: Piece, k: int, bounds):
    """Finite (lo, hi) range of dim k, or None when the piece is empty.
    Where the propagated `bounds` stay open (rows coupling two dims),
    Fourier-Motzkin eliminates every other column, cheapest first, from the
    rational relaxation: every integer point satisfies the combined rows.
    Raises UnboundedSet when dim k is unbounded."""
    if bounds is not None and None in bounds[k]:
        rows, todo = piece.rows + _div_rows(piece.divs), list(range(arity + len(piece.divs)))
        todo.remove(k)
        while rows is not None and todo:
            combined = [_fourier_motzkin(rows, c)[0] for c in todo]
            j = min(range(len(todo)), key=lambda j: len(combined[j]))
            del todo[j]
            relaxed = normalize_piece(Piece((), tuple(combined[j])))
            rows = None if relaxed is None else relaxed.rows
        bounds = None if rows is None else propagate(arity + len(piece.divs), Piece((), rows))
    if bounds is None:
        return None
    lo, hi = bounds[k]
    if lo is None or hi is None:
        raise UnboundedSet(f"dimension {k} is unbounded")
    return lo, hi


def project_pieces(arity: int, pieces: Iterable[Piece], drop: Sequence[int]) -> list[Piece]:
    """Project the given dimensions out of every piece (exact).  Every
    piece returned is normalized and passes propagation, also when
    nothing is dropped."""
    if not drop:  # normalized and filtered, as a projection leaves its pieces
        pieces = [q for p in pieces if (q := normalize_piece(p)) is not None
                  and propagate(arity, q) is not None]
    current = [(arity, p) for p in pieces]
    for k in sorted(drop, reverse=True):
        nxt = []
        for ar, p in current:
            for q in _project_dim(ar, p, k):
                if propagate(ar - 1, q) is not None:
                    nxt.append((ar - 1, q))
        current = nxt
    return coalesce_pieces(arity - len(set(drop)), [p for _, p in current])


# ---------------------------------------------------------------------------
# Piece coalescing (keeps unions small in fixpoint loops)


@lru_cache(maxsize=100_000)
def _interval_signatures(piece: Piece):
    """All decompositions of a piece as 'others AND lo <= e <= hi' for one
    sign-canonical coefficient tuple e.  Yields (others, canon, lo, hi);
    lo/hi may be None when that side is unconstrained within the piece."""
    out = []
    for canon, lo, hi, members in _interval_groups(piece.rows):
        others = tuple(r for r in piece.rows if r not in members)
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
                buckets.setdefault((p.divs, others, canon), []).append((lo, hi, idx))
        consumed: set[int] = set()
        merged_pieces: list[Piece] = []
        for (divs, others, canon), entries in buckets.items():
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
                mp = normalize_piece(Piece(divs, others + tuple(_interval_rows(canon, glo, ghi))))
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
    return sorted(set(work), key=lambda p: _piece_key(arity, p))


# ---------------------------------------------------------------------------
# IntSet


@dataclass(frozen=True)
class IntSet:
    """Finite union of constraint conjunctions over one space."""

    space: Space
    pieces: tuple[Piece, ...] = ()

    @staticmethod
    def make(space: Space, pieces: Iterable) -> "IntSet":
        """The set of the given pieces; a piece may also be given as a
        sequence of constraints."""
        norm = []
        for p in pieces:
            p = normalize_piece(p if isinstance(p, Piece) else _lift(p))
            if p is not None and propagate(space.arity, p) is not None:
                norm.append(p)
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
    return IntSet.make(a.space, [conjoin(p, q) for p in a.pieces for q in b.pieces])


def union(a: IntSet, b: IntSet) -> IntSet:
    _require_same_space(a, b)
    return IntSet.make(a.space, list(a.pieces) + list(b.pieces))


def _excluded(arity: int, row: tuple, box, spans: dict) -> bool:
    """Whether the inequality `row`, over dims only, is false on every
    point of the piece with propagated `box` and `spans`, the intervals
    of its dims-only linear parts: the row is negative on the box, or its
    gcd-reduced form contradicts the interval of its linear part.  These
    are rows normalize_piece or propagate reject beside the piece's rows."""
    body, const = row[1:-1], row[-1]
    if any(body[arity:]):
        return False
    body = body[:arity]
    if box is not None:
        terms = [(c, hi if c > 0 else lo) for c, (lo, hi) in zip(body, box) if c]
        if None not in (e for _, e in terms) and const + sum(c * e for c, e in terms) < 0:
            return True
    g = gcd(*body)
    if not g:
        return False
    sign = 1 if next(c for c in body if c) > 0 else -1
    lo, hi = spans.get(tuple(sign * c // g for c in body), (None, None))
    if sign > 0:  # canon >= -const // g
        return hi is not None and hi < -(const // g)
    return lo is not None and lo > const // g  # canon <= const // g


def _subtract_pieces(arity: int, base: list[Piece], minus: Piece) -> list[Piece]:
    """The pieces of `base` minus one piece.  A base piece p disjoint from
    `minus` survives whole; otherwise p splits into the non-empty pieces
    p and r_0 and ... and r_{i-1} and not r_i over the rows r_i of `minus`
    (both sides of an equality).  A candidate is dropped before it is
    built when r_i repeats an earlier row or not r_i is ``_excluded`` by
    p; normalize_piece or propagate would reject it, so the pieces kept
    and their order are those of building every candidate (the reference
    in tests/oracle.py)."""
    out = []
    for p in base:
        merged = normalize_piece(conjoin(p, minus))
        if merged is None or propagate(arity, merged) is None:
            out.append(p)  # disjoint: survives whole
            continue
        box = propagate(arity, p)
        spans = {canon[:arity]: (lo, hi) for _, canon, lo, hi in _interval_signatures(p)
                 if not any(canon[arity:])}
        for idx, r in enumerate(minus.rows):
            if r in minus.rows[:idx]:
                continue  # the prefix holds r
            negs = [(0, *(-x for x in r[1:-1]), -r[-1] - 1)]  # -e - 1 >= 0
            if r[0]:
                negs.insert(0, (0, *r[1:-1], r[-1] - 1))  # e - 1 >= 0
            for neg in negs:
                if _excluded(arity, neg, box, spans):
                    continue
                cand = normalize_piece(conjoin(p, Piece(minus.divs, minus.rows[:idx] + (neg,))))
                if cand is not None and propagate(arity, cand) is not None:
                    out.append(cand)
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
    """All points, in lexicographic order: the rows of ``enumerate_table``
    as tuples."""
    return list(map(tuple, enumerate_table(a).tolist()))


def enumerate_table(a: IntSet) -> np.ndarray:
    """All points as a table, one row each in lexicographic order: int64
    when every piece was scanned (the scan keeps every value below
    _INT64_SAFE), Python ints when some piece needed the search."""
    try:
        blocks = [_piece_points(a.arity, p) for p in a.pieces] or [np.zeros((0, a.arity), dtype=np.int64)]
    except SetTooLarge as e:
        raise SetTooLarge(f"{a.space.name}[{', '.join(a.space.dims)}] holds {e}") from None
    return distinct_rows(np.concatenate(blocks))


def _lex_extreme(a: IntSet, maximize: bool) -> tuple[int, ...]:
    found = [got for p in a.pieces if (got := _solve_piece(a.arity, p, maximize)) is not None]
    if not found:
        raise EmptySet(f"{'lexmax' if maximize else 'lexmin'} of empty set")
    return max(found) if maximize else min(found)


def lexmin(a: IntSet) -> tuple[int, ...]:
    return _lex_extreme(a, False)


def lexmax(a: IntSet) -> tuple[int, ...]:
    return _lex_extreme(a, True)


def first_outside(a: IntSet, b: IntSet) -> Optional[tuple[int, ...]]:
    """The lexicographically first point of a that is not in b, or None:
    the lexmin of their difference, whose pieces ``subtract`` keeps only
    when they are not empty, so no point of a is enumerated."""
    rest = subtract(a, b)
    return lexmin(rest) if rest.pieces else None


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
    def from_exprs(dom: Space, ran: Space, exprs: Sequence[AffineExpr]) -> "IntMap":
        """Functional construction: out_j == exprs[j](in)."""
        n_in, n_out = dom.arity, ran.arity
        if len(exprs) != n_out:
            raise ValueError("one expression per output dimension required")
        arity = n_in + n_out
        mapping = list(range(n_in))
        cons = []
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
    wide = embed_pieces(s.pieces, range(n_in), arity)
    combined = [conjoin(sp, mp) for sp in wide for mp in m.pieces]
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
    f_wide = embed_pieces(f.pieces, range(na + nb), arity)
    g_wide = embed_pieces(g.pieces, range(na, arity), arity)
    combined = [conjoin(fp, gp) for fp in f_wide for gp in g_wide]
    pieces = project_pieces(arity, combined, list(range(na, na + nb)))
    return IntMap(f.dom, g.ran, tuple(pieces))


def inverse(m: IntMap) -> IntMap:
    n_in, n_out = m.n_in, m.n_out
    mapping = [n_out + i for i in range(n_in)] + list(range(n_out))
    return IntMap.make(m.ran, m.dom, embed_pieces(m.pieces, mapping, n_in + n_out))


def restrict_domain(m: IntMap, s: IntSet) -> IntMap:
    if m.dom.arity != s.space.arity:
        raise SpaceMismatch("restriction set arity mismatch")
    wide = embed_pieces(s.pieces, range(m.n_in), m.n_in + m.n_out)
    return IntMap.make(m.dom, m.ran, [conjoin(mp, sp) for sp in wide for mp in m.pieces])


# ---------------------------------------------------------------------------
# Helpers shared by the analyses and the printer


def embed_pieces(pieces: Iterable[Piece], mapping: Sequence[int], new_arity: int) -> list[Piece]:
    """Reindex every piece's dims through `mapping` into a wider layout;
    division columns follow the new dims in their order."""
    out = []
    for p in pieces:
        cols = [*mapping, *range(new_arity, new_arity + len(p.divs))]
        width = new_arity + len(p.divs)

        def move(r: tuple) -> tuple:
            body = [0] * width
            for c, v in zip(cols, r[1:-1]):
                body[c] += v
            return (r[0], *body, r[-1])

        out.append(Piece(tuple(map(move, p.divs)), tuple(map(move, p.rows))))
    return out


def lex_lt_pieces(a_exprs: Sequence[AffineExpr], b_exprs: Sequence[AffineExpr]) -> list[Piece]:
    """Pieces for (a_exprs) <_lex (b_exprs), one per first differing
    position; both sides share one arity."""
    same = [eq0(a - b) for a, b in zip(a_exprs, b_exprs)]
    return [_lift(same[:level] + [ge0(b_exprs[level] - a_exprs[level].plus_const(1))])
            for level in range(len(same))]


def drop_dominated(s: IntSet, shadow: IntSet, shadow_map: Sequence[int],
                   later: Sequence[Piece]) -> IntSet:
    """The points of `s` that no point of `shadow` dominates.  Both sets are
    embedded in one layout: s's dims first, then the shadow's own dims;
    `shadow_map` gives each shadow dim its column, so a shadow dim mapped
    below s.arity is shared with s.  `later` is the order over that layout,
    one piece per first differing position (``lex_lt_pieces``), under
    which the shadow point comes lexicographically later.  The dominated
    points, with the shadow's own dims projected out, are subtracted
    from s."""
    n = s.arity
    arity = n + sum(c >= n for c in shadow_map)
    base = embed_pieces(s.pieces, range(n), arity)
    wide = embed_pieces(shadow.pieces, shadow_map, arity)
    dominated = project_pieces(arity, [conjoin(p, q, alt) for p in base for q in wide for alt in later],
                               range(n, arity))
    return subtract(s, IntSet(s.space, tuple(dominated))) if dominated else s


def select_lex_extreme(s: IntSet, n_group: int, maximize: bool) -> IntSet:
    """Keep tuples whose value part (dims >= n_group) is the lexicographic
    extreme among tuples sharing the same group part (dims < n_group)."""
    n = s.arity
    n_val = n - n_group
    if n_val == 0:
        return s
    arity = n + n_val
    val = [AffineExpr.var(arity, n_group + i) for i in range(n_val)]
    val_shadow = [AffineExpr.var(arity, n + i) for i in range(n_val)]
    # the shadow is later when it holds a strictly greater (smaller) value
    later = lex_lt_pieces(val, val_shadow) if maximize else lex_lt_pieces(val_shadow, val)
    return drop_dominated(s, s, [*range(n_group), *range(n, arity)], later)


def _term_key(dt: DivTerm) -> tuple:
    """Print order of floor terms: by divisor, then by inner expression."""
    e = dt.inner
    return (dt.div, e.coeffs, e.const, tuple((t.coeff, *_term_key(t)) for t in e.divs))


def row_expr(arity: int, piece: Piece, coeffs: Sequence[int], const: int = 0) -> AffineExpr:
    """Coefficients over the piece's columns as an AffineExpr over its
    dims, each division column turned back into a floor term (in print order)."""
    terms = sorted((DivTerm(c, row_expr(arity, piece, dv[1:-1], dv[-1]), dv[0])
                    for c, dv in zip(coeffs[arity:], piece.divs) if c), key=_term_key)
    return AffineExpr(tuple(coeffs[:arity]), const, tuple(terms))


def solve_block(arity: int, piece: Piece, block: Sequence[int], free: Sequence[int]):
    """Express each dim in `block` by the piece's rows over `free` dims
    only: either a unit-coefficient equality, or an interval pair
    0 <= e - d*pos <= d-1, which pins pos = floor(e/d).

    Returns the expressions keyed by block position and the piece's other
    rows with the block substituted away (normalized, None when false),
    or None if some block dim cannot be expressed.
    """
    nd = len(piece.divs)
    div_dims: list[set] = []  # dims each division column uses, nested ones included
    for dv in piece.divs:
        nested = (div_dims[j] for j in range(len(div_dims)) if dv[1 + arity + j])
        div_dims.append({i for i in range(arity) if dv[1 + i]}.union(*nested))

    def only_free(coeffs, pos) -> bool:
        """Uses no dim outside `free` but pos, and pos in no division."""
        in_divs = set().union(*(div_dims[j] for j in range(nd) if coeffs[arity + j]))
        used = {i for i in range(arity) if coeffs[i] and i != pos} | in_divs
        return pos not in in_divs and used <= set(free)

    exprs: dict[int, tuple[dict, int]] = {}  # pos -> ({column: coeff}, const)
    extra: list[tuple[int, dict]] = []  # recovered floor divisions, after the piece's own
    consumed: set = set()
    for pos in block:
        for r in piece.rows:
            if r[0] and abs(r[1 + pos]) == 1 and r not in consumed and only_free(r[1:-1], pos):
                a = r[1 + pos]
                exprs[pos] = ({j: -a * v for j, v in _sparse(r).items() if j != pos}, -a * r[-1])
                consumed.add(r)
                break
        else:
            for others, canon, lo, hi in _interval_signatures(piece):
                d, sign = -canon[pos], 1
                if d < 0:  # the interval of -canon
                    d, sign = -d, -1
                    lo, hi = (None if hi is None else -hi), (None if lo is None else -lo)
                if (lo, hi) != (0, d - 1) or not only_free(canon, pos):
                    continue
                members = [r for r in piece.rows if r not in others]
                if consumed.intersection(members):
                    continue
                extra.append((d, {j: sign * v for j, v in enumerate(canon) if v and j != pos}))
                exprs[pos] = ({arity + nd + len(extra) - 1: 1}, 0)
                consumed.update(members)
                break
            else:
                return None
    width = arity + nd + len(extra)

    def substitute(head: int, coeffs: Sequence[int], const: int) -> tuple:
        body = [*coeffs, *(0,) * (width - len(coeffs))]
        for pos, (sub, c) in exprs.items():
            a, body[pos] = body[pos], 0
            for j, v in sub.items():
                body[j] += a * v
            const += a * c
        return (head, *body, const)

    divs = tuple(substitute(dv[0], dv[1:-1], dv[-1]) for dv in piece.divs)
    divs += tuple(substitute(d, [e.get(j, 0) for j in range(width)], 0) for d, e in extra)
    rows = tuple(substitute(r[0], r[1:-1], r[-1]) for r in piece.rows if r not in consumed)
    wide = Piece(divs)
    out = {pos: row_expr(arity, wide, [sub.get(j, 0) for j in range(width)], c)
           for pos, (sub, c) in exprs.items()}
    return out, normalize_piece(Piece(divs, rows))
