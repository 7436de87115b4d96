"""SCoP intermediate representation: statements, domains, schedules, accesses.

Also home to the two source-level transformations that do not need any
dependence information: access isolation (at most one field access per
statement afterwards) and the sequential reference executor that the
distributed simulator is verified against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import EvaluationError, ValidationError
from .exprs import Code, PureFunction, compile_expr, compile_functions
from .isets import AffineExpr, IntSet, Space, enumerate_table, exact_table, unique_rows

__all__ = [
    "FieldDecl",
    "AccessRef",
    "Statement",
    "ClusterGrid",
    "Scop",
    "isolate_accesses",
    "sequential_execute",
    "evaluate_rows",
]

ELEMENT_DTYPES = {"bool": np.bool_, "int64": np.int64, "float64": np.float64}


def evaluate_rows(exprs: Sequence[AffineExpr], rows: np.ndarray) -> np.ndarray:
    """Every expression at every row of a point table, as an (n, len(exprs))
    table; floor-division terms are floor divisions.  Exact: the rows turn
    into Python ints when a value or partial sum could reach the int64
    guard (``exact_table``), bounded from the columns' largest magnitudes."""
    mag = np.abs(rows).max(axis=0).tolist() if len(rows) else [0] * rows.shape[1]

    def bound(e: AffineExpr) -> int:
        return (abs(e.const) + sum(abs(c) * m for c, m in zip(e.coeffs, mag))
                + sum(abs(dt.coeff) * bound(dt.inner) for dt in e.divs))

    rows = exact_table(rows, max(map(bound, exprs), default=0))

    def value(e: AffineExpr) -> np.ndarray:
        out = np.full(len(rows), e.const, dtype=rows.dtype)
        for d, c in enumerate(e.coeffs):
            if c:
                out += c * rows[:, d]
        for dt in e.divs:
            out += dt.coeff * (value(dt.inner) // dt.div)
        return out

    return np.stack([value(e) for e in exprs], axis=1) if exprs else rows[:, :0]


@dataclass(frozen=True)
class FieldDecl:
    """A distributed array; its index set is the zero-based box of extents."""

    name: str
    element_type: str
    extents: tuple[int, ...]

    def __post_init__(self):
        if self.element_type not in ELEMENT_DTYPES:
            raise ValidationError(f"field {self.name}: unknown element type {self.element_type}")
        if not self.extents or any(e < 1 for e in self.extents):
            raise ValidationError(f"field {self.name}: extents must all be >= 1")

    @property
    def arity(self) -> int:
        return len(self.extents)

    @property
    def space(self) -> Space:
        return Space(self.name, tuple(f"k{i}" for i in range(self.arity)))

    @property
    def indexset(self) -> IntSet:
        return IntSet.from_box(self.space, [(0, e - 1) for e in self.extents])

    @property
    def dtype(self):
        return ELEMENT_DTYPES[self.element_type]


@dataclass(frozen=True)
class AccessRef:
    """One field access of a statement; index_exprs is None only for the
    virtual prologue/epilogue accesses that touch the whole field."""

    field: str
    kind: str  # "read" | "write"
    index_exprs: Optional[tuple[AffineExpr, ...]]

    def __post_init__(self):
        if self.kind not in ("read", "write"):
            raise ValidationError(f"access kind must be read or write, got {self.kind!r}")


@dataclass(frozen=True)
class Statement:
    id: str
    domain: IntSet
    schedule_exprs: tuple[AffineExpr, ...]
    accesses: tuple[AccessRef, ...] = ()
    body: Optional[object] = None
    scalar_reads: tuple[str, ...] = ()
    scalar_writes: tuple[str, ...] = ()
    is_virtual: bool = False

    @property
    def space(self) -> Space:
        return self.domain.space

    @property
    def arity(self) -> int:
        return self.domain.arity

    @cached_property
    def instances(self) -> np.ndarray:
        """The domain's points in lexicographic order, one row each; an
        instance's row number is its identity within the statement."""
        return enumerate_table(self.domain)

    @cached_property
    def labels(self) -> list:
        """Every instance as a trace names it, ``S1.1(0,1,1)``, row for row."""
        return (f"{self.id}({','.join(['%d'] * self.arity)})\0" * len(self.instances)
                % tuple(self.instances.ravel().tolist())).split("\0")[:-1]

    @cached_property
    def scatters(self) -> np.ndarray:
        """The scatter of every instance, row for row."""
        return evaluate_rows(self.schedule_exprs, self.instances)

    @cached_property
    def subscripts(self) -> tuple:
        """Per access, the element every instance touches as a table, row
        for row; None for the whole-field accesses of the virtual statements."""
        return tuple(
            None if a.index_exprs is None else evaluate_rows(a.index_exprs, self.instances)
            for a in self.accesses
        )

    @cached_property
    def elements(self) -> tuple:
        """``subscripts`` as lists of tuples, which index field arrays."""
        return tuple(None if t is None else list(map(tuple, t.tolist())) for t in self.subscripts)

    def reads(self) -> list[tuple[int, AccessRef]]:
        return [(j, a) for j, a in enumerate(self.accesses) if a.kind == "read"]

    def writes(self) -> list[tuple[int, AccessRef]]:
        return [(j, a) for j, a in enumerate(self.accesses) if a.kind == "write"]


@dataclass(frozen=True)
class ClusterGrid:
    extents: tuple[int, ...]

    def __post_init__(self):
        if any(e < 1 for e in self.extents):
            raise ValidationError("grid extents must all be >= 1")

    @property
    def arity(self) -> int:
        return len(self.extents)

    @property
    def space(self) -> Space:
        return Space("P", tuple(f"p{i}" for i in range(self.arity)))

    @property
    def nodes(self) -> list[tuple[int, ...]]:
        """Every node coordinate, in lexicographic order."""
        return list(itertools.product(*[range(e) for e in self.extents]))

    @property
    def node_set(self) -> IntSet:
        return IntSet.from_box(self.space, [(0, e - 1) for e in self.extents])

    def index(self, coords: np.ndarray) -> np.ndarray:
        """The position in ``nodes`` of every node coordinate of a table."""
        return np.ravel_multi_index(tuple(coords.T.astype(np.intp)), self.extents)


@dataclass(frozen=True)
class Scop:
    name: str
    fields: tuple[FieldDecl, ...]
    statements: tuple[Statement, ...]
    scatter_arity: int
    grid: ClusterGrid
    functions: dict[str, PureFunction] = field(default_factory=dict)

    def field(self, name: str) -> FieldDecl:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(name)

    def statement(self, sid: str) -> Statement:
        for s in self.statements:
            if s.id == sid:
                return s
        raise KeyError(sid)

    def real_statements(self) -> list[Statement]:
        return [s for s in self.statements if not s.is_virtual]

    def validate(self) -> None:
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate field names")
        ids = [s.id for s in self.statements]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate statement ids")
        self.function_bodies  # compiles every function body
        for s in self.statements:
            self._validate_statement(s)
        self.order  # checks that the schedule is injective

    @cached_property
    def order(self) -> tuple[np.ndarray, np.ndarray]:
        """Every real-statement instance as (index in ``real_statements``,
        row) columns, in ascending scatter order.  A shared scatter raises
        ValidationError, naming the first instance, in statement and then
        row order, whose scatter an earlier one holds."""
        stmts = self.real_statements()
        sizes = [len(s.scatters) for s in stmts]
        owner = np.repeat(np.arange(len(stmts)), sizes)
        row = np.arange(len(owner)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        stacked = np.concatenate([s.scatters for s in stmts] or [np.zeros((0, 1))])
        _, inverse, first = unique_rows(stacked)
        clash = np.flatnonzero(first[inverse] != np.arange(len(stacked)))
        if len(clash):
            (s, p), (o, q) = ((stmts[owner[g]], row[g]) for g in (clash[0], first[inverse[clash[0]]]))
            raise ValidationError(
                f"schedule not injective: {s.id}{tuple(s.instances[p].tolist())} and "
                f"{o.id}{tuple(o.instances[q].tolist())} share scatter {tuple(stacked[clash[0]].tolist())}"
            )
        return owner[first], row[first]  # distinct scatters come in lexicographic order

    def _validate_statement(self, s: Statement) -> None:
        if len(s.schedule_exprs) != self.scatter_arity:
            raise ValidationError(
                f"{s.id}: schedule arity {len(s.schedule_exprs)} != scatter arity "
                f"{self.scatter_arity}"
            )
        writes = s.writes()
        if len(writes) > 1:
            raise ValidationError(f"{s.id}: more than one write access")
        for j, acc in enumerate(s.accesses):
            try:
                fld = self.field(acc.field)
            except KeyError:
                raise ValidationError(f"{s.id}: access to undeclared field {acc.field!r}")
            if acc.index_exprs is None:
                if not s.is_virtual:
                    raise ValidationError(f"{s.id}: whole-field access on a real statement")
                continue
            if len(acc.index_exprs) != fld.arity:
                raise ValidationError(
                    f"{s.id}: access to {fld.name} has {len(acc.index_exprs)} indexes, "
                    f"field has {fld.arity} dimensions"
                )
            if any(e.divs for e in acc.index_exprs):
                raise ValidationError(f"{s.id}: access index expressions must be affine")
            self._check_in_bounds(s, j, fld)
        if s.body is None and not s.is_virtual and (s.writes() or s.scalar_writes):
            raise ValidationError(f"{s.id}: writing statement has no body")
        self.compile_body(s)

    @cached_property
    def function_bodies(self) -> dict:
        """Every function's (parameters, Code), compiled once per scop."""
        return compile_functions(self.functions)

    @cached_property
    def _compiled(self) -> tuple[dict, dict]:
        """Statement id -> its body's Code, and -> its instance runner."""
        return {}, {}

    def compile_body(self, s: Statement) -> Code:
        """The statement's body as generated code, checked against its
        scalars, its readable accesses and the scop's functions, once per
        scop; a statement without a body evaluates to None."""
        bodies = self._compiled[0]
        if s.id not in bodies:
            bodies[s.id] = Code("None", None, "", (), {}) if s.body is None else compile_expr(
                s.body, {*s.scalar_reads, *s.scalar_writes}, [a.kind for a in s.accesses],
                self.function_bodies.get, s.id)
        return bodies[s.id]

    def _check_in_bounds(self, s: Statement, j: int, fld: FieldDecl) -> None:
        values = s.subscripts[j]
        if not len(values):
            return
        ranges = zip(values.min(axis=0).tolist(), values.max(axis=0).tolist(), fld.extents)
        for d, (lo, hi, extent) in enumerate(ranges):
            if lo < 0 or hi >= extent:
                raise ValidationError(
                    f"{s.id}: access {fld.name}[dim {d}] out of bounds "
                    f"(range [{lo}, {hi}], extent {extent})"
                )


# ---------------------------------------------------------------------------
# Access isolation


def _is_atomic(body) -> bool:
    return body[0] in ("var", "int", "float", "bool", "access")


def _rewrite_accesses(node, renames: dict[int, str], reads: set):
    """The tree with each access in ``renames`` replaced by a read of its
    scalar; adds every scalar the new tree reads to ``reads``."""
    if node[0] == "access" and node[1] in renames:
        node = ["var", renames[node[1]]]
    if node[0] == "var":
        reads.add(node[1])
    return [_rewrite_accesses(c, renames, reads) if isinstance(c, (list, tuple)) else c
            for c in node]


def _split(s: Statement) -> list[tuple]:
    """The children of a multi-access statement, each as (accesses, body,
    scalar reads, scalar writes): one per read access, assigning a fresh
    scalar; then the body, rewritten to read those scalars, stored directly
    when it is atomic and else computed into one more scalar that a store
    child writes.  Without a write the body's child carries the statement's
    scalar writes; without a body the reads are all the statement does."""
    fresh = (f"{s.id}.v{n}" for n in itertools.count(1))
    renames = {j: next(fresh) for j, _ in s.reads()}
    parts = [((acc,), ["access", 0], (), (renames[j],)) for j, acc in s.reads()]
    if s.body is None:
        return parts
    reads: set = set()
    body = _rewrite_accesses(s.body, renames, reads)
    reads = tuple(sorted(reads))
    if not s.writes():
        return parts + [((), body, reads, s.scalar_writes)]
    store = (s.writes()[0][1],)
    if _is_atomic(body):
        return parts + [(store, body, reads, s.scalar_writes)]
    value = next(fresh)
    return parts + [((), body, reads, (value,) + s.scalar_writes),
                    (store, ["var", value], (value,), ())]


def isolate_accesses(scop: Scop) -> Scop:
    """Split statements so each carries at most one field access.

    Values flowing between the split parts become fresh scalars named
    ``<id>.v<n>``.  Schedules gain one trailing ordinal dimension: the
    1-based child position for split statements, 0 for statements that
    were already isolated. Sequential semantics are unchanged.  The
    result is valid when the input is: domains and subscripts are kept,
    and the ordinal keeps the schedule injective.
    """
    out: list[Statement] = []
    existing_ids = {s.id for s in scop.statements}
    for s in scop.statements:
        if s.is_virtual or len(s.accesses) <= 1:
            out.append(replace(s, schedule_exprs=s.schedule_exprs
                               + (AffineExpr.constant(s.arity, 0),)))
            continue
        for pos, part in enumerate(_split(s), start=1):
            cid = f"{s.id}.{pos}"
            if cid in existing_ids:
                raise ValidationError(f"isolation id collision: {cid}")
            out.append(Statement(cid, IntSet(Space(cid, s.space.dims), s.domain.pieces),
                                 s.schedule_exprs + (AffineExpr.constant(s.arity, pos),), *part))
    return replace(scop, statements=tuple(out), scatter_arity=scop.scatter_arity + 1)


# ---------------------------------------------------------------------------
# Sequential reference execution

FieldContents = dict  # field name -> numpy array


def _check_store(value, fld: FieldDecl):
    if fld.element_type == "bool":
        if not isinstance(value, bool):
            raise EvaluationError(f"field {fld.name} stores bool, got {type(value).__name__}")
    elif fld.element_type == "int64":
        if isinstance(value, bool) or not isinstance(value, int):
            raise EvaluationError(f"field {fld.name} stores int64, got {type(value).__name__}")
        if not -(1 << 63) <= value < 1 << 63:
            raise EvaluationError(f"field {fld.name} stores int64, got {value}, out of range")
    else:
        if not isinstance(value, float):
            raise EvaluationError(f"field {fld.name} stores float64, got {type(value).__name__}")
    return value


def sequential_execute(scop: Scop, init: FieldContents) -> FieldContents:
    """Run every statement instance, in ``scop.order``, on one memory."""
    fields = {}
    for f in scop.fields:
        if f.name not in init:
            raise EvaluationError(f"initial contents missing field {f.name}")
        arr = np.array(init[f.name], dtype=f.dtype)
        if arr.shape != f.extents:
            raise EvaluationError(f"initial contents for {f.name} have shape {arr.shape}")
        fields[f.name] = arr

    def read(fields, decl, element):
        return fields[decl.name].item(element)

    def store(fields, decl, element, value):
        fields[decl.name][element] = value

    runs = [instance_runner(scop, s) for s in scop.real_statements()]
    scalars: dict[str, object] = {}
    for o, r in zip(*(a.tolist() for a in scop.order)):
        runs[o](r, scalars, read, store, fields)
    return fields


def instance_runner(scop: Scop, s: Statement):
    """``run(row, scalars, read, store, where)`` runs the instance of s in
    the row: each read access's value comes from ``read(where, decl,
    element)``, the checked write goes to ``store(where, decl, element,
    value)``.  Generated once per statement and scop, on first use."""
    runners = scop._compiled[1]
    if s.id not in runners:
        code = scop.compile_body(s)
        names = {"_check_store": _check_store, "scalar_writes": s.scalar_writes}
        for j, (a, elements) in enumerate(zip(s.accesses, s.elements)):
            names[f"d{j}"], names[f"e{j}"] = scop.field(a.field), elements
        lines = [f"v = {code.expr}", *(f"store(where, d{j}, e{j}[row], _check_store(v, d{j}))"
                                       for j, _ in s.writes()[:1]),
                 *(f"sc[scalar_writes[{i}]] = v" for i in range(len(s.scalar_writes)))]
        runners[s.id] = code.define("row, sc, read, store, where", lines, names)
    return runners[s.id]
