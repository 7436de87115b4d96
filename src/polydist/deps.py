"""Direct flow-dependence analysis: exact last-writer resolution.

For every read of a field element or scalar, find the unique statement
instance whose write is scatter-lexicographically last among all writes
preceding the read (Feautrier's last-writer problem).  Field and scalar
flows are kept separate; the virtual prologue writes everything before
the scop and the epilogue reads everything after it, so field reads are
always covered.

Levels.  A write precedes a read at level L when their scatters agree on
the first L positions and the write's is smaller at position L.  A write
preceding at a deeper level is always later than one preceding at a
shallower level, so the resolver walks the levels from the innermost out
and removes the reads claimed at one level before it looks at the next;
only candidates of the same level compete.

One domination primitive.  A candidate is dropped where a candidate of
the same level, of any writer and its own included, has a later scatter:
``isets.drop_dominated`` conjoins it with a shadow copy under a
lexicographic order, projects the shadow out and subtracts the result;
``select_lex_extreme`` calls it too.  Each scatter order (a writer's
before the reader's, one candidate's before another's) is built once per
statement pair and column layout within one ``compute_flow``.

One family per writer.  A writer's surviving pieces are gathered over all
levels into one ``FlowFamily`` per (writer, reader, field or scalar): a
relation over producer instance ++ consumer instance ++ element.  Reads
of one field by one statement are resolved together, and so are repeated
reads of one scalar.

The families are then enumerated once each, into int64 tables of
producer ++ consumer ++ element rows (``FlowFamily.table``), and every
pair endpoint is located in its statement's instance table by a binary
search over linearised instance keys (``DepGraph.pair_rows``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import UncoveredRead, ValidationError
from .isets import (
    AffineExpr,
    IntMap,
    IntSet,
    Space,
    conjoin,
    drop_dominated,
    embed_pieces,
    enumerate_set,
    enumerate_table,
    eq0,
    find_rows,
    ge0,
    is_empty,
    lex_lt_pieces,
    project_pieces,
    subtract,
    union,
    _merge_dim_names,
)
from .scop import AccessRef, Scop, Statement
from .syntax import format_map

__all__ = ["PROLOGUE", "EPILOGUE", "FlowFamily", "DepGraph", "add_virtual_statements", "compute_flow", "dump_deps"]

PROLOGUE = "Prologue"
EPILOGUE = "Epilogue"


def add_virtual_statements(scop: Scop) -> Scop:
    """Append the prologue (writes all of every field, scheduled before
    everything) and the epilogue (reads all, scheduled after everything)."""
    ids = {s.id for s in scop.statements}
    if PROLOGUE in ids or EPILOGUE in ids:
        raise ValidationError("scop already carries virtual statements")
    firsts = np.concatenate([[0]] + [s.scatters[:, 0] for s in scop.statements])
    lo, hi = int(firsts.min()), int(firsts.max())
    n = scop.scatter_arity
    zeros = tuple(AffineExpr.constant(0, 0) for _ in range(n - 1))
    prologue = Statement(
        id=PROLOGUE,
        domain=IntSet.make(Space(PROLOGUE, ()), [()]),
        schedule_exprs=(AffineExpr.constant(0, lo - 1),) + zeros,
        accesses=tuple(AccessRef(f.name, "write", None) for f in scop.fields),
        is_virtual=True,
    )
    epilogue = Statement(
        id=EPILOGUE,
        domain=IntSet.make(Space(EPILOGUE, ()), [()]),
        schedule_exprs=(AffineExpr.constant(0, hi + 1),) + zeros,
        accesses=tuple(AccessRef(f.name, "read", None) for f in scop.fields),
        is_virtual=True,
    )
    return Scop(
        name=scop.name,
        fields=scop.fields,
        statements=scop.statements + (prologue, epilogue),
        scatter_arity=scop.scatter_arity,
        grid=scop.grid,
        functions=scop.functions,
    )


# ---------------------------------------------------------------------------
# Access relations


def access_relation(scop: Scop, s: Statement, acc: AccessRef) -> IntSet:
    """Relation over (instance dims ++ element dims) of one access."""
    fld = scop.field(acc.field)
    n_i, n_k = s.arity, fld.arity
    arity = n_i + n_k
    space = Space(f"{s.id}@{fld.name}", _merge_dim_names(s.space.dims, fld.space.dims))
    pieces = embed_pieces(s.domain.pieces, list(range(n_i)), arity)
    cons = []
    if acc.index_exprs is None:
        for d in range(n_k):
            kv = AffineExpr.var(arity, n_i + d)
            cons.append(ge0(kv))
            cons.append(ge0(-kv + AffineExpr.constant(arity, fld.extents[d] - 1)))
    else:
        for d, e in enumerate(acc.index_exprs):
            kv = AffineExpr.var(arity, n_i + d)
            cons.append(eq0(kv - e.remap(list(range(n_i)), arity)))
    return IntSet.make(space, [conjoin(p, cons) for p in pieces])


@dataclass(frozen=True)
class FlowFamily:
    """All flow pairs between one producer and one consumer statement for
    one field or scalar, as a relation over
    (producer instance ++ consumer instance ++ element index)."""

    producer: str
    consumer: str
    kind: str  # "field" | "scalar"
    ref: str
    rel: IntSet
    prod_space: Space
    cons_space: Space
    n_elem: int

    @property
    def n_prod(self) -> int:
        return self.prod_space.arity

    @property
    def n_cons(self) -> int:
        return self.cons_space.arity

    @cached_property
    def table(self) -> np.ndarray:
        """Every pair, enumerated once (``enumerate_table``): one row of
        producer ++ consumer ++ element columns per pair, in lexicographic
        order, int64 unless exactness needs Python ints."""
        return enumerate_table(self.rel)

    def pairs(self) -> "PairView":
        """The table as (producer, consumer, element) tuples, row for row."""
        return PairView(self.table, self.n_prod, self.n_prod + self.n_cons)

    def as_map(self) -> IntMap:
        """Producer instances -> consumer instances (element dims dropped)."""
        arity = self.n_prod + self.n_cons + self.n_elem
        pieces = project_pieces(
            arity, self.rel.pieces, list(range(self.n_prod + self.n_cons, arity))
        )
        return IntMap(self.prod_space, self.cons_space, tuple(pieces))

    def display_map(self) -> IntMap:
        """Like as_map but with primed range dims, for unambiguous printing."""
        m = self.as_map()
        primed = Space(
            self.consumer,
            _merge_dim_names(self.prod_space.dims, self.cons_space.dims)[self.n_prod :],
        )
        return IntMap(m.dom, primed, m.pieces)


class PairView(Sequence):
    """A family table read as (producer, consumer, element) tuples, each
    made when read."""

    def __init__(self, table: np.ndarray, a: int, b: int):
        self.table, self.a, self.b = table, a, b

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, i: int) -> tuple:
        p = self.table[i].tolist()
        return tuple(p[: self.a]), tuple(p[self.a : self.b]), tuple(p[self.b :])


@dataclass
class DepGraph:
    scop: Scop
    families: list[FlowFamily] = field(default_factory=list)

    def field_families(self) -> list[FlowFamily]:
        return [f for f in self.families if f.kind == "field"]

    def scalar_families(self) -> list[FlowFamily]:
        return [f for f in self.families if f.kind == "scalar"]

    def intra_field_families(self) -> list[FlowFamily]:
        return [
            f
            for f in self.field_families()
            if f.producer not in (PROLOGUE,) and f.consumer not in (EPILOGUE,)
        ]

    def prologue_families(self) -> list[FlowFamily]:
        return [f for f in self.field_families() if f.producer == PROLOGUE]

    def epilogue_families(self) -> list[FlowFamily]:
        return [f for f in self.field_families() if f.consumer == EPILOGUE]

    @cached_property
    def offsets(self) -> dict:
        """Statement id -> number of its first instance: every instance is
        numbered once, as this offset plus its row in ``Statement.instances``."""
        sizes = np.cumsum([0] + [len(s.instances) for s in self.scop.statements])
        return {s.id: int(n) for s, n in zip(self.scop.statements, sizes)}

    @cached_property
    def pair_rows(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per family, in ``families`` order, the producer's and consumer's
        rows in ``Statement.instances``, one per pair in table order: each
        column block is searched at once (``isets.find_rows``)."""
        stmt = self.scop.statement
        return [(find_rows(stmt(f.producer).instances, f.table[:, : f.n_prod]),
                 find_rows(stmt(f.consumer).instances, f.table[:, f.n_prod : f.n_prod + f.n_cons]))
                for f in self.families]

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The pairs of every family, field and scalar, as (producer number,
        consumer number) arrays."""
        ends: tuple = ([np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)])
        for fam, rows in zip(self.families, self.pair_rows):
            for out, sid, r in zip(ends, (fam.producer, fam.consumer), rows):
                out.append(self.offsets[sid] + r)
        return np.concatenate(ends[0]), np.concatenate(ends[1])


# ---------------------------------------------------------------------------
# Last-writer resolution


def _reader_relations(scop: Scop) -> list[tuple[Statement, str, str, int, IntSet]]:
    """Reads as (stmt, kind, field or scalar name, element arity, relation
    over instance ++ element): first one per field a statement reads, the
    union of its reads of it, then one per scalar a statement reads."""
    field_reads, scalar_reads = [], []
    for s in scop.statements:
        rels: dict[str, IntSet] = {}
        for _, acc in s.reads():
            rel = access_relation(scop, s, acc)
            rels[acc.field] = union(rels[acc.field], rel) if acc.field in rels else rel
        field_reads += [(s, "field", name, scop.field(name).arity, rel) for name, rel in rels.items()]
        for name in dict.fromkeys(s.scalar_reads):
            read = IntSet.make(Space(f"{s.id}?{name}", s.space.dims), s.domain.pieces)
            scalar_reads.append((s, "scalar", name, 0, read))
    return field_reads + scalar_reads


def _writer_relations(scop: Scop) -> dict[tuple[str, str], list[tuple[Statement, IntSet]]]:
    """Writers per (kind, field or scalar name), each with the relation of
    its write over instance ++ element: for a scalar, its domain."""
    writers: dict[tuple[str, str], list[tuple[Statement, IntSet]]] = {}
    for s in scop.statements:
        for _, acc in s.writes():
            writers.setdefault(("field", acc.field), []).append((s, access_relation(scop, s, acc)))
        for name in s.scalar_writes:
            writers.setdefault(("scalar", name), []).append((s, s.domain))
    return writers


def _scatter_order(orders: dict, a: Statement, a_at: int, b: Statement, b_at: int,
                   arity: int) -> list:
    """Where b's scatter is lexicographically later than a's, one piece per
    level (``lex_lt_pieces``), over `arity` columns that hold a's instance
    dims from column a_at and b's from b_at; built once per layout in
    `orders`, which lives for one ``compute_flow``."""
    key = (a.id, a_at, b.id, b_at, arity)
    if key not in orders:
        thetas = ([e.remap(range(at, at + s.arity), arity) for e in s.schedule_exprs]
                  for s, at in ((a, a_at), (b, b_at)))
        orders[key] = lex_lt_pieces(*thetas)
    return orders[key]


def _resolve_reader(
    reader: Statement,
    n_k: int,
    read: IntSet,  # over (i_C ++ k)
    writers: list[tuple[Statement, IntSet]],  # rel over (i_G ++ k); the domain for scalars
    kind: str,
    ref: str,
    orders: dict,
) -> list[FlowFamily]:
    """One family per writer that is last for some point of `read`."""
    n_c, n_r = reader.arity, reader.arity + n_k
    layouts = []  # per writer: its candidates' space over (i_C ++ k ++ i_G), its pieces there
    for w, rel in writers:
        space = Space(f"cand:{w.id}->{reader.id}", _merge_dim_names(read.space.dims, w.space.dims))
        # i_G to the tail block, k shared
        w_pieces = embed_pieces(rel.pieces, [*range(n_r, space.arity), *range(n_c, n_r)], space.arity)
        layouts.append((w, space, w_pieces))
    found: dict[str, list] = {w.id: [] for w, _ in writers}
    uncovered = read
    for level in range(len(reader.schedule_exprs) - 1, -1, -1):
        if is_empty(uncovered):
            break
        cands = []
        for w, space, w_pieces in layouts:
            before = _scatter_order(orders, w, n_r, reader, 0, space.arity)[level]
            read_pieces = embed_pieces(uncovered.pieces, range(n_r), space.arity)
            cand = IntSet.make(space, [conjoin(rp, wp, before)
                                       for rp in read_pieces for wp in w_pieces])
            if not is_empty(cand):
                cands.append((w, cand))
        covered = []
        for g, final in cands:
            arity_g = final.arity
            for h, h_set in cands:
                wide = arity_g + h.arity
                later = _scatter_order(orders, g, n_r, h, arity_g, wide)
                final = drop_dominated(final, h_set, [*range(n_r), *range(arity_g, wide)], later)
                if is_empty(final):
                    break
            if not is_empty(final):
                found[g.id] += final.pieces
                covered += project_pieces(arity_g, final.pieces, range(n_r, arity_g))
        if covered:
            uncovered = subtract(uncovered, IntSet(read.space, tuple(covered)))
    if not is_empty(uncovered):
        raise UncoveredRead(
            f"{reader.id}: read of {ref} has no producing write for "
            f"{enumerate_set(uncovered)[:3]}..."
        )
    families = []
    for w, _ in writers:
        if found[w.id]:
            dims = _merge_dim_names(w.space.dims, reader.space.dims)
            space = Space(f"{w.id}->{reader.id}", _merge_dim_names(dims, read.space.dims[n_c:]))
            # (i_C ++ k ++ i_G) -> (i_G ++ i_C ++ k)
            order = [*range(w.arity, w.arity + n_r), *range(w.arity)]
            rel = IntSet.make(space, embed_pieces(found[w.id], order, n_r + w.arity))
            families.append(FlowFamily(
                producer=w.id,
                consumer=reader.id,
                kind=kind,
                ref=ref,
                rel=rel,
                prod_space=w.space,
                cons_space=reader.space,
                n_elem=n_k,
            ))
    return families


def compute_flow(scop: Scop) -> DepGraph:
    """Exact direct flows; requires the virtual statements to be present."""
    ids = {s.id for s in scop.statements}
    if PROLOGUE not in ids or EPILOGUE not in ids:
        raise UncoveredRead("scop lacks virtual statements; run add_virtual_statements first")
    writers = _writer_relations(scop)
    orders: dict = {}
    families: list[FlowFamily] = []
    for reader, kind, ref, n_k, read in _reader_relations(scop):
        if (kind, ref) not in writers:
            raise UncoveredRead(f"{reader.id}: {kind} {ref} is never written")
        families += _resolve_reader(reader, n_k, read, writers[kind, ref], kind, ref, orders)
    order = {s.id: n for n, s in enumerate(scop.statements)}
    families = sorted(
        (f for f in families if (f.producer, f.consumer) != (PROLOGUE, EPILOGUE)),
        key=lambda f: (f.kind, order[f.producer], order[f.consumer], f.ref),
    )
    return DepGraph(scop=scop, families=families)


# ---------------------------------------------------------------------------
# Dump format (golden-diffed)


def family_map_text(fam: FlowFamily) -> str:
    return format_map(fam.display_map(), solve_side="in")


def dump_deps(dep: DepGraph) -> str:
    lines = []
    groups = [
        ("field flow", dep.intra_field_families()),
        ("prologue flow", dep.prologue_families()),
        ("epilogue flow", dep.epilogue_families()),
        ("scalar flow", dep.scalar_families()),
    ]
    for label, fams in groups:
        lines.append(f"# {label}: {len(fams)} families")
        for fam in fams:
            via = fam.ref
            lines.append(f"{label.split()[0]} {via}: {family_map_text(fam)}")
    return "\n".join(lines) + "\n"
