"""Direct flow-dependence analysis: exact last-writer resolution.

For every read of a field element or scalar, find the unique statement
instance whose write is scatter-lexicographically last among all writes
preceding the read.  Field and scalar flows are kept separate; the
virtual prologue writes everything before the scop and the epilogue
reads everything after it, so field reads are always covered.

The resolver walks scatter levels from the innermost out: a candidate at
level L agrees with the reader's scatter prefix of length L and is
strictly smaller at position L.  A candidate sharing a longer prefix is
always later than one sharing a shorter prefix, so reads claimed at a
deep level are removed before shallower levels are examined; competition
then only remains between same-level candidates and is resolved by an
exact symbolic domination subtraction.

The families are then enumerated once each, into int64 tables of
producer ++ consumer ++ element rows (``FlowFamily.table``), and every
pair endpoint is located in its statement's instance table by a binary
search over linearised instance keys (``DepGraph.pair_rows``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import UncoveredRead, ValidationError
from .isets import (
    AffineExpr,
    IntMap,
    IntSet,
    Space,
    conjoin,
    embed_pieces,
    enumerate_set,
    enumerate_table,
    eq0,
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
        column block is searched at once (``Statement.find_rows``)."""
        return [(self.scop.statement(f.producer).find_rows(f.table[:, : f.n_prod]),
                 self.scop.statement(f.consumer).find_rows(f.table[:, f.n_prod : f.n_prod + f.n_cons]))
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


def _reader_relations(scop: Scop):
    """Field reads as (stmt, field, relation); scalar reads as (stmt, name)."""
    field_reads = []
    scalar_reads = []
    for s in scop.statements:
        for _, acc in s.reads():
            field_reads.append((s, scop.field(acc.field), access_relation(scop, s, acc)))
        for name in s.scalar_reads:
            scalar_reads.append((s, name))
    return field_reads, scalar_reads


def _writer_relations(scop: Scop):
    by_field: dict[str, list[tuple[Statement, IntSet]]] = {}
    by_scalar: dict[str, list[Statement]] = {}
    for s in scop.statements:
        for _, acc in s.writes():
            by_field.setdefault(acc.field, []).append((s, access_relation(scop, s, acc)))
        for name in s.scalar_writes:
            by_scalar.setdefault(name, []).append(s)
    return by_field, by_scalar


def _candidates_at_level(
    reader: Statement,
    n_k: int,
    base_read,  # pieces over (i_C ++ k)
    writer: Statement,
    writer_rel: Optional[IntSet],  # over (i_G ++ k); None for scalars
    level: int,
    arity_out: int,
) -> list:
    """Pieces over (i_C ++ k ++ i_G) where the writer instance writes the
    read element with scatter prefix equal up to `level` and strictly
    smaller at position `level`."""
    n_c, n_g = reader.arity, writer.arity
    c_map = list(range(n_c))
    g_map = [n_c + n_k + i for i in range(n_g)]
    theta_c = [e.remap(c_map, arity_out) for e in reader.schedule_exprs]
    theta_g = [e.remap(g_map, arity_out) for e in writer.schedule_exprs]
    cons = conjoin([eq0(theta_g[t] - theta_c[t]) for t in range(level)]
                   + [ge0(theta_c[level] - theta_g[level].plus_const(1))])
    read_pieces = embed_pieces(base_read, list(range(n_c + n_k)), arity_out)
    if writer_rel is not None:
        # writer rel dims are (i_G ++ k): i_G to the tail block, k shared
        w_map = [n_c + n_k + i for i in range(n_g)] + [n_c + i for i in range(n_k)]
        w_pieces = embed_pieces(writer_rel.pieces, w_map, arity_out)
    else:
        w_pieces = embed_pieces(writer.domain.pieces, [n_c + i for i in range(n_g)], arity_out)
    return [conjoin(rp, wp, cons) for rp in read_pieces for wp in w_pieces]


def _dominated(
    reader: Statement,
    n_k: int,
    cand_g,  # (writer G, pieces over (i_C ++ k ++ i_G))
    cand_h,
    arity_g: int,
) -> list:
    """Pieces of cand_g dominated by some cand_h instance with a later
    scatter suffix (prefixes at this level are equal by construction)."""
    (g_stmt, g_pieces) = cand_g
    (h_stmt, h_pieces) = cand_h
    n_c, n_g, n_h = reader.arity, g_stmt.arity, h_stmt.arity
    wide = arity_g + n_h
    g_wide = embed_pieces(g_pieces, list(range(arity_g)), wide)
    h_map = list(range(n_c + n_k)) + [arity_g + i for i in range(n_h)]
    h_wide = embed_pieces(h_pieces, h_map, wide)
    theta_g = [e.remap([n_c + n_k + i for i in range(n_g)], wide) for e in g_stmt.schedule_exprs]
    theta_h = [e.remap([arity_g + i for i in range(n_h)], wide) for e in h_stmt.schedule_exprs]
    alts = lex_lt_pieces(theta_g, theta_h)  # theta_g < theta_h: h later
    combined = [conjoin(gp, hp, alt) for gp in g_wide for hp in h_wide for alt in alts]
    return project_pieces(wide, combined, list(range(arity_g, wide)))


def _resolve_reader(
    scop: Scop,
    reader: Statement,
    n_k: int,
    read_pieces,
    read_space: Space,
    writers: list[tuple[Statement, Optional[IntSet]]],
    kind: str,
    ref: str,
    families: list[FlowFamily],
):
    n_c = reader.arity
    uncovered = IntSet.make(read_space, read_pieces)
    n_t = scop.scatter_arity
    for level in range(n_t - 1, -1, -1):
        if is_empty(uncovered):
            break
        cands = []
        for w_stmt, w_rel in writers:
            arity_out = n_c + n_k + w_stmt.arity
            pieces = _candidates_at_level(
                reader, n_k, uncovered.pieces, w_stmt, w_rel, level, arity_out
            )
            space = Space(
                f"cand:{w_stmt.id}->{reader.id}",
                _merge_dim_names(read_space.dims, w_stmt.space.dims),
            )
            cand = IntSet.make(space, pieces)
            if not is_empty(cand):
                cands.append((w_stmt, cand))
        if not cands:
            continue
        covered_pieces = []
        for g_stmt, g_set in cands:
            arity_g = n_c + n_k + g_stmt.arity
            final = g_set
            for h_stmt, h_set in cands:
                dom_pieces = _dominated(
                    reader, n_k, (g_stmt, final.pieces), (h_stmt, h_set.pieces), arity_g
                )
                if dom_pieces:
                    final = subtract(final, IntSet(final.space, tuple(dom_pieces)))
                if is_empty(final):
                    break
            if is_empty(final):
                continue
            # reorder (i_C ++ k ++ i_G) -> (i_G ++ i_C ++ k)
            n_g = g_stmt.arity
            remap = (
                [n_g + i for i in range(n_c)]
                + [n_g + n_c + i for i in range(n_k)]
                + list(range(n_g))
            )
            fam_space = Space(
                f"{g_stmt.id}->{reader.id}",
                _merge_dim_names(
                    _merge_dim_names(g_stmt.space.dims, reader.space.dims), read_space.dims[n_c:]
                ),
            )
            fam_rel = IntSet.make(fam_space, embed_pieces(final.pieces, remap, arity_g))
            families.append(
                FlowFamily(
                    producer=g_stmt.id,
                    consumer=reader.id,
                    kind=kind,
                    ref=ref,
                    rel=fam_rel,
                    prod_space=g_stmt.space,
                    cons_space=reader.space,
                    n_elem=n_k,
                )
            )
            covered_pieces.extend(
                project_pieces(arity_g, final.pieces, list(range(n_c + n_k, arity_g)))
            )
        if covered_pieces:
            uncovered = subtract(uncovered, IntSet(read_space, tuple(covered_pieces)))
    if not is_empty(uncovered):
        raise UncoveredRead(
            f"{reader.id}: read of {ref} has no producing write for "
            f"{enumerate_set(uncovered)[:3]}..."
        )


def compute_flow(scop: Scop) -> DepGraph:
    """Exact direct flows; requires the virtual statements to be present."""
    ids = {s.id for s in scop.statements}
    if PROLOGUE not in ids or EPILOGUE not in ids:
        raise UncoveredRead("scop lacks virtual statements; run add_virtual_statements first")
    field_reads, scalar_reads = _reader_relations(scop)
    by_field, by_scalar = _writer_relations(scop)
    raw_families: list[FlowFamily] = []
    for reader, fld, rel in field_reads:
        writers = [(s, r) for s, r in by_field.get(fld.name, [])]
        _resolve_reader(
            scop,
            reader,
            fld.arity,
            rel.pieces,
            rel.space,
            writers,
            "field",
            fld.name,
            raw_families,
        )
    for reader, name in scalar_reads:
        writers = [(s, None) for s in by_scalar.get(name, [])]
        if not writers:
            raise UncoveredRead(f"{reader.id}: scalar {name} is never written")
        space = Space(f"{reader.id}?{name}", reader.space.dims)
        _resolve_reader(
            scop,
            reader,
            0,
            reader.domain.pieces,
            space,
            writers,
            "scalar",
            name,
            raw_families,
        )
    # merge family fragments found at different levels; drop prologue->epilogue
    merged: dict[tuple, FlowFamily] = {}
    for fam in raw_families:
        if fam.producer == PROLOGUE and fam.consumer == EPILOGUE:
            continue
        key = (fam.producer, fam.consumer, fam.kind, fam.ref)
        if key in merged:
            prev = merged[key]
            merged[key] = FlowFamily(
                producer=fam.producer,
                consumer=fam.consumer,
                kind=fam.kind,
                ref=fam.ref,
                rel=union(prev.rel, IntSet(prev.rel.space, fam.rel.pieces)),
                prod_space=fam.prod_space,
                cons_space=fam.cons_space,
                n_elem=fam.n_elem,
            )
        else:
            merged[key] = fam
    order = {s.id: n for n, s in enumerate(scop.statements)}
    families = sorted(
        merged.values(),
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
