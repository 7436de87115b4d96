"""Chunking functions: group consumer instances so their communicated
values travel in one aggregated message per chunk.

The heuristic walks scatter-prefix lengths outward-in.  A prefix length
qualifies when (1) every producer's scatter prefix is strictly
lexicographically below its consumers' (prefix length 0 instead demands
that every producer in the family runs before every consumer), and
(2) collapsing the consumer's instances to their representatives leaves
the transitive dependence relation irreflexive.  Representatives keep the
domain dims that appear in the qualifying scatter prefix and zero the
rest.  When no prefix length qualifies the identity chunking is used:
every value travels alone.

All three conditions are checked on enumerated instances.  The two order
conditions come from one pass over the family's pair table, and
collapsing is a quotient of the numbered instance graph, where Kahn's
algorithm peels numpy frontiers of source nodes; on these finite scops
the cycle check is exact.  The symbolic order checks, the symbolic
transitive closure and a depth-first cycle search in ``tests/oracle.py``
are the test-side cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .deps import DepGraph, FlowFamily
from .isets import AffineExpr, IntMap, Space, lex_extreme_row, unique_rows
from .scop import Scop, Statement, evaluate_rows
from .syntax import format_map

__all__ = ["ChunkingFn", "chunk_heuristic", "chunk_all", "dump_chunks"]


@dataclass(frozen=True)
class ChunkingFn:
    """Idempotent projection of one consumer statement's instances."""

    consumer: str
    level: Optional[int]  # prefix length; None means the identity fallback
    kept_dims: tuple[int, ...]
    space: Space

    @property
    def is_identity(self) -> bool:
        return self.level is None or len(self.kept_dims) == self.space.arity

    def apply_rows(self, points: np.ndarray) -> np.ndarray:
        """Every row of a point table mapped to its representative: the
        non-kept columns zeroed."""
        if self.level is None:
            return points
        out = np.zeros_like(points)
        out[:, self.kept_dims] = points[:, self.kept_dims]
        return out

    def as_map(self) -> IntMap:
        n = self.space.arity
        exprs = []
        for d in range(n):
            if self.level is None or d in self.kept_dims:
                exprs.append(AffineExpr.var(n, d))
            else:
                exprs.append(AffineExpr.constant(n, 0))
        return IntMap.from_exprs(self.space, self.space.renamed(self.consumer), exprs)


# ---------------------------------------------------------------------------
# Instance-graph machinery


def _collapsed_has_cycle(dep: DepGraph, phi: ChunkingFn) -> bool:
    """Cycle in the instance graph after merging each chunk of phi into one
    node.  Each consumer instance is renumbered to the first instance of
    its chunk, so an edge inside one chunk becomes a self-loop.  Kahn's
    algorithm then removes whole frontiers of nodes without predecessors
    at once, with numpy, reading successors from the edges sorted by
    producer (CSR); what is left lies on or behind a cycle."""
    cons = dep.scop.statement(phi.consumer)
    base = dep.offsets[phi.consumer]
    _, chunk, first = unique_rows(phi.apply_rows(cons.instances))
    lead = first[chunk]
    n = sum(len(s.instances) for s in dep.scop.statements)
    renumber = np.arange(n)
    renumber[base : base + len(lead)] = base + lead
    src, dst = (renumber[ends] for ends in dep.edges)
    order = np.argsort(src, kind="stable")
    succ, start = dst[order], np.searchsorted(src[order], np.arange(n + 1))
    indegree = np.bincount(dst, minlength=n)
    frontier = np.flatnonzero(indegree == 0)
    while len(frontier):
        lo, count = start[frontier], start[frontier + 1] - start[frontier]
        ends = np.cumsum(count)
        hit, times = np.unique(succ[np.arange(ends[-1]) + np.repeat(lo - ends + count, count)],
                               return_counts=True)
        indegree[hit] -= times
        frontier = hit[indegree[hit] == 0]
    return bool(indegree.any())  # a node never peeled keeps a predecessor


# ---------------------------------------------------------------------------
# The heuristic


def _order_summary(scop: Scop, fam: FlowFamily) -> tuple[float, bool]:
    """One pass over the family's pair table.

    Returns (D, ordered).  D is the largest first scatter index at which a
    producer and its consumer differ, counting a pair as infinite when the
    producer is not below there (or nowhere differs), and -1 for no pairs;
    the strict-prefix condition holds at level l exactly when l > D.
    ordered says whether every producer runs before every consumer."""
    if not len(fam.table):
        return -1, True
    a, b = fam.n_prod, fam.n_prod + fam.n_cons
    tg = evaluate_rows(scop.statement(fam.producer).schedule_exprs, fam.table[:, :a])
    tc = evaluate_rows(scop.statement(fam.consumer).schedule_exprs, fam.table[:, a:b])
    differ = tg != tc
    first = differ.argmax(axis=1)
    pair = np.arange(len(first))
    if not differ.any(axis=1).all() or (tg[pair, first] > tc[pair, first]).any():
        deepest: float = math.inf
    else:
        deepest = int(first.max())
    return deepest, lex_extreme_row(tg, True) < lex_extreme_row(tc, False)


def _kept_dims(cons: Statement, level: int) -> tuple[int, ...]:
    kept = set()
    for expr in cons.schedule_exprs[:level]:
        for d, coeff in enumerate(expr.coeffs):
            if coeff != 0:
                kept.add(d)
    return tuple(sorted(kept))


def chunk_heuristic(fam: FlowFamily, dep: DepGraph) -> ChunkingFn:
    """Smallest qualifying scatter-prefix length, or the identity fallback."""
    scop = dep.scop
    cons = scop.statement(fam.consumer)
    n_t = scop.scatter_arity
    deepest, ordered = _order_summary(scop, fam)
    for level in range(0, n_t):
        holds = ordered if level == 0 else level > deepest
        if not holds:
            continue
        phi = ChunkingFn(
            consumer=fam.consumer,
            level=level,
            kept_dims=_kept_dims(cons, level),
            space=cons.space,
        )
        if _collapsed_has_cycle(dep, phi):
            continue
        return phi
    return ChunkingFn(
        consumer=fam.consumer,
        level=None,
        kept_dims=tuple(range(cons.arity)),
        space=cons.space,
    )


def chunk_all(dep: DepGraph) -> dict:
    """Chunking function per intra-scop field family, keyed like families."""
    out = {}
    for fam in dep.intra_field_families():
        out[(fam.producer, fam.consumer, fam.ref)] = chunk_heuristic(fam, dep)
    return out


def dump_chunks(dep: DepGraph, chunkings: dict) -> str:
    lines = []
    for (producer, consumer, ref), phi in sorted(
        chunkings.items(), key=lambda kv: (kv[0][1], kv[0][0], kv[0][2])
    ):
        level = "identity" if phi.level is None else str(phi.level)
        lines.append(f"chunk {consumer} level={level} phi={format_map(phi.as_map())}")
    return "\n".join(lines) + "\n"
