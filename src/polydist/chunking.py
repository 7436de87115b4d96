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
conditions come from one pass over the family's pairs, and collapsing is
a quotient of the enumerated instance graph, where cycle detection is
exact on these finite scops.  The symbolic order checks and the symbolic
transitive closure in ``tests/oracle.py`` are the test-side cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .deps import DepGraph, FlowFamily
from .isets import AffineExpr, IntMap, Space
from .scop import Scop, Statement
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

    def apply_point(self, point) -> tuple[int, ...]:
        if self.level is None:
            return tuple(point)
        return tuple(v if d in self.kept_dims else 0 for d, v in enumerate(point))

    def as_map(self) -> IntMap:
        n = self.space.arity
        exprs = []
        for d in range(n):
            if self.level is None or d in self.kept_dims:
                exprs.append(AffineExpr.var(n, d))
            else:
                exprs.append(AffineExpr.constant(n, 0))
        return IntMap.from_exprs(self.space, self.space.renamed(self.consumer), exprs, check=False)


# ---------------------------------------------------------------------------
# Instance-graph machinery


def _instance_graph(dep: DepGraph):
    """Adjacency over enumerated instances of all direct flows (cached)."""
    cached = getattr(dep, "_instance_graph", None)
    if cached is not None:
        return cached
    adj: dict = {}
    for gid, ig, cid, ic in dep.instance_edges():
        adj.setdefault((gid, ig), []).append((cid, ic))
    setattr(dep, "_instance_graph", adj)
    return adj


def _collapsed_has_cycle(dep: DepGraph, phi: ChunkingFn) -> bool:
    """Cycle in the instance graph after quotienting by phi."""
    adj = _instance_graph(dep)

    def node_of(sid, pt):
        if sid == phi.consumer:
            return (sid, phi.apply_point(pt))
        return (sid, pt)

    quotient: dict = {}
    for (gid, ig), succs in adj.items():
        src = node_of(gid, ig)
        bucket = quotient.setdefault(src, set())
        for cid, ic in succs:
            bucket.add(node_of(cid, ic))
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict = {}
    for start in quotient:
        if color.get(start, WHITE) != WHITE:
            continue
        stack = [(start, iter(quotient.get(start, ())))]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                c = color.get(nxt, WHITE)
                if c == GRAY:
                    return True
                if c == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(quotient.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return False


# ---------------------------------------------------------------------------
# The heuristic


def _order_summary(scop: Scop, fam: FlowFamily) -> tuple[float, bool]:
    """One pass over the family's enumerated pairs.

    Returns (D, ordered).  D is the largest first scatter index at which a
    producer and its consumer differ, counting a pair as infinite when the
    producer is not below there (or nowhere differs), and -1 for no pairs;
    the strict-prefix condition holds at level l exactly when l > D.
    ordered says whether every producer runs before every consumer."""
    prod = scop.statement(fam.producer)
    cons = scop.statement(fam.consumer)
    deepest: float = -1
    last_prod = first_cons = None
    for ig, ic, _ in fam.pairs():
        tg, tc = prod.scatter_of(ig), cons.scatter_of(ic)
        first = next((t for t in range(len(tg)) if tg[t] != tc[t]), None)
        if first is None or tg[first] > tc[first]:
            deepest = math.inf
        else:
            deepest = max(deepest, first)
        last_prod = tg if last_prod is None else max(last_prod, tg)
        first_cons = tc if first_cons is None else min(first_cons, tc)
    return deepest, last_prod is None or last_prod < first_cons


def _strict_prefix_holds(scop: Scop, fam: FlowFamily, level: int) -> bool:
    """Every family pair: producer scatter prefix strictly below consumer's."""
    return level > _order_summary(scop, fam)[0]


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
