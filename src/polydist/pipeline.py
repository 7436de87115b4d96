"""End-to-end driver: from a parsed scop to analysis results and a plan."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .chunking import chunk_all, dump_chunks
from .commgen import CommPlan, compile_plan
from .deps import DepGraph, add_virtual_statements, compute_flow, dump_deps
from .isets import AffineExpr, IntSet, ge0, intersect
from .placement import Placement, block_distribute, dump_placements, place_statements
from .scop import ClusterGrid, Scop, isolate_accesses

__all__ = ["Analysis", "analyze_scop", "plan_scop", "override_grid", "cap_iterations"]


@dataclass
class Analysis:
    scop: Scop  # isolated, with virtual statements
    dep: DepGraph
    field_placement: Placement
    stmt_placement: Placement
    chunkings: dict

    def dump_deps(self) -> str:
        return dump_deps(self.dep)

    def dump_placements(self) -> str:
        return dump_placements(self.scop, self.field_placement, self.stmt_placement)

    def dump_chunks(self) -> str:
        return dump_chunks(self.dep, self.chunkings)


def analyze_scop(scop: Scop) -> Analysis:
    virt = add_virtual_statements(isolate_accesses(scop))
    dep = compute_flow(virt)
    fp = block_distribute(virt.fields, virt.grid)
    sp = place_statements(virt, dep, fp)
    chunkings = chunk_all(dep)
    return Analysis(
        scop=virt, dep=dep, field_placement=fp, stmt_placement=sp, chunkings=chunkings
    )


def plan_scop(scop: Scop) -> tuple[Analysis, CommPlan]:
    analysis = analyze_scop(scop)
    plan = compile_plan(
        analysis.scop,
        analysis.dep,
        analysis.field_placement,
        analysis.stmt_placement,
        analysis.chunkings,
    )
    return analysis, plan


def override_grid(scop: Scop, extents) -> Scop:
    return replace(scop, grid=ClusterGrid(tuple(extents)))


def cap_iterations(scop: Scop, iters: int) -> Scop:
    """Restrict every statement domain to leading-dimension values < iters."""
    statements = []
    for s in scop.statements:
        if s.arity == 0:
            statements.append(s)
            continue
        cap = ge0(AffineExpr.var(s.arity, 0, -1).plus_const(iters - 1))
        dom = intersect(s.domain, IntSet.make(s.space, [[cap]]))
        statements.append(replace(s, domain=dom))
    return replace(scop, statements=tuple(statements))
