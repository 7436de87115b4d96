"""Brute-force flow-dependence oracle.

Replays the sequential execution, recording per memory cell (field
element or scalar) the last writer instance at the moment of every read.
Completely independent of the symbolic last-writer resolution.
"""

from __future__ import annotations

from polydist.deps import EPILOGUE, PROLOGUE
from polydist.isets import enumerate_set
from polydist.scop import Scop

from oracle import evaluate_point


def scatter_of(s, point) -> tuple:
    """One instance's scatter, evaluated point by point."""
    return tuple(evaluate_point(e, point) for e in s.schedule_exprs)


def brute_force_flows(scop: Scop) -> set:
    """All direct flow pairs (producer, i_g, consumer, i_c, kind, ref, element)
    for a scop that already carries its virtual statements."""
    timeline = []
    for s in scop.statements:
        for point in enumerate_set(s.domain):
            timeline.append((scatter_of(s, point), s, point))
    timeline.sort(key=lambda item: item[0])

    field_writer: dict = {}
    scalar_writer: dict = {}
    flows = set()
    for _, s, point in timeline:
        for _, acc in s.reads():
            if acc.index_exprs is None:
                elements = [
                    idx
                    for idx in enumerate_set(scop.field(acc.field).indexset)
                ]
            else:
                elements = [tuple(evaluate_point(e, point) for e in acc.index_exprs)]
            for idx in elements:
                writer = field_writer.get((acc.field, idx))
                assert writer is not None, f"uncovered read {s.id}{point} of {acc.field}{idx}"
                flows.add((writer[0], writer[1], s.id, point, "field", acc.field, idx))
        for name in s.scalar_reads:
            writer = scalar_writer.get(name)
            assert writer is not None, f"uncovered scalar read {s.id}{point} of {name}"
            flows.add((writer[0], writer[1], s.id, point, "scalar", name, ()))
        for _, acc in s.writes():
            if acc.index_exprs is None:
                for idx in enumerate_set(scop.field(acc.field).indexset):
                    field_writer[(acc.field, idx)] = (s.id, point)
            else:
                idx = tuple(evaluate_point(e, point) for e in acc.index_exprs)
                field_writer[(acc.field, idx)] = (s.id, point)
        for name in s.scalar_writes:
            scalar_writer[name] = (s.id, point)
    return {f for f in flows if not (f[0] == PROLOGUE and f[2] == EPILOGUE)}


def flows_of_depgraph(dep) -> set:
    out = set()
    for fam in dep.families:
        for ig, ic, k in fam.pairs():
            out.add((fam.producer, ig, fam.consumer, ic, fam.kind, fam.ref, k))
    return out
