"""Data and computation placement: block distribution plus owner-computes.

Field elements get home nodes by block distribution, one home map per
field that every other module asks where an element lives.  Statement
instances get executing nodes in passes: every statement that writes a
field runs at the written element's home (owner computes); scalar
co-location then propagates consumer nodes into producers until a
fixpoint; statements still unplaced are seeded at the homes of the
elements they read from the prologue.  Instances still without a node
adopt the lexicographically smallest node any dependence neighbor runs
on, and as a last resort run on node 0, so every instance gets a node.
Both kinds of map are a ``Placement``, read from its enumerated points
by one row search (``isets.find_rows``) whatever pieces the map has.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AnalysisError, GeometryMismatch, IndivisibleExtent, UnsatisfiablePlacement, ValidationError
from .deps import DepGraph
from .isets import (
    AffineExpr,
    DivTerm,
    IntMap,
    IntSet,
    compose,
    conjoin,
    embed_pieces,
    enumerate_table,
    find_rows,
    first_outside,
    inverse,
    is_empty,
    map_domain,
    map_is_empty,
    map_subtract,
    map_union,
    restrict_domain,
    select_lex_extreme,
    subtract,
)
from .scop import ClusterGrid, Scop, Statement
from .syntax import format_map

__all__ = [
    "Placement",
    "block_distribute",
    "place_statements",
    "dump_placements",
]


@dataclass(frozen=True)
class Placement:
    """Where field elements live or statement instances run: one map per
    field (element -> home node) or per statement (instance -> executing
    nodes), each read from its enumerated points."""

    maps: dict  # field name or statement id -> IntMap (to grid)

    @cached_property
    def table(self) -> dict:
        """Name -> its map's points, enumerated once: one row of domain
        point ++ node columns per node, in lexicographic order."""
        return {name: enumerate_table(m.as_set()) for name, m in self.maps.items()}

    def homes(self, name: str, elements: np.ndarray, grid: ClusterGrid) -> np.ndarray:
        """The home of every element of a table, the field's map at that
        element, as a position in ``grid.nodes``."""
        t, n = self.table[name], elements.shape[1]
        rows = find_rows(t[:, :n], elements)
        if (rows < 0).any():  # a -1 would read the table's last row
            raise AnalysisError(f"field {name} has no home for element {tuple(elements[rows < 0][0].tolist())}")
        return grid.index(t[rows, n:])

    def node_rows(self, s: Statement, grid: ClusterGrid) -> tuple[np.ndarray, np.ndarray]:
        """Where the instances of s run: per table row, the instance's row
        in ``s.instances`` and the node's position in ``grid.nodes``,
        ascending by row and then node.  GeometryMismatch for the first
        point, in lexicographic order, that is not an instance of s, found
        by ``isets.first_outside`` before the map is enumerated, so a map
        reaching past the domain never is."""
        m, n = self.maps[s.id], self.maps[s.id].n_in
        points = m.as_set()
        pieces = embed_pieces(s.domain.pieces, range(n), points.arity) if n == s.arity else ()
        if (stray := first_outside(points, IntSet.make(points.space, pieces))) is not None:
            raise _not_instance(s, stray[:n])
        t = self.table[s.id]  # every row an instance of s, none if n != s.arity
        return find_rows(s.instances, t[:, :n]) if len(t) else np.full(0, -1), grid.index(t[:, n:])


def _not_instance(s: Statement, point: tuple) -> GeometryMismatch:
    return GeometryMismatch(f"{s.id}{point} is placed, but is not an instance of {s.id}")


def block_distribute(fields, grid: ClusterGrid) -> Placement:
    """pi(k) = floor(k_d / B_d) per dimension with B_d = extent_d / grid_d."""
    maps = {}
    for f in fields:
        if f.arity != grid.arity:
            raise ValidationError(
                f"field {f.name} has {f.arity} dims, grid has {grid.arity}"
            )
        bs = []
        for d, (ext, g) in enumerate(zip(f.extents, grid.extents)):
            if ext % g != 0:
                raise IndivisibleExtent(
                    f"field {f.name} dim {d}: extent {ext} not divisible by grid {g}"
                )
            bs.append(ext // g)
        n = f.arity
        exprs = [
            AffineExpr((0,) * n, 0, (DivTerm(1, AffineExpr.var(n, d), bs[d]),))
            for d in range(n)
        ]
        maps[f.name] = restrict_domain(IntMap.from_exprs(f.space, grid.space, exprs), f.indexset)
    return Placement(maps=maps)


def _access_to_grid(scop: Scop, s: Statement, acc, fp: Placement) -> IntMap:
    """Map statement instances to the home nodes of the accessed elements."""
    fld = scop.field(acc.field)
    if acc.index_exprs is None:
        raise ValidationError("virtual accesses have no single placement map")
    access_map = IntMap.from_exprs(s.space, fld.space, list(acc.index_exprs))
    access_map = restrict_domain(access_map, s.domain)
    return compose(fp.maps[acc.field], access_map)


def _full_node_map(s: Statement, grid: ClusterGrid) -> IntMap:
    n_i, n_p = s.arity, grid.arity
    arity = n_i + n_p
    pieces = embed_pieces(s.domain.pieces, list(range(n_i)), arity)
    box = embed_pieces(grid.node_set.pieces, [n_i + i for i in range(n_p)], arity)
    combined = [conjoin(p, q) for p in pieces for q in box]
    return IntMap.make(s.space, grid.space, combined)


def place_statements(scop: Scop, dep: DepGraph, fp: Placement) -> Placement:
    grid = scop.grid
    placements: dict[str, IntMap] = {}

    for s in scop.statements:
        if s.is_virtual:
            placements[s.id] = _full_node_map(s, grid)
        elif s.writes():
            _, acc = s.writes()[0]
            placements[s.id] = _access_to_grid(scop, s, acc, fp)

    # scalar co-location: producers run wherever their consumers run
    scalar_fams = dep.scalar_families()
    for _ in range(len(scop.statements) + 1):
        changed = False
        for fam in scalar_fams:
            consumer = placements.get(fam.consumer)
            if consumer is None:
                continue
            required = compose(consumer, fam.as_map())
            current = placements.get(fam.producer)
            if current is None:
                placements[fam.producer] = required
                changed = True
            elif not map_is_empty(map_subtract(required, current)):
                placements[fam.producer] = map_union(current, required)
                changed = True
        if not changed:
            break
    else:
        raise UnsatisfiablePlacement("scalar co-location did not reach a fixpoint")

    # prologue seeding for still-unplaced readers
    prologue_readers = {f.consumer for f in dep.prologue_families()}
    for s in scop.statements:
        if s.id in placements or s.id not in prologue_readers:
            continue
        if s.reads():
            _, acc = s.reads()[0]
            placements[s.id] = _access_to_grid(scop, s, acc, fp)

    def missing_of(s):
        current = placements.get(s.id)
        if current is None:
            return s.domain
        dom = IntSet(s.domain.space, map_domain(current).pieces)
        return subtract(s.domain, dom)

    # instances without a node; from here on only adoption changes them
    missing = {s.id: missing_of(s) for s in scop.statements}

    # neighbor adoption for still-unplaced instances, lexmin node per instance
    for _ in range(len(scop.statements) + 1):
        progressed = False
        for s in scop.statements:
            if is_empty(missing[s.id]):
                continue
            candidates = None
            for fam in dep.families:
                if fam.consumer == s.id and fam.producer in placements:
                    got = compose(placements[fam.producer], inverse(fam.as_map()))
                elif fam.producer == s.id and fam.consumer in placements:
                    got = compose(placements[fam.consumer], fam.as_map())
                else:
                    continue
                candidates = got if candidates is None else map_union(candidates, got)
            if candidates is None:
                continue
            candidates = restrict_domain(candidates, missing[s.id])
            if map_is_empty(candidates):
                continue
            chosen = select_lex_extreme(candidates.as_set(), s.arity, maximize=False)
            add = IntMap(candidates.dom, candidates.ran, chosen.pieces)
            current = placements.get(s.id)
            placements[s.id] = add if current is None else map_union(current, add)
            missing[s.id] = missing_of(s)
            progressed = True
        if not progressed:
            break

    # last resort: node 0 for exactly the instances no dependence reaches
    # (an empty domain gets an empty placement)
    for s in scop.statements:
        if s.id in placements and is_empty(missing[s.id]):
            continue
        zero = [AffineExpr.constant(s.arity, 0) for _ in range(grid.arity)]
        fallback = restrict_domain(
            IntMap.from_exprs(s.space, grid.space, zero), missing[s.id]
        )
        current = placements.get(s.id)
        placements[s.id] = fallback if current is None else map_union(current, fallback)
    return Placement(maps=placements)


def dump_placements(scop: Scop, fp: Placement, sp: Placement) -> str:
    lines = []
    for f in scop.fields:
        lines.append(f"pi {f.name} = {format_map(fp.maps[f.name])}")
    for s in scop.statements:
        lines.append(f"pi {s.id} = {format_map(sp.maps[s.id])}")
    return "\n".join(lines) + "\n"
