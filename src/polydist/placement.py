"""Data and computation placement: block distribution plus owner-computes.

Field elements get home nodes by block distribution, one home map per
field that every other module asks where an element lives.  Statement
instances get executing nodes by three rules:

1. Owner computes: the virtual statements run on every node, and a
   field writer runs at the home of the element it writes.
2. One default: an instance still without a node runs at the home of
   the element it reads, or on node 0 if it reads no field.  The read is
   local: the element's last writer ran at that home (rule 1), or the
   home holds the value from before the region.
3. Co-location, last: a scalar's producer also runs wherever a consumer
   of it runs, repeated until nothing changes.  It runs after rule 1 and
   again after rule 2 if that placed anything, so a scalar is read only
   where it was written.

Both kinds of map are a ``Placement``, read from its enumerated points
by one row search (``isets.find_rows``) whatever pieces the map has.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AnalysisError, GeometryMismatch, IndivisibleExtent, ValidationError
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
    is_empty,
    map_domain,
    map_is_empty,
    map_subtract,
    map_union,
    restrict_domain,
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
    """The executing nodes of every instance, by the three rules above."""
    grid = scop.grid
    placements: dict[str, IntMap] = {}
    for s in scop.statements:  # rule 1: owner computes
        if s.is_virtual:
            placements[s.id] = _full_node_map(s, grid)
        elif s.writes():
            placements[s.id] = _access_to_grid(scop, s, s.writes()[0][1], fp)
    scalar_maps = [(f.producer, f.consumer, f.as_map()) for f in dep.scalar_families()]
    _co_locate(placements, scalar_maps)

    defaulted = False
    for s in scop.statements:  # rule 2: one default for the unplaced instances
        current = placements.get(s.id)
        if current is None:
            missing = s.domain
        else:
            missing = subtract(s.domain, IntSet(s.domain.space, map_domain(current).pieces))
            if is_empty(missing):
                continue
        if s.reads():
            default = _access_to_grid(scop, s, s.reads()[0][1], fp)
        else:
            default = IntMap.from_exprs(s.space, grid.space, [AffineExpr.constant(s.arity, 0)] * grid.arity)
        default = restrict_domain(default, missing)
        placements[s.id] = default if current is None else map_union(current, default)
        defaulted = True
    if defaulted:
        _co_locate(placements, scalar_maps)
    return Placement(maps=placements)


def _co_locate(placements: dict, scalar_maps: list) -> None:
    """Rule 3: add each scalar consumer's nodes to its producer's, through
    the (producer, consumer, producer -> consumer map) of each scalar
    family, until nothing changes.  Each change adds a placed point of
    the finite instances x nodes, so the loop ends."""
    changed = True
    while changed:
        changed = False
        for producer, consumer, flow in scalar_maps:
            if consumer not in placements:
                continue
            required, current = compose(placements[consumer], flow), placements.get(producer)
            if current is None:
                placements[producer] = required
            elif map_is_empty(map_subtract(required, current)):
                continue
            else:
                placements[producer] = map_union(current, required)
            changed = True


def dump_placements(scop: Scop, fp: Placement, sp: Placement) -> str:
    lines = []
    for f in scop.fields:
        lines.append(f"pi {f.name} = {format_map(fp.maps[f.name])}")
    for s in scop.statements:
        lines.append(f"pi {s.id} = {format_map(sp.maps[s.id])}")
    return "\n".join(lines) + "\n"
