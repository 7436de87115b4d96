"""Randomized generators and point-level reference semantics for the set kernel.

The reference side works purely on enumerated Python sets of tuples, so a
bug in the symbolic constraint algebra cannot hide in the oracle.  Set-kernel
helpers that only the tests need (equality checks, point sets, the symbolic
transitive closure) and the symbolic analysis cross-checks live here too,
and so does the closure interpreter of statement bodies that the generated
code of ``exprs.compile_expr`` is checked against.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass

import numpy as np

from polydist import isets
from polydist.chunking import _order_summary
from polydist.commgen import CALLS, COMPUTE_PHASE, FILLING, IDLE, RECEIVED
from polydist.errors import (
    BufferStateViolation,
    DeadlockDetected,
    EvaluationError,
    IterationCapExceeded,
    NotLocal,
    SpaceMismatch,
    UnboundedSet,
    ValidationError,
)
from polydist.exprs import _need_bool, _need_num, _unwritten
from polydist.isets import (
    AffineExpr,
    Constraint,
    DivTerm,
    IntMap,
    IntSet,
    Piece,
    Space,
    _map_same_shape,
    apply,
    compose,
    conjoin,
    enumerate_set,
    eq0,
    ge0,
    intersect,
    inverse,
    is_empty,
    lexmax,
    lexmin,
    map_domain,
    map_is_empty,
    map_subtract,
    map_union,
    normalize_piece,
    propagate,
    project_pieces,
    subtract,
    union,
)
from polydist.scop import instance_runner

MAX_POINTS = 250


# -- set-kernel helpers that only the tests use -------------------------------


def set_from_points(space: Space, points) -> IntSet:
    n = space.arity
    pieces = [
        [eq0(AffineExpr.var(n, i).plus_const(-v)) for i, v in enumerate(pt)] for pt in points
    ]
    return IntSet.make(space, pieces)


def identity_map(space: Space) -> IntMap:
    exprs = [AffineExpr.var(space.arity, i) for i in range(space.arity)]
    return IntMap.from_exprs(space, space.renamed(space.name), exprs)


def sets_equal(a: IntSet, b: IntSet) -> bool:
    return is_empty(subtract(a, b)) and is_empty(subtract(b, a))


def maps_equal(a: IntMap, b: IntMap) -> bool:
    _map_same_shape(a, b)
    return sets_equal(a.as_set(), b.as_set())


def is_single_valued(m: IntMap) -> bool:
    """Checked by enumeration (finite sets make this exact)."""
    seen: dict = {}
    for pt in enumerate_set(m.as_set()):
        key, val = pt[: m.n_in], pt[m.n_in :]
        if seen.setdefault(key, val) != val:
            return False
    return True


def piece_box(arity: int, piece):
    """Finite bounding box of a piece from interval propagation; None if
    empty; raises if a dim is left unbounded."""
    bounds = propagate(arity, piece)
    if bounds is None:
        return None
    for k, (lo, hi) in enumerate(bounds):
        if lo is None or hi is None:
            raise UnboundedSet(f"dimension {k} is unbounded")
    return bounds


def hull_box(s: IntSet):
    """Componentwise hull box over all pieces; None when empty."""
    out = None
    for p in s.pieces:
        b = piece_box(s.arity, p)
        if b is None:
            continue
        out = list(b) if out is None else [
            (min(a, c), max(b_, d)) for (a, b_), (c, d) in zip(out, b)
        ]
    return None if out is None else tuple(out)


def map_range(m: IntMap) -> IntSet:
    pieces = project_pieces(m.n_in + m.n_out, m.pieces, list(range(m.n_in)))
    return IntSet.make(m.ran, pieces)


def transitive_closure(r: IntMap) -> IntMap:
    """Smallest transitive relation containing r (symbolic finite fixpoint)."""
    if r.dom.arity != r.ran.arity:
        raise SpaceMismatch("transitive closure requires equal-arity domain and range")
    cap = 1
    for box in (hull_box(map_domain(r)), hull_box(map_range(r))):
        if box is not None:
            size = 1
            for lo, hi in box:
                size *= hi - lo + 1
            cap = max(cap, size)
    closure = delta = r
    for _ in range(cap + 1):
        new = map_subtract(compose(r, delta), closure)
        if map_is_empty(new):
            return closure
        closure = map_union(closure, new)
        delta = new
    raise IterationCapExceeded("transitive closure fixpoint exceeded universe size")


def piece_is_empty_by_extreme(arity: int, piece) -> bool:
    """Emptiness as the lexicographic minimum answers it: the extreme of a
    whole scanned box, or the search's first point.  The reference for
    ``isets.piece_is_empty``, which stops at the first point it scans."""
    return isets._solve_piece(arity, piece, False) is None


def subtract_pieces_unfiltered(arity: int, base: list, minus) -> list:
    """``isets._subtract_pieces`` building and testing every candidate
    p and r_0 and ... and not r_i: the reference for its refutations."""
    out = []
    for p in base:
        merged = normalize_piece(conjoin(p, minus))
        if merged is None or propagate(arity, merged) is None:
            out.append(p)  # disjoint: survives whole
            continue
        for idx, r in enumerate(minus.rows):
            negs = [(0, *(-x for x in r[1:-1]), -r[-1] - 1)]  # -e - 1 >= 0
            if r[0]:
                negs.insert(0, (0, *r[1:-1], r[-1] - 1))  # e - 1 >= 0
            for neg in negs:
                cand = normalize_piece(conjoin(p, Piece(minus.divs, minus.rows[:idx] + (neg,))))
                if cand is not None and propagate(arity, cand) is not None:
                    out.append(cand)
    return out


def subtract_unfiltered(a: IntSet, b: IntSet) -> IntSet:
    """``isets.subtract`` through the two references above."""
    pieces = list(a.pieces)
    for q in b.pieces:
        pieces = subtract_pieces_unfiltered(a.arity, pieces, q)
    pieces = [p for p in pieces if not piece_is_empty_by_extreme(a.arity, p)]
    return IntSet.make(a.space, pieces)


def enumerate_by_pieces(a: IntSet) -> list:
    """Each piece's points gathered into one Python set and sorted: the
    reference for ``isets.enumerate_table``, which deduplicates by lexsort."""
    points = set()
    for p in a.pieces:
        points.update(map(tuple, isets._piece_points(a.arity, p).tolist()))
    return sorted(points)


def search_only(monkeypatch) -> None:
    """Box scanning off: every enumeration, lexicographic extreme and
    emptiness answer comes from the search (memoised answers dropped)."""
    monkeypatch.setattr(isets, "_ENUM_SCAN_CAP", 0)
    monkeypatch.setattr(isets, "_SOLVE_SCAN_CAP", 0)
    isets.piece_is_empty.cache_clear()


def random_space(rng: random.Random, name: str, max_dims: int = 4) -> Space:
    n = rng.randint(1, max_dims)
    return Space(name, tuple(f"{name}{i}" for i in range(n)))


def random_expr(rng: random.Random, arity: int, allow_div: bool = True) -> AffineExpr:
    coeffs = tuple(rng.choice([-2, -1, -1, 0, 0, 1, 1, 2]) for _ in range(arity))
    const = rng.randint(-6, 6)
    divs = ()
    if allow_div and arity and rng.random() < 0.25:
        inner = AffineExpr(
            tuple(rng.choice([-1, 0, 1]) for _ in range(arity)), rng.randint(-3, 3)
        )
        if not inner.is_constant():
            divs = (DivTerm(rng.choice([-1, 1]), inner, rng.choice([2, 3, 4, 8])),)
    return AffineExpr(coeffs, const, divs)


def random_set(rng: random.Random, space: Space, max_extent: int = 10) -> IntSet:
    """A random bounded set: a box per piece plus a few extra constraints."""
    n = space.arity
    pieces = []
    for _ in range(rng.randint(1, 2)):
        cons: list[Constraint] = []
        volume = 1
        for d in range(n):
            lo = rng.randint(-3, 3)
            hi = lo + rng.randint(0, max_extent - 1)
            while volume * (hi - lo + 1) > MAX_POINTS and hi > lo:
                hi -= 1
            volume *= hi - lo + 1
            cons.append(ge0(AffineExpr.var(n, d).plus_const(-lo)))
            cons.append(ge0(AffineExpr.var(n, d, -1).plus_const(hi)))
        for _ in range(rng.randint(0, 1)):
            expr = random_expr(rng, n)
            cons.append(eq0(expr) if rng.random() < 0.25 else ge0(expr))
        pieces.append(cons)
    return IntSet.make(space, pieces)


def random_map(rng: random.Random, dom: Space, ran: Space, max_extent: int = 8) -> IntMap:
    """A random bounded relation over dom x ran."""
    base = random_set(rng, Space("mr", dom.dims + tuple(f"{d}'" for d in ran.dims)), max_extent)
    return IntMap(dom, ran, base.pieces)


def random_functional_exprs(rng: random.Random, arity: int, n: int) -> list[AffineExpr]:
    """The output expressions of a random functional map, some with a floor division."""
    return [random_expr(rng, arity, allow_div=rng.random() < 0.3) for _ in range(n)]


def random_functional_map(rng: random.Random, dom: Space, ran: Space) -> IntMap:
    return IntMap.from_exprs(dom, ran, random_functional_exprs(rng, dom.arity, ran.arity))


# -- reference semantics on enumerated points --------------------------------


def evaluate_point(expr: AffineExpr, point) -> int:
    """One expression at one point, floor divisions included: the pointwise
    reference for ``scop.evaluate_rows``."""
    total = expr.const + sum(c * v for c, v in zip(expr.coeffs, point))
    for dt in expr.divs:
        total += dt.coeff * (evaluate_point(dt.inner, point) // dt.div)
    return total


def run_algebra_case(seed: int) -> None:
    """One randomized algebra case; raises AssertionError on divergence.

    Every case checks the set algebra; the relation checks (apply,
    compose, inverse) rotate by seed so a batch of cases covers each of
    them several hundred times.
    """
    rng = random.Random(seed)
    space = random_space(rng, "s")
    a = random_set(rng, space)
    b = random_set(rng, space)
    ea, eb = set(enumerate_set(a)), set(enumerate_set(b))

    assert set(enumerate_set(intersect(a, b))) == (ea & eb)
    assert set(enumerate_set(union(a, b))) == (ea | eb)
    assert set(enumerate_set(subtract(a, b))) == (ea - eb)
    assert is_empty(a) == (not ea)
    if ea:
        assert lexmin(a) == min(ea)
        assert lexmax(a) == max(ea)

    ran = random_space(rng, "r", max_dims=3)
    m = random_map(rng, space, ran, max_extent=4)
    pairs = enumerate_set(m.as_set())
    which = seed % 3
    if which == 0:
        assert set(enumerate_set(apply(m, a))) == set(ref_apply(pairs, ea, space.arity))
    elif which == 1:
        g = random_map(rng, ran, random_space(rng, "t", max_dims=2), max_extent=3)
        g_pairs = enumerate_set(g.as_set())
        comp = compose(g, m)
        assert set(enumerate_set(comp.as_set())) == set(
            ref_compose(pairs, g_pairs, space.arity, ran.arity)
        )
    else:
        inv = inverse(m)
        assert set(enumerate_set(inv.as_set())) == {
            p[space.arity :] + p[: space.arity] for p in pairs
        }


def ref_apply(map_pairs, points, n_in):
    points = set(points)
    return sorted({p[n_in:] for p in map_pairs if p[:n_in] in points})


def ref_compose(f_pairs, g_pairs, na, nb):
    out = set()
    g_by_in = {}
    for p in g_pairs:
        g_by_in.setdefault(p[:nb], []).append(p[nb:])
    for p in f_pairs:
        for out_part in g_by_in.get(p[na:], []):
            out.add(p[:na] + out_part)
    return sorted(out)


def ref_lex_extreme(points, n_group: int, maximize: bool) -> list:
    """The points whose value part (after the first n_group coordinates) is
    the lexicographic extreme of their group: the reference for
    ``isets.select_lex_extreme``."""
    best: dict = {}
    for p in points:
        group, value = p[:n_group], p[n_group:]
        if group not in best or (value > best[group] if maximize else value < best[group]):
            best[group] = value
    return sorted(g + v for g, v in best.items())


def ref_closure(pairs, n):
    pairs = {(p[:n], p[n:]) for p in pairs}
    closure = set(pairs)
    while True:
        new = {(a, d) for a, b in closure for c, d in pairs if b == c} - closure
        if not new:
            return sorted(a + b for a, b in closure)
        closure |= new


# -- analysis oracles ---------------------------------------------------------


def apply_point(phi, point) -> tuple:
    """A chunking function on one instance: the reference for
    ``ChunkingFn.apply_rows``."""
    if phi.level is None:
        return tuple(point)
    return tuple(v if d in phi.kept_dims else 0 for d, v in enumerate(point))


def instance_graph(dep) -> dict:
    """Adjacency over enumerated instances of all direct flows:
    (statement, instance) -> [(statement, instance), ...]."""
    adj: dict = {}
    for fam in dep.families:
        for ig, ic, _ in fam.pairs():
            adj.setdefault((fam.producer, ig), []).append((fam.consumer, ic))
    return adj


def collapsed_has_cycle(dep, phi) -> bool:
    """Cycle in the instance graph after quotienting the consumer's
    instances by phi, by a three-colour depth-first search."""
    adj = instance_graph(dep)

    def node_of(sid, pt):
        if sid == phi.consumer:
            return (sid, apply_point(phi, pt))
        return (sid, pt)

    quotient: dict = {}
    for (gid, ig), succs in adj.items():
        bucket = quotient.setdefault(node_of(gid, ig), set())
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


def validate_chunking(phi, dep) -> bool:
    """True iff applying phi to both sides of the transitive closure of all
    flows yields an irreflexive relation: no dependence path may connect
    two instances of the same chunk."""
    adj = instance_graph(dep)
    chunks: dict = {}
    for pt in enumerate_set(dep.scop.statement(phi.consumer).domain):
        chunks.setdefault(apply_point(phi, pt), set()).add(pt)
    for members in chunks.values():
        # any path of length >= 1 from a member to a member invalidates phi
        frontier = []
        seen = set()
        for pt in members:
            for nxt in adj.get((phi.consumer, pt), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        while frontier:
            sid, pt = frontier.pop()
            if sid == phi.consumer and pt in members:
                return False
            for nxt in adj.get((sid, pt), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return True


def strict_prefix_holds_symbolic(scop, fam, level: int) -> bool:
    """Every family pair: producer scatter prefix strictly below consumer's,
    decided by emptiness of the violating constraint sets over fam.rel."""
    prod = scop.statement(fam.producer)
    cons = scop.statement(fam.consumer)
    n_g, n_c, n_k = fam.n_prod, fam.n_cons, fam.n_elem
    arity = n_g + n_c + n_k
    theta_g = [e.remap(list(range(n_g)), arity) for e in prod.schedule_exprs]
    theta_c = [e.remap([n_g + i for i in range(n_c)], arity) for e in cons.schedule_exprs]
    # violation: NOT (prefix_l(theta_g) <lex prefix_l(theta_c))
    violation_alternatives = [[eq0(theta_g[t] - theta_c[t]) for t in range(level)]]
    for t in range(level):
        alt = [eq0(theta_g[u] - theta_c[u]) for u in range(t)]
        alt.append(ge0(theta_g[t] - theta_c[t].plus_const(1)))
        violation_alternatives.append(alt)
    for piece in fam.rel.pieces:
        for alt in violation_alternatives:
            bad = IntSet.make(fam.rel.space, [conjoin(piece, alt)])
            if not is_empty(bad):
                return False
    return True


def global_order_holds_symbolic(scop, fam) -> bool:
    """All producers of the family run before all of its consumers, by the
    lexmax/lexmin of the projected instance sets' scatter images."""
    prod = scop.statement(fam.producer)
    cons = scop.statement(fam.consumer)
    arity = fam.n_prod + fam.n_cons + fam.n_elem
    prod_pieces = project_pieces(arity, fam.rel.pieces, list(range(fam.n_prod, arity)))
    cons_pieces = project_pieces(
        arity,
        fam.rel.pieces,
        list(range(fam.n_prod)) + list(range(fam.n_prod + fam.n_cons, arity)),
    )
    tg = apply(schedule_map(scop, prod), IntSet.make(prod.space, prod_pieces))
    tc = apply(schedule_map(scop, cons), IntSet.make(cons.space, cons_pieces))
    return lexmax(tg) < lexmin(tc)


def schedule_map(scop, s) -> IntMap:
    """A statement's schedule as a map into the scop's scatter space."""
    scatter = Space("T", tuple(f"t{i}" for i in range(scop.scatter_arity)))
    return IntMap.from_exprs(s.space, scatter, s.schedule_exprs)


def strict_prefix_holds(scop, fam, level: int) -> bool:
    """The strict-prefix condition at a level, from chunking's one pass
    over the family's pair table."""
    return level > _order_summary(scop, fam)[0]


def pair_rows_by_lookup(dep) -> list:
    """Per family, the producer's and consumer's rows looked up pair by
    pair among ``Statement.instances``: the reference for ``DepGraph.pair_rows``."""
    out = []
    for fam in dep.families:
        cols = np.split(fam.table, [fam.n_prod, fam.n_prod + fam.n_cons], axis=1)
        stmts = (dep.scop.statement(fam.producer), dep.scop.statement(fam.consumer))
        rows = [{p: r for r, p in enumerate(map(tuple, s.instances.tolist()))} for s in stmts]
        out.append(tuple(np.array([at[p] for p in map(tuple, c.tolist())], dtype=np.int64)
                         for at, c in zip(rows, cols)))
    return out


def block_home(index, blocks) -> tuple[int, ...]:
    """The one home node of an element: its block coordinate."""
    return tuple(v // b for v, b in zip(index, blocks))


def block_sizes(extents, grid) -> tuple[int, ...]:
    """Block distribution's block sizes: each field extent over its grid extent."""
    return tuple(e // g for e, g in zip(extents, grid))


class OutOfHull(Exception):
    """A buffer-rank query for an element outside the buffer's hull box."""


def buffer_rank(layout, index) -> int:
    """Row-major rank of an element inside a channel's hull box, zero-based:
    the pointwise reference of the ranks ``emit_protocol`` computes."""
    if len(index) != len(layout.box):
        raise OutOfHull(f"index arity {len(index)} != box arity {len(layout.box)}")
    rank = 0
    for v, (lo, hi) in zip(index, layout.box):
        if not lo <= v <= hi:
            raise OutOfHull(f"index {tuple(index)} outside hull box {layout.box}")
        rank = rank * (hi - lo + 1) + (v - lo)
    return rank


def placement_nodes(sp, stmt: str, point) -> list:
    """Executing nodes of one instance, read from the enumerated placement."""
    table, n = sp.table[stmt], len(point)
    return [tuple(r[n:]) for r in table[(table[:, :n] == tuple(point)).all(axis=1)].tolist()]


def stmt_nodes(sp, stmt: str, point) -> list:
    """Executing nodes of one instance by applying its placement map."""
    m = sp.maps[stmt]
    return enumerate_set(apply(m, set_from_points(m.dom, [tuple(point)])))


# -- scheduling oracle --------------------------------------------------------


@dataclass
class Step:
    """One entry of a node's expanded event list: a listed event, or an
    execution as a compute step that names its instance and carries the
    buffer slots its compute event binds."""

    scatter: tuple
    kind: str
    stmt: str = ""
    instance: tuple = ()
    read_from: tuple = None
    writes: tuple = ()
    chunk: str = ""
    cid: int = -1
    element: tuple = ()
    rank: int = -1


def event_key(ev) -> tuple:
    """Where an event stands in its node's list: the reference for the
    order ``emit_protocol`` gives by lexsort."""
    phase = CALLS[ev.kind].phase if ev.kind in CALLS else COMPUTE_PHASE
    return (ev.scatter, phase, ev.cid, ev.rank)


def expand_plan(plan, scop) -> dict:
    """Every node's full event list: each execution the plan's statement
    placement gives the node, at its dilated scatter, as a compute step
    with the slots of the compute event listed at that node and scatter,
    and each other listed event, merged by Python's sort on ``event_key``;
    independent of simrt's lexsort.  Every compute event must bind an
    execution."""
    out = {coord: [] for coord in scop.grid.nodes}
    binding = {(node, ev.scatter): ev for node, evs in plan.events.items() for ev in evs if ev.kind == "compute"}
    for s in scop.real_statements():
        rows = {p: r for r, p in enumerate(map(tuple, s.instances.tolist()))}
        for point in map(tuple, plan.stmt_placement.table[s.id].tolist()):
            instance, node = point[: s.arity], point[s.arity :]
            scatter = tuple(2 * v for v in s.scatters[rows[instance]].tolist())
            ev = binding.pop((node, scatter), None)
            out[node].append(Step(scatter, "compute", s.id, instance, ev and ev.read_from, ev.writes if ev else ()))
    assert not binding, f"compute events that bind no execution: {sorted(binding)}"
    for node, evs in plan.events.items():
        out[node] += [Step(ev.scatter, ev.kind, chunk=ev.chunk, cid=ev.cid, element=ev.element, rank=ev.rank)
                      for ev in evs if ev.kind != "compute"]
    return {node: sorted(steps, key=event_key) for node, steps in out.items() if steps}


def scan_order(plan, scop):
    """The order in which a plan's steps (``expand_plan``) run, by the
    per-step scan the simulator's heap replaces: every step runs the lowest
    (scatter, node) head whose channel is in the state it waits for.  Only
    the channel states are replayed.  Returns the [(node, step index)]
    order, or on deadlock the {node: head kind} dict of the unfinished
    nodes in sorted order."""
    events = expand_plan(plan, scop)
    cursor = dict.fromkeys(events, 0)
    state = {ch.cid: IDLE for ch in plan.channels}
    pending = {coord for coord, evs in events.items() if evs}
    order = []
    while pending:
        best = None
        for coord in sorted(pending):
            ev = events[coord][cursor[coord]]
            key = (ev.scatter, coord)
            ready = ev.kind not in ("send_wait", "recv_wait") or state[ev.cid] == CALLS[ev.kind].needs
            if (best is None or key < best[0]) and ready:
                best = (key, coord, ev)
        if best is None:
            return {coord: events[coord][cursor[coord]].kind for coord in sorted(pending)}
        _, coord, ev = best
        order.append((coord, cursor[coord]))
        if ev.kind in CALLS:
            state[ev.cid] = CALLS[ev.kind].leaves
        cursor[coord] += 1
        if cursor[coord] == len(events[coord]):
            pending.discard(coord)
    return order


def run_any_order(plan, scop, init, seed) -> dict:
    """The field contents a plan leaves when each step of its expansion
    (``expand_plan``) runs the head of a node drawn by a seeded
    ``random.Random`` from the nodes whose head can run: the any-order
    reference for ``simrt.run``, sharing only ``scop.instance_runner``.
    Each node keeps a dict of its own home elements, by the plan's home
    map.  An execution reads that dict unless it reads a buffer slot, and
    stores each element it writes that its node homes.  A ``send_wait``
    or ``recv_wait`` waits for the state ``CALLS`` says it needs; every
    other call, and every buffer access, must find its state, an
    assertion here, where ``simrt`` relies on ``check_windows`` before the
    run.  Faults as ``simrt.run``'s: DeadlockDetected when no head can
    run, BufferStateViolation for an unwritten slot or a channel not idle
    at the end, NotLocal for an element its node does not home."""
    rng = random.Random(seed)
    grid = scop.grid
    runs = {s.id: instance_runner(scop, s) for s in scop.real_statements()}
    rows = {s.id: {p: r for r, p in enumerate(map(tuple, s.instances.tolist()))} for s in scop.real_statements()}
    mine = {coord: {} for coord in grid.nodes}  # node -> {(field, element): value} over its home elements
    for name, _, extents in plan.fields:
        every = np.array(list(np.ndindex(*extents)), dtype=np.int64).reshape(-1, len(extents))
        for e, p in zip(map(tuple, every.tolist()), plan.field_placement.homes(name, every, grid).tolist()):
            mine[grid.nodes[p]][name, e] = init[name].item(e)
    scalars = {coord: {} for coord in grid.nodes}
    steps = expand_plan(plan, scop)
    events = {coord: steps.get(coord, []) for coord in grid.nodes}
    state = {ch.cid: IDLE for ch in plan.channels}
    slots: dict = {}  # cid -> the slots of its current message
    head = dict.fromkeys(events, 0)
    ready: list = []  # the nodes whose head can run
    parked: dict = {}  # cid -> the nodes whose head waits on that channel

    def place(coord):  # an unfinished node, on the ready list or parked
        ev = events[coord][head[coord]]
        if ev.kind in ("send_wait", "recv_wait") and state[ev.cid] != CALLS[ev.kind].needs:
            parked.setdefault(ev.cid, []).append(coord)
        else:
            ready.append(coord)

    def load(name, element):  # a home element of the running node
        if (name, element) not in mine[coord]:
            raise NotLocal(f"{name}{element} is not a home element of {coord}")
        return mine[coord][name, element]

    def read(ev, decl, element):
        if ev.read_from is None:
            return load(decl.name, element)
        cid, rank = ev.read_from
        assert state[cid] == RECEIVED, f"{ev.stmt}{ev.instance} reads channel {cid} {state[cid]}"
        if slots[cid][rank] is None:
            label = f"{ev.stmt}({','.join(map(str, ev.instance))})"
            raise BufferStateViolation(f"{label}: reading unwritten buffer slot")
        return slots[cid][rank]

    def store(ev, decl, element, value):
        if (decl.name, element) in mine[coord]:
            mine[coord][decl.name, element] = value
        for _, cid, rank in ev.writes:
            assert state[cid] == FILLING, f"{ev.stmt}{ev.instance} writes channel {cid} {state[cid]}"
            slots[cid][rank] = value

    for coord in sorted(events):
        if events[coord]:
            place(coord)
    while ready:
        coord = ready.pop(rng.randrange(len(ready)))
        ev = events[coord][head[coord]]
        if ev.kind == "compute":
            runs[ev.stmt](rows[ev.stmt][ev.instance], scalars[coord], read, store, ev)
        else:
            call = CALLS[ev.kind]
            assert state[ev.cid] == call.needs, f"{ev.kind} on channel {ev.cid} {state[ev.cid]}"
            if ev.kind == "send_wait":
                slots[ev.cid] = [None] * plan.channels[ev.cid].layout.size
            elif ev.kind == "buffer_fill":
                slots[ev.cid][ev.rank] = load(plan.channels[ev.cid].layout.fieldname, ev.element)
            state[ev.cid] = call.leaves
            for c in parked.pop(ev.cid, ()):
                place(c)
        head[coord] += 1
        if head[coord] < len(events[coord]):
            place(coord)
    blocked = {c: evs[head[c]].kind for c, evs in sorted(events.items()) if head[c] < len(evs)}
    if blocked:
        raise DeadlockDetected(f"all nodes blocked: {blocked}")
    busy = [f"{cid} {st}" for cid, st in state.items() if st != IDLE]
    if busy:
        raise BufferStateViolation(f"run ended with channels not idle: {', '.join(busy)}")
    final = {name: init[name].copy() for name, _, _ in plan.fields}
    for own in mine.values():
        for (name, e), value in own.items():
            final[name][e] = value
    return final


# -- the body language as closures --------------------------------------------

def _numbers(x, y, op):
    return _need_num(x, op), _need_num(y, op)


def _same_kind(x, y, op):
    if isinstance(x, bool) != isinstance(y, bool):
        raise EvaluationError("eq/ne operands must have matching types")
    return x, y


_LITERALS = {"int": int, "float": (int, float), "bool": bool}
_UNARY = {"b2i": lambda v: int(_need_bool(v, "b2i")), "neg": lambda v: -_need_num(v, "neg"),
          "not": lambda v: not _need_bool(v, "not")}
_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
# comparison -> (operator, check of both operands once both are evaluated)
_COMPARE = {"lt": (operator.lt, _numbers), "le": (operator.le, _numbers),
            "gt": (operator.gt, _numbers), "ge": (operator.ge, _numbers),
            "eq": (operator.eq, _same_kind), "ne": (operator.ne, _same_kind)}


def compile_expr(node, scalars, accesses, function, where):
    """The reference for ``exprs.compile_expr``: check a body tree and
    compile it into a closure ``f(scalars, access)``, which evaluates it
    against a scalar environment and an accessor of access ordinals.
    ``scalars`` are the names it may read, ``accesses`` the statement's
    access kinds (None in a function body, which may access no field) and
    ``function(name)`` a callee's (parameters, closure) or None.  A bad
    tree raises ValidationError prefixed with ``where``."""

    def fail(message):
        raise ValidationError(f"{where}: {message}")

    def walk(n):
        if not isinstance(n, (list, tuple)) or not n:
            fail(f"malformed expression node: {n!r}")
        op = n[0]
        if not isinstance(op, str):
            fail(f"unknown expression operator: {op!r}")
        if op in _LITERALS:
            v = n[1] if len(n) == 2 else None
            if not isinstance(v, _LITERALS[op]) or (op != "bool" and isinstance(v, bool)):
                fail(f"bad {op} literal: {n!r}")
            if op == "float":
                try:
                    v = float(v)
                except OverflowError:
                    fail(f"bad float literal: {n!r}")
            return lambda sc, acc: v
        if op == "var":
            name = n[1] if len(n) == 2 else None
            if not isinstance(name, str) or name not in scalars:
                fail(f"unknown scalar in body: {n!r}")
            return lambda sc, acc: sc[name] if name in sc else _unwritten(name)
        if op == "access":
            if accesses is None:
                fail("pure functions cannot access fields")
            j = n[1] if len(n) == 2 else None
            if not isinstance(j, int) or not 0 <= j < len(accesses):
                fail(f"bad access reference: {n!r}")
            if accesses[j] != "read":
                fail(f"body references write access {j}")
            return lambda sc, acc: acc(j)
        if op in _UNARY:
            if len(n) != 2:
                fail(f"{op} takes one operand")
            f, a = _UNARY[op], walk(n[1])
            return lambda sc, acc: f(a(sc, acc))
        if op in _ARITH or op in _COMPARE or op in ("and", "or"):
            if len(n) != 3:
                fail(f"{op} takes two operands")
            a, b = walk(n[1]), walk(n[2])
            if op in ("and", "or"):
                decided = op == "or"  # the first operand's value that decides the result
                return lambda sc, acc: (decided if _need_bool(a(sc, acc), op) == decided
                                        else _need_bool(b(sc, acc), op))
            if op in _ARITH:  # each operand checked as it comes
                f = _ARITH[op]
                return lambda sc, acc: f(_need_num(a(sc, acc), op), _need_num(b(sc, acc), op))
            f, check = _COMPARE[op]
            return lambda sc, acc: f(*check(a(sc, acc), b(sc, acc), op))
        if op == "if":
            if len(n) != 4:
                fail("if takes condition, then, else")
            c, t, e = map(walk, n[1:])
            return lambda sc, acc: t(sc, acc) if _need_bool(c(sc, acc), op) else e(sc, acc)
        if op == "call":
            fn = function(n[1]) if len(n) >= 2 and isinstance(n[1], str) else None
            if fn is None:
                fail(f"call to unknown function: {n!r}")
            params, body = fn
            if len(n) - 2 != len(params):
                fail(f"{n[1]} expects {len(params)} arguments, got {len(n) - 2}")
            args = [walk(x) for x in n[2:]]
            return lambda sc, acc: body(dict(zip(params, [x(sc, acc) for x in args])), None)
        fail(f"unknown expression operator: {op!r}")

    return walk(node)


def compile_functions(functions) -> dict:
    """Every function's (parameters, closure), callees first; the functions
    call only functions listed before them."""
    compiled: dict = {}
    for name, fn in functions.items():
        compiled[name] = fn.params, compile_expr(fn.body, fn.params, None, compiled.get,
                                                 f"function {name}")
    return compiled


# -- field contents -----------------------------------------------------------


def zero_contents(scop) -> dict:
    return {f.name: np.zeros(f.extents, dtype=f.dtype) for f in scop.fields}


def contents_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)
