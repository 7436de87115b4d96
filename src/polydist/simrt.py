"""Deterministic in-process simulation of a node grid executing a plan.

Each field is held once, in one array; only an element's home node, by
the plan's home map, reads or stores it there.  Each node keeps a
private scalar environment and a cursor into its steps.  Every
execution stores each element it writes where its node homes it, and
reads a value made on its own node from there unless a compute event
binds it to a buffer slot; values from other nodes arrive through
channels, persistent point-to-point buffers whose state each call moves
as ``commgen.CALLS`` says.  ``send_wait`` blocks until the receiver's
``recv`` has released the last message, ``recv_wait`` until the send.
``commgen.check_windows`` checks every node's events before the first
step, so every other call and every buffer access finds the state it
needs in any interleaving: the states only park and wake nodes.

Every step runs the lowest (scatter, node) head that is not blocked,
which makes runs bit-reproducible.  The node heads wait in a heap keyed
by (scatter, node); a blocked head parks its node on its channel until
the next ``send`` or ``recv`` there pushes it back, and the popped node
keeps running while its next head is below the heap's top.  Nodes still
parked when the heap is empty are a deadlock (DeadlockDetected names
each with its head event's kind).  A read of a slot no event wrote, and
a channel not idle at the end (a message never released), abort with
BufferStateViolation.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat
from operator import attrgetter

import numpy as np

from .commgen import CALLS, COMPUTE_PHASE, IDLE, CommPlan, Event, _fmt_tuple, check_windows
from .errors import (
    BufferStateViolation,
    DeadlockDetected,
    GeometryMismatch,
    NotLocal,
)
from .isets import point_table
from .scop import ClusterGrid, FieldDecl, Scop, instance_runner

__all__ = ["NodeState", "ChannelState", "Trace", "SimState", "init_runtime", "run"]


@dataclass
class NodeState:
    coord: tuple
    position: int  # in ClusterGrid.nodes
    scalars: dict = field(default_factory=dict)
    cursor: int = 0  # into the node's steps


@dataclass
class ChannelState:
    state: str = IDLE
    slots: list = field(default_factory=list)  # written while FILLING, read while RECEIVED


@dataclass
class Trace:
    entries: list = field(default_factory=list)

    def to_text(self) -> str:
        fmt = lru_cache(maxsize=None)(_fmt_tuple)  # each node formatted once
        line = "step=%s node=%s kind=%s chunk=%s tag=%s digest=%s\n"
        return "".join([line % (step, fmt(node), *rest) for step, node, *rest in self.entries])


@dataclass
class SimState:
    plan: CommPlan
    memory: dict  # field name -> its contents, one array
    homes: dict  # field name -> {element: its home's position}
    nodes: dict  # coord -> NodeState
    channels: dict  # cid -> ChannelState
    trace: Trace

    @property
    def step(self) -> int:  # the events run so far, one trace entry each
        return len(self.trace.entries)

    def load(self, node: NodeState, fieldname: str, index: tuple):
        """The element's value; NotLocal unless the node homes it."""
        if self.homes[fieldname].get(index) != node.position:
            raise NotLocal(f"{fieldname}{index} is not a home element of {node.coord}")
        return self.memory[fieldname].item(index)


def init_runtime(plan: CommPlan, grid: ClusterGrid, init: dict) -> SimState:
    """Build nodes and channels; abort on geometry mismatch.  The plan's
    fields must be the contents' fields, with the same element types and
    extents.  The state holds a copy of each field, and the home of each
    element by the plan's home map."""
    if grid.extents != tuple(plan.grid):
        raise GeometryMismatch(f"plan compiled for {plan.grid}, running on {grid.extents}")
    fields = {n: FieldDecl(name=n, element_type=t, extents=tuple(e)) for n, t, e in plan.fields}
    for name, fld in fields.items():
        if name not in init:
            raise GeometryMismatch(f"plan field {name} is not a field of the contents")
        arr = init[name]
        if arr.dtype != fld.dtype or arr.shape != fld.extents:
            raise GeometryMismatch(f"plan field {name} is {fld.element_type} {fld.extents}, "
                                   f"the contents' {name} is {arr.dtype} {arr.shape}")
    for name in init:
        if name not in fields:
            raise GeometryMismatch(f"field {name} of the contents is missing from the plan")
    homes = {}
    for name, fld in fields.items():
        every = np.indices(fld.extents).reshape(fld.arity, -1).T
        homes[name] = dict(zip(map(tuple, every.tolist()), plan.field_placement.homes(name, every, grid).tolist()))
    nodes = {coord: NodeState(coord, position) for position, coord in enumerate(grid.nodes)}
    channels = {ch.cid: ChannelState() for ch in plan.channels}
    return SimState(plan, {name: init[name].copy() for name in fields}, homes, nodes, channels, Trace())


def _digest(values) -> str:
    return hashlib.sha1(repr(values).encode()).hexdigest()[:12]


_UNBOUND = Event((), "compute")  # the binding of an execution that uses no buffer slot


def _steps(plan: CommPlan, scop: Scop) -> tuple[list, list, tuple, list]:
    """Per node position, its steps in run order and their heap keys, which
    order as (t, node) and are the node's position mod the node count; the
    executions' (runner, row, trace chunk, binding) columns; and the events.
    A step indexes the executions' columns, then the events'.  A node's
    steps are the executions the statement placement gives it, at their
    dilated scatters, and its events, merged by one lexsort on (t, node,
    phase, cid, rank); a compute event binds the execution at its key.
    GeometryMismatch unless the plan places the scop's real statements at
    instances, every node's events pass ``check_windows``, each compute
    event binds an execution of a statement that makes its accesses, and
    every instance runs on some node."""
    grid, real, placed = scop.grid, scop.real_statements(), plan.stmt_placement.maps
    nodes, arity = grid.nodes, scop.scatter_arity
    for sid in sorted(placed.keys() ^ {s.id for s in real}):  # the first stray or missing statement
        known = sid in map(attrgetter("id"), scop.statements)
        raise GeometryMismatch(f"plan does not place statement {sid}" if sid not in placed else
                               f"plan places {sid}, {'a virtual statement' if known else 'which the scop lacks'}")
    if plan.scatter_arity != arity:
        raise GeometryMismatch(f"plan scatters have {plan.scatter_arity} entries, the scop's {arity}")
    execs = [plan.stmt_placement.node_rows(s, grid) for s in real]
    node_evs = [plan.events.get(c, ()) for c in nodes]
    keys = [k for c, own in zip(nodes, node_evs) for k in check_windows(plan.channels, c, own, set())]
    evs = [ev for own in node_evs for ev in own]
    try:
        listed = np.fromiter(chain.from_iterable(keys), np.int64, len(keys) * (arity + 3)).reshape(-1, arity + 3)
    except OverflowError:  # a scatter beyond int64
        listed = point_table(keys, arity + 3)
    # the columns hold the executions first, then the events
    e = sum(len(r) for r, _ in execs)
    pos = np.concatenate([w for _, w in execs] + [np.repeat(np.arange(len(nodes)), list(map(len, node_evs)))])
    key = np.concatenate([np.column_stack((2 * s.scatters[r], np.tile((COMPUTE_PHASE, -1, -1), (len(r), 1))))
                          for s, (r, _) in zip(real, execs)] + [listed])
    order = np.lexsort((np.arange(len(pos)) >= e, *key[:, arity:].T[::-1], pos, *key[:, :arity].T[::-1]))
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    # a compute event binds the execution just below it in the order, on its node at its key
    bound = e + np.flatnonzero(listed[:, arity + 1] < 0)  # only compute events lack a cid
    tied = order[rank[bound] - 1]
    tied[(rank[bound] == 0) | (tied >= e) | (pos[tied] != pos[bound]) | (key[tied] != key[bound]).any(axis=1)] = -1
    owner = np.repeat(np.arange(len(real)), [len(r) for r, _ in execs])
    makes = [(bool(s.reads()), bool(s.writes())) for s in real]
    runners = [f for s, (r, _) in zip(real, execs) for f in repeat(instance_runner(scop, s), len(r))]
    labels = [s.labels[i] for s, (r, _) in zip(real, execs) for i in r.tolist()]
    rows, bindings = np.concatenate([r for r, _ in execs] or [np.zeros(0, dtype=np.intp)]).tolist(), [_UNBOUND] * e
    for b, x in zip(bound.tolist(), tied.tolist()):
        ev, (reads, writes) = evs[b - e], makes[owner[x]] if x >= 0 else (True, True)
        access = "read" if ev.read_from is not None and not reads else "write" if ev.writes and not writes else ""
        if x < 0 or access:
            fault = (f"binds a field {access} for {labels[x]}, which {access}s no field" if access
                     else "runs no execution")
            raise GeometryMismatch(f"compute event on node {nodes[pos[b]]} at t={_fmt_tuple(ev.scatter)} {fault}")
        bindings[x] = ev
    for s, (r, _) in zip(real, execs):
        if not (runs := np.bincount(r, minlength=len(s.instances))).all():
            raise GeometryMismatch(f"plan places {s.labels[runs.argmin()]} on no node")
    keep = np.delete(order, rank[bound])
    keep = keep[np.argsort(pos[keep], kind="stable")]
    cuts = np.searchsorted(pos[keep], np.arange(len(nodes) + 1)).tolist()
    ordered, keys = keep.tolist(), (rank[keep] * len(nodes) + pos[keep]).tolist()
    return ([ordered[a:b] for a, b in zip(cuts, cuts[1:])], [keys[a:b] for a, b in zip(cuts, cuts[1:])],
            (runners, rows, labels, bindings), evs)


def run(sim: SimState, scop: Scop):
    """Execute the plan; returns (field contents, trace).  The steps come from ``_steps``."""
    plan, nodes = sim.plan, scop.grid.nodes
    node_steps, node_keys, (runners, rows, labels, bindings), evs = _steps(plan, scop)
    n, e, states = len(nodes), len(rows), [sim.nodes[c] for c in nodes]

    def read(ev, decl, element):  # the running execution's read access, on its node
        if ev.read_from is None:  # made on this node, by the element's last writer
            return sim.load(node, decl.name, element)
        value = sim.channels[ev.read_from[0]].slots[ev.read_from[1]]
        if value is None:
            raise BufferStateViolation(f"{labels[j]}: reading unwritten buffer slot")
        return value

    def store(ev, decl, element, value):
        if sim.homes[decl.name][element] == node.position:
            sim.memory[decl.name][element] = value
        for _, cid, rank in ev.writes:
            sim.channels[cid].slots[rank] = value

    entries = sim.trace.entries
    heap = [keys[0] for keys in node_keys if keys]
    heapq.heapify(heap)
    parked: dict = {}  # cid -> the positions of the nodes whose head waits on that channel
    while heap:
        p = heapq.heappop(heap) % n
        node, steps, keys, coord = states[p], node_steps[p], node_keys[p], nodes[p]
        i = node.cursor
        while True:  # run the node's heads while each is below every other node's
            j = steps[i]
            if j < e:  # an execution
                runners[j](rows[j], node.scalars, read, store, bindings[j])
                entries.append((len(entries), coord, "compute", labels[j], -1, "-"))
            elif (ch := sim.channels[(ev := evs[j - e]).cid]).state != (call := CALLS[ev.kind]).needs:  # a wait
                parked.setdefault(ev.cid, []).append(p)
                break
            else:
                if ev.kind == "send_wait":
                    ch.slots = [None] * plan.channels[ev.cid].layout.size
                elif ev.kind == "buffer_fill":
                    ch.slots[ev.rank] = sim.load(node, plan.channels[ev.cid].layout.fieldname, ev.element)
                ch.state = call.leaves
                digest = "-"
                if ev.kind in ("send", "recv"):  # the states a parked head waits for
                    digest = _digest(tuple(ch.slots))
                    for c in parked.pop(ev.cid, ()):
                        heapq.heappush(heap, node_keys[c][states[c].cursor])
                entries.append((len(entries), coord, ev.kind, ev.chunk, ev.cid, digest))
            node.cursor = i = i + 1
            if i == len(steps):
                break
            if heap and heap[0] < keys[i]:  # another node's head, perhaps one just woken, is lower
                heapq.heappush(heap, keys[i])
                break
    if parked:
        blocked = sorted(c for cs in parked.values() for c in cs)
        heads = {nodes[c]: evs[node_steps[c][states[c].cursor] - e].kind for c in blocked}
        raise DeadlockDetected(f"all nodes blocked: {heads}")
    busy = [f"{cid} {ch.state}" for cid, ch in sim.channels.items() if ch.state != IDLE]
    if busy:
        raise BufferStateViolation(f"run ended with channels not idle: {', '.join(busy)}")
    return sim.memory, sim.trace
