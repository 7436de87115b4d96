"""Deterministic in-process simulation of a node grid executing a plan.

Each node owns the storage for its home elements of every field, a
private scalar environment, and a cursor into its event list.  A compute
event stores the element it writes where its node homes it
(``write=storage``) and reads a value made on its own node from there
(``read=storage``); values from other nodes arrive through channels,
persistent point-to-point buffers whose state each call moves as
``commgen.CALLS`` says.  ``send_wait`` blocks until the receiver's
``recv`` has released the last message, ``recv_wait`` until the send.
``commgen.check_windows`` checks every node's events before the first
step, so every other call and every buffer access finds the state it
needs in any interleaving: the states only park and wake nodes.

Every step runs the lowest (scatter, node) head event that is not
blocked, which makes runs bit-reproducible.  The node heads wait in a
heap keyed by (scatter, node); a blocked head parks its node on its
channel until the next ``send`` or ``recv`` there pushes it back, and
the popped node keeps running while its next head is below the heap's
top.  Nodes still parked when the heap is empty are a deadlock
(DeadlockDetected names each with its head event's kind).  A read of a
slot no event wrote, and a channel not idle at the end (a message never
released), abort with BufferStateViolation.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .commgen import CALLS, IDLE, CommPlan, _fmt_tuple, check_windows
from .errors import (
    BufferStateViolation,
    DeadlockDetected,
    GeometryMismatch,
    NotLocal,
)
from .scop import ClusterGrid, FieldDecl, Scop, instance_runner

__all__ = ["NodeState", "ChannelState", "Trace", "SimState", "init_runtime", "run"]


@dataclass
class NodeState:
    coord: tuple
    position: int  # in ClusterGrid.nodes
    storage: dict  # field -> 1-D numpy array over the home elements, row-major
    scalars: dict = field(default_factory=dict)
    cursor: int = 0


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
    fields: dict  # field name -> FieldDecl
    homes: dict  # field name -> per-element home position table
    slots: dict  # field name -> {element: (home position, storage slot)}
    nodes: dict  # coord -> NodeState
    channels: dict  # cid -> ChannelState
    trace: Trace

    @property
    def step(self) -> int:  # the events run so far, one trace entry each
        return len(self.trace.entries)

    def _offset(self, node: NodeState, fieldname: str, index: tuple) -> int:
        """The element's slot in the node's storage; NotLocal unless the node homes it."""
        home = self.slots[fieldname].get(index)
        if home is None or home[0] != node.position:
            raise NotLocal(f"{fieldname}{index} is not a home element of {node.coord}")
        return home[1]

    def gather(self) -> dict:
        out = {}
        for name, fld in self.fields.items():
            arr = np.zeros(fld.extents, dtype=fld.dtype)
            for node in self.nodes.values():
                arr[self.homes[name] == node.position] = node.storage[name]
            out[name] = arr
        return out


def init_runtime(plan: CommPlan, grid: ClusterGrid, init: dict) -> SimState:
    """Build nodes and channels; abort on geometry mismatch.  The plan's
    fields must be the contents' fields, with the same element types and
    extents.  Each node stores the elements of every field that the
    plan's home map places on it."""
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
    nodes = {coord: NodeState(coord, position, {}) for position, coord in enumerate(grid.nodes)}
    homes, slots = {}, {}
    for name, fld in fields.items():
        every = np.indices(fld.extents).reshape(fld.arity, -1).T
        owner = plan.field_placement.homes(name, every, grid).reshape(fld.extents)
        slot = np.zeros(fld.extents, dtype=np.intp)
        for node in nodes.values():
            mine = owner == node.position
            slot[mine] = np.arange(np.count_nonzero(mine))
            node.storage[name] = init[name][mine]
        homes[name] = owner
        slots[name] = dict(zip(map(tuple, every.tolist()), zip(owner.ravel().tolist(), slot.ravel().tolist())))
    channels = {ch.cid: ChannelState() for ch in plan.channels}
    return SimState(plan, fields, homes, slots, nodes, channels, Trace())


def _digest(values) -> str:
    return hashlib.sha1(repr(values).encode()).hexdigest()[:12]


def _not_runnable(scop: Scop, ev, coord) -> None:
    """GeometryMismatch: the event names no real statement's instance, or an access it lacks."""
    s = next((s for s in scop.statements if s.id == ev.stmt), None)
    if s is None:
        fault = f"names statement {ev.stmt}, which the scop does not have"
    elif ev.instance not in s.rows:
        fault = f"names {ev.stmt}{ev.instance}, which is not an instance of {ev.stmt}"
    elif s.is_virtual:
        fault = f"names {ev.stmt}{ev.instance}, an instance of a virtual statement"
    elif ev.read_from is not None and not s.reads():
        fault = f"binds a field read for {ev.stmt}{ev.instance}, which reads no field"
    else:
        fault = f"binds a field write for {ev.stmt}{ev.instance}, which writes no field"
    raise GeometryMismatch(f"compute event on node {coord} {fault}")


def run(sim: SimState, scop: Scop):
    """Execute the plan; returns (field contents, trace).  Before the first step, every
    node's events must pass ``check_windows`` and no compute event ``_not_runnable``."""
    plan = sim.plan
    runs = {s.id: instance_runner(scop, s) for s in scop.real_statements()}
    chunks = {s.id: f"{s.id}({','.join(['%d'] * s.arity)})" for s in scop.statements}  # % an instance
    # per real statement: its rows by instance, whether it reads a field and whether it writes one
    real = {s.id: (s.rows, bool(s.reads()), bool(s.writes())) for s in scop.real_statements()}
    node_events = {coord: plan.events.get(coord, []) for coord in sim.nodes}
    rows = {}  # node -> per event, a compute event's instance row, else None
    for coord, evs in sorted(node_events.items()):
        check_windows(plan.channels, coord, evs, set())
        rows[coord] = node_rows = []
        for ev in evs:
            row = None
            if ev.kind == "compute":
                at, reads, writes = real.get(ev.stmt, ({}, False, False))
                row = at.get(ev.instance)
                if row is None or (ev.read_from is not None and not reads) or (ev.writes and not writes):
                    _not_runnable(scop, ev, coord)
            node_rows.append(row)

    def read(ev, decl, element):  # ev's read access, on the running node
        if ev.read_from is None:  # made on this node, by the element's last writer
            return node.storage[decl.name].item(sim._offset(node, decl.name, element))
        cid, rank = ev.read_from
        value = sim.channels[cid].slots[rank]
        if value is None:
            raise BufferStateViolation(f"{ev.stmt}{ev.instance}: reading unwritten buffer slot")
        return value

    def store(ev, decl, element, value):
        for w in ev.writes:
            if w[0] == "storage":
                node.storage[decl.name][sim._offset(node, decl.name, element)] = value
                continue
            sim.channels[w[1]].slots[w[2]] = value

    entries = sim.trace.entries
    heap = [(evs[0].scatter, coord) for coord, evs in node_events.items() if evs]
    heapq.heapify(heap)
    parked: dict = {}  # cid -> nodes whose head waits on that channel
    while heap:
        _, coord = heapq.heappop(heap)
        node, evs, node_rows = sim.nodes[coord], node_events[coord], rows[coord]
        i = node.cursor
        while True:  # run the node's heads while each is below every other node's
            ev, row = evs[i], node_rows[i]
            if row is not None:
                runs[ev.stmt](row, node.scalars, read, store, ev)
                entries.append((len(entries), coord, "compute", chunks[ev.stmt] % ev.instance, ev.cid, "-"))
            elif (ch := sim.channels[ev.cid]).state != (call := CALLS[ev.kind]).needs:  # a wait call
                parked.setdefault(ev.cid, []).append(coord)
                break
            else:
                if ev.kind == "send_wait":
                    ch.slots = [None] * plan.channels[ev.cid].layout.size
                elif ev.kind == "buffer_fill":
                    name = plan.channels[ev.cid].layout.fieldname
                    ch.slots[ev.rank] = node.storage[name].item(sim._offset(node, name, ev.element))
                ch.state = call.leaves
                digest = "-"
                if ev.kind in ("send", "recv"):  # the states a parked head waits for
                    digest = _digest(tuple(ch.slots))
                    for c in parked.pop(ev.cid, ()):
                        heapq.heappush(heap, (node_events[c][sim.nodes[c].cursor].scatter, c))
                entries.append((len(entries), coord, ev.kind, ev.chunk, ev.cid, digest))
            node.cursor = i = i + 1
            if i == len(evs):
                break
            key = (evs[i].scatter, coord)
            if heap and heap[0] < key:  # another node's head, perhaps one just woken, is lower
                heapq.heappush(heap, key)
                break
    if parked:
        blocked = sorted(c for cs in parked.values() for c in cs)
        heads = {c: node_events[c][sim.nodes[c].cursor].kind for c in blocked}
        raise DeadlockDetected(f"all nodes blocked: {heads}")
    busy = [f"{cid} {ch.state}" for cid, ch in sim.channels.items() if ch.state != IDLE]
    if busy:
        raise BufferStateViolation(f"run ended with channels not idle: {', '.join(busy)}")
    return sim.gather(), sim.trace
