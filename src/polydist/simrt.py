"""Deterministic in-process simulation of a node grid executing a plan.

Each node owns the storage for its home elements of every field, a
private scalar environment, and a cursor into its event list.  A compute
event stores the element it writes where its node homes it
(``write=storage``) and reads a value made on its own node from there
(``read=storage``); values from other nodes arrive through channels,
persistent point-to-point buffers with a three-state lifecycle:

    IDLE -(send_wait)-> FILLING -(send)-> SENT -(recv)-> IDLE

``send_wait`` blocks while the previous message has not been released by
the receiver's ``recv``; ``recv_wait`` blocks until the send.  One event
runs per step, so a payload is readable from the step after its send
on.  Every step runs the lowest (scatter, node) head event that is not
blocked, which makes runs bit-reproducible.

The scheduler keeps the node heads in a heap keyed by (scatter, node)
and checks a head when it pops it.  A blocked head parks its node on the
channel it waits for, and the next ``send`` or ``recv`` on that channel
pushes the parked nodes back (a ``send_wait`` leaves the channel FILLING,
which no head waits for).  A parked node stays blocked until then, so
the first runnable head popped is the lowest of all.  The popped node
keeps running while its next head's key is below the heap's top: that
head is the one the heap would pop next, so the order is the same, and
the heap moves only when the lowest head is another node's, perhaps one
a ``send`` or ``recv`` just woke.  An empty heap
with nodes still parked is a deadlock: the run aborts with
DeadlockDetected, naming every parked node and its head event's kind.
A run that ends with a channel not idle left a message unreleased and
aborts with BufferStateViolation.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .commgen import CommPlan, _fmt_tuple, check_channel_ends
from .errors import (
    BufferStateViolation,
    DeadlockDetected,
    GeometryMismatch,
    NotLocal,
)
from .scop import ClusterGrid, FieldDecl, Scop, instance_runner

__all__ = ["NodeState", "ChannelState", "Trace", "SimState", "init_runtime", "run"]

IDLE, FILLING, SENT = "idle", "filling", "sent"
# each channel call's (state it needs, state it leaves): send_wait and recv_wait
# wait for the state they need, and for the other calls any other is a fault
CALLS = {"send_wait": (IDLE, FILLING), "send": (FILLING, SENT), "buffer_fill": (FILLING, FILLING),
         "recv_wait": (SENT, SENT), "recv": (SENT, IDLE)}


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
    slots: list = field(default_factory=list)  # written while FILLING, read while SENT


@dataclass
class Trace:
    entries: list = field(default_factory=list)

    def to_text(self) -> str:
        fmt = lru_cache(maxsize=None)(_fmt_tuple)  # each node formatted once
        line = "step=%s node=%s kind=%s chunk=%s tag=%s digest=%s\n"
        return "".join([line % (step, fmt(node), *rest) for step, node, *rest in self.entries])


class SimState:
    def __init__(self, plan: CommPlan, fields: dict, homes: dict, slots: dict, nodes, channels, trace):
        self.plan = plan
        self.fields = fields  # field name -> FieldDecl
        self.homes = homes  # field name -> per-element home position table
        self.slots = slots  # field name -> {element: (home position, storage slot)}
        self.nodes = nodes
        self.channels = channels
        self.trace = trace

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
            raise GeometryMismatch(
                f"plan field {name} is {fld.element_type} {fld.extents}, "
                f"the contents' {name} is {arr.dtype} {arr.shape}"
            )
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
    h = hashlib.sha1(repr(values).encode()).hexdigest()
    return h[:12]


def _check_runnable(stmts: dict, kinds: dict, ev, coord) -> int:
    """The row of the compute event's instance in its statement.
    GeometryMismatch unless the event names an instance of a real
    statement of the scop, and binds a field read or write only where the
    statement has one (``kinds`` holds each statement's access kinds)."""
    s = stmts.get(ev.stmt)
    row = None if s is None else s.rows.get(ev.instance)
    if s is None:
        fault = f"names statement {ev.stmt}, which the scop does not have"
    elif row is None:
        fault = f"names {ev.stmt}{ev.instance}, which is not an instance of {ev.stmt}"
    elif s.is_virtual:
        fault = f"names {ev.stmt}{ev.instance}, an instance of a virtual statement"
    elif ev.read_from is not None and "read" not in kinds[ev.stmt]:
        fault = f"binds a field read for {ev.stmt}{ev.instance}, which reads no field"
    elif ev.writes and "write" not in kinds[ev.stmt]:
        fault = f"binds a field write for {ev.stmt}{ev.instance}, which writes no field"
    else:
        return row
    raise GeometryMismatch(f"compute event on node {coord} {fault}")


def run(sim: SimState, scop: Scop):
    """Execute the plan; returns (field contents, trace).  Every compute
    event must be one ``_check_runnable`` accepts, run by
    ``instance_runner``, and every event must use its channels at the ends
    ``check_channel_ends`` requires."""
    plan = sim.plan
    stmts = {s.id: s for s in scop.statements}
    kinds = {s.id: {a.kind for a in s.accesses} for s in scop.statements}
    runs = {s.id: instance_runner(scop, s) for s in scop.real_statements()}
    chunks = {s.id: f"{s.id}({','.join(['%d'] * s.arity)})" for s in scop.statements}  # % an instance

    node_events = {coord: plan.events.get(coord, []) for coord in sim.nodes}
    rows = {}  # node -> per event, a compute event's instance row, else None
    for coord, evs in sorted(node_events.items()):
        rows[coord] = node_rows = []
        for ev in evs:
            node_rows.append(_check_runnable(stmts, kinds, ev, coord) if ev.kind == "compute" else None)
            check_channel_ends(plan.channels, ev, coord)

    def read(ev, decl, element):  # ev's read access, on the running node
        if ev.read_from is None:  # made on this node, by the element's last writer
            return node.storage[decl.name].item(sim._offset(node, decl.name, element))
        cid, rank = ev.read_from
        ch = sim.channels[cid]
        if ch.state != SENT:
            raise BufferStateViolation(
                f"{ev.stmt}{ev.instance}: buffer read on channel {cid} in state {ch.state}")
        if ch.slots[rank] is None:
            raise BufferStateViolation(f"{ev.stmt}{ev.instance}: reading unwritten buffer slot")
        return ch.slots[rank]

    def store(ev, decl, element, value):
        for w in ev.writes:
            if w[0] == "storage":
                node.storage[decl.name][sim._offset(node, decl.name, element)] = value
                continue
            ch = sim.channels[w[1]]
            if ch.state != FILLING:
                raise BufferStateViolation(
                    f"{ev.stmt}{ev.instance}: buffer write on channel {w[1]} in state {ch.state}")
            ch.slots[w[2]] = value

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
            elif ev.kind not in CALLS:
                raise BufferStateViolation(f"unknown event kind {ev.kind}")
            elif (ch := sim.channels[ev.cid]).state != CALLS[ev.kind][0]:
                if ev.kind not in ("send_wait", "recv_wait"):
                    raise BufferStateViolation(f"{ev.kind} on channel {ev.cid} in state {ch.state}")
                parked.setdefault(ev.cid, []).append(coord)
                break
            else:
                if ev.kind == "send_wait":
                    ch.slots = [None] * plan.channels[ev.cid].layout.size
                elif ev.kind == "buffer_fill":
                    name = plan.channels[ev.cid].layout.fieldname
                    ch.slots[ev.rank] = node.storage[name].item(sim._offset(node, name, ev.element))
                ch.state = CALLS[ev.kind][1]
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
