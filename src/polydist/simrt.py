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
the first runnable head popped is the lowest of all, and a step costs a
few heap operations instead of a scan of every node.  An empty heap
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
from .scop import ClusterGrid, FieldDecl, Scop, _from_np, instance_runner

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

    def log(self, step, node, kind, chunk, tag, digest):
        self.entries.append((step, node, kind, chunk, tag, digest))

    def to_text(self) -> str:
        lines = []
        for step, node, kind, chunk, tag, digest in self.entries:
            node_s = "(" + ",".join(map(str, node)) + ")"
            lines.append(f"step={step} node={node_s} kind={kind} chunk={chunk} tag={tag} digest={digest}")
        return "\n".join(lines) + ("\n" if lines else "")


class SimState:
    def __init__(self, plan: CommPlan, fields: dict, homes: dict, slots: dict, nodes, channels, trace):
        self.plan = plan
        self.fields = fields  # field name -> FieldDecl
        self.homes = homes  # field name -> per-element home position table
        self.slots = slots  # field name -> {element: (home position, storage slot)}
        self.nodes = nodes
        self.channels = channels
        self.trace = trace
        self.step = 0

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


def _check_runnable(stmts: dict, kinds: dict, ev, coord) -> None:
    """GeometryMismatch unless the compute event names an instance of a real
    statement of the scop, and binds a field read or write only where the
    statement has one (``kinds`` holds each statement's access kinds)."""
    s = stmts.get(ev.stmt)
    if s is None:
        fault = f"names statement {ev.stmt}, which the scop does not have"
    elif ev.instance not in s.rows:
        fault = f"names {ev.stmt}{ev.instance}, which is not an instance of {ev.stmt}"
    elif s.is_virtual:
        fault = f"names {ev.stmt}{ev.instance}, an instance of a virtual statement"
    elif ev.read_from is not None and "read" not in kinds[ev.stmt]:
        fault = f"binds a field read for {ev.stmt}{ev.instance}, which reads no field"
    elif ev.writes and "write" not in kinds[ev.stmt]:
        fault = f"binds a field write for {ev.stmt}{ev.instance}, which writes no field"
    else:
        return
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
    fmt = lru_cache(maxsize=None)(_fmt_tuple)  # an instance tuple recurs in each split part

    node_events = {coord: plan.events.get(coord, []) for coord in sim.nodes}
    for coord, evs in sorted(node_events.items()):
        for ev in evs:
            if ev.kind == "compute":
                _check_runnable(stmts, kinds, ev, coord)
            check_channel_ends(plan.channels, ev, coord)

    def read(where, decl, element):
        node, ev = where
        if ev.read_from is None:  # made on this node, by the element's last writer
            return _from_np(node.storage[decl.name][sim._offset(node, decl.name, element)], decl)
        cid, rank = ev.read_from
        ch = sim.channels[cid]
        if ch.state != SENT:
            raise BufferStateViolation(
                f"{ev.stmt}{ev.instance}: buffer read on channel {cid} in state {ch.state}")
        if ch.slots[rank] is None:
            raise BufferStateViolation(f"{ev.stmt}{ev.instance}: reading unwritten buffer slot")
        return ch.slots[rank]

    def store(where, decl, element, value):
        node, ev = where
        for w in ev.writes:
            if w[0] == "storage":
                node.storage[decl.name][sim._offset(node, decl.name, element)] = value
                continue
            ch = sim.channels[w[1]]
            if ch.state != FILLING:
                raise BufferStateViolation(
                    f"{ev.stmt}{ev.instance}: buffer write on channel {w[1]} in state {ch.state}")
            ch.slots[w[2]] = value

    def run_event(node: "NodeState", ev):
        digest, chunk = "-", ev.chunk
        if ev.kind == "compute":
            runs[ev.stmt](stmts[ev.stmt].rows[ev.instance], node.scalars, read, store, (node, ev))
            chunk = ev.stmt + fmt(ev.instance)
        elif ev.kind in CALLS:
            ch = sim.channels[ev.cid]
            need, leave = CALLS[ev.kind]
            if ch.state != need:
                raise BufferStateViolation(f"{ev.kind} on channel {ev.cid} in state {ch.state}")
            if ev.kind == "send_wait":
                ch.slots = [None] * plan.channels[ev.cid].layout.size
            elif ev.kind in ("send", "recv"):
                digest = _digest(tuple(ch.slots))
            elif ev.kind == "buffer_fill":
                name = plan.channels[ev.cid].layout.fieldname
                ch.slots[ev.rank] = _from_np(node.storage[name][sim._offset(node, name, ev.element)],
                                             sim.fields[name])
            ch.state = leave
        else:
            raise BufferStateViolation(f"unknown event kind {ev.kind}")
        sim.trace.log(sim.step, node.coord, ev.kind, chunk, ev.cid, digest)
        sim.step += 1

    heap = [(evs[0].scatter, coord) for coord, evs in node_events.items() if evs]
    heapq.heapify(heap)
    parked: dict = {}  # cid -> nodes whose head waits on that channel
    while heap:
        _, coord = heapq.heappop(heap)
        node = sim.nodes[coord]
        evs = node_events[coord]
        ev = evs[node.cursor]
        if ev.kind in ("send_wait", "recv_wait") and sim.channels[ev.cid].state != CALLS[ev.kind][0]:
            parked.setdefault(ev.cid, []).append(coord)
            continue
        run_event(node, ev)
        if ev.kind in ("send", "recv"):  # the states a parked head waits for
            for c in parked.pop(ev.cid, ()):
                heapq.heappush(heap, (node_events[c][sim.nodes[c].cursor].scatter, c))
        node.cursor += 1
        if node.cursor < len(evs):
            heapq.heappush(heap, (evs[node.cursor].scatter, coord))
    if parked:
        blocked = sorted(c for cs in parked.values() for c in cs)
        heads = {c: node_events[c][sim.nodes[c].cursor].kind for c in blocked}
        raise DeadlockDetected(f"all nodes blocked: {heads}")
    busy = [f"{cid} {ch.state}" for cid, ch in sim.channels.items() if ch.state != IDLE]
    if busy:
        raise BufferStateViolation(f"run ended with channels not idle: {', '.join(busy)}")
    return sim.gather(), sim.trace
