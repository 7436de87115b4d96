"""Deterministic in-process simulation of a node grid executing a plan.

Each node owns the storage for its home elements of every field, a
private scalar environment, and a cursor into its event list.  Channels
are persistent point-to-point buffers with a three-state lifecycle:

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
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field

import numpy as np

from .commgen import CommPlan, check_channel_ends
from .errors import (
    BufferStateViolation,
    DeadlockDetected,
    GeometryMismatch,
    NotLocal,
)
from .scop import ClusterGrid, FieldDecl, Scop, _check_store, _from_np

__all__ = ["NodeState", "ChannelState", "Trace", "SimState", "init_runtime", "run"]

IDLE, FILLING, SENT = "idle", "filling", "sent"
# the channel state each channel call needs: send_wait and recv_wait wait
# for it, and for the other calls any other state is a fault
NEEDS = {"send_wait": IDLE, "send": FILLING, "buffer_fill": FILLING,
         "recv_wait": SENT, "recv": SENT, "buffer_drain": SENT}


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
    def __init__(self, plan: CommPlan, fields: dict, homes: dict, nodes, channels, trace):
        self.plan = plan
        self.fields = fields  # field name -> FieldDecl
        self.homes = homes  # field name -> per-element (home position, storage slot) tables
        self.nodes = nodes
        self.channels = channels
        self.trace = trace
        self.step = 0

    def _offset(self, node: NodeState, fieldname: str, index: tuple) -> int:
        """The element's slot in the node's storage; NotLocal unless the node homes it."""
        owner, slot = self.homes[fieldname]
        if (len(index) != owner.ndim or not all(0 <= v < e for v, e in zip(index, owner.shape))
                or owner[index] != node.position):
            raise NotLocal(f"{fieldname}{index} is not a home element of {node.coord}")
        return slot[index]

    def gather(self) -> dict:
        out = {}
        for name, fld in self.fields.items():
            arr = np.zeros(fld.extents, dtype=fld.dtype)
            for node in self.nodes.values():
                arr[self.homes[name][0] == node.position] = node.storage[name]
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
    homes = {}
    for name, fld in fields.items():
        every = np.indices(fld.extents).reshape(fld.arity, -1).T
        owner = plan.field_placement.homes(name, every, grid).reshape(fld.extents)
        slot = np.zeros(fld.extents, dtype=np.intp)
        for node in nodes.values():
            mine = owner == node.position
            slot[mine] = np.arange(np.count_nonzero(mine))
            node.storage[name] = init[name][mine]
        homes[name] = owner, slot
    channels = {ch.cid: ChannelState() for ch in plan.channels}
    return SimState(plan, fields, homes, nodes, channels, Trace())


def _digest(values) -> str:
    h = hashlib.sha1(repr(values).encode()).hexdigest()
    return h[:12]


def run(sim: SimState, scop: Scop):
    """Execute the plan; returns (field contents, trace).  Every compute
    event must name a statement of the scop and one of its instances, and
    every event must use its channels at the ends ``check_channel_ends``
    requires; each statement body is compiled once per run."""
    plan = sim.plan
    stmts = {s.id: s for s in scop.statements}
    bodies = {s.id: scop.compile_body(s) for s in scop.statements}
    written = {}  # statement id -> (field, its FieldDecl, element per row), resolved once
    for s in scop.real_statements():
        for j, acc in s.writes():
            written[s.id] = (acc.field, sim.fields[acc.field], s.elements[j])

    node_events = {coord: plan.events.get(coord, []) for coord in sim.nodes}
    for coord, evs in sorted(node_events.items()):
        for ev in evs:
            if ev.kind == "compute" and ev.stmt not in stmts:
                raise GeometryMismatch(
                    f"compute event on node {coord} names statement {ev.stmt}, "
                    "which the scop does not have"
                )
            if ev.kind == "compute" and ev.instance not in stmts[ev.stmt].rows:
                raise GeometryMismatch(
                    f"compute event on node {coord} names {ev.stmt}{ev.instance}, "
                    f"which is not an instance of {ev.stmt}"
                )
            check_channel_ends(plan.channels, ev, coord)

    def run_event(node: "NodeState", ev):
        ch = sim.channels.get(ev.cid)
        digest = "-"
        if ev.kind in NEEDS and ch.state != NEEDS[ev.kind]:
            raise BufferStateViolation(f"{ev.kind} on channel {ev.cid} in state {ch.state}")
        if ev.kind == "send_wait":
            ch.state = FILLING
            ch.slots = [None] * plan.channels[ev.cid].layout.size
        elif ev.kind == "send":
            ch.state = SENT
            digest = _digest(tuple(ch.slots))
        elif ev.kind == "recv_wait":
            pass  # ran only once the channel was SENT
        elif ev.kind == "recv":
            digest = _digest(tuple(ch.slots))
            ch.state = IDLE
        elif ev.kind == "buffer_fill":
            chan = plan.channels[ev.cid]
            fld = sim.fields[chan.layout.fieldname]
            value = _from_np(
                node.storage[chan.layout.fieldname][sim._offset(node, chan.layout.fieldname, ev.element)],
                fld,
            )
            ch.slots[ev.rank] = value
        elif ev.kind == "buffer_drain":
            chan = plan.channels[ev.cid]
            node.storage[chan.layout.fieldname][
                sim._offset(node, chan.layout.fieldname, ev.element)
            ] = ch.slots[ev.rank]
        elif ev.kind == "compute":
            s = stmts[ev.stmt]

            def access(j):
                if ev.read_from is None:
                    raise BufferStateViolation(f"{ev.stmt}{ev.instance}: unbound field read")
                cid, rank = ev.read_from
                rch = sim.channels[cid]
                if rch.state != SENT:
                    raise BufferStateViolation(
                        f"{ev.stmt}{ev.instance}: buffer read on channel {cid} in state {rch.state}"
                    )
                value = rch.slots[rank]
                if value is None:
                    raise BufferStateViolation(
                        f"{ev.stmt}{ev.instance}: reading unwritten buffer slot"
                    )
                return value

            value = bodies[ev.stmt](node.scalars, access)
            if ev.stmt in written:
                name, fld, elements = written[ev.stmt]
                _check_store(value, fld)
                k = elements[s.rows[ev.instance]]
                for w in ev.writes:
                    if w[0] == "storage":
                        node.storage[name][sim._offset(node, name, k)] = value
                    else:
                        _, cid, rank = w
                        wch = sim.channels[cid]
                        if wch.state != FILLING:
                            raise BufferStateViolation(
                                f"{ev.stmt}{ev.instance}: buffer write on channel {cid} "
                                f"in state {wch.state}"
                            )
                        wch.slots[rank] = value
            for name in s.scalar_writes:
                node.scalars[name] = value
        else:
            raise BufferStateViolation(f"unknown event kind {ev.kind}")
        chunk = ev.chunk
        if ev.kind == "compute":
            chunk = f"{ev.stmt}{ '(' + ','.join(map(str, ev.instance)) + ')' }"
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
        if ev.kind in ("send_wait", "recv_wait") and sim.channels[ev.cid].state != NEEDS[ev.kind]:
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
    return sim.gather(), sim.trace
