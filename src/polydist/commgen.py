"""Communication plan generation.

Resolves the transfers (which producer execution, on which node, feeds
which consumer execution with which field element) as columns over the
family pair tables, groups them into chunks via the chunking functions,
and emits the six-call protocol per chunk and (source, destination) pair:

    send_wait   one step before the chunk's first producer execution
    buffer writes   at the producer executions
    send        one step after the last producer execution
    recv_wait   one step before the first consumer execution
    buffer reads    at the consumer executions
    recv        one step after the last consumer execution

All schedules are dilated by two first: every statement scatter then has
an even last coordinate, and every inserted call, one step before or after
a dilated scatter, an odd one, so no call lands where a statement instance
runs.  The virtual prologue is a statement with one scatter, so its
families get the same four channel calls; its producer fills the buffer
from field storage, each family as a single chunk.

Only values that cross nodes travel.  A transfer whose producer runs on
the consumer's node, for an element homed there, has no channel: the
consumer reads the element from its node's storage, where every
execution stores each home element it writes.  The epilogue has no transfers
and no events: its writers run at the homes of the elements they leave,
which ``emit_protocol`` checks.

The plan text (``dump_plan``, ``parse_plan``) states each fact once: a
``stmtmap`` line gives the nodes a statement's instances run on, a
channel line the channel's family, ends and box, a channel call names its
channel by cid, which is also its messages' tag, and a compute line binds
only an execution that uses a buffer, by its node and dilated scatter.

Transfers, channel boxes, buffer ranks and buffer bindings stay numpy
columns indexed by instance row and node position; Python objects are
made for the plan's channels and events, and for the TransferTuple views
that iterating a family's transfers yields.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from .deps import EPILOGUE, PROLOGUE, DepGraph, FlowFamily
from .errors import AnalysisError, GeometryMismatch, ParseError, ValidationError
from .isets import distinct_rows, enumerate_table, propagate, row_major_strides, unique_rows
from .placement import Placement, block_distribute
from .scop import ClusterGrid, FieldDecl, Scop
from .syntax import format_map, parse_map

__all__ = [
    "TransferTuple",
    "Transfers",
    "BufferLayout",
    "Channel",
    "Event",
    "CommPlan",
    "CALLS",
    "COMPUTE_PHASE",
    "check_windows",
    "build_transfers",
    "group_chunks",
    "emit_protocol",
    "compile_plan",
    "dump_plan",
    "parse_plan",
]


# One resolved transfer, as ``Transfers`` yields it: the producer execution
# feeding one consumer execution with one field element, tagged by its chunk
# representative; the rows are the instances' rows in Statement.instances.
TransferTuple = namedtuple(
    "TransferTuple",
    "representative producer producer_instance producer_node consumer consumer_instance "
    "consumer_node fieldname element producer_row consumer_row",
)


@dataclass(frozen=True)
class BufferLayout:
    """Dense hull-box indexing for one channel's buffers."""

    fieldname: str
    box: tuple  # ((lo, hi), ...) inclusive

    @property
    def size(self) -> int:
        n = 1
        for lo, hi in self.box:
            n *= hi - lo + 1
        return n


@dataclass(frozen=True)
class Channel:
    cid: int  # also the tag of its messages
    family: str  # e.g. "flow:S2.2->S1.1:front", "pro:S1.1:front"
    src: tuple
    dst: tuple
    layout: BufferLayout  # the field's element type is the plan's fields entry

    @property
    def loopback(self) -> bool:  # a node sends itself only elements it does not home
        return self.src == self.dst


IDLE, FILLING, SENT, RECEIVED = "idle", "filling", "sent", "received"  # a channel's states
# per call: the end it runs at, its phase at a scatter, the state it needs and leaves
Call = namedtuple("Call", "end phase needs leaves")
COMPUTE_PHASE = 4  # of an execution and its compute event: after the recv, send and waits at its t
CALLS = {"recv": Call("dst", 0, RECEIVED, IDLE), "send": Call("src", 1, FILLING, SENT),
         "recv_wait": Call("dst", 2, SENT, RECEIVED), "send_wait": Call("src", 3, IDLE, FILLING),
         "buffer_fill": Call("src", 4, FILLING, FILLING)}
# per call: its end and phase, whether it needs the end's window open and whether it leaves it
# open; a window is open while the end holds the buffer, in FILLING at the src, RECEIVED at the dst
_WINDOW = {k: (c.end, c.phase, c.needs in (FILLING, RECEIVED), c.leaves in (FILLING, RECEIVED))
           for k, c in CALLS.items()}


@dataclass(slots=True)
class Event:
    scatter: tuple
    kind: str  # compute (a binding of the execution at the scatter) | send_wait | send | ...
    read_from: Optional[tuple] = None  # (cid, rank) buffer read binding; None reads storage
    writes: tuple = ()  # ("buffer", cid, rank) entries
    chunk: str = ""
    cid: int = -1
    element: tuple = ()  # for fill events
    rank: int = -1


def check_windows(channels: list, node: tuple, events, windows: set, last: tuple = ()) -> list:
    """The events' keys, each (*t, phase, cid, rank).  GeometryMismatch unless each event,
    run in order on the node, has a key above the one before it (the first above ``last``),
    so the order checked is the order run, and uses its channels at their ends and inside
    their windows: ``send_wait`` and ``recv_wait`` open their end's window and must find it
    closed, ``send`` and ``recv`` close it and must find it open, and a fill or buffer write
    lies in the src window, a buffer read in the dst window.  ``windows`` holds the open
    windows as (cid, end, node) and is updated in place."""
    keys = []
    for ev in events:
        kind = ev.kind
        if kind == "compute":  # a window opened on this node passed the end check
            phase = COMPUTE_PHASE
            if ev.read_from is not None and (ev.read_from[0], "dst", node) not in windows:
                _outside(channels[ev.read_from[0]], "dst", node, "compute read", True)
            for w in ev.writes:
                if (w[1], "src", node) not in windows:
                    _outside(channels[w[1]], "src", node, "compute write", True)
        elif kind in _WINDOW:
            end, phase, was, now = _WINDOW[kind]
            ch, window = channels[ev.cid], (ev.cid, end, node)
            if (ch.src if end == "src" else ch.dst) != node or (window in windows) != was:
                _outside(ch, end, node, kind, was)
            (windows.add if now else windows.discard)(window)
        else:
            raise GeometryMismatch(f"unknown event kind {kind}")
        if (key := (*ev.scatter, phase, ev.cid, ev.rank)) <= last:
            raise GeometryMismatch(f"{kind} at t={_fmt_tuple(ev.scatter)} on node {node} is not after "
                                   "the event before it in (t, phase, cid, rank) order")
        keys.append(last := key)
    return keys


def _outside(ch: Channel, end: str, node: tuple, what: str, was: bool) -> None:
    """GeometryMismatch: off the channel's end, else its window not ``was`` (open if true)."""
    if getattr(ch, end) != node:
        raise GeometryMismatch(f"{what} on node {node} uses channel {ch.cid}, "
                               f"which runs from {ch.src} to {ch.dst}")
    raise GeometryMismatch(f"{what} on node {node} finds the {end} window of channel {ch.cid} "
                           f"{'closed' if was else 'open'}")


@dataclass
class CommPlan:
    name: str
    grid: tuple
    scatter_arity: int
    fields: tuple  # (name, element_type, extents)
    field_placement: Placement
    stmt_placement: Placement  # per real statement: instance -> the nodes that run it
    channels: list
    events: dict  # node -> list[Event] ascending by (t, phase, cid, rank); an event's node is its key


# ---------------------------------------------------------------------------
# Transfers


_COLUMNS = ("pair", "producer_row", "consumer_row", "producer_node", "consumer_node", "chunk")


@dataclass(frozen=True)
class Transfers:
    """The resolved transfers of one family as columns, one entry per
    transfer: every pair of the family table once per consumer node.
    Iterating yields each transfer as a TransferTuple."""

    family: FlowFamily
    nodes: list  # ClusterGrid.nodes, which the node columns index
    reps: np.ndarray  # the distinct chunk representatives, in lexicographic order
    pair: np.ndarray  # the pair's row in family.table
    producer_row: np.ndarray  # the instances' rows in Statement.instances
    consumer_row: np.ndarray
    producer_node: np.ndarray
    consumer_node: np.ndarray
    chunk: np.ndarray  # the representative's row in reps

    def __len__(self) -> int:
        return len(self.pair)

    def take(self, index) -> "Transfers":
        return replace(self, **{c: getattr(self, c)[index] for c in _COLUMNS})

    def __iter__(self):
        fam, reps = self.family, list(map(tuple, self.reps.tolist()))
        a, b = fam.n_prod, fam.n_prod + fam.n_cons
        cols = (getattr(self, c).tolist() for c in _COLUMNS[1:])
        for p, rg, rc, pg, pc, c in zip(fam.table[self.pair].tolist(), *cols):
            yield TransferTuple(reps[c], fam.producer, tuple(p[:a]), self.nodes[pg], fam.consumer,
                                tuple(p[a:b]), self.nodes[pc], fam.ref, tuple(p[b:]), rg, rc)


def _family_key(fam: FlowFamily) -> str:
    if fam.producer == PROLOGUE:
        return f"pro:{fam.consumer}:{fam.ref}"
    if fam.consumer == EPILOGUE:
        return f"epi:{fam.producer}:{fam.ref}"
    return f"flow:{fam.producer}->{fam.consumer}:{fam.ref}"


def build_transfers(dep: DepGraph, sp: Placement, fp: Placement, chunkings: dict) -> dict:
    """Resolved transfers per family key, as ``Transfers`` columns; the
    epilogue's families have none.

    Every (producer execution, consumer execution, element) pair of a
    family is resolved once per consumer node: the producer node is the
    consumer's own node when the producer runs there, else the smallest
    node the producer runs on.  For the virtual prologue the producer
    nodes are the element's homes.  Nodes come from the placement's node
    tables by instance row; element homes and chunk representatives are
    computed column-wise from the family table.
    """
    grid = dep.scop.grid
    n = len(grid.nodes)
    placed = {s.id: sp.node_rows(s, grid) for s in dep.scop.statements}
    out: dict = {}
    for fam, (prod_rows, cons_rows) in zip(dep.families, dep.pair_rows):
        if fam.kind != "field" or fam.consumer == EPILOGUE:
            continue
        key = _family_key(fam)
        phi = chunkings.get((fam.producer, fam.consumer, fam.ref))
        a, b = fam.n_prod, fam.n_prod + fam.n_cons
        if fam.producer == PROLOGUE:  # a single chunk
            reps, chunk = np.zeros((1, 0), dtype=np.int64), np.zeros(len(fam.table), dtype=np.intp)
        elif phi is None:
            raise AnalysisError(f"no chunking function for family {key}")
        else:
            reps, chunk, _ = unique_rows(phi.apply_rows(fam.table[:, a:b]))
        # each pair once per node its consumer runs on
        at, where = placed[fam.consumer]
        start = np.searchsorted(at, cons_rows)
        count = np.searchsorted(at, cons_rows, side="right") - start
        pair = np.repeat(np.arange(len(cons_rows)), count)
        cons = where[np.arange(len(pair)) + np.repeat(start - np.cumsum(count) + count, count)]
        if fam.producer == PROLOGUE:
            prod = fp.homes(fam.ref, fam.table[pair, b:], grid)
        else:
            at, where = placed[fam.producer]
            here = np.isin(prod_rows[pair] * n + cons, at * n + where)
            prod = np.where(here, cons, where[np.searchsorted(at, prod_rows[pair])])
        out[key] = Transfers(fam, grid.nodes, reps, pair, prod_rows[pair], cons_rows[pair],
                             prod, cons, chunk[pair])
    return out


def group_chunks(transfers: dict) -> dict:
    """family key -> that family's transfers by chunk (representatives in
    lexicographic order), each chunk's in family order."""
    return {key: ts.take(np.argsort(ts.chunk, kind="stable")) for key, ts in transfers.items()}


# ---------------------------------------------------------------------------
# Protocol emission


def emit_protocol(scop: Scop, dep: DepGraph, fp: Placement, sp: Placement, chunked: dict) -> CommPlan:
    """Assemble the per-node event lists from transfers grouped by chunk.
    Channel boxes, buffer ranks, scatter extremes and the buffer bindings
    of the executions are computed on the transfer columns; Python
    objects are made for the channels and events only, and a compute
    event only for an execution that reads or writes a buffer slot.  The
    plan's statement placement holds the real statements' maps, which say
    where every other execution runs.  Each node's events are in order of
    (scatter, phase, cid, rank), found by one lexsort over those columns
    of every event.  No two events on a node tie: only compute events
    lack a cid, and a node's compute events have distinct scatters, since
    ``scatter_order`` rejects a schedule that is not injective."""
    nodes, n = scop.grid.nodes, len(scop.grid.nodes)
    dilated = {s.id: 2 * s.scatters for s in scop.statements}
    placed = Placement({s.id: sp.maps[s.id] for s in scop.real_statements()})
    channels: list = []
    made: list = []  # every event, in the order made
    # per block of events in `made`: node index, scatter rows, then the
    # phase, cid and rank keys
    order_keys: list = []

    def add_keys(node, scatter, phase, cid=-1, rank=-1):
        order_keys.append((node, scatter, *(np.broadcast_to(v, len(node)) for v in (phase, cid, rank))))

    add_keys(np.zeros(0, dtype=np.intp), np.zeros((0, scop.scatter_arity), dtype=np.int64), 0)  # no events
    # the sources compute events read ("read") and the buffer slots they write
    # ("write"), by statement, as blocks of (key, cid, rank) columns; a read
    # from storage has cid and rank -1
    bindings: dict = {}

    def bind(sid: str, kind: str, rows, where, cid, rank) -> None:
        keys = rows * n + where
        bindings.setdefault((sid, kind), []).append((keys, *np.broadcast_arrays(cid, rank, keys)[:2]))

    def bound(sid: str, kind: str) -> list:
        blocks = bindings.get((sid, kind)) or [(np.zeros(0, dtype=np.int64),) * 3]
        return [np.concatenate(c) for c in zip(*blocks)]

    # no epilogue events: each writer instance runs at the home of the element it leaves
    for fam, (prod_rows, _) in zip(dep.families, dep.pair_rows):
        if fam.kind == "field" and fam.consumer == EPILOGUE:
            at, where = sp.node_rows(scop.statement(fam.producer), scop.grid)
            homes = fp.homes(fam.ref, fam.table[:, fam.n_prod + fam.n_cons :], scop.grid)
            if not np.isin(prod_rows * n + homes, at * n + where).all():
                raise AnalysisError(f"epilogue family {_family_key(fam)} has a transfer between nodes")

    for key, ts in chunked.items():
        fam, fld = ts.family, scop.field(ts.family.ref)
        # a value made on the consumer's node for an element homed there is
        # read from that node's storage
        homes = fp.homes(fam.ref, fam.table[ts.pair, fam.n_prod + fam.n_cons :], scop.grid)
        local = (ts.producer_node == ts.consumer_node) & (homes == ts.consumer_node)
        bind(fam.consumer, "read", ts.consumer_row[local], ts.consumer_node[local], -1, -1)
        ts = ts.take(~local)
        if not len(ts):
            continue
        # one channel per (src, dst) in order of first appearance, its
        # transfers by chunk and then in order
        _, link, first = unique_rows((ts.producer_node * n + ts.consumer_node)[:, None])
        channel = np.argsort(np.argsort(first))[link]
        ts, channel = ts.take(np.argsort(channel, kind="stable")), np.sort(channel)
        cut = np.diff(channel, prepend=-1) != 0
        elem = fam.table[ts.pair, fam.n_prod + fam.n_cons :]
        lo, hi = (f.reduceat(elem, np.flatnonzero(cut)) for f in (np.minimum, np.maximum))
        rank = ((elem - lo[channel]) * row_major_strides(hi - lo + 1)[channel]).sum(axis=1)
        cid = len(channels) + channel
        for s, box in zip(np.flatnonzero(cut).tolist(), zip(lo.tolist(), hi.tolist())):
            channels.append(Channel(len(channels), key, nodes[ts.producer_node[s]],
                                    nodes[ts.consumer_node[s]], BufferLayout(fld.name, tuple(zip(*box)))))

        # the four channel calls of every chunk on every channel, around
        # the chunk's first and last scatter at either end
        cut |= np.diff(ts.chunk, prepend=-1) != 0
        group, starts = np.cumsum(cut) - 1, np.flatnonzero(cut)
        ends = np.append(starts[1:], len(ts)) - 1
        ends_at = (ts.producer_node[starts], ts.consumer_node[starts])
        names = [f"{key}@{_fmt_tuple(rep)}" for rep in ts.reps[ts.chunk[starts]].tolist()]
        cids = cid[starts].tolist()
        spans = []
        for rows, sid in ((ts.producer_row, fam.producer), (ts.consumer_row, fam.consumer)):
            sc = dilated[sid][rows]
            order = np.lexsort((*sc.T[::-1], group))
            spans += [sc[order[i]] for i in (starts, ends)]
        # chunk by chunk: send_wait before the first scatter at the source,
        # send after its last, recv_wait and recv likewise at the destination
        kinds = ("send_wait", "send", "recv_wait", "recv")
        scatter = np.stack(spans, axis=1)
        scatter[:, :, -1] += (-1, 1, -1, 1)
        scatter = scatter.reshape(-1, scatter.shape[-1])
        add_keys(np.repeat(np.stack(ends_at, axis=1), 2, axis=1).ravel(), scatter,
                 np.tile([CALLS[k].phase for k in kinds], len(starts)), np.repeat(cid[starts], 4))
        spans = iter(map(tuple, scatter.tolist()))
        for name, c in zip(names, cids):
            made += (Event(next(spans), kind, chunk=name, cid=c) for kind in kinds)

        # consumer executions read their slots and producer executions write
        # them; the prologue fills every chunk's ranks once, in rank order
        bind(fam.consumer, "read", ts.consumer_row, ts.consumer_node, cid, rank)
        if fam.producer != PROLOGUE:
            bind(fam.producer, "write", ts.producer_row, ts.producer_node, cid, rank)
            continue
        order = np.lexsort((rank, group))
        g, r = group[order], rank[order]
        once = np.flatnonzero((np.diff(g, prepend=-1) != 0) | (np.diff(r, prepend=-1) != 0))
        add_keys(ends_at[0][g[once]], np.broadcast_to(dilated[PROLOGUE][0], (len(once), scop.scatter_arity)),
                 CALLS["buffer_fill"].phase, cid[starts][g[once]], r[once])
        fill_at = tuple(dilated[PROLOGUE][0].tolist())
        for gi, e, k in zip(g[once].tolist(), elem[order][once].tolist(), r[once].tolist()):
            made.append(Event(fill_at, "buffer_fill", chunk=names[gi], cid=cids[gi], element=tuple(e), rank=k))

    # a compute event for every execution of a real statement that uses a buffer slot
    for s in scop.real_statements():
        rows, where = placed.node_rows(s, scop.grid)
        keys = rows * n + where
        cid = rank = np.full(len(keys), -1)
        if s.reads():
            # one source per execution: the keys sorted are the executions' keys
            reads, cid, rank = bound(s.id, "read")
            order = np.argsort(reads)
            if len(reads) != len(keys) or (reads[order] != keys).any():
                raise AnalysisError(f"read sources of {s.id} do not match its executions one to one")
            cid, rank = cid[order], rank[order]
        writes = distinct_rows(np.stack(bound(s.id, "write"), axis=1))
        lo, hi = (np.searchsorted(writes[:, 0], keys, side=side) for side in ("left", "right"))
        buffers = [("buffer", c, k) for c, k in writes[:, 1:].tolist()]
        use = np.flatnonzero((cid >= 0) | (hi > lo))
        add_keys(where[use], dilated[s.id][rows[use]], COMPUTE_PHASE)
        columns = (dilated[s.id][rows[use]], cid[use], rank[use], lo[use], hi[use])
        for t, c, k, a, z in zip(*(v.tolist() for v in columns)):
            made.append(Event(tuple(t), "compute", None if c < 0 else (c, k), tuple(buffers[a:z])))

    node, scatter, *rest = (np.concatenate(c) for c in zip(*order_keys))
    order = np.lexsort((*rest[::-1], *scatter.T[::-1], node))
    made, node = [made[i] for i in order.tolist()], node[order]
    cuts = np.flatnonzero(np.diff(node, prepend=-1)).tolist()
    events = {nodes[node[a]]: made[a:b] for a, b in zip(cuts, cuts[1:] + [len(made)])}
    return CommPlan(
        name=scop.name,
        grid=scop.grid.extents,
        scatter_arity=scop.scatter_arity,
        fields=tuple((f.name, f.element_type, f.extents) for f in scop.fields),
        field_placement=fp,
        stmt_placement=placed,
        channels=channels,
        events=events,
    )


def compile_plan(scop: Scop, dep: DepGraph, fp: Placement, sp: Placement, chunkings: dict) -> CommPlan:
    transfers = build_transfers(dep, sp, fp, chunkings)
    chunked = group_chunks(transfers)
    return emit_protocol(scop, dep, fp, sp, chunked)


# ---------------------------------------------------------------------------
# Plan text format


# the keys each kind of line takes, by its head and by an event's kind; a
# fieldmap or stmtmap line holds map text instead
_LINE_KEYS = {"plan": {"grid", "scatter_arity"}, "field": {"extents"},
              "channel": {"cid", "family", "src", "dst", "box"}}
_LINE_WORDS = {"plan": 1, "field": 2, "channel": 0}  # bare tokens: the name, a field's type
_EVENT_KEYS = {"compute": {"t", "kind", "read", "write"},
               "buffer_fill": {"t", "kind", "chunk", "cid", "elem", "rank"},
               **dict.fromkeys(("send_wait", "send", "recv_wait", "recv"), {"t", "kind", "chunk", "cid"})}


def _fmt_tuple(t) -> str:
    return "(" + ",".join(map(str, t)) + ")"


def _parse_tuple(text: str) -> tuple:
    inner = text.strip()
    if not (inner.startswith("(") and inner.endswith(")")):
        raise ValueError(f"bad tuple {text!r}")
    inner = inner[1:-1]
    if not inner:
        return ()
    try:
        return tuple(int(x) for x in inner.split(","))
    except ValueError:
        raise ValueError(f"bad tuple {text!r}") from None


def _within(tup, key: str, text: str, extents, where: str) -> tuple:
    """A tuple entry, parsed by ``tup``, that must be a point of the
    zero-based box of extents."""
    point = tup(text)
    if len(point) != len(extents) or not all(0 <= v < e for v, e in zip(point, extents)):
        raise ValueError(f"{key}={_fmt_tuple(point)} outside {where} {_fmt_tuple(extents)}")
    return point


def _parse_buffer_ref(text: str, channels: list) -> tuple:
    """(cid, rank) from ``buf:CID@RANK``; the slot must exist in a declared channel."""
    if not text.startswith("buf:"):
        raise ValueError(f"bad buffer reference {text!r}")
    cid, _, rank = text[len("buf:") :].partition("@")
    return _check_slot(channels, int(cid), int(rank))


def _channel(channels: list, cid: int) -> Channel:
    if not 0 <= cid < len(channels):
        raise ValueError(f"unknown channel cid={cid}")
    return channels[cid]


def _check_slot(channels: list, cid: int, rank: int) -> tuple:
    size = _channel(channels, cid).layout.size
    if not 0 <= rank < size:
        raise ValueError(f"rank {rank} outside the {size}-slot buffer of channel {cid}")
    return cid, rank


def _parse_refs(text: str, channels: list) -> tuple:
    """The (cid, rank) slots of ``buf:C@R`` references joined by ``+``; none for ``none``."""
    return () if text == "none" else tuple(_parse_buffer_ref(part, channels) for part in text.split("+"))


def dump_plan(plan: CommPlan) -> str:
    fmt = lru_cache(maxsize=None)(_fmt_tuple)  # each distinct tuple formatted once
    lines = [f"plan {plan.name} grid={fmt(plan.grid)} scatter_arity={plan.scatter_arity}"]
    for name, etype, extents in plan.fields:
        lines.append(f"field {name} {etype} extents={_fmt_tuple(extents)}")
        lines.append(f"fieldmap {name} {format_map(plan.field_placement.maps[name])}")
    lines += [f"stmtmap {sid} {format_map(m)}" for sid, m in plan.stmt_placement.maps.items()]
    for ch in plan.channels:
        box = ";".join(f"{lo}:{hi}" for lo, hi in ch.layout.box)
        lines.append(f"channel cid={ch.cid} family={ch.family} src={fmt(ch.src)} dst={fmt(ch.dst)} box=[{box}]")
    for node in sorted(plan.events):
        at = f"node={fmt(node)} t="
        for ev in plan.events[node]:
            if ev.kind == "compute":
                refs = [ev.read_from] if ev.read_from else [], [w[1:] for w in ev.writes]
                read, write = ("+".join("buf:%d@%d" % r for r in rs) or "none" for rs in refs)
                lines.append(f"{at}{fmt(ev.scatter)} kind=compute read={read} write={write}")
                continue
            line = f"{at}{fmt(ev.scatter)} kind={ev.kind} chunk={ev.chunk} cid={ev.cid}"
            if ev.kind == "buffer_fill":
                line += f" elem={fmt(ev.element)} rank={ev.rank}"
            lines.append(line)
    return "\n".join(lines) + "\n"


def parse_plan(text: str) -> CommPlan:
    """Rebuild a plan from its dump; the file is self-contained and states
    each fact once, and each line only the keys its kind takes, each once,
    and only its bare tokens (the header's name, a field's name and type).

    The field placement is rebuilt by block distribution of each field's
    extents over the grid, and every ``fieldmap`` must match it, so a
    parsed plan homes each element on exactly one node.  A field is
    declared once, and so is a statement's ``stmtmap``: a bounded map onto
    nodes of the grid.  Channels must be numbered in order and name a
    declared field, with a box of as many dims as it has, each a non-empty
    range within the field's extents.  A channel call names its channel
    by ``cid=``; every event's channel and buffer rank must exist, and its
    ``t=`` must have scatter_arity entries.  A compute line binds a buffer
    read, buffer writes or both.  Every event node and channel end must
    lie in the grid, every fill element in its channel's field, and every
    event must pass ``check_windows`` after the earlier events of its
    node.  Malformed input raises ParseError with the 1-based line number."""
    numbered = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not numbered:
        raise ParseError("empty plan file", line=1)
    tup = lru_cache(maxsize=None)(_parse_tuple)  # each distinct tuple parsed once
    decls = {}
    homes = {}
    channels, stmt_maps = [], {}
    # node -> its events and its last event's key; the open windows after the lines so far
    events, last, windows = {}, {}, set()

    for i, (no, ln) in enumerate(numbered):
        parts = ln.split()
        pairs = [p.split("=", 1) for p in parts[1:] if "=" in p]
        kv = dict(pairs)
        try:
            event = parts[0].startswith("node=")
            kind = kv["kind"] if event else parts[0]
            allowed = (_EVENT_KEYS if event else _LINE_KEYS).get(kind)
            if allowed is not None and (len(kv) < len(pairs) or not kv.keys() <= allowed):
                # the first key not taken or given twice
                bad = next(k for j, (k, _) in enumerate(pairs) if k not in allowed or k in dict(pairs[:j]))
                raise ValueError(f"{bad}= given twice" if bad in allowed else f"{kind} line takes no {bad}=")
            words = [p for p in parts[1:] if "=" not in p]
            taken = 0 if event else _LINE_WORDS.get(kind, len(words))  # map lines are map text
            if len(words) > taken:
                raise ValueError(f"{kind} line takes no {words[taken]!r}")
            if i == 0:
                if parts[0] != "plan":
                    raise ValueError(f"not a plan file: {ln!r}")
                name = parts[1]
                grid = ClusterGrid(tup(kv["grid"]))
                scatter_arity = int(kv["scatter_arity"])
            elif parts[0] == "field":
                decl = FieldDecl(name=parts[1], element_type=parts[2], extents=tup(kv["extents"]))
                if decl.name in decls:
                    raise ValueError(f"field {decl.name} declared twice")
                homes.update(block_distribute([decl], grid).maps)
                decls[decl.name] = decl
            elif parts[0] == "fieldmap":
                if parts[1] not in homes:
                    raise ValueError(f"fieldmap for undeclared field {parts[1]}")
                if ln.split(None, 2)[2] != format_map(homes[parts[1]]):
                    raise ValueError(f"fieldmap {parts[1]} differs from block distribution over "
                                     f"grid {_fmt_tuple(grid.extents)}")
            elif parts[0] == "stmtmap":
                sid, m = parts[1], parse_map(ln.split(None, 2)[2])
                if sid in stmt_maps or m.n_out != grid.arity:
                    raise ValueError(f"stmtmap {sid} given twice" if sid in stmt_maps else
                                     f"stmtmap {sid} maps to {m.n_out} dims, the grid has {grid.arity}")
                bounds = [b for b in map(partial(propagate, m.n_in + m.n_out), m.pieces) if b is not None]
                if any(None in lohi for b in bounds for lohi in b):
                    raise ValueError(f"stmtmap {sid} is unbounded")
                if not all(0 <= lo and hi < e for b in bounds for (lo, hi), e in zip(b[m.n_in:], grid.extents)):
                    for at in enumerate_table(m.as_set())[:, m.n_in:].tolist():  # the bounds may be loose
                        _within(tuple, f"stmtmap {sid} node", at, grid.extents, "grid")
                stmt_maps[sid] = m
            elif parts[0] == "channel":
                box_text = kv["box"][1:-1]
                box = tuple(
                    (int(a), int(b)) for a, b in (seg.split(":") for seg in box_text.split(";"))
                ) if box_text else ()
                cid = int(kv["cid"])
                if cid != len(channels):
                    raise ValueError(f"channel cid={cid} out of order, expected {len(channels)}")
                fieldname = kv["family"].rsplit(":", 1)[-1]
                if fieldname not in decls:
                    raise ValueError(f"channel for undeclared field {fieldname}")
                decl = decls[fieldname]
                if len(box) != decl.arity:
                    raise ValueError(f"channel cid={cid} box has {len(box)} dims, "
                                     f"field {fieldname} has {decl.arity}")
                if not all(0 <= lo <= hi < e for (lo, hi), e in zip(box, decl.extents)):
                    raise ValueError(f"channel cid={cid} box=[{box_text}] is reversed or outside "
                                     f"field {fieldname} {_fmt_tuple(decl.extents)}")
                ends = (_within(tup, end, kv[end], grid.extents, "grid") for end in ("src", "dst"))
                channels.append(Channel(cid, kv["family"], *ends, BufferLayout(fieldname, box)))
            elif event:
                node = _within(tup, "node", parts[0].split("=", 1)[1], grid.extents, "grid")
                scatter = tup(kv["t"])
                if len(scatter) != scatter_arity:
                    raise ValueError(f"t={_fmt_tuple(scatter)} has {len(scatter)} entries, "
                                     f"scatter_arity is {scatter_arity}")
                if kind == "compute":
                    reads, writes = (_parse_refs(kv[k], channels) for k in ("read", "write"))
                    if len(reads) > 1 or not reads + writes:
                        raise ValueError("a compute line binds one buffer read, buffer writes or both")
                    ev = Event(scatter, kind, reads[0] if reads else None, tuple(("buffer", *w) for w in writes))
                elif kind in CALLS:
                    ev = Event(scatter=scatter, kind=kind, chunk=kv["chunk"],
                               cid=_channel(channels, int(kv["cid"])).cid)
                    if kind == "buffer_fill":
                        ev.rank = _check_slot(channels, ev.cid, int(kv["rank"]))[1]
                        decl = decls[channels[ev.cid].layout.fieldname]
                        ev.element = _within(tup, "elem", kv["elem"], decl.extents, f"field {decl.name}")
                else:
                    raise ValueError(f"unknown event kind {kind}")
                last[node] = check_windows(channels, node, (ev,), windows, last.get(node, ()))[0]
                events.setdefault(node, []).append(ev)
            else:
                raise ValueError(f"unknown plan line {ln!r}")
        except KeyError as e:
            raise ParseError(f"missing {e.args[0]}=", line=no) from None
        except IndexError:
            raise ParseError(f"incomplete line {ln!r}", line=no) from None
        except (ValueError, ValidationError, GeometryMismatch, ParseError) as e:
            raise ParseError(str(e), line=no) from None
    return CommPlan(
        name=name,
        grid=grid.extents,
        scatter_arity=scatter_arity,
        fields=tuple((d.name, d.element_type, d.extents) for d in decls.values()),
        field_placement=Placement(homes),
        stmt_placement=Placement(stmt_maps),
        channels=channels,
        events={node: evs for node, evs in sorted(events.items())},
    )
