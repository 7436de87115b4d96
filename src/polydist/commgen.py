"""Communication plan generation.

Resolves the transfers (which producer execution, on which node, feeds
which consumer execution with which field element) row by row from the
family pair tables, groups them into chunks via the chunking functions,
and emits the six-call protocol per chunk and (source, destination) pair:

    send_wait   one step before the chunk's first producer execution
    buffer writes   at the producer executions (replacing local stores)
    send        one step after the last producer execution
    recv_wait   one step before the first consumer execution
    buffer reads    at the consumer executions
    recv        one step after the last consumer execution

All schedules are dilated by two first: every statement scatter then has
an even last coordinate, and every inserted call, one step before or after
a dilated scatter, an odd one, so no call lands where a statement instance
runs.  The virtual prologue and epilogue are statements with one scatter
each, so their families get the same four channel calls; only the element
handling differs.  Prologue producers fill the buffer from field storage
and epilogue consumers drain it back, each family as a single chunk.
Producers whose values also reach the epilogue keep their local store;
all other original stores are dropped, so consumers read intra-scop values
from buffers only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Optional

from .deps import EPILOGUE, PROLOGUE, DepGraph, FlowFamily
from .errors import AnalysisError, OutOfHull, ParseError, ValidationError
from .placement import FieldPlacement, StmtPlacement, block_distribute, block_home
from .scop import ClusterGrid, FieldDecl, Scop
from .syntax import format_map

__all__ = [
    "TransferTuple",
    "BufferLayout",
    "Channel",
    "Event",
    "CommPlan",
    "build_transfers",
    "group_chunks",
    "emit_protocol",
    "buffer_rank",
    "compile_plan",
    "dump_plan",
    "parse_plan",
]


@dataclass(frozen=True)
class TransferTuple:
    """One resolved transfer: the producer execution feeding one consumer
    execution with one field element, tagged by its chunk representative."""

    representative: tuple
    producer: str
    producer_instance: tuple
    producer_node: tuple
    consumer: str
    consumer_instance: tuple
    consumer_node: tuple
    fieldname: str
    element: tuple
    producer_row: int  # the instances' rows in Statement.instances
    consumer_row: int


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


def buffer_rank(layout: BufferLayout, index) -> int:
    """Row-major rank of an element inside the hull box, zero-based."""
    if len(index) != len(layout.box):
        raise OutOfHull(f"index arity {len(index)} != box arity {len(layout.box)}")
    rank = 0
    for v, (lo, hi) in zip(index, layout.box):
        if not lo <= v <= hi:
            raise OutOfHull(f"index {tuple(index)} outside hull box {layout.box}")
        rank = rank * (hi - lo + 1) + (v - lo)
    return rank


@dataclass(frozen=True)
class Channel:
    cid: int
    family: str  # e.g. "flow:S2.2->S1.1:front", "pro:S1.1:front", "epi:S1.7:back"
    src: tuple
    dst: tuple
    tag: int
    layout: BufferLayout
    element_type: str

    @property
    def loopback(self) -> bool:
        return self.src == self.dst


_PHASE = {"recv": 0, "send": 1, "recv_wait": 2, "send_wait": 3}


@dataclass(slots=True)
class Event:
    node: tuple
    scatter: tuple
    kind: str  # compute | send_wait | send | recv_wait | recv | buffer_fill | buffer_drain
    stmt: str = ""
    instance: tuple = ()
    read_from: Optional[tuple] = None  # (cid, rank) buffer read binding
    writes: tuple = ()  # ("storage",) and/or ("buffer", cid, rank) entries
    chunk: str = ""
    cid: int = -1
    element: tuple = ()  # for fill/drain events
    rank: int = -1

    def sort_key(self):
        return (self.scatter, _PHASE.get(self.kind, 4), self.cid, self.rank, self.stmt, self.instance)


@dataclass
class CommPlan:
    name: str
    grid: tuple
    scatter_arity: int
    fields: tuple  # (name, element_type, extents)
    block_extents: dict
    channels: list
    events: dict  # node -> sorted list[Event]


# ---------------------------------------------------------------------------
# Transfers


def _family_key(fam: FlowFamily) -> str:
    if fam.producer == PROLOGUE:
        return f"pro:{fam.consumer}:{fam.ref}"
    if fam.consumer == EPILOGUE:
        return f"epi:{fam.producer}:{fam.ref}"
    return f"flow:{fam.producer}->{fam.consumer}:{fam.ref}"


def build_transfers(dep: DepGraph, sp: StmtPlacement, fp: FieldPlacement, chunkings: dict) -> dict:
    """Resolved transfer tuples per family key.

    Every (producer execution, consumer execution, element) pair of a
    family is resolved once per consumer node: the producer node is the
    consumer's own node when the producer runs there, else the smallest
    node the producer runs on.  For the virtual prologue the producer
    nodes are the element's homes; for the virtual epilogue the consumer
    nodes are.  Nodes are looked up by instance row, element homes and
    chunk representatives are taken column-wise from the family table.
    """
    nodes = {s.id: [sp.table[s.id].get(p, []) for p in s.rows] for s in dep.scop.statements}
    out: dict = {}
    for fam, (prod_rows, cons_rows) in zip(dep.families, dep.pair_rows):
        if fam.kind != "field":
            continue
        key = _family_key(fam)
        phi = chunkings.get((fam.producer, fam.consumer, fam.ref))
        single_chunk = fam.producer == PROLOGUE or fam.consumer == EPILOGUE
        if phi is None and not single_chunk:
            raise AnalysisError(f"no chunking function for family {key}")
        pairs, prod_rows, cons_rows = fam.pairs(), prod_rows.tolist(), cons_rows.tolist()
        if single_chunk:
            homes = [[block_home(k, fp.block_extents[fam.ref])] for _, _, k in pairs]
            reps = [()] * len(pairs)
        else:
            reps = map(tuple, phi.apply_rows(fam.table[:, fam.n_prod : fam.n_prod + fam.n_cons]).tolist())
        prod = homes if fam.producer == PROLOGUE else [nodes[fam.producer][r] for r in prod_rows]
        cons = homes if fam.consumer == EPILOGUE else [nodes[fam.consumer][r] for r in cons_rows]
        out[key] = [
            TransferTuple(rep, fam.producer, ig, pc if pc in pn else pn[0], fam.consumer, ic, pc,
                          fam.ref, k, rg, rc)
            for (ig, ic, k), pn, cn, rep, rg, rc in zip(pairs, prod, cons, reps, prod_rows, cons_rows)
            for pc in cn
        ]
    return out


def group_chunks(transfers: dict) -> dict:
    """family key -> representative -> transfer list, representatives sorted."""
    out: dict = {}
    for key, tuples in transfers.items():
        chunks: dict = {}
        for t in tuples:
            chunks.setdefault(t.representative, []).append(t)
        out[key] = dict(sorted(chunks.items()))
    return out


# ---------------------------------------------------------------------------
# Protocol emission


def _offset_last(t: tuple, delta: int) -> tuple:
    return t[:-1] + (t[-1] + delta,)


def emit_protocol(
    scop: Scop,
    dep: DepGraph,
    fp: FieldPlacement,
    sp: StmtPlacement,
    chunked: dict,
) -> CommPlan:
    """Assemble the per-node event lists from grouped transfers; scatters
    and buffer bindings go by instance row."""
    dilated = {s.id: [tuple(2 * v for v in sc) for sc in s.scatters] for s in scop.statements}

    # one channel per (family, src, dst) in order of first appearance, its
    # transfers grouped by chunk representative
    by_channel: dict = {}
    for key, chunks in chunked.items():
        for rep, tuples in chunks.items():
            for t in tuples:
                ck = (key, t.producer_node, t.consumer_node)
                by_channel.setdefault(ck, {}).setdefault(rep, []).append(t)

    channels: list = []
    read_bindings: dict = {}  # (consumer, row, node) -> (cid, rank)
    write_bindings: dict = {}  # (producer, row, node) -> [(cid, rank)]
    events: dict = {}

    for cid, ((key, src, dst), chunks) in enumerate(by_channel.items()):
        first = next(iter(chunks.values()))[0]
        fills, drains = first.producer == PROLOGUE, first.consumer == EPILOGUE
        fld = scop.field(first.fieldname)
        elems = [t.element for group in chunks.values() for t in group]
        box = tuple((min(e[d] for e in elems), max(e[d] for e in elems)) for d in range(fld.arity))
        layout = BufferLayout(fieldname=fld.name, box=box)
        channels.append(Channel(cid=cid, family=key, src=src, dst=dst, tag=cid,
                                layout=layout, element_type=fld.element_type))
        at_src, at_dst = events.setdefault(src, []), events.setdefault(dst, [])
        prod_scatters, cons_scatters = dilated[first.producer], dilated[first.consumer]
        for rep, group in chunks.items():
            chunk = f"{key}@{_fmt_tuple(rep)}"
            ranked = sorted(((buffer_rank(layout, t.element), t) for t in group), key=itemgetter(0))
            prod = [prod_scatters[t.producer_row] for t in group]
            cons = [cons_scatters[t.consumer_row] for t in group]
            at_src.append(Event(src, _offset_last(min(prod), -1), "send_wait", chunk=chunk, cid=cid))
            at_src.append(Event(src, _offset_last(max(prod), +1), "send", chunk=chunk, cid=cid))
            at_dst.append(Event(dst, _offset_last(min(cons), -1), "recv_wait", chunk=chunk, cid=cid))
            at_dst.append(Event(dst, _offset_last(max(cons), +1), "recv", chunk=chunk, cid=cid))
            filled = set()
            for rank, t in ranked:
                if fills:
                    if rank not in filled:
                        filled.add(rank)
                        at_src.append(Event(src, prod[0], "buffer_fill", chunk=chunk, cid=cid,
                                            element=t.element, rank=rank))
                else:
                    wkey = (t.producer, t.producer_row, src)
                    write_bindings.setdefault(wkey, []).append((cid, rank))
                if drains:
                    at_dst.append(Event(dst, cons[0], "buffer_drain", chunk=chunk, cid=cid,
                                        element=t.element, rank=rank))
                else:
                    rkey = (t.consumer, t.consumer_row, dst)
                    if rkey in read_bindings:
                        raise AnalysisError(
                            f"double read binding for {(t.consumer, t.consumer_instance, dst)}")
                    read_bindings[rkey] = (cid, rank)

    # compute events for every execution of every real statement, row by row
    retained = {f.producer for f in dep.epilogue_families()}
    for s in scop.real_statements():
        placed = sp.table[s.id]
        reads = bool(s.reads())
        homes = None
        if s.id in retained:
            j, acc = s.writes()[0]
            homes = [block_home(k, fp.block_extents[acc.field]) for k in s.subscripts[j]]
        for row, (inst, scatter) in enumerate(zip(s.rows, dilated[s.id])):
            for node in placed.get(inst, ()):
                read_from = None
                if reads:
                    read_from = read_bindings.get((s.id, row, node))
                    if read_from is None:
                        raise AnalysisError(f"unbound read for {s.id}{inst} on {node}")
                writes = [("storage",)] if homes is not None and homes[row] == node else []
                bound = write_bindings.get((s.id, row, node))
                if bound:
                    writes += [("buffer", cid, rank) for cid, rank in sorted(set(bound))]
                events.setdefault(node, []).append(Event(
                    node, scatter, "compute", stmt=s.id, instance=inst, read_from=read_from,
                    writes=tuple(writes)))

    for evs in events.values():
        evs.sort(key=Event.sort_key)

    return CommPlan(
        name=scop.name,
        grid=scop.grid.extents,
        scatter_arity=scop.scatter_arity,
        fields=tuple((f.name, f.element_type, f.extents) for f in scop.fields),
        block_extents=dict(fp.block_extents),
        channels=channels,
        events={node: evs for node, evs in sorted(events.items())},
    )


def compile_plan(scop: Scop, dep: DepGraph, fp: FieldPlacement, sp: StmtPlacement, chunkings: dict) -> CommPlan:
    transfers = build_transfers(dep, sp, fp, chunkings)
    chunked = group_chunks(transfers)
    return emit_protocol(scop, dep, fp, sp, chunked)


# ---------------------------------------------------------------------------
# Plan text format


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


def _fmt_writes(writes) -> str:
    if not writes:
        return "none"
    parts = []
    for w in writes:
        if w[0] == "storage":
            parts.append("storage")
        else:
            parts.append(f"buf:{w[1]}@{w[2]}")
    return "+".join(parts)


def _parse_buffer_ref(text: str, channels: list) -> tuple:
    """(cid, rank) from ``buf:CID@RANK``; the slot must exist in a declared channel."""
    if not text.startswith("buf:"):
        raise ValueError(f"bad buffer reference {text!r}")
    cid, _, rank = text[len("buf:") :].partition("@")
    return _check_slot(channels, int(cid), int(rank))


def _check_slot(channels: list, cid: int, rank: int) -> tuple:
    if not 0 <= cid < len(channels):
        raise ValueError(f"unknown channel cid={cid}")
    size = channels[cid].layout.size
    if not 0 <= rank < size:
        raise ValueError(f"rank {rank} outside the {size}-slot buffer of channel {cid}")
    return cid, rank


def _parse_writes(text: str, channels: list):
    if text == "none":
        return ()
    out = []
    for part in text.split("+"):
        if part == "storage":
            out.append(("storage",))
        else:
            out.append(("buffer",) + _parse_buffer_ref(part, channels))
    return tuple(out)


def dump_plan(plan: CommPlan) -> str:
    fmt = lru_cache(maxsize=None)(_fmt_tuple)  # each distinct tuple formatted once
    lines = [f"plan {plan.name} grid={fmt(plan.grid)} scatter_arity={plan.scatter_arity}"]
    decls = [FieldDecl(name=n, element_type=t, extents=e) for n, t, e in plan.fields]
    homes = block_distribute(decls, ClusterGrid(plan.grid)).maps
    for name, etype, extents in plan.fields:
        block = plan.block_extents[name]
        lines.append(
            f"field {name} {etype} extents={_fmt_tuple(extents)} block={_fmt_tuple(block)}"
        )
        lines.append(f"fieldmap {name} {format_map(homes[name])}")
    ends = []  # per channel, the tail of its send and recv lines
    for ch in plan.channels:
        box = ";".join(f"{lo}:{hi}" for lo, hi in ch.layout.box)
        ends.append(f"src={fmt(ch.src)} dst={fmt(ch.dst)} tag={ch.tag} size={ch.layout.size}")
        lines.append(
            f"channel cid={ch.cid} family={ch.family} {ends[-1]} "
            f"elem={ch.element_type} box=[{box}]"
            + (" loopback" if ch.loopback else "")
        )
    for node in sorted(plan.events):
        at = f"node={fmt(node)} t="
        for ev in plan.events[node]:
            base = f"{at}{fmt(ev.scatter)} kind={ev.kind}"
            if ev.kind == "compute":
                read = "storage" if ev.read_from is None else f"buf:{ev.read_from[0]}@{ev.read_from[1]}"
                lines.append(
                    f"{base} stmt={ev.stmt} i={fmt(ev.instance)} "
                    f"read={read} write={_fmt_writes(ev.writes)}"
                )
            elif ev.kind in ("buffer_fill", "buffer_drain"):
                lines.append(
                    f"{base} chunk={ev.chunk} cid={ev.cid} elem={fmt(ev.element)} rank={ev.rank}"
                )
            else:
                lines.append(f"{base} chunk={ev.chunk} {ends[ev.cid]}")
    return "\n".join(lines) + "\n"


def parse_plan(text: str) -> CommPlan:
    """Rebuild a plan from its dump; the file is self-contained.

    The field placement is rebuilt by block distribution of each field's
    extents over the grid, and every ``block=`` and ``fieldmap`` entry must
    match it, so a parsed plan homes each element on exactly one node.
    Channels must be numbered in order and name a declared field, and every
    event's channel and buffer rank must exist.  Every event node and
    channel end must lie in the grid.  Malformed input raises ParseError
    with the 1-based line number."""
    numbered = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not numbered:
        raise ParseError("empty plan file", line=1)
    fields = []
    block_extents = {}
    homes = {}
    channels = []
    events: dict = {}
    cid_by_tag: dict = {}

    def on_grid(key: str, text: str) -> tuple:
        node = _parse_tuple(text)
        if len(node) != len(grid.extents) or not all(
            0 <= v < e for v, e in zip(node, grid.extents)
        ):
            raise ValueError(f"{key}={_fmt_tuple(node)} outside grid {_fmt_tuple(grid.extents)}")
        return node

    for i, (no, ln) in enumerate(numbered):
        parts = ln.split()
        kv = dict(p.split("=", 1) for p in parts[1:] if "=" in p)
        try:
            if i == 0:
                if parts[0] != "plan":
                    raise ParseError(f"not a plan file: {ln!r}", line=no)
                name = parts[1]
                grid = ClusterGrid(_parse_tuple(kv["grid"]))
                scatter_arity = int(kv["scatter_arity"])
            elif parts[0] == "field":
                decl = FieldDecl(name=parts[1], element_type=parts[2],
                                 extents=_parse_tuple(kv["extents"]))
                fp = block_distribute([decl], grid)
                block = _parse_tuple(kv["block"])
                if block != fp.block_extents[decl.name]:
                    raise ParseError(
                        f"field {decl.name}: block={_fmt_tuple(block)} differs from "
                        f"block distribution over grid {_fmt_tuple(grid.extents)}",
                        line=no,
                    )
                fields.append((decl.name, decl.element_type, decl.extents))
                block_extents.update(fp.block_extents)
                homes.update(fp.maps)
            elif parts[0] == "fieldmap":
                if parts[1] not in homes:
                    raise ParseError(f"fieldmap for undeclared field {parts[1]}", line=no)
                if ln.split(None, 2)[2] != format_map(homes[parts[1]]):
                    raise ParseError(
                        f"fieldmap {parts[1]} differs from block distribution over "
                        f"grid {_fmt_tuple(grid.extents)}",
                        line=no,
                    )
            elif parts[0] == "channel":
                box_text = kv["box"][1:-1]
                box = tuple(
                    (int(a), int(b)) for a, b in (seg.split(":") for seg in box_text.split(";"))
                ) if box_text else ()
                cid = int(kv["cid"])
                if cid != len(channels):
                    raise ParseError(f"channel cid={cid} out of order, expected {len(channels)}",
                                     line=no)
                fieldname = kv["family"].rsplit(":", 1)[-1]
                if fieldname not in block_extents:
                    raise ParseError(f"channel for undeclared field {fieldname}", line=no)
                ch = Channel(
                    cid=cid,
                    family=kv["family"],
                    src=on_grid("src", kv["src"]),
                    dst=on_grid("dst", kv["dst"]),
                    tag=int(kv["tag"]),
                    layout=BufferLayout(fieldname=fieldname, box=box),
                    element_type=kv["elem"],
                )
                channels.append(ch)
                cid_by_tag[ch.tag] = ch.cid
            elif parts[0].startswith("node="):
                node = on_grid("node", parts[0].split("=", 1)[1])
                scatter = _parse_tuple(kv["t"])
                kind = kv["kind"]
                if kind == "compute":
                    read = None
                    if kv["read"] != "storage":
                        read = _parse_buffer_ref(kv["read"], channels)
                    ev = Event(node=node, scatter=scatter, kind=kind, stmt=kv["stmt"],
                               instance=_parse_tuple(kv["i"]), read_from=read,
                               writes=_parse_writes(kv["write"], channels))
                elif kind in ("buffer_fill", "buffer_drain"):
                    cid, rank = _check_slot(channels, int(kv["cid"]), int(kv["rank"]))
                    ev = Event(node=node, scatter=scatter, kind=kind, chunk=kv["chunk"],
                               cid=cid, element=_parse_tuple(kv["elem"]), rank=rank)
                else:
                    tag = int(kv["tag"])
                    if tag not in cid_by_tag:
                        raise ParseError(f"unknown tag {tag}", line=no)
                    ev = Event(node=node, scatter=scatter, kind=kind, chunk=kv["chunk"],
                               cid=cid_by_tag[tag])
                events.setdefault(node, []).append(ev)
            else:
                raise ParseError(f"unknown plan line {ln!r}", line=no)
        except KeyError as e:
            raise ParseError(f"missing {e.args[0]}=", line=no) from None
        except IndexError:
            raise ParseError(f"incomplete line {ln!r}", line=no) from None
        except (ValueError, ValidationError) as e:
            raise ParseError(str(e), line=no) from None
    return CommPlan(
        name=name,
        grid=grid.extents,
        scatter_arity=scatter_arity,
        fields=tuple(fields),
        block_extents=block_extents,
        channels=channels,
        events={node: evs for node, evs in sorted(events.items())},
    )
