import json
import re

import numpy as np
import pytest

from oracle import (
    OutOfHull,
    block_home,
    block_sizes,
    buffer_rank,
    contents_equal,
    event_key,
    expand_plan,
    search_only,
    stmt_nodes,
)
from polydist.chunking import chunk_all
from polydist.commgen import (
    BufferLayout,
    _family_key,
    build_transfers,
    compile_plan,
    dump_plan,
    group_chunks,
    parse_plan,
)
from polydist.deps import EPILOGUE, PROLOGUE, add_virtual_statements, compute_flow
from polydist import isets
from polydist.errors import AnalysisError, ParseError
from polydist.fields import random_contents
from polydist.isets import (
    AffineExpr,
    IntSet,
    Space,
    embed_pieces,
    enumerate_set,
    eq0,
    is_empty,
    project_pieces,
    select_lex_extreme,
    subtract,
    union,
)
from polydist.pipeline import override_grid, plan_scop
from polydist.placement import Placement, block_distribute, place_statements
from polydist.scop import isolate_accesses, sequential_execute
from polydist.scopio import parse_scop, parse_scop_file
from polydist.simrt import init_runtime, run
from polydist.syntax import parse_map


@pytest.fixture(scope="module")
def gol16_ctx(gol16_path):
    scop = parse_scop_file(gol16_path)
    virt = add_virtual_statements(isolate_accesses(scop))
    dep = compute_flow(virt)
    fp = block_distribute(virt.fields, virt.grid)
    sp = place_statements(virt, dep, fp)
    chunks = chunk_all(dep)
    transfers = build_transfers(dep, sp, fp, chunks)
    return scop, virt, dep, fp, sp, chunks, transfers


def transferred_families(dep):
    """The field families build_transfers resolves: all but the epilogue's."""
    return [fam for fam in dep.field_families() if fam.consumer != EPILOGUE]


def brute_force_transfers(dep, sp):
    """Pointwise oracle for the resolved transfer relation: for every flow
    pair and consumer execution, the producer node is the consumer's node
    when the producer executed there, else the smallest producer node."""
    out = {}
    for fam in transferred_families(dep):
        key = (fam.producer, fam.consumer, fam.ref)
        blocks = block_sizes(dep.scop.field(fam.ref).extents, dep.scop.grid.extents)
        rows = set()
        for ig, ic, k in fam.pairs():
            if fam.producer == PROLOGUE:
                prod_nodes = [block_home(k, blocks)]
            else:
                prod_nodes = stmt_nodes(sp, fam.producer, ig)
            for pc in stmt_nodes(sp, fam.consumer, ic):
                pg = pc if pc in prod_nodes else min(prod_nodes)
                rows.add((ig, pg, ic, pc, k))
        out[key] = rows
    return out


def exec_relation(fam, sp, fp) -> IntSet:
    """Relation over (i_G ++ i_C ++ k ++ p_C ++ p_G) of candidate transfers.

    For the virtual prologue the producer executions are the element's
    homes."""
    n_g, n_c, n_k = fam.n_prod, fam.n_cons, fam.n_elem
    prod_by_element = fam.producer == PROLOGUE
    prod_rel = fp.maps[fam.ref] if prod_by_element else sp.maps[fam.producer]
    cons_rel = sp.maps[fam.consumer]
    n_p = prod_rel.n_out
    arity = n_g + n_c + n_k + 2 * n_p
    k_dims = [n_g + n_c + i for i in range(n_k)]
    pc_dims = [n_g + n_c + n_k + i for i in range(n_p)]
    pg_dims = [n_g + n_c + n_k + n_p + i for i in range(n_p)]
    pieces = embed_pieces(fam.rel.pieces, list(range(n_g + n_c + n_k)), arity)
    cmap = [n_g + i for i in range(n_c)] + pc_dims
    gmap = (k_dims if prod_by_element else list(range(n_g))) + pg_dims
    cons_pieces = embed_pieces(cons_rel.pieces, cmap, arity)
    prod_pieces = embed_pieces(prod_rel.pieces, gmap, arity)
    combined = [a + b + c for a in pieces for b in cons_pieces for c in prod_pieces]
    space = Space(f"T:{_family_key(fam)}", tuple(f"d{i}" for i in range(arity)))
    return IntSet.make(space, combined)


def select_producer_node(t: IntSet, n_p: int) -> IntSet:
    """The selection rule on sets: keep the producer on the consumer's node
    when present, else the lexmin producer node."""
    arity = t.arity
    pg_base = arity - n_p
    pc_base = pg_base - n_p
    same_cons = tuple(
        eq0(AffineExpr.var(arity, pc_base + d) - AffineExpr.var(arity, pg_base + d))
        for d in range(n_p)
    )
    t_same = IntSet.make(t.space, [p + same_cons for p in t.pieces])
    if is_empty(t_same):
        rest = t
    else:
        covered = project_pieces(arity, t_same.pieces, list(range(pg_base, arity)))
        covered_w = embed_pieces(covered, list(range(pg_base)), arity)
        rest = subtract(t, IntSet.make(t.space, covered_w))
    if is_empty(rest):
        return t_same
    return union(t_same, select_lex_extreme(rest, pg_base, maximize=False))


def assert_symbolic_selection(dep, sp, fp, transfers, n_p):
    """The selection rule solved on sets picks exactly the resolved tuples."""
    for fam in transferred_families(dep):
        selected = select_producer_node(exec_relation(fam, sp, fp), n_p)
        got = {
            t.producer_instance + t.consumer_instance + t.element + t.consumer_node + t.producer_node
            for t in transfers[_family_key(fam)]
        }
        assert set(enumerate_set(selected)) == got, _family_key(fam)


def test_symbolic_selection_matches_transfers(gol16_ctx):
    scop, virt, dep, fp, sp, chunks, transfers = gol16_ctx
    assert_symbolic_selection(dep, sp, fp, transfers, virt.grid.arity)


def test_transfers_match_pointwise_oracle(gol16_ctx):
    scop, virt, dep, fp, sp, chunks, transfers = gol16_ctx
    oracle = brute_force_transfers(dep, sp)

    for fam in transferred_families(dep):
        got = {
            (t.producer_instance, t.producer_node, t.consumer_instance, t.consumer_node, t.element)
            for t in transfers[_family_key(fam)]
        }
        assert got == oracle[(fam.producer, fam.consumer, fam.ref)], fam.producer


def test_source_uniqueness(gol16_ctx):
    *_, transfers = gol16_ctx
    for key, tuples in transfers.items():
        seen = {}
        for t in tuples:
            k = (t.consumer, t.consumer_instance, t.consumer_node, t.fieldname, t.element)
            assert seen.setdefault(k, (t.producer_instance, t.producer_node)) == (
                t.producer_instance,
                t.producer_node,
            ), f"two producers for {k}"


def test_boundary_transfer_structure(gol16_ctx):
    scop, virt, dep, fp, sp, chunks, transfers = gol16_ctx
    tuples = transfers["flow:S2.2->S1.1:front"]
    cross = [t for t in tuples if t.producer_node != t.consumer_node]
    assert cross, "stencil family must cross the node boundary"
    for t in cross:
        a, b = t.consumer_node
        assert t.producer_node == (a - 1, b)
        assert t.element[0] == 8 * a - 1  # the transferred column w = 8a - 1
    same = [t for t in tuples if t.producer_node == t.consumer_node]
    assert same, "interior transfers stay on-node"


def test_group_chunks_per_iteration(gol16_ctx):
    scop, virt, dep, fp, sp, chunks, transfers = gol16_ctx
    grouped = group_chunks(transfers)
    fam = grouped["flow:S2.2->S1.1:front"]
    assert sorted({t.representative for t in fam}) == [(1, 0, 0), (2, 0, 0)]  # iterations - 1 chunks
    assert (np.diff(fam.chunk) >= 0).all()  # by chunk
    pro = grouped["pro:S1.1:front"]
    assert sorted({t.representative for t in pro}) == [()]  # single chunk


def test_group_chunks_trivial_cases(gol16_ctx):
    empty = gol16_ctx[-1]["pro:S1.1:front"].take(np.zeros(0, dtype=np.intp))
    assert group_chunks({}) == {}
    grouped = group_chunks({"f": empty})
    assert list(grouped) == ["f"] and len(grouped["f"]) == 0


def test_boundary_buffer_size_seven(gol16_ctx):
    scop, virt, dep, fp, sp, chunks, transfers = gol16_ctx
    plan = compile_plan(virt, dep, fp, sp, chunks)
    sizes = {
        (ch.src, ch.dst): ch.layout.size
        for ch in plan.channels
        if ch.family == "flow:S2.2->S1.1:front" and not ch.loopback
    }
    assert sizes == {((0, 0), (1, 0)): 7, ((0, 1), (1, 1)): 7}


@pytest.fixture
def multi_ctx():
    """A 2-node synthetic and three placements of its one DepGraph: the
    computed one, one executing producer G redundantly on both nodes and
    one executing G on the node that does not home its element."""
    doc = {
        "name": "multi",
        "grid": [2],
        "scatter_arity": 3,
        "fields": [{"name": "a", "type": "int64", "extents": [8]},
                   {"name": "b", "type": "int64", "extents": [8]}],
        "functions": {},
        "statements": [
            {
                "id": "G",
                "domain": "{ [x] : 0 <= x < 8 }",
                "schedule": "{ [x] -> [0,x,0] }",
                "accesses": [{"field": "a", "kind": "write", "index": ["x"]}],
                "body": ["int", 1],
            },
            {
                "id": "C",
                "domain": "{ [x] : 0 <= x < 8 }",
                "schedule": "{ [x] -> [1,x,0] }",
                "accesses": [{"field": "a", "kind": "read", "index": ["x"]}],
                "body": ["access", 0],
                "scalar_writes": ["v"],
            },
            {
                "id": "W",
                "domain": "{ [x] : 0 <= x < 8 }",
                "schedule": "{ [x] -> [2,x,0] }",
                "accesses": [{"field": "b", "kind": "write", "index": ["x"]}],
                "body": ["var", "v"],
                "scalar_reads": ["v"],
            },
        ],
    }
    scop = parse_scop(json.dumps(doc))
    virt = add_virtual_statements(isolate_accesses(scop))
    dep = compute_flow(virt)
    fp = block_distribute(virt.fields, virt.grid)
    sp = place_statements(virt, dep, fp)
    g, grid = virt.statement("G"), virt.grid.space
    both = parse_map("{ [x] -> [p] : 0 <= x < 8 and 0 <= p < 2 }", dom=g.space, ran=grid)
    away = parse_map("{ [x] -> [1 - floor(x/4)] : 0 <= x < 8 }", dom=g.space, ran=grid)
    placements = {
        "computed": sp,
        "redundant": Placement(maps={**sp.maps, "G": both}),
        "away": Placement(maps={**sp.maps, "G": away}),
    }
    return virt, dep, fp, placements, chunk_all(dep)


def test_multi_home_producer_prefers_consumer_node(multi_ctx):
    # with G on both nodes, the transfer must pick the copy on the consumer's node
    virt, dep, fp, placements, chunks = multi_ctx
    redundant = placements["redundant"]
    transfers = build_transfers(dep, redundant, fp, chunks)
    fam = transfers["flow:G->C:a"]
    assert fam, "flow family missing"
    for t in fam:
        assert t.producer_node == t.consumer_node  # redundant copy selected
    assert_symbolic_selection(dep, redundant, fp, transfers, virt.grid.arity)


def test_placements_of_one_depgraph_resolve_separately(multi_ctx):
    # each placement of the same DepGraph resolves transfers from its own
    # nodes, whichever placement was resolved before it
    virt, dep, fp, placements, chunks = multi_ctx
    producers = {}
    for name in ("computed", "away", "redundant", "computed"):
        sp = placements[name]
        transfers = build_transfers(dep, sp, fp, chunks)
        for t in transfers["flow:G->C:a"]:
            assert t.consumer_node in stmt_nodes(sp, "C", t.consumer_instance), name
            prod_nodes = stmt_nodes(sp, "G", t.producer_instance)
            pc = t.consumer_node
            assert t.producer_node == (pc if pc in prod_nodes else min(prod_nodes)), name
        producers[name] = {(t.producer_instance, t.producer_node) for t in transfers["flow:G->C:a"]}
    assert len({frozenset(v) for v in producers.values()}) == 3


def test_epilogue_transfer_between_nodes_rejected(multi_ctx):
    # G writes a's final values away from their homes: the final contents
    # would have to travel, which the plan has no events for
    virt, dep, fp, placements, chunks = multi_ctx
    with pytest.raises(AnalysisError, match=r"^epilogue family epi:G:a has a transfer between nodes$"):
        compile_plan(virt, dep, fp, placements["away"], chunks)


def test_buffer_rank_examples():
    # full-scale boundary column with 128-blocks: rank(w, h) = h - 128*b
    layout = BufferLayout(fieldname="f", box=((255, 255), (256, 383)))
    assert buffer_rank(layout, (255, 300)) == 44
    small = BufferLayout(fieldname="f", box=((7, 7), (8, 14)))
    assert buffer_rank(small, (7, 9)) == 1
    single = BufferLayout(fieldname="f", box=((3, 3), (5, 5)))
    assert buffer_rank(single, (3, 5)) == 0
    with pytest.raises(OutOfHull):
        buffer_rank(small, (7, 15))
    with pytest.raises(OutOfHull):
        buffer_rank(small, (6, 9))


def test_rank_bijective_on_chunk_elements(gol16_ctx):
    # every transfer between nodes has its channel, whose ranks are one to
    # one on each chunk's elements; transfers within a node have none
    scop, virt, dep, fp, sp, chunks, transfers = gol16_ctx
    plan = compile_plan(virt, dep, fp, sp, chunks)
    grouped = group_chunks(transfers)
    by_key = {}
    for ch in plan.channels:
        by_key[(ch.family, ch.src, ch.dst)] = ch
    for key, ts in grouped.items():
        per_chunk = {}
        for t in ts:
            per_chunk.setdefault(t.representative, {}).setdefault(
                (t.producer_node, t.consumer_node), set()).add(t.element)
        for per_pair in per_chunk.values():
            for (src, dst), elems in per_pair.items():
                if src == dst:
                    assert (key, src, dst) not in by_key
                    continue
                ch = by_key[(key, src, dst)]
                ranks = {buffer_rank(ch.layout, e) for e in elems}
                assert len(ranks) == len(elems)
                assert all(0 <= r < ch.layout.size for r in ranks)


def test_conservation_send_equals_recv(gol16_ctx):
    # per chunk and channel, the element set written equals the set read
    scop, virt, dep, fp, sp, chunks, transfers = gol16_ctx
    grouped = group_chunks(transfers)
    for key, ts in grouped.items():
        per_chunk = {}
        for t in ts:
            per_pair = per_chunk.setdefault(t.representative, {})
            per_pair.setdefault((t.producer_node, t.consumer_node), ([], []))
            per_pair[(t.producer_node, t.consumer_node)][0].append(t.element)
            per_pair[(t.producer_node, t.consumer_node)][1].append(t.element)
        for per_pair in per_chunk.values():
            for (src, dst), (sent, recvd) in per_pair.items():
                assert set(sent) == set(recvd)


def test_protocol_event_order(gol16_ctx):
    scop, virt, dep, fp, sp, chunks, transfers = gol16_ctx
    plan = compile_plan(virt, dep, fp, sp, chunks)
    # per chunk and channel: send_wait < writes < send; recv_wait < reads < recv
    per_chunk = {}
    for node, evs in plan.events.items():
        for pos, ev in enumerate(evs):
            if ev.kind in ("send_wait", "send", "recv_wait", "recv"):
                per_chunk.setdefault((ev.chunk, ev.cid), {})[ev.kind] = ev.scatter
    assert per_chunk
    for (chunk, cid), kinds in per_chunk.items():
        assert set(kinds) == {"send_wait", "send", "recv_wait", "recv"}
        assert kinds["send_wait"] < kinds["send"]
        assert kinds["recv_wait"] < kinds["recv"]
        assert kinds["send_wait"] < kinds["recv"]


@pytest.mark.parametrize("which", ["gol16", "loopback"])
def test_storage_writes_exactly_where_homed(gol16_ctx, which):
    # every execution stores the element it writes exactly when its node
    # homes that element, so the simulator ends with the sequential
    # contents; LOOPBACK runs G(x) on the node that does not home a[x] too,
    # and that execution must not store
    if which == "gol16":
        scop, virt, dep, fp, sp, chunks, transfers = gol16_ctx
        plan = compile_plan(virt, dep, fp, sp, chunks)
    else:
        analysis, plan = plan_scop(parse_scop(json.dumps(LOOPBACK)))
        virt, fp = analysis.scop, analysis.field_placement
    position = {c: p for p, c in enumerate(virt.grid.nodes)}
    home = {s.id: fp.homes(acc.field, s.subscripts[j], virt.grid)
            for s in virt.real_statements() for j, acc in s.writes()}
    rows = {s.id: {p: r for r, p in enumerate(map(tuple, s.instances.tolist()))} for s in virt.real_statements()}
    seen = set()
    for node, steps in expand_plan(plan, virt).items():
        for st in (st for st in steps if st.kind == "compute"):
            seen.add((st.stmt in home, st.stmt in home and home[st.stmt][rows[st.stmt][st.instance]] == position[node]))
    assert (True, True) in seen
    assert which == "gol16" or (True, False) in seen
    source = scop if which == "gol16" else parse_scop(json.dumps(LOOPBACK))
    init = random_contents(source, 4)
    final, _ = run(init_runtime(plan, virt.grid, init), virt)
    assert all(np.array_equal(final[k], v) for k, v in sequential_execute(source, init).items())


# Undilated, G's send lands one step after G's last execution, exactly
# where H's first execution sits on the same node.  C runs at the home of
# the b element it writes, the other node, so a crosses nodes.
COLLIDE = {
    "name": "collide",
    "grid": [2],
    "scatter_arity": 2,
    "fields": [{"name": "a", "type": "int64", "extents": [8]},
               {"name": "b", "type": "int64", "extents": [8]}],
    "functions": {},
    "statements": [
        {
            "id": "G",
            "domain": "{ [x] : 0 <= x < 4 }",
            "schedule": "{ [x] -> [0,x] }",
            "accesses": [{"field": "a", "kind": "write", "index": ["x"]}],
            "body": ["int", 1],
        },
        {
            "id": "H",
            "domain": "{ [x] : 0 <= x < 4 }",
            "schedule": "{ [x] -> [0,x+4] }",
            "accesses": [{"field": "b", "kind": "write", "index": ["x"]}],
            "body": ["int", 2],
        },
        {
            "id": "C",
            "domain": "{ [x] : 0 <= x < 4 }",
            "schedule": "{ [x] -> [1,x] }",
            "accesses": [{"field": "a", "kind": "read", "index": ["x"]},
                         {"field": "b", "kind": "write", "index": ["x+4"]}],
            "body": ["access", 0],
        },
    ],
}

CHANNEL_CALLS = ("send_wait", "send", "recv_wait", "recv")


@pytest.mark.parametrize("source", ["collide", "gol16", "gol16_fused"])
def test_channel_calls_on_odd_scatters(scops_dir, source):
    # statement scatters are dilated to even last coordinates and every
    # channel call sits one step off one, so the two can never collide
    if source == "collide":
        # planned without isolation, which would append a constant scatter
        # coordinate; C's one read feeds its one write
        virt = add_virtual_statements(parse_scop(json.dumps(COLLIDE)))
        dep = compute_flow(virt)
        fp = block_distribute(virt.fields, virt.grid)
        plan = compile_plan(virt, dep, fp, place_statements(virt, dep, fp), chunk_all(dep))
    else:
        _, plan = plan_scop(override_grid(parse_scop_file(scops_dir / f"{source}.scop"), (2, 2)))
    calls = 0
    for node, evs in plan.events.items():
        computes = {ev.scatter for ev in evs if ev.kind == "compute"}
        for ev in evs:
            if ev.kind == "compute":
                assert ev.scatter[-1] % 2 == 0, (node, ev)
            elif ev.kind in CHANNEL_CALLS:
                calls += 1
                assert ev.scatter[-1] % 2 == 1, (node, ev)
                assert ev.scatter not in computes, (node, ev)
    assert calls


# C(x) writes b[7-x], homed on the other node than a[x], and reads G(x)'s
# scalar, so G(x) runs on both nodes: G's value of a[x] stays on C's node,
# which does not home it.
LOOPBACK = {
    "name": "loopback",
    "grid": [2],
    "scatter_arity": 2,
    "fields": [{"name": name, "type": "int64", "extents": [8]} for name in "abc"],
    "functions": {},
    "statements": [
        {
            "id": "G",
            "domain": "{ [x] : 0 <= x < 8 }",
            "schedule": "{ [x] -> [x,0] }",
            "accesses": [{"field": "c", "kind": "read", "index": ["x"]},
                         {"field": "a", "kind": "write", "index": ["x"]}],
            "body": ["access", 0],
            "scalar_writes": ["s"],
        },
        {
            "id": "C",
            "domain": "{ [x] : 0 <= x < 8 }",
            "schedule": "{ [x] -> [x,1] }",
            "accesses": [{"field": "a", "kind": "read", "index": ["x"]},
                         {"field": "b", "kind": "write", "index": ["7-x"]}],
            "body": ["if", ["eq", ["var", "s"], ["access", 0]], ["access", 0], ["int", 0]],
            "scalar_reads": ["s"],
        },
    ],
}


def test_loopback_channels_marked():
    # a value that stays on a node which does not home its element keeps a
    # channel from that node to itself, and the plan still verifies
    scop = parse_scop(json.dumps(LOOPBACK))
    analysis, plan = plan_scop(scop)
    loop = {(ch.family, ch.src) for ch in plan.channels if ch.loopback}
    assert loop == {("flow:G.2->C.1:a", (0,)), ("flow:G.2->C.1:a", (1,))}
    assert all(ch.src != ch.dst for ch in plan.channels if not ch.loopback)
    init = random_contents(scop, 3)
    final, _ = run(init_runtime(plan, analysis.scop.grid, init), analysis.scop)
    assert contents_equal(final, sequential_execute(scop, init))


def test_plan_dump_roundtrip(gol16_ctx):
    scop, virt, dep, fp, sp, chunks, transfers = gol16_ctx
    plan = compile_plan(virt, dep, fp, sp, chunks)
    text = dump_plan(plan)
    again = parse_plan(text)
    assert dump_plan(again) == text


def test_plan_dump_deterministic(gol16_ctx):
    scop, virt, dep, fp, sp, chunks, transfers = gol16_ctx
    a = dump_plan(compile_plan(virt, dep, fp, sp, chunks))
    b = dump_plan(compile_plan(virt, dep, fp, sp, chunks))
    assert a == b


@pytest.fixture(scope="module")
def gol16_plan_text(gol16_ctx):
    scop, virt, dep, fp, sp, chunks, transfers = gol16_ctx
    return dump_plan(compile_plan(virt, dep, fp, sp, chunks))


# case -> (line to edit, edit, expected message)
MALFORMED_PLANS = {
    "unknown_line": (
        lambda ln: ln.startswith("channel"),
        lambda ln: "chanel" + ln[len("channel"):],
        "unknown plan line",
    ),
    "bad_tuple": (
        lambda ln: ln.startswith("plan"),
        lambda ln: ln.replace("grid=(2,2)", "grid=(2;2)"),
        "bad tuple '(2;2)'",
    ),
    "missing_key": (
        lambda ln: " kind=send " in ln,
        lambda ln: re.sub(r" cid=\d+", "", ln),
        "missing cid=",
    ),
    "unknown_tag": (
        lambda ln: " kind=send " in ln,
        lambda ln: re.sub(r" cid=\d+", " cid=9999", ln),
        "unknown channel cid=9999",
    ),
    "dangling_fill_cid": (
        lambda ln: " kind=buffer_fill " in ln,
        lambda ln: re.sub(r" cid=\d+", " cid=9999", ln),
        "unknown channel cid=9999",
    ),
    "dangling_fill_rank": (
        lambda ln: " kind=buffer_fill " in ln,
        lambda ln: re.sub(r" rank=\d+", " rank=99999", ln),
        "rank 99999 outside",
    ),
    "dangling_read": (
        lambda ln: " read=buf:" in ln,
        lambda ln: re.sub(r" read=buf:\d+@", " read=buf:9999@", ln),
        "unknown channel cid=9999",
    ),
    "dangling_write": (
        lambda ln: "+buf:" in ln,
        lambda ln: re.sub(r"\+buf:\d+@\d+", "+buf:0@99999", ln, count=1),
        "rank 99999 outside",
    ),
    "event_off_grid": (
        lambda ln: " kind=compute " in ln,
        lambda ln: re.sub(r"^node=\(\d+,\d+\)", "node=(5,5)", ln),
        "node=(5,5) outside grid (2,2)",
    ),
    "channel_src_off_grid": (
        lambda ln: ln.startswith("channel"),
        lambda ln: re.sub(r" src=\(\d+,\d+\)", " src=(2,0)", ln),
        "src=(2,0) outside grid (2,2)",
    ),
    "channel_dst_off_grid": (
        lambda ln: ln.startswith("channel"),
        lambda ln: re.sub(r" dst=\(\d+,\d+\)", " dst=(0,0,0)", ln),
        "dst=(0,0,0) outside grid (2,2)",
    ),
    "field_declared_twice": (
        lambda ln: ln.startswith("field back"),
        lambda ln: "field front int64 extents=(16,16)",
        "field front declared twice",
    ),
    "fill_elem_short": (
        lambda ln: " kind=buffer_fill " in ln,
        lambda ln: re.sub(r" elem=\(\d+,\d+\)", " elem=(3)", ln),
        "elem=(3) outside field front (16,16)",
    ),
    "fill_elem_long": (
        lambda ln: " kind=buffer_fill " in ln,
        lambda ln: re.sub(r" elem=\(\d+,\d+\)", " elem=(3,3,3)", ln),
        "elem=(3,3,3) outside field front (16,16)",
    ),
    "fill_elem_off_field": (
        lambda ln: " kind=buffer_fill " in ln,
        lambda ln: re.sub(r" elem=\(\d+,\d+\)", " elem=(-1,0)", ln),
        "elem=(-1,0) outside field front (16,16)",
    ),
    "compute_t_short": (
        lambda ln: " kind=compute " in ln,
        lambda ln: re.sub(r" t=\([-\d,]+\)", " t=(0)", ln),
        "t=(0) has 1 entries, scatter_arity is 8",
    ),
    "channel_box_arity": (
        lambda ln: ln.startswith("channel"),
        lambda ln: re.sub(r" box=\[[^]]*\]", " box=[1:7]", ln),
        "channel cid=0 box has 1 dims, field front has 2",
    ),
    "channel_box_reversed": (
        lambda ln: ln.startswith("channel"),
        lambda ln: re.sub(r" box=\[[^]]*\]", " box=[7:7;7:1]", ln),
        "channel cid=0 box=[7:7;7:1] is reversed or outside field front (16,16)",
    ),
    "channel_box_off_field": (
        lambda ln: ln.startswith("channel"),
        lambda ln: re.sub(r" box=\[[^]]*\]", " box=[70:70;1:7]", ln),
        "channel cid=0 box=[70:70;1:7] is reversed or outside field front (16,16)",
    ),
    # channel 0 runs from (0,0) to (1,0), channel 1 from (0,1) to (1,1), and
    # channel 8 carries prologue values from (0,0) to (1,0)
    "send_off_src": (
        lambda ln: " kind=send " in ln and ln.endswith(" cid=0"),
        lambda ln: ln.replace("node=(0,0)", "node=(1,1)"),
        "send on node (1, 1) uses channel 0, which runs from (0, 0) to (1, 0)",
    ),
    "send_wait_off_src": (
        lambda ln: " kind=send_wait " in ln and ln.endswith(" cid=0"),
        lambda ln: ln.replace("node=(0,0)", "node=(0,1)"),
        "send_wait on node (0, 1) uses channel 0, which runs from (0, 0) to (1, 0)",
    ),
    "recv_off_dst": (
        lambda ln: " kind=recv " in ln and ln.endswith(" cid=0"),
        lambda ln: ln.replace("node=(1,0)", "node=(1,1)"),
        "recv on node (1, 1) uses channel 0, which runs from (0, 0) to (1, 0)",
    ),
    "recv_wait_off_dst": (
        lambda ln: " kind=recv_wait " in ln and ln.endswith(" cid=0"),
        lambda ln: ln.replace("node=(1,0)", "node=(0,0)"),
        "recv_wait on node (0, 0) uses channel 0, which runs from (0, 0) to (1, 0)",
    ),
    "fill_off_src": (
        lambda ln: " kind=buffer_fill " in ln and " cid=8 " in ln,
        lambda ln: ln.replace("node=(0,0)", "node=(0,1)"),
        "buffer_fill on node (0, 1) uses channel 8, which runs from (0, 0) to (1, 0)",
    ),
    "compute_read_off_dst": (
        lambda ln: ln.startswith("node=(0,0)") and " read=buf:" in ln,
        lambda ln: re.sub(r" read=buf:\d+@\d+", " read=buf:0@0", ln),
        "compute read on node (0, 0) uses channel 0, which runs from (0, 0) to (1, 0)",
    ),
    "compute_write_off_src": (
        lambda ln: ln.startswith("node=(0,0)") and "+buf:" in ln,
        lambda ln: re.sub(r"\+buf:\d+@\d+", "+buf:1@0", ln, count=1),
        "compute write on node (0, 0) uses channel 1, which runs from (0, 1) to (1, 1)",
    ),
    # a derived entry on a channel line, and a later write= that would win
    "channel_unknown_keys": (
        lambda ln: ln.startswith("channel cid=0 "),
        lambda ln: ln + " tag=3 size=999 elem=float64 block=(1,1)",
        "channel line takes no tag=",
    ),
    "compute_key_twice": (
        lambda ln: " kind=compute " in ln and ln.endswith(" write=none"),
        lambda ln: ln + " write=none",
        "write= given twice",
    ),
    # a bare token beyond the ones a line kind takes (header 1, field 2, others 0)
    "header_stray_token": (
        lambda ln: ln.startswith("plan "),
        lambda ln: ln + " again",
        "plan line takes no 'again'",
    ),
    "field_stray_token": (
        lambda ln: ln.startswith("field "),
        lambda ln: ln + " junk",
        "field line takes no 'junk'",
    ),
    "channel_stray_token": (
        lambda ln: ln.startswith("channel cid=0 "),
        lambda ln: ln + " stray",
        "channel line takes no 'stray'",
    ),
    "compute_stray_token": (
        lambda ln: " kind=compute " in ln,
        lambda ln: ln + " extra",
        "compute line takes no 'extra'",
    ),
    "send_stray_token": (
        lambda ln: " kind=send " in ln,
        lambda ln: ln.replace(" kind=send ", " kind=send now "),
        "send line takes no 'now'",
    ),
    "unknown_kind": (
        lambda ln: " kind=send " in ln,
        lambda ln: ln.replace(" kind=send ", " kind=sned "),
        "unknown event kind sned",
    ),
    # the epilogue has no events, so a plan has no drains
    "drain_kind": (
        lambda ln: " kind=buffer_fill " in ln,
        lambda ln: ln.replace(" kind=buffer_fill ", " kind=buffer_drain "),
        "unknown event kind buffer_drain",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PLANS))
def test_parse_plan_rejects_malformed(gol16_plan_text, case):
    pick, edit, message = MALFORMED_PLANS[case]
    lines = gol16_plan_text.splitlines()
    no = next(i for i, ln in enumerate(lines, 1) if pick(ln))
    lines[no - 1] = edit(lines[no - 1])
    with pytest.raises(ParseError) as exc:
        parse_plan("\n".join(lines))
    assert exc.value.line == no
    assert message in str(exc.value)


def test_parse_plan_rejects_empty():
    with pytest.raises(ParseError) as exc:
        parse_plan("\n  \n")
    assert exc.value.line == 1


# remote sends of (flow families, prologue families); their sums are the
# plan's message counts (perfbench's plan_messages on gol16_fused 8x8 and
# gol32 2x2)
PLAN_QUALITY = {
    ("gol16", "2x2"): (16, 8),
    ("gol16", "4x4"): (96, 48),
    ("gol16_fused", "8x8"): (448, 224),
    ("gol32", "2x2"): (16, 8),
}


@pytest.mark.parametrize("scop, grid", sorted(PLAN_QUALITY))
def test_plan_quality_on_shipped_inputs(scops_dir, scop, grid):
    extents = map(int, grid.split("x"))
    analysis, plan = plan_scop(override_grid(parse_scop_file(scops_dir / f"{scop}.scop"), extents))
    sends = {"flow": 0, "pro": 0}
    for evs in plan.events.values():
        for ev in evs:
            ch = plan.channels[ev.cid] if ev.kind == "send" else None
            if ch is not None and not ch.loopback:
                sends[ch.family.split(":")[0]] += 1
    assert (sends["flow"], sends["pro"]) == PLAN_QUALITY[(scop, grid)]

    transfers = build_transfers(
        analysis.dep, analysis.stmt_placement, analysis.field_placement, analysis.chunkings
    )
    remote = [(key, t) for key, ts in transfers.items() for t in ts
              if t.producer_node != t.consumer_node]
    # one message per (producer, field, node pair, outer iteration): each node
    # pair is served by one flow family per iteration
    outer = {(t.producer, t.fieldname, t.producer_node, t.consumer_node, t.consumer_instance[0])
             for key, t in remote if key.startswith("flow:")}
    assert len(outer) == sends["flow"]
    # no element crosses one node pair twice for one producer instance
    carriers: dict = {}
    for key, t in remote:
        value = (t.producer, t.producer_instance, t.element, t.producer_node, t.consumer_node)
        carriers.setdefault(value, set()).add((key, t.representative))
    assert all(len(c) == 1 for c in carriers.values())


@pytest.mark.parametrize("case", ["gol16-2x2", "wide-2^70"])
def test_plan_numbers_are_python_ints(gol16_path, case):
    """Tables may be int64, but every number a plan holds is a Python int:
    numpy 2 prints np.int64(5) in repr, and trace digests hash reprs, so a
    leaked numpy scalar would change dumps or traces without an error.
    Fill ranks agree with the pointwise buffer_rank."""
    from test_cli import _wide_scop

    doc = gol16_path.read_text() if case == "gol16-2x2" else json.dumps(_wide_scop(2**70, 1))
    _, plan = plan_scop(parse_scop(doc))
    for ch in plan.channels:
        values = [*ch.src, *ch.dst, ch.cid, *(v for pair in ch.layout.box for v in pair)]
        assert all(type(v) is int for v in values), ch
    for evs in plan.events.values():
        for ev in evs:
            values = [*ev.scatter, *ev.element, *(ev.read_from or ()), ev.cid, ev.rank]
            values += [v for w in ev.writes for v in w[1:]]
            assert all(type(v) is int for v in values), ev
            if ev.kind == "buffer_fill":
                assert ev.rank == buffer_rank(plan.channels[ev.cid].layout, ev.element), ev


@pytest.mark.parametrize("case", ["gol16-2x2", "wide-2^70"])
def test_events_in_reference_order(gol16_path, case):
    """Emission orders the events by one lexsort over their key columns
    (int64, or Python ints at 2^70): each node's list is in the order of
    the reference key, and the nodes come in grid order."""
    from test_cli import _wide_scop

    doc = gol16_path.read_text() if case == "gol16-2x2" else json.dumps(_wide_scop(2**70, 1))
    _, plan = plan_scop(parse_scop(doc))
    assert list(plan.events) == sorted(plan.events)
    for node, evs in plan.events.items():
        assert evs
        keys = [event_key(ev) for ev in evs]
        assert keys == sorted(keys), node


def test_plan_identical_with_every_table_searched(gol16_path, monkeypatch):
    """With box scanning off every enumerated table holds Python ints, and
    transfers and emission run on that dtype: the plan is the same."""
    _, plan = plan_scop(parse_scop_file(gol16_path))
    search_only(monkeypatch)
    analysis, searched = plan_scop(parse_scop_file(gol16_path))
    assert analysis.dep.families[0].table.dtype == object
    assert dump_plan(searched) == dump_plan(plan)
