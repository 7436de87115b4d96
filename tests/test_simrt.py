import dataclasses
import heapq
import json
import re
import types

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from polydist.chunking import chunk_all
from polydist.cli import main
from polydist.commgen import (
    CALLS,
    BufferLayout,
    Channel,
    CommPlan,
    Event,
    check_windows,
    compile_plan,
    dump_plan,
    parse_plan,
)
from polydist.deps import add_virtual_statements, compute_flow
from polydist.errors import (
    BufferStateViolation,
    DeadlockDetected,
    GeometryMismatch,
    NotLocal,
    ParseError,
    SimulationFault,
)
from polydist.fields import random_contents
from polydist.pipeline import plan_scop
from polydist.placement import Placement, block_distribute, place_statements
from polydist.scop import ClusterGrid, FieldDecl, isolate_accesses, sequential_execute
from polydist.scopio import parse_scop
from polydist.syntax import parse_map
from polydist import simrt
from polydist.simrt import init_runtime, run

from oracle import contents_equal, event_key, expand_plan, run_any_order, scan_order, zero_contents
from test_commgen import LOOPBACK


def build(gol16_path, grid=None):
    doc = json.loads(gol16_path.read_text())
    if grid is not None:
        doc["grid"] = list(grid)
    scop = parse_scop(json.dumps(doc))
    virt = add_virtual_statements(isolate_accesses(scop))
    dep = compute_flow(virt)
    fp = block_distribute(virt.fields, virt.grid)
    sp = place_statements(virt, dep, fp)
    plan = compile_plan(virt, dep, fp, sp, chunk_all(dep))
    return scop, virt, plan


@pytest.fixture(scope="module")
def gol16_built(gol16_path):
    return build(gol16_path)


def test_geometry_mismatch(gol16_built):
    scop, virt, plan = gol16_built
    with pytest.raises(GeometryMismatch):
        init_runtime(plan, ClusterGrid((4, 4)), zero_contents(scop))


def test_channel_structure(gol16_built):
    scop, virt, plan = gol16_built
    # every stencil direction opens one cross-node channel per boundary pair
    cross = {}
    for ch in plan.channels:
        if not ch.loopback:
            cross.setdefault(ch.family, []).append((ch.src, ch.dst))
    assert cross["flow:S2.2->S1.1:front"] == [((0, 0), (1, 0)), ((0, 1), (1, 1))]
    assert cross["flow:S2.2->S1.3:front"] == [((1, 0), (0, 0)), ((1, 1), (0, 1))]
    assert cross["flow:S2.2->S1.2:front"] == [((0, 1), (0, 0)), ((1, 1), (1, 0))]
    assert cross["flow:S2.2->S1.4:front"] == [((0, 0), (0, 1)), ((1, 0), (1, 1))]


def test_run_matches_sequential(gol16_built):
    scop, virt, plan = gol16_built
    init = random_contents(scop, 2024)
    sim = init_runtime(plan, virt.grid, init)
    final, trace = run(sim, virt)
    assert contents_equal(final, sequential_execute(scop, init))
    assert trace.entries


def test_single_node_grid(gol16_path):
    # one node homes every element, so no value travels
    scop, virt, plan = build(gol16_path, grid=(1, 1))
    assert not plan.channels
    init = random_contents(scop, 5)
    final, _ = run(init_runtime(plan, virt.grid, init), virt)
    assert contents_equal(final, sequential_execute(scop, init))


def test_untouched_elements_stay(gol16_built):
    scop, virt, plan = gol16_built
    init = random_contents(scop, 11)
    final, _ = run(init_runtime(plan, virt.grid, init), virt)
    # boundary ring is never written by the scop
    for name in ("front", "back"):
        assert np.array_equal(final[name][0, :], init[name][0, :])
        assert np.array_equal(final[name][15, :], init[name][15, :])
        assert np.array_equal(final[name][:, 0], init[name][:, 0])
        assert np.array_equal(final[name][:, 15], init[name][:, 15])


def test_run_leaves_the_callers_contents(gol16_built):
    # verify and perfbench hand the same arrays to sequential execution
    scop, virt, plan = gol16_built
    init = random_contents(scop, 12)
    kept = {name: arr.copy() for name, arr in init.items()}
    final, _ = run(init_runtime(plan, virt.grid, init), virt)
    assert contents_equal(init, kept) and not contents_equal(final, kept)


# W(x) stores 1 into a[x], then V(x) stores 2; no dependence reaches W, so
# only owner computes places it, at the home of a[x]
LATE_WRITER = {
    "name": "late_writer",
    "grid": [2],
    "scatter_arity": 2,
    "fields": [{"name": "a", "type": "int64", "extents": [2]}],
    "functions": {},
    "statements": [
        {"id": "W", "domain": "{ [x] : 0 <= x < 2 }", "schedule": "{ [x] -> [x,0] }",
         "accesses": [{"field": "a", "kind": "write", "index": ["x"]}], "body": ["int", 1]},
        {"id": "V", "domain": "{ [x] : 0 <= x < 2 }", "schedule": "{ [x] -> [x,1] }",
         "accesses": [{"field": "a", "kind": "write", "index": ["x"]}], "body": ["int", 2]},
    ],
}


def test_store_lands_only_at_the_home():
    # with every W(x) put on (0,) by hand, an added message that carries no
    # value, sent by (1,) after its V(1), holds (0,) back until then, so
    # (0,)'s W(1) runs after the home's later write: a store there would
    # leave a[1] = 1
    scop = parse_scop(json.dumps(LATE_WRITER))
    analysis, plan = plan_scop(scop)
    virt = analysis.scop
    pinned = Placement({**plan.stmt_placement.maps, "W": parse_map("{ W[x] -> P[0] : 0 <= x <= 1 }")})
    ch = Channel(0, "flow:V->W:a", (1,), (0,), BufferLayout("a", ((1, 1),)))
    events = {(1,): [Event((-1, 0, 0), "send_wait", chunk="late", cid=0), Event((2, 2, 1), "send", chunk="late", cid=0)],
              (0,): [Event((-1, 0, 0), "recv_wait", chunk="late", cid=0), Event((2, 0, 1), "recv", chunk="late", cid=0)]}
    late = dataclasses.replace(plan, stmt_placement=pinned, channels=[ch], events=events)
    for node, evs in events.items():
        check_windows(late.channels, node, evs, set())
    init = zero_contents(scop)
    final, trace = run(init_runtime(late, virt.grid, init), virt)
    ran = [(node, chunk) for _, node, _, chunk, _, _ in trace.entries]
    assert ran.index(((1,), "V(1)")) < ran.index(((0,), "W(1)"))
    assert contents_equal(final, sequential_execute(scop, init))
    for seed in (1, 2, 3):
        assert contents_equal(run_any_order(late, virt, init, seed), final)


def verifies_in_any_order(doc, seeds=range(4)):
    """The document's plan: it matches sequential execution under each
    contents seed, and the any-order oracle leaves the simulator's contents."""
    scop = parse_scop(json.dumps(doc))
    analysis, plan = plan_scop(scop)
    for seed in seeds:
        init = random_contents(scop, seed)
        final, _ = run(init_runtime(plan, analysis.scop.grid, init), analysis.scop)
        assert contents_equal(final, sequential_execute(scop, init)), seed
        assert contents_equal(run_any_order(plan, analysis.scop, init, seed), final), seed
    return plan


def test_late_writer_runs_at_the_home():
    # owner computes places W(1) on (1,), the home of a[1], though no
    # dependence reaches W
    plan = verifies_in_any_order(LATE_WRITER)
    assert plan.stmt_placement.table["W"].tolist() == [[0, 0], [1, 1]] and not plan.channels


# W(x) writes a[x] and the scalar t, R(x) reads t into b[3-x], V(x) then
# overwrites a[x]: owner computes puts W(x) at the home of a[x], and
# co-location adds R(x)'s node, the home of b[3-x]
CO_LOCATED = {
    "name": "co_located",
    "grid": [2],
    "scatter_arity": 2,
    "fields": [{"name": "a", "type": "int64", "extents": [4]}, {"name": "b", "type": "int64", "extents": [4]}],
    "functions": {},
    "statements": [
        {"id": "W", "domain": "{ [x] : 0 <= x < 4 }", "schedule": "{ [x] -> [x,0] }",
         "accesses": [{"field": "a", "kind": "write", "index": ["x"]}], "body": ["int", 7],
         "scalar_writes": ["t"]},
        {"id": "R", "domain": "{ [x] : 0 <= x < 4 }", "schedule": "{ [x] -> [x,1] }",
         "accesses": [{"field": "b", "kind": "write", "index": ["3 - x"]}],
         "body": ["add", ["var", "t"], ["int", 1]], "scalar_reads": ["t"]},
        {"id": "V", "domain": "{ [x] : 0 <= x < 4 }", "schedule": "{ [x] -> [x,2] }",
         "accesses": [{"field": "a", "kind": "write", "index": ["x"]}], "body": ["int", 2]},
    ],
}


def test_writer_runs_at_the_home_and_where_its_scalar_is_read():
    plan = verifies_in_any_order(CO_LOCATED)
    assert plan.stmt_placement.table["W"].tolist() == [[x, p] for x in range(4) for p in (0, 1)]
    assert plan.stmt_placement.table["R"].tolist() == [[0, 1], [1, 1], [2, 0], [3, 0]]


def test_determinism(gol16_built):
    scop, virt, plan = gol16_built
    init = random_contents(scop, 33)
    _, t1 = run(init_runtime(plan, virt.grid, init), virt)
    _, t2 = run(init_runtime(plan, virt.grid, init), virt)
    assert t1.to_text() == t2.to_text()


def test_channel_fifo_single_outstanding(gol16_built):
    # per channel, the trace alternates send_wait < send < recv_wait < recv
    scop, virt, plan = gol16_built
    init = random_contents(scop, 8)
    _, trace = run(init_runtime(plan, virt.grid, init), virt)
    per_tag: dict = {}
    for step, node, kind, chunk, tag, digest in trace.entries:
        if kind in ("send_wait", "send", "recv_wait", "recv"):
            per_tag.setdefault(tag, []).append(kind)
    assert per_tag
    for tag, kinds in per_tag.items():
        for i in range(0, len(kinds), 4):
            assert kinds[i : i + 4] == ["send_wait", "send", "recv_wait", "recv"]


def test_send_before_recv_wait(gol16_built):
    scop, virt, plan = gol16_built
    init = random_contents(scop, 13)
    _, trace = run(init_runtime(plan, virt.grid, init), virt)
    last_send: dict = {}
    for step, node, kind, chunk, tag, digest in trace.entries:
        if kind == "send":
            last_send[tag] = step
        elif kind == "recv_wait":
            assert tag in last_send and last_send[tag] < step


def waits_early(plan, a, b, which=0):
    """The plan with a's and b's which-th recv_wait of each other's channel
    moved up to just after the previous recv of that channel, at its
    scatter, or to the front of the list for the first, before every
    scatter: each waits for the other's send."""
    events = dict(plan.events)
    for src, dst in ((a, b), (b, a)):
        cid = next(c.cid for c in plan.channels if (c.src, c.dst) == (src, dst))
        evs = events[dst]
        waits = [i for i, ev in enumerate(evs) if (ev.kind, ev.cid) == ("recv_wait", cid)]
        i = waits[which]
        j = max((k + 1 for k in range(i) if (evs[k].kind, evs[k].cid) == ("recv", cid)), default=0)
        at = evs[j - 1].scatter if j else (-99,) * len(evs[i].scatter)
        events[dst] = sorted(evs[:i] + [dataclasses.replace(evs[i], scatter=at)] + evs[i + 1:], key=event_key)
    return dataclasses.replace(plan, events=events)


def test_deadlock_on_reordered_recv_wait(gol16_built):
    # two nodes each wait first for the other's message: the plan passes the
    # window check, and the run deadlocks as the scan oracle finds
    scop, virt, plan = gol16_built
    bad = waits_early(plan, (0, 0), (1, 0))
    with pytest.raises(DeadlockDetected) as exc:
        run(init_runtime(bad, virt.grid, random_contents(scop, 3)), virt)
    blocked = scan_order(bad, virt)
    assert isinstance(blocked, dict) and blocked[(0, 0)] == blocked[(1, 0)] == "recv_wait"
    assert str(exc.value) == f"all nodes blocked: {blocked}"


def test_run_without_one_recv_wait(gol16_built):
    # each of the 24 recv_waits, deleted alone from the plan in memory, fails
    # the window check before the first step; run in any order, the plan's
    # next use of that channel finds it in the wrong state
    scop, virt, plan = gol16_built
    init = random_contents(scop, 1)
    cuts = [(node, i) for node, evs in plan.events.items() for i, ev in enumerate(evs) if ev.kind == "recv_wait"]
    assert len(cuts) == 24
    for node, i in cuts:
        cut = dataclasses.replace(plan, events={**plan.events, node: plan.events[node][:i] + plan.events[node][i + 1:]})
        sim = init_runtime(cut, virt.grid, init)
        with pytest.raises(GeometryMismatch):
            run(sim, virt)
        assert sim.step == 0
        for seed in (1, 2, 3):
            with pytest.raises(AssertionError, match="channel"):
                run_any_order(cut, virt, init, seed)


def scan_kinds(plan, scop):
    """(node, kind) of every step in the order the scan oracle runs them."""
    order, steps = scan_order(plan, scop), expand_plan(plan, scop)
    assert isinstance(order, list)
    return [(coord, steps[coord][i].kind) for coord, i in order]


def trace_kinds(trace):
    return [(node, kind) for _, node, kind, *_ in trace.entries]


@pytest.mark.parametrize(
    "name, grid",
    [
        ("gol16", (2, 2)),
        ("gol16", (4, 4)),
        ("gol16_fused", (2, 2)),
        ("gol16_fused", (4, 4)),
        ("gol16_fused", (8, 8)),
        ("gol16_fused", (16, 16)),
        ("gol32", (2, 2)),
    ],
)
def test_heap_order_matches_scan(scops_dir, name, grid):
    # the heap runs the lowest (scatter, node) unblocked head every step,
    # exactly as a scan over all nodes does; gol32 2x2 and gol16_fused
    # 16x16 hold the longest runs of one node's heads
    scop, virt, plan = build(scops_dir / f"{name}.scop", grid=grid)
    _, trace = run(init_runtime(plan, virt.grid, random_contents(scop, 7)), virt)
    assert trace_kinds(trace) == scan_kinds(plan, virt)


def test_heap_touched_only_when_the_lowest_head_changes_node(scops_dir, monkeypatch):
    # a node keeps running while its next head is the lowest, so a head goes
    # back on the heap only when another node's head is lower, which switches
    # the running node, or when a send or recv wakes the head parked on its
    # channel; in a run that ends, at most one head waits on a channel at a
    # time, so the trace's sends and recvs bound the wake-ups
    scop, virt, plan = build(scops_dir / "gol32.scop", grid=(2, 2))
    pushes = []

    def heappush(heap, item):
        pushes.append(item)
        heapq.heappush(heap, item)

    monkeypatch.setattr(simrt, "heapq", types.SimpleNamespace(
        heapify=heapq.heapify, heappop=heapq.heappop, heappush=heappush))
    _, trace = run(init_runtime(plan, virt.grid, random_contents(scop, 7)), virt)
    nodes = [node for _, node, *_ in trace.entries]
    switches = sum(a != b for a, b in zip(nodes, nodes[1:]))
    wakers = sum(kind in ("send", "recv") for _, _, kind, *_ in trace.entries)
    assert 0 < len(pushes) <= switches + wakers < len(trace.entries) // 50


def test_late_release_wakes_the_parked_send_wait(gol16_built):
    # the consumer releases the first message only just before it waits for
    # the second, so the producer's second send_wait parks until that recv
    scop, virt, plan = gol16_built
    ch = next(c for c in plan.channels if not c.loopback and c.family.startswith("flow:"))
    evs = list(plan.events[ch.dst])
    recvs = [i for i, ev in enumerate(evs) if ev.kind == "recv" and ev.cid == ch.cid]
    waits = [ev for ev in evs if ev.kind == "recv_wait" and ev.cid == ch.cid]
    evs[recvs[0]] = dataclasses.replace(evs[recvs[0]], scatter=waits[1].scatter)
    evs.sort(key=event_key)
    late = dataclasses.replace(plan, events={**plan.events, ch.dst: evs})
    init = random_contents(scop, 5)
    final, trace = run(init_runtime(late, virt.grid, init), virt)
    assert contents_equal(final, sequential_execute(scop, init))
    assert trace_kinds(trace) == scan_kinds(late, virt)
    steps = {}
    for step, node, kind, _, tag, _ in trace.entries:
        if tag == ch.cid and (node, kind) in ((ch.src, "send_wait"), (ch.dst, "recv")):
            steps.setdefault(kind, []).append(step)
    assert steps["recv"][0] + 1 == steps["send_wait"][1]


def test_woken_head_below_the_running_nodes_next_runs_first(gol16_built):
    # the consumer releases the first message at the scatter of the producer's
    # second send_wait, which has parked by then, and has a compute head next:
    # the woken send_wait is lower, so it runs before that compute
    scop, virt, plan = gol16_built
    ch = next(c for c in plan.channels if not c.loopback and c.family.startswith("flow:"))
    assert ch.src < ch.dst  # the producer's head at a shared scatter runs first
    send_waits = [ev for ev in plan.events[ch.src] if ev.kind == "send_wait" and ev.cid == ch.cid]
    evs = list(plan.events[ch.dst])
    i = next(i for i, ev in enumerate(evs) if ev.kind == "recv" and ev.cid == ch.cid)
    evs[i] = dataclasses.replace(evs[i], scatter=send_waits[1].scatter)
    evs.sort(key=event_key)
    late = dataclasses.replace(plan, events={**plan.events, ch.dst: evs})
    steps = expand_plan(late, virt)[ch.dst]
    i = next(i for i, ev in enumerate(steps) if ev.kind == "recv" and ev.cid == ch.cid)
    assert steps[i + 1].kind == "compute"
    init = random_contents(scop, 5)
    final, trace = run(init_runtime(late, virt.grid, init), virt)
    assert contents_equal(final, sequential_execute(scop, init))
    assert trace_kinds(trace) == scan_kinds(late, virt)
    recv = next(step for step, node, kind, _, tag, _ in trace.entries if (node, kind, tag) == (ch.dst, "recv", ch.cid))
    assert trace_kinds(trace)[recv + 1] == (ch.src, "send_wait")


def drop_send(plan, family, src, dst, which):
    """The plan without the which-th send on the channel (family, src, dst)."""
    ch = next(c for c in plan.channels if (c.family, c.src, c.dst) == (family, src, dst))
    sends = [i for i, ev in enumerate(plan.events[src]) if ev.kind == "send" and ev.cid == ch.cid]
    evs = [ev for i, ev in enumerate(plan.events[src]) if i != sends[which]]
    return dataclasses.replace(plan, events={**plan.events, src: evs}), ch.cid


def test_deadlock_names_every_unfinished_node(gol16_path):
    # (0,0) and (1,0) each wait early for the other's last message, and the
    # stall spreads to their neighbours.  Without the last send on
    # (3,3)->(3,2), (3,3) finishes and (3,2) waits on a channel that never
    # changes state again.  Nodes far from both finish.
    scop, virt, plan = build(gol16_path, grid=(4, 4))
    bad = waits_early(plan, (0, 0), (1, 0), -1)
    bad, starved = drop_send(bad, "flow:S2.2->S1.2:front", (3, 3), (3, 2), -1)
    sim = init_runtime(bad, virt.grid, random_contents(scop, 3))
    with pytest.raises(DeadlockDetected) as exc:
        run(sim, virt)
    events = {c: expand_plan(bad, virt).get(c, []) for c in virt.grid.nodes}
    unfinished = {
        c: events[c][sim.nodes[c].cursor].kind
        for c in sorted(events)
        if sim.nodes[c].cursor < len(events[c])
    }
    assert str(exc.value) == f"all nodes blocked: {unfinished}"
    assert 0 < len(unfinished) < len(events)
    assert set(unfinished.values()) == {"send_wait", "recv_wait"}
    channels = {events[c][sim.nodes[c].cursor].cid for c in unfinished}
    assert len(channels) > 2
    # (3, 2) parked on a channel whose producer has finished
    assert unfinished[(3, 2)] == "recv_wait" and (3, 3) not in unfinished
    assert events[(3, 2)][sim.nodes[(3, 2)].cursor].cid == starved


def drop_recv(plan, which):
    """The plan without the which-th recv of the first cross-node flow
    channel, and that channel."""
    ch = next(c for c in plan.channels if not c.loopback and c.family.startswith("flow:"))
    evs = plan.events[ch.dst]
    i = [i for i, ev in enumerate(evs) if (ev.kind, ev.cid) == ("recv", ch.cid)][which]
    return with_events(plan, ch.dst, evs[:i] + evs[i + 1:]), ch


def test_dropped_recv_fails_or_deadlocks(gol16_built):
    # dropping a release fails: before the first step when a later
    # recv_wait of the channel finds its window open, and at the end of the
    # run, with the channel still received, when it was the last release
    scop, virt, plan = gol16_built
    bad, ch = drop_recv(plan, 0)
    sim = init_runtime(bad, virt.grid, random_contents(scop, 3))
    with pytest.raises(GeometryMismatch) as exc:
        run(sim, virt)
    assert str(exc.value) == f"recv_wait on node {ch.dst} finds the dst window of channel {ch.cid} open"
    assert sim.step == 0
    bad, ch = drop_recv(plan, -1)
    with pytest.raises(BufferStateViolation) as exc:
        run(init_runtime(bad, virt.grid, random_contents(scop, 3)), virt)
    assert str(exc.value) == f"run ended with channels not idle: {ch.cid} received"


def test_violation_on_early_buffer_fill(gol16_built):
    # a fill before its chunk's send_wait lies outside the source's window
    scop, virt, plan = gol16_built
    events = {}
    moved = []
    for node, evs in plan.events.items():
        out = []
        for ev in evs:
            if not moved and ev.kind == "buffer_fill":
                ev = dataclasses.replace(ev, scatter=(-99,) * len(ev.scatter))
                moved.append((node, ev.cid))
            out.append(ev)
        out.sort(key=event_key)
        events[node] = out
    assert moved
    bad = dataclasses.replace(plan, events=events)
    sim = init_runtime(bad, virt.grid, random_contents(scop, 3))
    with pytest.raises(GeometryMismatch) as exc:
        run(sim, virt)
    (node, cid), = moved
    assert str(exc.value) == f"buffer_fill on node {node} finds the src window of channel {cid} closed"
    assert sim.step == 0


def first_event(plan, pred):
    """(node, index, event) of the first event, in node order, that pred holds for."""
    return next((node, i, ev) for node in sorted(plan.events)
                for i, ev in enumerate(plan.events[node]) if pred(ev))


def with_events(plan, node, evs):
    return dataclasses.replace(plan, events={**plan.events, node: evs})


def run_first(plan, pred):
    """The plan with a copy of the first event pred holds for run before
    every other event, while every window is closed; that event's node,
    and the event."""
    node, _, ev = first_event(plan, pred)
    early = dataclasses.replace(ev, scatter=(-99,) * len(ev.scatter))
    return with_events(plan, node, [early] + plan.events[node]), node, ev


def outside(what, node, end, cid, found="closed"):
    return f"{what} on node {node} finds the {end} window of channel {cid} {found}"


def call_before_all(plan, virt, kind):
    bad, node, ev = run_first(plan, lambda e: e.kind == kind)
    return bad, outside(kind, node, "dst" if kind == "recv" else "src", ev.cid)


def reads_buffer(ev):
    return ev.kind == "compute" and ev.read_from is not None


def unbound_read(plan, virt):
    # a buffer read turned into a storage read: another node homes the
    # element, the one the buffer slot holds
    node, i, ev = first_event(plan, reads_buffer)
    evs = list(plan.events[node])
    evs[i] = dataclasses.replace(ev, read_from=None)
    layout = plan.channels[ev.read_from[0]].layout
    sizes = [hi - lo + 1 for lo, hi in layout.box]
    element = tuple(int(v) + lo for v, (lo, _) in zip(np.unravel_index(ev.read_from[1], sizes), layout.box))
    return with_events(plan, node, evs), f"{layout.fieldname}{element} is not a home element of {node}"


def read_before_send(plan, virt):
    # S1.1's body reads its field before any scalar
    node, step = next((node, st) for node, steps in sorted(expand_plan(plan, virt).items())
                      for st in steps if st.stmt == "S1.1" and st.read_from is not None)
    bad, node, ev = run_first(plan, lambda e: reads_buffer(e) and e.scatter == step.scatter)
    return bad, outside("compute read", node, "dst", ev.read_from[0])


def unwritten_slot(plan, virt):
    # the source's first write of the slot that the first buffer read reads is dropped
    node, _, ev = first_event(plan, reads_buffer)
    step = next(st for st in expand_plan(plan, virt)[node] if st.kind == "compute" and st.scatter == ev.scatter)
    cid, rank = ev.read_from
    src = plan.channels[cid].src
    evs = list(plan.events[src])
    i = next(i for i, w in enumerate(evs)
             if (w.kind, w.cid, w.rank) == ("buffer_fill", cid, rank)
             or ("buffer", cid, rank) in w.writes)
    if evs[i].kind == "buffer_fill":
        del evs[i]
    else:
        evs[i] = dataclasses.replace(
            evs[i], writes=tuple(w for w in evs[i].writes if w != ("buffer", cid, rank)))
    return with_events(plan, src, evs), f"{step.stmt}({','.join(map(str, step.instance))}): reading unwritten buffer slot"


def write_before_send_wait(plan, virt):
    # the send_wait that opens the first buffer write's message is dropped
    node, i, ev = first_event(plan, lambda e: e.kind == "compute" and any(
        w[0] == "buffer" for w in e.writes))
    cid = next(w[1] for w in ev.writes if w[0] == "buffer")
    evs = plan.events[node]
    j = max(j for j in range(i) if (evs[j].kind, evs[j].cid) == ("send_wait", cid))
    return with_events(plan, node, evs[:j] + evs[j + 1:]), outside("compute write", node, "src", cid)


def parked_for_good(plan, virt, node, evs, ev):
    # ev, in node's list evs, parks and never wakes: the run deadlocks with
    # node blocked on it, as the scan oracle finds
    bad = with_events(plan, node, evs)
    blocked = scan_order(bad, virt)
    assert blocked[node] == ev.kind
    return bad, f"all nodes blocked: {blocked}"


def second_send_wait(plan, virt):
    # a second send_wait right after the first finds its window open
    node, i, ev = first_event(plan, lambda e: e.kind == "send_wait")
    evs = plan.events[node]
    return with_events(plan, node, evs[:i + 1] + [ev] + evs[i + 1:]), \
        outside("send_wait", node, "src", ev.cid, "open")


def recv_wait_after_last_recv(plan, virt):
    # a recv_wait at its channel's last recv, after it, finds the channel idle
    node, _, ev = first_event(plan, lambda e: e.kind == "recv_wait")
    evs = plan.events[node]
    last = max((e for e in evs if (e.kind, e.cid) == ("recv", ev.cid)), key=event_key)
    late = dataclasses.replace(ev, scatter=last.scatter)
    return parked_for_good(plan, virt, node, sorted(evs + [late], key=event_key), late)


# case -> (plan edit returning the edited plan and the message of its fault, fault)
WRONG_STATE = {
    "send": (lambda plan, virt: call_before_all(plan, virt, "send"), GeometryMismatch),
    "recv": (lambda plan, virt: call_before_all(plan, virt, "recv"), GeometryMismatch),
    "buffer_fill": (lambda plan, virt: call_before_all(plan, virt, "buffer_fill"), GeometryMismatch),
    "unbound_read": (unbound_read, NotLocal),
    "read_before_send": (read_before_send, GeometryMismatch),
    "unwritten_slot": (unwritten_slot, BufferStateViolation),
    "write_before_send_wait": (write_before_send_wait, GeometryMismatch),
    "send_wait": (second_send_wait, GeometryMismatch),
    "recv_wait": (recv_wait_after_last_recv, DeadlockDetected),
}


@pytest.mark.parametrize("case", list(WRONG_STATE))
def test_channel_call_in_a_wrong_state(gol16_built, case):
    # a channel call or a compute event's buffer access that would find its
    # channel in a wrong state lies outside its window, and is rejected
    # before the first step; a recv_wait with no message left parks for
    # good, and an unbound or unwritten read faults when it runs
    scop, virt, plan = gol16_built
    edit, fault = WRONG_STATE[case]
    bad, message = edit(plan, virt)
    sim = init_runtime(bad, virt.grid, random_contents(scop, 3))
    with pytest.raises(fault) as exc:
        run(sim, virt)
    assert str(exc.value) == message
    assert (sim.step == 0) == (fault is GeometryMismatch)


# (-1, 0) wraps to (15, 0) under negative indexing, an element that node
# (1, 0) homes: its fill catches a lookup that wraps
@pytest.mark.parametrize("kind", ["buffer_fill"])
@pytest.mark.parametrize("element", [(-1, 0), (16, 0), (0, 0)])
def test_fill_and_drain_touch_only_home_elements(gol16_built, kind, element):
    scop, virt, plan = gol16_built
    node = (1, 0)
    evs = list(plan.events[node])
    i = next(i for i, ev in enumerate(evs) if ev.kind == kind)
    evs[i] = dataclasses.replace(evs[i], element=element)
    bad = dataclasses.replace(plan, events={**plan.events, node: evs})
    with pytest.raises(NotLocal, match=re.escape(f"{element} is not a home element of {node}")):
        run(init_runtime(bad, virt.grid, random_contents(scop, 3)), virt)


def test_simulation_faults_share_a_base():
    for fault in (DeadlockDetected, BufferStateViolation, NotLocal):
        assert issubclass(fault, SimulationFault)


def rejected_placement(built, edit, message):
    # the plan with its statement maps edited ends in GeometryMismatch before the first step
    scop, virt, plan = built
    bad = dataclasses.replace(plan, stmt_placement=Placement(edit(plan.stmt_placement.maps)))
    sim = init_runtime(bad, virt.grid, random_contents(scop, 3))
    with pytest.raises(GeometryMismatch) as exc:
        run(sim, virt)
    assert str(exc.value) == message
    assert sim.step == 0 and not sim.trace.entries


def test_unknown_statement_rejected_before_first_step(gol16_built):
    rejected_placement(gol16_built, lambda maps: {**maps, "S9.9": maps["S1.1"]},
                       "plan places S9.9, which the scop lacks")


def test_out_of_domain_instance_rejected_before_first_step(gol16_built):
    # gol16's leading dimension i runs to 2, so i=7 is no instance
    point = parse_map("{ S2.2[i, x, y] -> P[0, 0] : i = 7 and x = 1 and y = 1 }")
    rejected_placement(gol16_built, lambda maps: {**maps, "S2.2": point},
                       "S2.2(7, 1, 1) is placed, but is not an instance of S2.2")


@pytest.mark.parametrize("case", ["virtual", "missing"])
def test_placement_of_other_statements_rejected_before_first_step(gol16_built, case):
    if case == "virtual":
        rejected_placement(gol16_built, lambda maps: {**maps, "Prologue": maps["S1.1"]},
                           "plan places Prologue, a virtual statement")
    else:
        rejected_placement(gol16_built, lambda maps: {k: m for k, m in maps.items() if k != "S2.2"},
                           "plan does not place statement S2.2")


def test_plan_for_other_scatters_rejected_before_first_step(gol16_built):
    # a plan whose scatters have other entries than the scop's cannot merge
    # its events with the scop's executions
    scop, virt, plan = gol16_built
    sim = init_runtime(dataclasses.replace(plan, scatter_arity=virt.scatter_arity + 1), virt.grid,
                       random_contents(scop, 3))
    with pytest.raises(GeometryMismatch) as exc:
        run(sim, virt)
    assert str(exc.value) == f"plan scatters have {virt.scatter_arity + 1} entries, the scop's {virt.scatter_arity}"
    assert sim.step == 0


def test_event_out_of_order_rejected_before_first_step(gol16_built):
    # a binding moved to an execution before its chunk's recv_wait, without
    # moving it in the list: its read lies inside the window in list order,
    # but the merge would run it before the recv_wait, so the window check
    # rejects the list out of key order, and the run does before the first step
    scop, virt, plan = gol16_built
    node, i, ev = first_event(plan, reads_buffer)
    evs = list(plan.events[node])
    wait = max(j for j in range(i) if (evs[j].kind, evs[j].cid) == ("recv_wait", ev.read_from[0]))
    early = max(st.scatter for st in expand_plan(plan, virt)[node]
                if st.kind == "compute" and st.scatter < evs[wait].scatter)
    evs[i] = dataclasses.replace(ev, scatter=early)
    message = (f"compute at t=({','.join(map(str, early))}) on node {node} is not after the "
               "event before it in (t, phase, cid, rank) order")
    with pytest.raises(GeometryMismatch) as exc:
        check_windows(plan.channels, node, evs, set())
    assert str(exc.value) == message
    sim = init_runtime(with_events(plan, node, evs), virt.grid, random_contents(scop, 3))
    with pytest.raises(GeometryMismatch) as exc:
        run(sim, virt)
    assert str(exc.value) == message
    assert sim.step == 0


def test_channel_call_off_its_end_rejected_before_first_step(gol16_built):
    # a copy of the source's send on a node that holds no buffer of the
    # channel; every other node's events still pass the check
    scop, virt, plan = gol16_built
    ch = next(c for c in plan.channels if (c.src, c.dst) == ((0, 0), (1, 0)))
    send = next(ev for ev in plan.events[(0, 0)] if ev.kind == "send" and ev.cid == ch.cid)
    bad = with_events(plan, (1, 1), sorted(plan.events[(1, 1)] + [send], key=event_key))
    sim = init_runtime(bad, virt.grid, random_contents(scop, 3))
    message = f"send on node (1, 1) uses channel {ch.cid}, which runs from (0, 0) to (1, 0)"
    with pytest.raises(GeometryMismatch, match=re.escape(message)):
        run(sim, virt)
    assert sim.step == 0 and not sim.trace.entries


def test_unknown_event_kind_rejected_before_first_step(gol16_built):
    scop, virt, plan = gol16_built
    node, i, ev = first_event(plan, lambda e: e.kind == "send")
    evs = list(plan.events[node])
    evs[i] = dataclasses.replace(ev, kind="sned")
    sim = init_runtime(with_events(plan, node, evs), virt.grid, random_contents(scop, 3))
    with pytest.raises(GeometryMismatch, match="unknown event kind sned"):
        run(sim, virt)
    assert sim.step == 0


def test_multi_home_plan_rejected(tmp_path, capsys):
    # a plan whose fieldmap line homes f on both nodes of a 1-d grid while
    # block distribution homes each element on one: a plan file cannot carry
    # a placement other than block distribution, so no element has two homes
    doc = {
        "name": "homes",
        "grid": [2],
        "scatter_arity": 1,
        "fields": [{"name": "f", "type": "int64", "extents": [4]}],
        "functions": {},
        "statements": [],
    }
    plan = CommPlan(
        name="homes",
        grid=(2,),
        scatter_arity=1,
        fields=(("f", "int64", (4,)),),
        field_placement=block_distribute([FieldDecl("f", "int64", (4,))], ClusterGrid((2,))),
        stmt_placement=Placement({}),
        channels=[],
        events={},
    )
    lines = dump_plan(plan).splitlines()
    assert lines[2].startswith("fieldmap f ")
    lines[2] = "fieldmap f { f[k0] -> P[p0] : 0 <= k0 <= 3 and 0 <= p0 <= 1 }"
    text = "\n".join(lines) + "\n"
    with pytest.raises(ParseError, match="fieldmap f differs"):
        parse_plan(text)
    scop_file = tmp_path / "homes.scop"
    scop_file.write_text(json.dumps(doc))
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text(text)
    assert main(["verify", str(scop_file), "--plan", str(plan_file)]) == 1
    assert "parse error" in capsys.readouterr().err


# case -> plan.fields edit, field named in the message
FIELD_MISMATCHES = {
    "renamed": (lambda n, t, e: ("fronx" if n == "front" else n, t, e), "fronx"),
    "element_type": (lambda n, t, e: (n, "int64" if n == "front" else t, e), "front"),
    "extents": (lambda n, t, e: (n, t, (32, 16) if n == "back" else e), "back"),
    "missing": (None, "back"),
}


@pytest.mark.parametrize("case", sorted(FIELD_MISMATCHES))
def test_plan_fields_must_match_contents(gol16_built, case):
    scop, virt, plan = gol16_built
    edit, named = FIELD_MISMATCHES[case]
    if edit is None:
        fields = tuple(f for f in plan.fields if f[0] != named)
    else:
        fields = tuple(edit(*f) for f in plan.fields)
    bad = dataclasses.replace(plan, fields=fields)
    with pytest.raises(GeometryMismatch, match=f"field {named} "):
        init_runtime(bad, virt.grid, zero_contents(scop))


def test_trace_text_stable(gol16_built):
    scop, virt, plan = gol16_built
    init = random_contents(scop, 44)
    _, trace = run(init_runtime(plan, virt.grid, init), virt)
    text = trace.to_text()
    assert text.splitlines()[0].startswith("step=0 ")
    _, trace2 = run(init_runtime(plan, virt.grid, init), virt)
    assert trace2.to_text() == text


# the configurations tests/test_contract.py pins
CONTRACT_CONFIGURATIONS = [("gol16", (2, 2)), ("gol16", (4, 4)), ("gol16_fused", (2, 2)),
                           ("gol16_fused", (8, 8)), ("gol16_fused", (16, 16)), ("gol32", (2, 2)),
                           ("gol32", (4, 4))]


ANY_ORDER = CONTRACT_CONFIGURATIONS + [("loopback", (2,))]


@pytest.mark.parametrize("name, grid", ANY_ORDER, ids=[f"{n}-{'x'.join(map(str, g))}" for n, g in ANY_ORDER])
def test_any_order_gives_the_simulators_contents(scops_dir, name, grid):
    # an emitted plan passes the window check, so every order of its nodes'
    # steps reads the same values: seeded random orders end where simrt does;
    # LOOPBACK runs G(x) on the node that does not home a[x] too
    if name == "loopback":
        scop = parse_scop(json.dumps(LOOPBACK))
        analysis, plan = plan_scop(scop)
        virt = analysis.scop
    else:
        scop, virt, plan = build(scops_dir / f"{name}.scop", grid=grid)
    init = random_contents(scop, 7)
    final, _ = run(init_runtime(plan, virt.grid, init), virt)
    for seed in (1, 2, 3):
        assert contents_equal(run_any_order(plan, virt, init, seed), final)


@pytest.mark.parametrize("name, grid", CONTRACT_CONFIGURATIONS,
                         ids=[f"{n}-{a}x{b}" for n, (a, b) in CONTRACT_CONFIGURATIONS])
def test_expansion_is_what_each_node_runs(scops_dir, name, grid):
    # each node's (kind, chunk) lines in the trace are its expanded steps
    scop, virt, plan = build(scops_dir / f"{name}.scop", grid=grid)
    _, trace = run(init_runtime(plan, virt.grid, random_contents(scop, 7)), virt)
    ran: dict = {}
    for _, node, kind, chunk, _, _ in trace.entries:
        ran.setdefault(node, []).append((kind, chunk))
    expected = {node: [(st.kind, f"{st.stmt}({','.join(map(str, st.instance))})" if st.kind == "compute"
                        else st.chunk) for st in steps] for node, steps in expand_plan(plan, virt).items()}
    assert ran == expected


def outcome(plan, virt, init, seed):
    """The contents of an any-order run of the given seed, or of simrt's
    run without one; else the kind of its fault."""
    try:
        if seed is None:
            return run(init_runtime(plan, virt.grid, init), virt)[0]
        return run_any_order(plan, virt, init, seed)
    except SimulationFault as fault:
        return type(fault)


def move_call(evs, i, j):
    """The node's events with the call at i moved to the place of j, at
    the scatter of the event it lands after (before every scatter at the
    front), kept in key order."""
    ev, rest = evs[i], evs[:i] + evs[i + 1:]
    at = rest[j - 1].scatter if j else (-99,) * len(ev.scatter)
    return sorted(rest[:j] + [dataclasses.replace(ev, scatter=at)] + rest[j:], key=event_key)


@st.composite
def moved_calls(draw, plan):
    """(node, its edited events): one channel call moved up to 40 places,
    or a recv_wait moved ahead of the send of the reverse channel, the one
    whose message the other end waits for before it sends."""
    node = draw(st.sampled_from(sorted(plan.events)))
    evs = plan.events[node]
    reverse = {(ch.src, ch.dst): ch.cid for ch in plan.channels}
    if draw(st.booleans()):
        waits = [i for i, ev in enumerate(evs) if ev.kind == "recv_wait"
                 and (node, plan.channels[ev.cid].src) in reverse]
        i = draw(st.sampled_from(waits))
        back = reverse[(node, plan.channels[evs[i].cid].src)]
        sends = [j for j in range(i) if (evs[j].kind, evs[j].cid) == ("send", back)]
        assume(sends)
        return node, move_call(evs, i, draw(st.sampled_from(sends)))
    i = draw(st.sampled_from([i for i, ev in enumerate(evs) if ev.kind in CALLS]))
    j = draw(st.integers(max(0, i - 40), min(len(evs) - 1, i + 40)).filter(lambda j: j != i))
    return node, move_call(evs, i, j)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_moved_call_that_passes_the_check_runs_alike_in_any_order(gol16_built, data):
    # one channel call moved elsewhere on its node, taking the scatter of its
    # new place: when the window check accepts the edit, simrt and seeded
    # orders agree on the contents or the fault, and no call or buffer access
    # finds its channel in a wrong state
    scop, virt, plan = gol16_built
    node, evs = data.draw(moved_calls(plan))
    try:
        check_windows(plan.channels, node, evs, set())
    except GeometryMismatch:
        assume(False)
    moved = with_events(plan, node, evs)
    init = random_contents(scop, 3)
    first = outcome(moved, virt, init, None)
    event("deadlock" if first is DeadlockDetected else "contents" if isinstance(first, dict) else "other fault")
    for seed in (1, 2, 3):
        other = outcome(moved, virt, init, seed)
        assert (contents_equal(first, other) if isinstance(first, dict) else first is other)
