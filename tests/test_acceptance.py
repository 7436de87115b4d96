"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time

import pytest

from polydist.chunking import ChunkingFn
from polydist.commgen import build_transfers, compile_plan
from polydist.deps import EPILOGUE, PROLOGUE
from polydist.fields import random_contents
from polydist.isets import IntMap, compose, restrict_domain
from polydist.pipeline import analyze_scop, plan_scop
from polydist.scop import sequential_execute
from polydist.scopio import parse_scop, parse_scop_file
from polydist.simrt import init_runtime, run

from dep_oracle import brute_force_flows
from oracle import (
    apply_point,
    contents_equal,
    maps_equal,
    placement_nodes,
    run_algebra_case,
    strict_prefix_holds,
    validate_chunking,
)


def report(number: int, label: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {number} [{status}]: {label}")
    for f in failures:
        print(f"    - {f}")
    assert not failures, f"criterion {number}: {failures}"


@pytest.fixture(scope="module")
def gol16(gol16_path):
    return parse_scop_file(gol16_path)


@pytest.fixture(scope="module")
def gol16_analysis(gol16):
    return analyze_scop(gol16)


def _family_class(producer: str, consumer: str, kind: str) -> str:
    """Which of the DepGraph family lists a (producer, consumer, kind) is in."""
    if kind == "scalar":
        return "scalar"
    if producer == PROLOGUE:
        return "prologue"
    if consumer == EPILOGUE:
        return "epilogue"
    return "field"


def test_criterion_1_golden_dependence_analysis(gol16, golden_dir):
    failures = []
    t0 = time.monotonic()
    analysis = analyze_scop(gol16)
    elapsed = time.monotonic() - t0
    deps_text = analysis.dump_deps()
    place_text = analysis.dump_placements()
    chunk_text = analysis.dump_chunks()
    if deps_text != (golden_dir / "gol16_deps.txt").read_text():
        failures.append("deps dump differs from golden file")
    if place_text != (golden_dir / "gol16_placements.txt").read_text():
        failures.append("placement dump differs from golden file")
    if chunk_text != (golden_dir / "gol16_chunks.txt").read_text():
        failures.append("chunking dump differs from golden file")
    # Expected families come from the brute-force oracle (sequential replay),
    # outside the timed region.  The worked example states 5 field and 6
    # scalar families; it omits the field family S2.2 -> S1.5 on front (the
    # copy-back write, read at the same element by the next iteration's
    # hadLife load) and the scalar family S2.1 -> S2.2 on tmp.
    dep = analysis.dep
    oracle_keys = {
        (prod, cons, kind, ref) for prod, _, cons, _, kind, ref, _ in brute_force_flows(dep.scop)
    }
    found_keys = {(f.producer, f.consumer, f.kind, f.ref) for f in dep.families}
    if found_keys != oracle_keys:
        failures.append(
            f"families missing {sorted(oracle_keys - found_keys)}, "
            f"spurious {sorted(found_keys - oracle_keys)}"
        )
    for kind, families in (
        ("field", dep.intra_field_families()),
        ("prologue", dep.prologue_families()),
        ("epilogue", dep.epilogue_families()),
        ("scalar", dep.scalar_families()),
    ):
        expected = sum(1 for key in oracle_keys if _family_class(*key[:3]) == kind)
        if len(families) != expected:
            failures.append(
                f"{kind} flow families: oracle finds {expected}, analysis finds {len(families)}"
            )
    if elapsed >= 5.0:
        failures.append(f"analysis took {elapsed:.2f}s (budget 5s)")
    report(1, "golden dependence analysis on gol16", failures)


def test_criterion_2_placement_match(gol16_analysis):
    failures = []
    analysis = gol16_analysis
    scop = analysis.scop
    fp = analysis.field_placement
    sp = analysis.stmt_placement

    def home_of_xy(sid, fieldname):
        from polydist.isets import AffineExpr

        s = scop.statement(sid)
        fld = scop.field(fieldname)
        sel = IntMap.from_exprs(s.space, fld.space, [AffineExpr.var(3, 1), AffineExpr.var(3, 2)])
        return compose(fp.maps[fieldname], restrict_domain(sel, s.domain))

    for sid in ("S1.1", "S1.2", "S1.3", "S1.4", "S1.5", "S1.6", "S1.7"):
        if not maps_equal(sp.maps[sid], home_of_xy(sid, "back")):
            failures.append(f"pi {sid} != pi back(x,y)")
    for sid in ("S2.1", "S2.2"):
        if not maps_equal(sp.maps[sid], home_of_xy(sid, "front")):
            failures.append(f"pi {sid} != pi front(x,y)")
    report(2, "owner-computes placement equals the worked example", failures)


def test_criterion_3_chunking(gol16_analysis):
    failures = []
    analysis = gol16_analysis
    dep = analysis.dep
    fam = next(
        f for f in dep.intra_field_families() if (f.producer, f.consumer) == ("S2.2", "S1.1")
    )
    phi = analysis.chunkings[("S2.2", "S1.1", "front")]
    if phi.level != 2:
        failures.append(f"heuristic level {phi.level}, expected 2")
    if apply_point(phi, (2, 9, 4)) != (2, 0, 0):
        failures.append("phi does not fix i and zero x,y")
    if not validate_chunking(phi, dep):
        failures.append("chosen chunking is not valid")
    # minimality: level 1 must fail one of the two conditions
    from polydist.chunking import _collapsed_has_cycle

    cons = dep.scop.statement("S1.1")
    phi1 = ChunkingFn(consumer="S1.1", level=1, kept_dims=(), space=cons.space)
    if strict_prefix_holds(dep.scop, fam, 1) and not _collapsed_has_cycle(dep, phi1):
        failures.append("level 1 unexpectedly qualifies; heuristic not minimal")
    report(3, "chunking level 2 with per-iteration representatives", failures)


def test_criterion_4_transfer_counts(gol16_analysis):
    failures = []
    analysis = gol16_analysis
    dep, fp, sp = analysis.dep, analysis.field_placement, analysis.stmt_placement
    plan = compile_plan(analysis.scop, dep, fp, sp, analysis.chunkings)
    sizes = {
        (ch.src, ch.dst): ch.layout.size
        for ch in plan.channels
        if ch.family == "flow:S2.2->S1.1:front" and not ch.loopback
    }
    if sizes != {((0, 0), (1, 0)): 7, ((0, 1), (1, 1)): 7}:
        failures.append(f"boundary buffer sizes {sizes}, expected 7 per pair")
    # brute-force enumeration oracle of Transfers'
    oracle: dict = {}
    fam = next(
        f for f in dep.intra_field_families() if (f.producer, f.consumer) == ("S2.2", "S1.1")
    )
    for ig, ic, k in fam.pairs():
        prod_nodes = [tuple(p) for p in placement_nodes(sp, "S2.2", ig)]
        for pc in (tuple(p) for p in placement_nodes(sp, "S1.1", ic)):
            pg = pc if pc in prod_nodes else min(prod_nodes)
            if pg != pc:
                oracle.setdefault((pg, pc), set()).add(k)
    expected_sizes = {pair: len(elems) for pair, elems in oracle.items()}
    got = {}
    transfers = build_transfers(dep, sp, fp, analysis.chunkings)
    for t in transfers["flow:S2.2->S1.1:front"]:
        if t.producer_node != t.consumer_node:
            got.setdefault((t.producer_node, t.consumer_node), set()).add(t.element)
    got_sizes = {pair: len(elems) for pair, elems in got.items()}
    if got_sizes != expected_sizes:
        failures.append(f"transfers {got_sizes} mismatch oracle {expected_sizes}")
    if any(n != 7 for n in expected_sizes.values()):
        failures.append(f"oracle boundary counts {expected_sizes} not 7")
    report(4, "boundary chunk carries 7 elements per (src,dst) pair", failures)


def test_criterion_5_end_to_end_oracle_equivalence(gol16_path):
    failures = []
    t0 = time.monotonic()
    seeds = [11, 22, 33, 44, 55]
    for grid in ((1, 1), (2, 2), (4, 4)):
        doc = json.loads(gol16_path.read_text())
        doc["grid"] = list(grid)
        scop = parse_scop(json.dumps(doc))
        analysis, plan = plan_scop(scop)
        for seed in seeds:
            init = random_contents(scop, seed)
            final, _ = run(init_runtime(plan, analysis.scop.grid, init), analysis.scop)
            expected = sequential_execute(scop, init)
            if not contents_equal(final, expected):
                failures.append(f"grid {grid} seed {seed}: simulation diverges")
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s (budget 30s)")
    report(5, "simulated execution bit-equals sequential on 3 grids x 5 seeds", failures)


def _flow_message_counts(scop_path, grid):
    doc = json.loads(scop_path.read_text())
    doc["grid"] = list(grid)
    scop = parse_scop(json.dumps(doc))
    analysis, plan = plan_scop(scop)
    init = random_contents(scop, 1)
    _, trace = run(init_runtime(plan, analysis.scop.grid, init), analysis.scop)
    chan_by_tag = {ch.cid: ch for ch in plan.channels}
    counts: dict = {}
    for step, node, kind, chunk, tag, _ in trace.entries:
        if kind not in ("send", "recv") or not chunk.startswith("flow:"):
            continue
        ch = chan_by_tag[tag]
        if ch.src == ch.dst:
            continue
        rep = chunk.rsplit("@", 1)[1]
        iteration = int(rep.strip("()").split(",")[0])
        if kind == "send" and ch.src == (0, 0):
            counts.setdefault(iteration, [0, 0])[0] += 1
        if kind == "recv" and ch.dst == (0, 0):
            counts.setdefault(iteration, [0, 0])[1] += 1
    return counts


def test_criterion_6_weak_scaling_message_count(gol16_path, scops_dir):
    failures = []
    small = _flow_message_counts(gol16_path, (2, 2))
    large = _flow_message_counts(scops_dir / "gol32.scop", (4, 4))
    if not small or not large:
        failures.append("no cross-node flow messages found")
    if len(set(map(tuple, small.values()))) > 1:
        failures.append(f"per-iteration counts vary within 2x2 run: {small}")
    if len(set(map(tuple, large.values()))) > 1:
        failures.append(f"per-iteration counts vary within 4x4 run: {large}")
    if small and large:
        a = next(iter(small.values()))
        b = next(iter(large.values()))
        if a != b:
            failures.append(f"per-iteration (sends, recvs) at node (0,0): 2x2 {a} vs 4x4 {b}")
    report(6, "per-iteration message count at a fixed node is grid-size invariant", failures)


def test_criterion_7_set_kernel_oracle():
    failures = []
    t0 = time.monotonic()
    bad = 0
    for seed in range(1000):
        try:
            run_algebra_case(seed)
        except AssertionError:
            bad += 1
            if bad <= 3:
                failures.append(f"algebra case {seed} diverges from enumeration oracle")
    if bad > 3:
        failures.append(f"... and {bad - 3} more failing cases")
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        failures.append(f"1000 cases took {elapsed:.1f}s (budget 10s)")
    report(7, "1000 randomized set-algebra cases match the enumeration oracle", failures)


def test_criterion_8_protocol_order(gol16_analysis):
    failures = []
    analysis = gol16_analysis
    plan = compile_plan(
        analysis.scop,
        analysis.dep,
        analysis.field_placement,
        analysis.stmt_placement,
        analysis.chunkings,
    )
    init = random_contents(analysis.scop, 77)
    _, trace = run(init_runtime(plan, analysis.scop.grid, init), analysis.scop)
    send_step: dict = {}
    violations = 0
    for step, node, kind, chunk, tag, _ in trace.entries:
        if kind == "send":
            send_step[(chunk, tag)] = step
        elif kind == "recv_wait":
            if (chunk, tag) not in send_step or send_step[(chunk, tag)] >= step:
                violations += 1
    # every cross-node transfer must be covered by some traced chunk
    transfers = build_transfers(
        analysis.dep, analysis.stmt_placement, analysis.field_placement, analysis.chunkings
    )
    cross = [
        t
        for tuples in transfers.values()
        for t in tuples
        if t.producer_node != t.consumer_node
    ]
    traced_chunks = {chunk for (chunk, _tag) in send_step}
    for t in cross:
        key_prefixes = [f"flow:{t.producer}->{t.consumer}:{t.fieldname}@",
                        f"pro:{t.consumer}:{t.fieldname}@",
                        f"epi:{t.producer}:{t.fieldname}@"]
        if not any(any(c.startswith(p) for p in key_prefixes) for c in traced_chunks):
            violations += 1
    if violations:
        failures.append(f"{violations} protocol-order violations")
    report(8, "every send precedes the matching recv_wait completion", failures)

