"""The output contract: plan, trace and final contents of the shipped
configurations below, and the analysis dumps of two of them, pinned by
sha256.  A change to any of them must say why."""

import hashlib
import importlib.util
import subprocess
import sys

import numpy as np
import pytest

from conftest import REPO_ROOT
from oracle import block_home, block_sizes
from polydist.cli import main
from polydist.commgen import build_transfers, dump_plan, parse_plan
from polydist.deps import EPILOGUE
from polydist.pipeline import cap_iterations, override_grid, plan_scop
from polydist.scopio import parse_scop_file

EXPECTED = {
    ("gol16", "2x2"): {
        "plan.txt": "54c0f22ccc4883c8cde64c416316c2708970caac8bf88aaff822bc27fe211717",
        "trace.txt": "a5d5f8a3a9b888b837cd547f2be75360b19ec308cf40204f482af17dd90e9d56",
        "fields.txt": "8720dc71e6251c2ce067a8b9a4fdb5755e7571421572ff3d56a9528dea2dac82",
    },
    ("gol16", "4x4"): {
        "plan.txt": "77ad7069227bfab0e32dac7d9a358e843e8203c9c84ad2af3f42057cb8fcd698",
        "trace.txt": "216e9a043bc36825c5a9dede90c3bcbf5da39675287df91fc495eb31203db267",
        "fields.txt": "8720dc71e6251c2ce067a8b9a4fdb5755e7571421572ff3d56a9528dea2dac82",
    },
    ("gol16_fused", "2x2"): {
        "plan.txt": "90772303fd86dd50f0172096a22a2b76148270f0d29bf82f4bde02f7f420fe58",
        "trace.txt": "a5d5f8a3a9b888b837cd547f2be75360b19ec308cf40204f482af17dd90e9d56",
        "fields.txt": "8720dc71e6251c2ce067a8b9a4fdb5755e7571421572ff3d56a9528dea2dac82",
    },
    ("gol16_fused", "8x8"): {
        "plan.txt": "f76edbcf19b4c7b2d9e36c7e67c00112d29c92e4ffdb5bb9ecb05ebcb9079746",
        "trace.txt": "bf3bbc2b09cfa99afda576764cc7a324f39b2b766b29f95c7a6478c438489464",
        "fields.txt": "8720dc71e6251c2ce067a8b9a4fdb5755e7571421572ff3d56a9528dea2dac82",
    },
    ("gol16_fused", "16x16"): {
        "plan.txt": "5070a8686f6c7fbd7f88c42e71677dfed702992b0ddd81d5a6c6ca3a21cf7caa",
        "trace.txt": "7587b6bf8789da454f2d252b667243ae5ee7f1d553e8563988e3787937058de1",
        "fields.txt": "8720dc71e6251c2ce067a8b9a4fdb5755e7571421572ff3d56a9528dea2dac82",
    },
    ("gol32", "2x2"): {
        "plan.txt": "33983a6541cfdbb72e76a154760c9cca347fb405cf8f4f271485d10e33f4f1b9",
        "trace.txt": "bd5f05d1a85a0cf664445ff770c43ad2ad65c5d0daf83b2d8c3cd6f797c96b73",
        "fields.txt": "819ade320055e4b61c6d130a1f7d7274dec4410805a51ba3931f4c6a1743c2aa",
    },
    ("gol32", "4x4"): {
        "plan.txt": "02b17ecb1b31a164278608c557360deab80712165af108b4bd816418eeb4d4d0",
        "trace.txt": "738bbfd175b531d73c5bdfc3794835ea565896e98d00a373c1c7e3baea5bf7a1",
        "fields.txt": "819ade320055e4b61c6d130a1f7d7274dec4410805a51ba3931f4c6a1743c2aa",
    },
}


@pytest.mark.parametrize("scop, grid", sorted(EXPECTED))
def test_simulate_outputs_pinned(scops_dir, tmp_path, scop, grid):
    argv = ["simulate", str(scops_dir / f"{scop}.scop"), "--grid", grid,
            "--dump", "plan,trace", "--seed", "7", "--out", str(tmp_path)]
    assert main(argv) == 0
    for name, digest in EXPECTED[(scop, grid)].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    text = (tmp_path / "plan.txt").read_text()
    assert dump_plan(parse_plan(text)) == text


# the keys each line kind of a plan states: a fact derived from another
# entry (a tag, a size, an element type, a block size) is not among them
PLAN_KEYS = {
    "field": {"extents"},
    "channel": {"cid", "family", "src", "dst", "box"},
    "compute": {"t", "kind", "stmt", "i", "read", "write"},
    **{call: {"t", "kind", "chunk", "cid"} for call in ("send_wait", "send", "recv_wait", "recv")},
    "buffer_fill": {"t", "kind", "chunk", "cid", "elem", "rank"},
}


def test_plan_lines_state_each_fact_once(scops_dir, tmp_path):
    assert main(["plan", str(scops_dir / "gol16.scop"), "--grid", "2x2", "--out", str(tmp_path)]) == 0
    seen = set()
    for ln in (tmp_path / "plan.txt").read_text().splitlines()[1:]:
        head, *rest = ln.split()
        if head == "fieldmap":
            continue
        kv = dict(p.split("=", 1) for p in rest if "=" in p)
        kind = kv["kind"] if head.startswith("node=") else head
        assert set(kv) == PLAN_KEYS[kind], ln
        seen.add(kind)
    assert seen == set(PLAN_KEYS)


@pytest.mark.parametrize("scop, grid", sorted(EXPECTED))
def test_only_values_between_nodes_travel(scops_dir, scop, grid):
    """Checked against build_transfers' columns and block homes: no channel
    runs from a node to itself, a compute event reads storage exactly when
    its transfer stays on one node that homes the element, and it stores
    exactly when its node homes the element it writes."""
    extents = tuple(map(int, grid.split("x")))
    analysis, plan = plan_scop(override_grid(parse_scop_file(scops_dir / f"{scop}.scop"), extents))
    assert plan.channels and all(ch.src != ch.dst for ch in plan.channels)
    virt, nodes = analysis.scop, np.array(analysis.scop.grid.nodes)
    blocks = {f.name: block_sizes(f.extents, extents) for f in virt.fields}
    local = set()  # (consumer, instance row, node position) of every local, homed transfer
    for ts in build_transfers(analysis.dep, analysis.stmt_placement, analysis.field_placement,
                              analysis.chunkings).values():
        fam = ts.family
        if fam.consumer == EPILOGUE:
            continue
        home = fam.table[ts.pair, fam.n_prod + fam.n_cons :] // np.array(blocks[fam.ref])
        here = (ts.producer_node == ts.consumer_node) & (home == nodes[ts.consumer_node]).all(axis=1)
        local.update((fam.consumer, r, c) for r, c in zip(ts.consumer_row[here].tolist(),
                                                           ts.consumer_node[here].tolist()))
    position = {c: p for p, c in enumerate(virt.grid.nodes)}
    reads = stores = 0
    for node, evs in plan.events.items():
        for ev in (ev for ev in evs if ev.kind == "compute"):
            s = virt.statement(ev.stmt)
            row = s.rows[ev.instance]
            if s.reads():
                reads += ev.read_from is None
                assert (ev.read_from is None) == ((ev.stmt, row, position[node]) in local), (node, ev)
            homed = any(block_home(s.elements[j][row], blocks[acc.field]) == node for j, acc in s.writes())
            stores += homed
            assert (("storage",) in ev.writes) == homed, (node, ev)
    assert reads and stores


# gol16's dumps are golden files; these two configurations print the
# floor(k0/2) and floor(k0/16) placement maps and their own dependence splits.
ANALYSIS = {
    ("gol16_fused", "8x8"): {
        "deps.txt": "d33d7d1a5256e4799f0d236d6ac5b7a7464f59035cc2a45223925a658881cc8b",
        "placements.txt": "50a6e5975b5decf7bea021014b6bfbef59ab3f08ef94a2a8a0e91fd59192dd99",
        "chunks.txt": "4d9996f9d0cf5882095e77c58a5bd9b6f73aad09ae9d0b95c97606d961abc90a",
    },
    ("gol32", "2x2"): {
        "deps.txt": "9af5c7dfb665400ae8a63bbfb4c608fe56cdfd3968dc8658b45542b8660f6166",
        "placements.txt": "e48340ad0eabfa874847009de52dddad8c66da36ac6af282bf0cdbee810083db",
        "chunks.txt": "4d9996f9d0cf5882095e77c58a5bd9b6f73aad09ae9d0b95c97606d961abc90a",
    },
}


@pytest.mark.parametrize("scop, grid", sorted(ANALYSIS))
def test_analysis_dumps_pinned(scops_dir, tmp_path, scop, grid):
    argv = ["analyze", str(scops_dir / f"{scop}.scop"), "--grid", grid,
            "--dump", "deps,place,chunk", "--out", str(tmp_path)]
    assert main(argv) == 0
    for name, digest in ANALYSIS[(scop, grid)].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", REPO_ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Probe:
    """Stands in for perfbench's SpeedProbe: wall time at reference speed."""

    def scaled(self, t0: float, t1: float) -> float:
        return t1 - t0

    def speed(self, *_) -> float:
        return 1.0


def test_perfbench_pipeline_runs(scops_dir):
    """perfbench/sample.py plans through the stage functions themselves
    (FlowFamily.pairs, build_transfers, len() of each transfers value,
    group_chunks, emit_protocol): it must run on them and plan what
    plan_scop plans."""
    sample, spans = _perfbench("sample"), _perfbench("spans")
    cfg = {"scop": "scops/gol16.scop", "grid": [2, 2], "iters": 1, "contents_seeds": [1]}
    out = sample.run_pipeline(cfg, REPO_ROOT, spans.NullRecorder(), _Probe())
    assert out["failures"] == []
    scop = cap_iterations(override_grid(parse_scop_file(scops_dir / "gol16.scop"), (2, 2)), 1)
    expected = hashlib.sha256(dump_plan(plan_scop(scop)[1]).encode()).hexdigest()
    assert out["counts"]["plan_sha256"] == expected


# perfbench's workloads: (scop, grid, plan_events, plan_messages, and the
# per-layer commgen.transfers, which counts no epilogue transfer)
PLAN_COUNTS = {
    "gol16_fused-8x8": ("scops/gol16_fused.scop", [8, 8], 8372, 672, 3528),
    "gol32-2x2": ("scops/gol32.scop", [2, 2], 24516, 24, 16200),
}


@pytest.mark.parametrize("workload", sorted(PLAN_COUNTS))
def test_perfbench_plan_counts_pinned(workload):
    sample, spans = _perfbench("sample"), _perfbench("spans")
    scop, grid, events, messages, transfers = PLAN_COUNTS[workload]
    cfg = {"scop": scop, "grid": grid, "iters": None, "contents_seeds": []}
    out = sample.run_pipeline(cfg, REPO_ROOT, spans.NullRecorder(), _Probe())
    assert out["failures"] == []
    counts = out["counts"]
    assert (counts["plan_events"], counts["plan_messages"], counts["commgen.transfers"]) == (
        events, messages, transfers)


def test_perfbench_tampered_plan_fails_each_seed():
    """perfbench's tamper path rebuilds the per-node event lists without
    one cross-node send, swaps them in with dataclasses.replace and runs
    simrt on the result: planning succeeds and every contents seed fails
    verification once."""
    sample, spans = _perfbench("sample"), _perfbench("spans")
    cfg = {"scop": "scops/gol16.scop", "grid": [2, 2], "iters": 1, "contents_seeds": [1, 2],
           "tamper": True}
    out = sample.run_pipeline(cfg, REPO_ROOT, spans.NullRecorder(), _Probe())
    assert out["plan_s"] is not None and "counts" in out
    assert [f["op"] for f in out["failures"]] == ["verify seed 1", "verify seed 2"]


def test_perfbench_selftest_passes():
    """The benchmark's own self-test runs the staged pipeline, simulator
    included, in fresh processes: an API change that breaks it fails here."""
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: PASS" in done.stdout
