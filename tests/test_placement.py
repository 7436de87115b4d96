import json

import numpy as np
import pytest

from conftest import SCOPS
from oracle import block_home, block_sizes, maps_equal, placement_nodes, sets_equal
from test_contract import EXPECTED
from test_simrt import CO_LOCATED, LATE_WRITER, verifies_in_any_order
from polydist.cli import main
from polydist.commgen import CommPlan
from polydist.deps import add_virtual_statements, compute_flow
from polydist.errors import AnalysisError, IndivisibleExtent
from polydist.fields import random_contents
from polydist.isets import (
    IntMap,
    IntSet,
    compose,
    map_domain,
    restrict_domain,
)
from polydist.placement import Placement, block_distribute, place_statements, dump_placements
from polydist.pipeline import cap_iterations, override_grid
from polydist.scop import ClusterGrid, FieldDecl, isolate_accesses
from polydist.scopio import parse_scop, parse_scop_file
from polydist.simrt import init_runtime
from polydist.syntax import parse_map


@pytest.fixture(scope="module")
def gol16_pipeline(gol16_path):
    virt = add_virtual_statements(isolate_accesses(parse_scop_file(gol16_path)))
    dep = compute_flow(virt)
    fp = block_distribute(virt.fields, virt.grid)
    sp = place_statements(virt, dep, fp)
    return virt, dep, fp, sp


def home_of(fp, name, index, grid):
    """The node the field's home map places one element on."""
    return grid.nodes[fp.homes(name, np.array([index]), grid)[0]]


def test_block_distribute_large_scale():
    # 1024 extent on an 8-node axis: 128-sized tiles
    f = FieldDecl("f", "bool", (1024, 1024))
    grid = ClusterGrid((8, 8))
    fp = block_distribute([f], grid)
    blocks = block_sizes(f.extents, grid.extents)
    assert blocks == (128, 128)
    assert block_home((130, 5), blocks) == (1, 0)
    assert home_of(fp, "f", (130, 5), grid) == (1, 0)


def test_block_distribute_small():
    f = FieldDecl("f", "bool", (16, 16))
    grid = ClusterGrid((2, 2))
    fp = block_distribute([f], grid)
    assert block_home((7, 8), block_sizes(f.extents, grid.extents)) == (0, 1)
    assert home_of(fp, "f", (7, 8), grid) == (0, 1)


def test_block_distribute_single_node():
    f = FieldDecl("f", "bool", (16, 16))
    grid = ClusterGrid((1, 1))
    fp = block_distribute([f], grid)
    for idx in [(0, 0), (7, 9), (15, 15)]:
        assert block_home(idx, block_sizes(f.extents, grid.extents)) == (0, 0)
        assert home_of(fp, "f", idx, grid) == (0, 0)


def _pieced(text):
    """A placement of one 1-D field of 8 elements on a 2-node grid by a map of pieces."""
    f, grid = FieldDecl("f", "int64", (8,)), ClusterGrid((2,))
    return Placement({"f": parse_map(text, dom=f.space, ran=grid.space)}), grid


def test_homes_of_a_map_of_pieces():
    # a block-cyclic-like map: one home per element, read from its piece
    p, grid = _pieced("{ f[k] -> P[0] : 0 <= k <= 1; f[k] -> P[1] : 2 <= k <= 5; "
                      "f[k] -> P[0] : 6 <= k <= 7 }")
    assert p.homes("f", np.arange(8)[:, None], grid).tolist() == [0, 0, 1, 1, 1, 1, 0, 0]


@pytest.mark.parametrize("element", [2, 3, 8, -1])
def test_homes_of_an_unplaced_element_rejected(element):
    # elements in the map's hole and outside its box: no row, and none wraps
    # to the table's last row
    p, grid = _pieced("{ f[k] -> P[0] : 0 <= k <= 1; f[k] -> P[1] : 4 <= k <= 7 }")
    with pytest.raises(AnalysisError, match=rf"^field f has no home for element \({element},\)$"):
        p.homes("f", np.array([[0], [element], [7]]), grid)


def test_block_distribute_indivisible():
    f = FieldDecl("f", "bool", (16, 16))
    with pytest.raises(IndivisibleExtent):
        block_distribute([f], ClusterGrid((3, 3)))


@pytest.mark.parametrize("grid", sorted({grid for _, grid in EXPECTED}))
@pytest.mark.parametrize("path", sorted(SCOPS.glob("*.scop")), ids=lambda p: p.stem)
def test_homes_are_blocks(path, grid):
    """Every element's home, by its field's map and in the simulator's
    home lookup, is its block, so the nodes' home elements partition the
    field into blocks; the simulator starts from the contents."""
    scop = override_grid(parse_scop_file(path), tuple(int(g) for g in grid.split("x")))
    g = scop.grid
    fp = block_distribute(scop.fields, g)
    fields = tuple((f.name, f.element_type, f.extents) for f in scop.fields)
    init = random_contents(scop, 1)
    sim = init_runtime(CommPlan(scop.name, g.extents, scop.scatter_arity, fields, fp, Placement({}), [], {}), g, init)
    for f in scop.fields:
        every = list(np.ndindex(*f.extents))
        blocks = block_sizes(f.extents, g.extents)
        expected = [block_home(e, blocks) for e in every]
        assert [g.nodes[i] for i in fp.homes(f.name, np.array(every), g).tolist()] == expected
        assert [g.nodes[sim.homes[f.name][e]] for e in every] == expected
        assert np.array_equal(sim.memory[f.name], init[f.name])


def test_owner_computes_placement(gol16_pipeline):
    virt, dep, fp, sp = gol16_pipeline
    # every S1.* runs at back's home of (x,y); S2.* at front's home of (x,y)
    for sid in ["S1.1", "S1.2", "S1.3", "S1.4", "S1.5", "S1.6", "S1.7"]:
        expected = _home_of_xy(virt, fp, sid, "back")
        assert maps_equal(sp.maps[sid], expected), sid
    for sid in ["S2.1", "S2.2"]:
        expected = _home_of_xy(virt, fp, sid, "front")
        assert maps_equal(sp.maps[sid], expected), sid


def _home_of_xy(scop, fp, sid, field):
    from polydist.isets import AffineExpr

    s = scop.statement(sid)
    fld = scop.field(field)
    sel = IntMap.from_exprs(s.space, fld.space, [AffineExpr.var(3, 1), AffineExpr.var(3, 2)])
    sel = restrict_domain(sel, s.domain)
    return compose(fp.maps[field], sel)


@pytest.mark.parametrize("case", [f"{name}-{grid}" for name, grid in EXPECTED]
                         + ["unread", "late_writer", "co_located", "split", "adopt", "carry8", "carry32"])
def test_scalar_safety(scops_dir, case):
    # a scalar's consumer runs only where its producer runs
    virt = add_virtual_statements(isolate_accesses(_scop(scops_dir, case)))
    dep = compute_flow(virt)
    sp = place_statements(virt, dep, block_distribute(virt.fields, virt.grid))
    nodes = {}
    for s in virt.statements:
        for r in sp.table[s.id].tolist():
            nodes.setdefault((s.id, tuple(r[: s.arity])), set()).add(tuple(r[s.arity :]))
    for fam in dep.scalar_families():
        for ig, ic, _ in fam.pairs():
            assert nodes[fam.consumer, ic] <= nodes[fam.producer, ig], (fam.producer, fam.consumer, ig, ic)


@pytest.mark.parametrize("case", [f"{name}-{grid}" for name, grid in EXPECTED] + ["late_writer", "co_located"])
def test_owner_computes_invariant(scops_dir, case):
    # owner computes: each instance that writes a field runs, among its
    # nodes, on the block that homes the element it writes
    virt = add_virtual_statements(isolate_accesses(_scop(scops_dir, case)))
    sp = place_statements(virt, compute_flow(virt), block_distribute(virt.fields, virt.grid))
    writers = [s for s in virt.real_statements() if s.writes()]
    assert writers
    for s in writers:
        j, acc = s.writes()[0]
        blocks = block_sizes(virt.field(acc.field).extents, virt.grid.extents)
        placed = set(map(tuple, sp.table[s.id].tolist()))
        for point, k in zip(s.instances.tolist(), s.elements[j]):
            assert (*point, *block_home(k, blocks)) in placed, (s.id, point)


def test_every_instance_placed(gol16_pipeline):
    virt, dep, fp, sp = gol16_pipeline
    for s in virt.statements:
        m = sp.maps[s.id]
        dom = IntSet(s.domain.space, map_domain(m).pieces)
        assert sets_equal(dom, s.domain), s.id


def test_placement_fixpoint(gol16_pipeline):
    virt, dep, fp, sp = gol16_pipeline
    again = place_statements(virt, dep, fp)
    for sid, m in sp.maps.items():
        assert maps_equal(m, again.maps[sid])


def test_single_node_grid_trivial(gol16_path):
    doc = json.loads(gol16_path.read_text())
    doc["grid"] = [1, 1]
    scop = parse_scop(json.dumps(doc))
    virt = add_virtual_statements(isolate_accesses(scop))
    dep = compute_flow(virt)
    fp = block_distribute(virt.fields, virt.grid)
    sp = place_statements(virt, dep, fp)
    for s in virt.real_statements():
        for point in [(0, 1, 1), (2, 14, 14)]:
            assert placement_nodes(sp, s.id, point) == [(0, 0)]


def test_dump_shape(gol16_pipeline):
    virt, dep, fp, sp = gol16_pipeline
    text = dump_placements(virt, fp, sp)
    assert "pi front = { front[k0, k1] -> P[floor(k0/8), floor(k1/8)]" in text
    assert "pi S1.7 = { S1.7[i, x, y] -> P[floor(x/8), floor(y/8)]" in text
    assert text == dump_placements(virt, fp, sp)


# S reads f into a scalar nobody reads and U reads no field: neither writes
# a field, so the default places S at the home of the element it reads and
# U on node 0
UNREAD = {
    "name": "unread", "grid": [2], "scatter_arity": 2,
    "fields": [{"name": "f", "type": "int64", "extents": [8]}],
    "functions": {},
    "statements": [
        {"id": "S", "domain": "{ [x] : 0 <= x <= 7 }", "schedule": "{ [x] -> [0, x] }",
         "accesses": [{"field": "f", "kind": "read", "index": ["x"]}],
         "body": ["access", 0], "scalar_writes": ["t"]},
        {"id": "U", "domain": "{ [x] : 0 <= x <= 3 }", "schedule": "{ [x] -> [1, x] }",
         "body": ["int", 1], "scalar_writes": ["u"]},
    ],
}


# S(x) reads f[x+4] into t, which T(x) reads with g[x]: the default puts S
# on (1,) and T on (0,), and co-location, run after the default, adds (0,)
# to S
SPLIT = {
    "name": "split", "grid": [2], "scatter_arity": 2,
    "fields": [{"name": "f", "type": "int64", "extents": [8]}, {"name": "g", "type": "int64", "extents": [8]}],
    "functions": {},
    "statements": [
        {"id": "S", "domain": "{ [x] : 0 <= x <= 3 }", "schedule": "{ [x] -> [x, 0] }",
         "accesses": [{"field": "f", "kind": "read", "index": ["x + 4"]}],
         "body": ["access", 0], "scalar_writes": ["t"]},
        {"id": "T", "domain": "{ [x] : 0 <= x <= 3 }", "schedule": "{ [x] -> [x, 1] }",
         "accesses": [{"field": "g", "kind": "read", "index": ["x"]}],
         "body": ["add", ["access", 0], ["var", "t"]], "scalar_reads": ["t"], "scalar_writes": ["u"]},
    ],
}

# SPLIT after W and V write h and g: S and T read values of real writers,
# not values from before the region
ADOPT = {
    "name": "adopt", "grid": [2], "scatter_arity": 2,
    "fields": [{"name": "h", "type": "int64", "extents": [8]}, {"name": "g", "type": "int64", "extents": [8]}],
    "functions": {},
    "statements": [
        {"id": "W", "domain": "{ [x] : 0 <= x <= 7 }", "schedule": "{ [x] -> [0, x] }",
         "accesses": [{"field": "h", "kind": "write", "index": ["x"]}], "body": ["int", 3]},
        {"id": "V", "domain": "{ [x] : 0 <= x <= 7 }", "schedule": "{ [x] -> [1, x] }",
         "accesses": [{"field": "g", "kind": "write", "index": ["x"]}], "body": ["int", 5]},
        dict(SPLIT["statements"][0], schedule="{ [x] -> [2, 2*x] }",
             accesses=[{"field": "h", "kind": "read", "index": ["x + 4"]}]),
        dict(SPLIT["statements"][1], schedule="{ [x] -> [2, 2*x + 1] }"),
    ],
}


def carry(n):
    """A loop-carried scalar: t = t + f[x] and g[x] = t, so co-location
    takes one round per carried step to its fixpoint."""
    return {
        "name": f"carry{n}", "grid": [2], "scatter_arity": 3,
        "fields": [{"name": "f", "type": "float64", "extents": [n]}, {"name": "g", "type": "float64", "extents": [n]}],
        "functions": {},
        "statements": [
            {"id": "Z", "domain": "{ [x] : x = 0 }", "schedule": "{ [x] -> [0, 0, 0] }",
             "body": ["float", 0], "scalar_writes": ["t"]},
            {"id": "A", "domain": f"{{ [x] : 0 <= x <= {n - 1} }}", "schedule": "{ [x] -> [1, x, 0] }",
             "accesses": [{"field": "f", "kind": "read", "index": ["x"]}],
             "body": ["add", ["access", 0], ["var", "t"]], "scalar_reads": ["t"], "scalar_writes": ["t"]},
            {"id": "B", "domain": f"{{ [x] : 0 <= x <= {n - 1} }}", "schedule": "{ [x] -> [1, x, 1] }",
             "accesses": [{"field": "g", "kind": "write", "index": ["x"]}],
             "body": ["var", "t"], "scalar_reads": ["t"]},
        ],
    }


DOCS = {"unread": UNREAD, "late_writer": LATE_WRITER, "co_located": CO_LOCATED, "split": SPLIT,
        "adopt": ADOPT, "carry8": carry(8), "carry32": carry(32)}


def _scop(scops_dir, case):
    if case in DOCS:
        return parse_scop(json.dumps(DOCS[case]))
    name, grid = case.split("-")
    scop = parse_scop_file(scops_dir / f"{name}.scop")
    if grid == "empty":
        return cap_iterations(scop, 0)
    return override_grid(scop, tuple(int(g) for g in grid.split("x")))


@pytest.mark.parametrize("case", ["unread", "gol16-2x2", "gol16_fused-8x8", "gol16-empty"])
def test_placement_covers_every_instance(scops_dir, monkeypatch, case):
    calls = []

    def counted(m):
        calls.append(m)
        return map_domain(m)

    monkeypatch.setattr("polydist.placement.map_domain", counted)
    virt = add_virtual_statements(isolate_accesses(_scop(scops_dir, case)))
    dep = compute_flow(virt)
    sp = place_statements(virt, dep, block_distribute(virt.fields, virt.grid))
    for s in virt.statements:
        assert {tuple(r[: s.arity]) for r in sp.table[s.id].tolist()} == set(map(tuple, s.instances.tolist())), s.id
    # each statement's missing instances are derived once, for the default
    assert len(calls) <= len(virt.statements)


def test_unread_statements_placed(tmp_path, capsys):
    path = tmp_path / "unread.scop"
    path.write_text(json.dumps(UNREAD))
    assert main(["analyze", str(path), "--dump", "place", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "placements.txt").read_text() == (
        "pi f = { f[k0] -> P[floor(k0/4)] : 0 <= k0 <= 7 }\n"
        "pi S = { S[x] -> P[floor(x/4)] : 0 <= x <= 7 }\n"
        "pi U = { U[x] -> P[0] : 0 <= x <= 3 }\n"
        "pi Prologue = { Prologue[] -> P[p0] : 0 <= p0 <= 1 }\n"
        "pi Epilogue = { Epilogue[] -> P[p0] : 0 <= p0 <= 1 }\n"
    )
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == "verify: PASS (grid=2, seed=0)\n"


@pytest.mark.parametrize("case", ["split", "adopt", "carry8", "carry32"])
def test_scalar_read_where_written(case):
    # each verifies under seeds 0-3, and runs alike in any order
    plan = verifies_in_any_order(DOCS[case])
    if case in ("split", "adopt"):
        assert plan.stmt_placement.table["S"].tolist() == [[x, p] for x in range(4) for p in (0, 1)]
        assert plan.stmt_placement.table["T"].tolist() == [[x, 0] for x in range(4)]
