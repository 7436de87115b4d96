import pytest

from oracle import maps_equal, sets_equal
from polydist.deps import add_virtual_statements, compute_flow
from polydist.errors import IndivisibleExtent
from polydist.isets import (
    IntMap,
    IntSet,
    compose,
    map_domain,
    restrict_domain,
)
from polydist.placement import block_distribute, place_statements, dump_placements
from polydist.scop import ClusterGrid, FieldDecl, isolate_accesses
from polydist.scopio import parse_scop_file


@pytest.fixture(scope="module")
def gol16_pipeline(gol16_path):
    virt = add_virtual_statements(isolate_accesses(parse_scop_file(gol16_path)))
    dep = compute_flow(virt)
    fp = block_distribute(virt.fields, virt.grid)
    sp = place_statements(virt, dep, fp)
    return virt, dep, fp, sp


def test_block_distribute_large_scale():
    # 1024 extent on an 8-node axis: 128-sized tiles
    f = FieldDecl("f", "bool", (1024, 1024))
    fp = block_distribute([f], ClusterGrid((8, 8)))
    assert fp.block_extents["f"] == (128, 128)
    assert fp.homes("f", (130, 5)) == [(1, 0)]


def test_block_distribute_small():
    f = FieldDecl("f", "bool", (16, 16))
    fp = block_distribute([f], ClusterGrid((2, 2)))
    assert fp.homes("f", (7, 8)) == [(0, 1)]


def test_block_distribute_single_node():
    f = FieldDecl("f", "bool", (16, 16))
    fp = block_distribute([f], ClusterGrid((1, 1)))
    for idx in [(0, 0), (7, 9), (15, 15)]:
        assert fp.homes("f", idx) == [(0, 0)]


def test_block_distribute_indivisible():
    f = FieldDecl("f", "bool", (16, 16))
    with pytest.raises(IndivisibleExtent):
        block_distribute([f], ClusterGrid((3, 3)))


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
    sel = IntMap.from_exprs(
        s.space,
        fld.space,
        [AffineExpr.var(3, 1), AffineExpr.var(3, 2)],
        check=False,
    )
    sel = restrict_domain(sel, s.domain)
    return compose(fp.maps[field], sel)


def test_scalar_safety(gol16_pipeline):
    virt, dep, fp, sp = gol16_pipeline
    for fam in dep.scalar_families():
        for ig, ic, _ in fam.pairs():
            prod_nodes = set(sp.nodes(fam.producer, ig))
            cons_nodes = set(sp.nodes(fam.consumer, ic))
            assert cons_nodes <= prod_nodes, (fam.producer, fam.consumer, ig, ic)


def test_owner_computes_invariant(gol16_pipeline):
    virt, dep, fp, sp = gol16_pipeline
    for fam in dep.epilogue_families():
        s = virt.statement(fam.producer)
        _, acc = s.writes()[0]
        for ig, _, k in fam.pairs():
            homes = set(fp.homes(fam.ref, k))
            nodes = set(sp.nodes(fam.producer, ig))
            assert homes <= nodes


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
    import json

    from polydist.scopio import parse_scop

    doc = json.loads(gol16_path.read_text())
    doc["grid"] = [1, 1]
    scop = parse_scop(json.dumps(doc))
    virt = add_virtual_statements(isolate_accesses(scop))
    dep = compute_flow(virt)
    fp = block_distribute(virt.fields, virt.grid)
    sp = place_statements(virt, dep, fp)
    for s in virt.real_statements():
        for point in [(0, 1, 1), (2, 14, 14)]:
            assert sp.nodes(s.id, point) == [(0, 0)]


def test_dump_shape(gol16_pipeline):
    virt, dep, fp, sp = gol16_pipeline
    text = dump_placements(virt, fp, sp)
    assert "pi front = { front[k0, k1] -> P[floor(k0/8), floor(k1/8)]" in text
    assert "pi S1.7 = { S1.7[i, x, y] -> P[floor(x/8), floor(y/8)]" in text
    assert text == dump_placements(virt, fp, sp)
