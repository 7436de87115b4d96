import dataclasses
import json

import pytest

from oracle import (
    apply_point,
    collapsed_has_cycle,
    global_order_holds_symbolic,
    strict_prefix_holds,
    strict_prefix_holds_symbolic,
    transitive_closure,
    validate_chunking,
)
from polydist.chunking import (
    ChunkingFn,
    _collapsed_has_cycle,
    _kept_dims,
    _order_summary,
    chunk_all,
    chunk_heuristic,
    dump_chunks,
)
from polydist.deps import add_virtual_statements, compute_flow
from polydist.isets import (
    IntMap,
    IntSet,
    embed_pieces,
    enumerate_set,
    map_union,
)
from polydist.scop import isolate_accesses
from polydist.scopio import parse_scop, parse_scop_file


CHAIN = {
    "name": "chain",
    "grid": [1],
    "scatter_arity": 2,
    "fields": [{"name": "a", "type": "int64", "extents": [8]}],
    "functions": {},
    "statements": [
        {
            "id": "W",
            "domain": "{ [x] : 1 <= x < 8 }",
            "schedule": "{ [x] -> [0,x] }",
            "accesses": [
                {"field": "a", "kind": "read", "index": ["x-1"]},
                {"field": "a", "kind": "write", "index": ["x"]},
            ],
            "body": ["add", ["access", 0], ["int", 1]],
        }
    ],
}


STRAIGHT = {
    "name": "straight",
    "grid": [1],
    "scatter_arity": 1,
    "fields": [{"name": "a", "type": "int64", "extents": [4]}],
    "functions": {},
    "statements": [
        {
            "id": "G",
            "domain": "{ [x] : 0 <= x < 4 }",
            "schedule": "{ [x] -> [x] }",
            "accesses": [{"field": "a", "kind": "write", "index": ["x"]}],
            "body": ["int", 7],
        },
        {
            "id": "C",
            "domain": "{ [x] : 0 <= x < 4 }",
            "schedule": "{ [x] -> [x+4] }",
            "accesses": [{"field": "a", "kind": "read", "index": ["x"]}],
            "body": ["access", 0],
            "scalar_writes": ["v"],
        },
    ],
}


TWO = {
    "name": "two",
    "grid": [1],
    "scatter_arity": 2,
    "fields": [{"name": "a", "type": "int64", "extents": [6]}],
    "functions": {},
    "statements": [
        {
            "id": "W",
            "domain": "{ [x] : 1 <= x < 6 }",
            "schedule": "{ [x] -> [x,0] }",
            "accesses": [
                {"field": "a", "kind": "read", "index": ["x-1"]},
                {"field": "a", "kind": "write", "index": ["x"]},
            ],
            "body": ["access", 0],
        }
    ],
}


# R[0] follows W[0] only at the innermost scatter level, every other R[x]
# follows its producer at the outermost level
MIXED = {
    "name": "mixed",
    "grid": [1],
    "scatter_arity": 3,
    "fields": [{"name": "a", "type": "int64", "extents": [4]}],
    "functions": {},
    "statements": [
        {
            "id": "W",
            "domain": "{ [x] : 0 <= x < 4 }",
            "schedule": "{ [x] -> [0,x,0] }",
            "accesses": [{"field": "a", "kind": "write", "index": ["x"]}],
            "body": ["int", 7],
        },
        {
            "id": "R",
            "domain": "{ [x] : 0 <= x < 4 }",
            "schedule": "{ [x] -> [x,0,1] }",
            "accesses": [{"field": "a", "kind": "read", "index": ["x"]}],
            "body": ["access", 0],
            "scalar_writes": ["v"],
        },
    ],
}


# s accumulates a[x] in order: the only flow inside S is the scalar S -> S
# self-loop, so merging all of S (levels 0 and 1) is cyclic and level 2 is not
ACC = {
    "name": "acc",
    "grid": [1],
    "scatter_arity": 3,
    "fields": [{"name": "a", "type": "int64", "extents": [4]}],
    "functions": {},
    "statements": [
        {
            "id": "I",
            "domain": "{ [] }",
            "schedule": "{ [] -> [0,0,0] }",
            "body": ["int", 0],
            "scalar_writes": ["s"],
        },
        {
            "id": "W",
            "domain": "{ [x] : 0 <= x < 4 }",
            "schedule": "{ [x] -> [1,x,0] }",
            "accesses": [{"field": "a", "kind": "write", "index": ["x"]}],
            "body": ["int", 7],
        },
        {
            "id": "S",
            "domain": "{ [x] : 0 <= x < 4 }",
            "schedule": "{ [x] -> [2,x,0] }",
            "accesses": [{"field": "a", "kind": "read", "index": ["x"]}],
            "body": ["add", ["var", "s"], ["access", 0]],
            "scalar_reads": ["s"],
            "scalar_writes": ["s"],
        },
    ],
}


# C[i, j, k] lies on i + j = 2, so level 1 keeps (i, j) and merges each
# C[i, *, *] into one chunk c_i.  C[i, k] feeds C[i+1, k+1] through a, and R
# carries C[2, k] back to C[0, k+1]: at level 1 the quotient's only cycles
# run c_0 -> c_1 -> c_2 -> R -> c_0, through three chunks, with no self-loop
RING = {
    "name": "ring",
    "grid": [1],
    "scatter_arity": 3,
    "fields": [{"name": "a", "type": "int64", "extents": [5, 8]}],
    "functions": {},
    "statements": [
        {
            "id": "C",
            "domain": "{ [i,j,k] : 0 <= i <= 2 and i + j = 2 and 1 <= k <= 4 }",
            "schedule": "{ [i,j,k] -> [i+j,k,i] }",
            "accesses": [
                {"field": "a", "kind": "read", "index": ["k-1", "i"]},
                {"field": "a", "kind": "read", "index": ["k-1", "i+4"]},
                {"field": "a", "kind": "write", "index": ["k", "i+1"]},
            ],
            "body": ["add", ["access", 0], ["access", 1]],
        },
        {
            "id": "R",
            "domain": "{ [k] : 1 <= k <= 4 }",
            "schedule": "{ [k] -> [2,k,3] }",
            "accesses": [
                {"field": "a", "kind": "read", "index": ["k", "3"]},
                {"field": "a", "kind": "write", "index": ["k", "4"]},
            ],
            "body": ["access", 0],
        },
    ],
}


# W[x] -> V[x] -> W[x+1] -> ...: a chain 2 * 299 instances deep, so Kahn's
# algorithm peels one frontier per instance; merging all of V (or W) at
# level 0 closes a cycle through the other statement, not a self-loop
LONG = {
    "name": "long",
    "grid": [1],
    "scatter_arity": 2,
    "fields": [
        {"name": "a", "type": "int64", "extents": [300]},
        {"name": "b", "type": "int64", "extents": [300]},
    ],
    "functions": {},
    "statements": [
        {
            "id": "W",
            "domain": "{ [x] : 1 <= x < 300 }",
            "schedule": "{ [x] -> [x,0] }",
            "accesses": [
                {"field": "b", "kind": "read", "index": ["x-1"]},
                {"field": "a", "kind": "write", "index": ["x"]},
            ],
            "body": ["access", 0],
        },
        {
            "id": "V",
            "domain": "{ [x] : 1 <= x < 300 }",
            "schedule": "{ [x] -> [x,1] }",
            "accesses": [
                {"field": "a", "kind": "read", "index": ["x"]},
                {"field": "b", "kind": "write", "index": ["x"]},
            ],
            "body": ["access", 0],
        },
    ],
}

SYNTHETIC = {
    "chain": CHAIN,
    "straight": STRAIGHT,
    "two": TWO,
    "mixed": MIXED,
    "acc": ACC,
    "ring": RING,
    "long": LONG,
}


@pytest.fixture(scope="module")
def gol16_dep(gol16_path):
    virt = add_virtual_statements(isolate_accesses(parse_scop_file(gol16_path)))
    return compute_flow(virt)


def fam_of(dep, producer, consumer):
    return next(
        f for f in dep.intra_field_families() if (f.producer, f.consumer) == (producer, consumer)
    )


def test_stencil_family_level_two(gol16_dep):
    fam = fam_of(gol16_dep, "S2.2", "S1.1")
    phi = chunk_heuristic(fam, gol16_dep)
    assert phi.level == 2
    assert apply_point(phi, (1, 7, 9)) == (1, 0, 0)
    assert apply_point(phi, (2, 3, 3)) == (2, 0, 0)
    assert validate_chunking(phi, gol16_dep)


def test_stencil_family_minimality(gol16_dep):
    # level 1 must fail at least one of the two conditions
    fam = fam_of(gol16_dep, "S2.2", "S1.1")
    from polydist.chunking import _collapsed_has_cycle

    cons = gol16_dep.scop.statement("S1.1")
    level1_ok = strict_prefix_holds(gol16_dep.scop, fam, 1)
    phi1 = ChunkingFn(consumer="S1.1", level=1, kept_dims=(), space=cons.space)
    assert not level1_ok or _collapsed_has_cycle(gol16_dep, phi1)


def test_chunk_count_matches_iterations(gol16_dep):
    fam = fam_of(gol16_dep, "S2.2", "S1.1")
    phi = chunk_heuristic(fam, gol16_dep)
    reprs = {apply_point(phi, ic) for _, ic, _ in fam.pairs()}
    assert reprs == {(1, 0, 0), (2, 0, 0)}  # iterations - 1 chunks


def test_phi_idempotent(gol16_dep):
    chunks = chunk_all(gol16_dep)
    for (_, consumer, _), phi in chunks.items():
        dom = gol16_dep.scop.statement(consumer).domain
        for pt in enumerate_set(dom):
            assert apply_point(phi, apply_point(phi, pt)) == apply_point(phi, pt)


def test_apply_rows_matches_pointwise(gol16_dep):
    """Every chunking maps its consumer's instance table row for row as the
    pointwise reference does."""
    for (_, consumer, _), phi in chunk_all(gol16_dep).items():
        rows = gol16_dep.scop.statement(consumer).instances
        assert phi.apply_rows(rows).tolist() == [list(apply_point(phi, pt)) for pt in rows.tolist()]


def test_all_returned_chunkings_valid(gol16_dep):
    for phi in chunk_all(gol16_dep).values():
        assert validate_chunking(phi, gol16_dep)


def test_same_iteration_family_level_three(gol16_dep):
    fam = fam_of(gol16_dep, "S1.7", "S2.1")
    phi = chunk_heuristic(fam, gol16_dep)
    assert phi.level == 3
    assert phi.kept_dims == (0,)


def test_identity_on_self_feeding_loop():
    scop = parse_scop(json.dumps(CHAIN))
    virt = add_virtual_statements(scop)
    dep = compute_flow(virt)
    fam = next(f for f in dep.intra_field_families())
    assert (fam.producer, fam.consumer) == ("W", "W")
    phi = chunk_heuristic(fam, dep)
    assert phi.level is None  # identity fallback
    assert apply_point(phi, (5,)) == (5,)
    assert validate_chunking(phi, dep)
    # a full collapse of W would create a cycle
    bad = ChunkingFn(consumer="W", level=0, kept_dims=(), space=scop.statement("W").space)
    assert not validate_chunking(bad, dep)


def test_straight_line_level_zero():
    scop = parse_scop(json.dumps(STRAIGHT))
    virt = add_virtual_statements(scop)
    dep = compute_flow(virt)
    fam = next(f for f in dep.intra_field_families())
    phi = chunk_heuristic(fam, dep)
    assert phi.level == 0
    reprs = {apply_point(phi, ic) for _, ic, _ in fam.pairs()}
    assert len(reprs) == 1  # one chunk


def test_validate_identity_always_true(gol16_dep):
    for sid in ("S1.1", "S2.2"):
        s = gol16_dep.scop.statement(sid)
        phi = ChunkingFn(consumer=sid, level=None, kept_dims=tuple(range(3)), space=s.space)
        assert validate_chunking(phi, gol16_dep)


def test_validate_collapse_producer_consumer_false(gol16_dep):
    # collapsing all S2.1 instances merges a chunk whose members sit on a
    # dependence path through S2.2 into the next iteration
    s = gol16_dep.scop.statement("S2.1")
    phi = ChunkingFn(consumer="S2.1", level=0, kept_dims=(), space=s.space)
    assert not validate_chunking(phi, gol16_dep)


def test_validity_against_symbolic_closure():
    # cross-check the graph-quotient validity with the symbolic closure
    scop = parse_scop(json.dumps(TWO))
    virt = add_virtual_statements(scop)
    dep = compute_flow(virt)
    s = scop.statement("W")
    # symbolic route: phi(delta*) must be irreflexive
    delta = None
    for fam in dep.families:
        if fam.producer == "W" and fam.consumer == "W":
            m = fam.as_map()
            m = IntMap(s.space, s.space, m.pieces)
            delta = m if delta is None else map_union(delta, m)
    closure = transitive_closure(delta)
    for phi_level, expected in [(None, True), (0, False)]:
        phi = ChunkingFn(
            consumer="W",
            level=phi_level,
            kept_dims=tuple(range(1)) if phi_level is None else (),
            space=s.space,
        )
        got = validate_chunking(phi, dep)
        # symbolic check: collapse both sides of the closure, look for fixpoints
        reflexive = False
        for a, b in ((pt[:1], pt[1:]) for pt in enumerate_set(closure.as_set())):
            if apply_point(phi, a) == apply_point(phi, b):
                reflexive = True
                break
        assert got == (not reflexive) == expected


def test_dump_format(gol16_dep):
    chunks = chunk_all(gol16_dep)
    text = dump_chunks(gol16_dep, chunks)
    assert "chunk S1.1 level=2 phi={ S1.1[i, x, y] -> S1.1[i, 0, 0] }" in text
    assert text == dump_chunks(gol16_dep, chunks)


def _synthetic_dep(doc):
    return compute_flow(add_virtual_statements(parse_scop(json.dumps(doc))))


def _named_dep(name, scops_dir):
    """A shipped gol16 variant, isolated, or one of the SYNTHETIC scops."""
    if name.startswith("gol16"):
        scop = parse_scop_file(scops_dir / f"{name}.scop")
        return compute_flow(add_virtual_statements(isolate_accesses(scop)))
    return _synthetic_dep(SYNTHETIC[name])


def _reversed(fam):
    """The family with producer and consumer swapped: every producer now
    runs after its consumer, so no order condition may hold."""
    n_g, n_c = fam.n_prod, fam.n_cons
    arity = fam.rel.arity
    swap = [n_c + i for i in range(n_g)] + list(range(n_c)) + list(range(n_g + n_c, arity))
    rel = IntSet(fam.rel.space, tuple(embed_pieces(fam.rel.pieces, swap, arity)))
    return dataclasses.replace(
        fam,
        producer=fam.consumer,
        consumer=fam.producer,
        rel=rel,
        prod_space=fam.cons_space,
        cons_space=fam.prod_space,
    )


@pytest.mark.parametrize("name", ["gol16", "gol16_fused", "chain", "straight", "two", "mixed"])
def test_order_checks_match_symbolic(name, scops_dir):
    # the one-pass order checks agree with the symbolic ones on every
    # intra-field family and its reverse, at level 0 and every deeper level
    dep = _named_dep(name, scops_dir)
    scop = dep.scop
    families = dep.intra_field_families()
    assert families
    for fam in families + [_reversed(f) for f in families]:
        where = (fam.producer, fam.consumer, fam.ref)
        _, ordered = _order_summary(scop, fam)
        assert ordered == global_order_holds_symbolic(scop, fam), where
        for level in range(scop.scatter_arity):
            assert strict_prefix_holds(scop, fam, level) == strict_prefix_holds_symbolic(
                scop, fam, level
            ), (where, level)


def _phi_at(dep, consumer, level):
    cons = dep.scop.statement(consumer)
    return ChunkingFn(consumer, level, _kept_dims(cons, level), cons.space)


@pytest.mark.parametrize(
    "name", ["gol16", "gol16_fused", "chain", "straight", "two", "mixed", "acc", "ring", "long"]
)
def test_collapsed_cycle_matches_dfs(name, scops_dir):
    # Kahn's algorithm over the numbered instance graph agrees with the
    # depth-first search over the tuple quotient at every candidate level
    dep = _named_dep(name, scops_dir)
    for fam in dep.intra_field_families():
        for level in range(dep.scop.scatter_arity):
            phi = _phi_at(dep, fam.consumer, level)
            assert _collapsed_has_cycle(dep, phi) == collapsed_has_cycle(dep, phi), (
                fam.producer, fam.consumer, level
            )


def test_scalar_self_loop_is_a_cycle():
    dep = _synthetic_dep(ACC)
    fam = next(f for f in dep.intra_field_families())
    assert (fam.producer, fam.consumer) == ("W", "S")
    assert [_collapsed_has_cycle(dep, _phi_at(dep, "S", lv)) for lv in range(3)] == [
        True,
        True,
        False,
    ]
    assert chunk_all(dep)[("W", "S", "a")].level == 2


def test_cycle_through_three_chunks():
    dep = _synthetic_dep(RING)
    phi = _phi_at(dep, "C", 1)
    assert phi.kept_dims == (0, 1)
    fam = next(f for f in dep.intra_field_families() if (f.producer, f.consumer) == ("C", "C"))
    chunk_edges = {(apply_point(phi, ig)[0], apply_point(phi, ic)[0]) for ig, ic, _ in fam.pairs()}
    assert chunk_edges == {(0, 1), (1, 2)}  # no self-loop; R closes the ring
    assert [_collapsed_has_cycle(dep, _phi_at(dep, "C", lv)) for lv in range(3)] == [
        True,
        True,
        False,
    ]


def test_long_chain_peels_every_frontier():
    dep = _synthetic_dep(LONG)
    assert len(dep.edges[0]) > 2 * 298
    for consumer in ("W", "V"):
        assert _collapsed_has_cycle(dep, _phi_at(dep, consumer, 0))
        assert not _collapsed_has_cycle(dep, _phi_at(dep, consumer, 1))
