import copy
import json
import random

import pytest

from polydist.deps import (
    EPILOGUE,
    PROLOGUE,
    add_virtual_statements,
    compute_flow,
    dump_deps,
    family_map_text,
)
from polydist.errors import UncoveredRead, ValidationError
from polydist.isets import enumerate_set
from polydist.scop import isolate_accesses
from polydist.scopio import parse_scop, parse_scop_file

from dep_oracle import brute_force_flows, flows_of_depgraph, scatter_of


@pytest.fixture(scope="module")
def gol16_virt(gol16_path):
    scop = parse_scop_file(gol16_path)
    return add_virtual_statements(isolate_accesses(scop))


@pytest.fixture(scope="module")
def gol16_dep(gol16_virt):
    return compute_flow(gol16_virt)


def test_virtual_schedules(gol16_virt):
    pro = gol16_virt.statement(PROLOGUE)
    epi = gol16_virt.statement(EPILOGUE)
    assert [e.const for e in pro.schedule_exprs] == [-1, 0, 0, 0, 0, 0, 0, 0]
    assert [e.const for e in epi.schedule_exprs] == [1, 0, 0, 0, 0, 0, 0, 0]
    assert enumerate_set(pro.domain) == [()]
    # prologue writes every element of every field
    assert {a.field for a in pro.accesses} == {"front", "back"}
    assert all(a.kind == "write" and a.index_exprs is None for a in pro.accesses)
    assert all(a.kind == "read" for a in epi.accesses)


def test_virtual_statements_rejected_twice(gol16_virt):
    with pytest.raises(ValidationError):
        add_virtual_statements(gol16_virt)


def test_flow_matches_brute_force_oracle(gol16_virt, gol16_dep):
    assert flows_of_depgraph(gol16_dep) == brute_force_flows(gol16_virt)


def test_flow_family_structure(gol16_dep):
    intra = {(f.producer, f.consumer) for f in gol16_dep.intra_field_families()}
    assert intra == {
        ("S1.7", "S2.1"),
        ("S2.2", "S1.1"),
        ("S2.2", "S1.2"),
        ("S2.2", "S1.3"),
        ("S2.2", "S1.4"),
        ("S2.2", "S1.5"),
    }
    prologue = {(f.producer, f.consumer) for f in gol16_dep.prologue_families()}
    assert prologue == {(PROLOGUE, f"S1.{k}") for k in range(1, 6)}
    epilogue = {(f.producer, f.consumer) for f in gol16_dep.epilogue_families()}
    assert epilogue == {("S1.7", EPILOGUE), ("S2.2", EPILOGUE)}
    scalars = {(f.producer, f.consumer, f.ref) for f in gol16_dep.scalar_families()}
    assert scalars == {
        ("S1.1", "S1.2", "neighbors"),
        ("S1.2", "S1.3", "neighbors"),
        ("S1.3", "S1.4", "neighbors"),
        ("S1.4", "S1.6", "neighbors"),
        ("S1.5", "S1.6", "hadLife"),
        ("S1.6", "S1.7", "living"),
        ("S2.1", "S2.2", "tmp"),
    }


def test_stencil_shift_family(gol16_dep):
    fam = next(
        f for f in gol16_dep.intra_field_families() if (f.producer, f.consumer) == ("S2.2", "S1.1")
    )
    for ig, ic, k in fam.pairs():
        assert ig == (ic[0] - 1, ic[1] - 1, ic[2])
        assert k == (ic[1] - 1, ic[2])
        assert ic[0] >= 1 and ic[1] >= 2


def test_prologue_covers_first_iteration_and_boundary(gol16_dep):
    fam = next(f for f in gol16_dep.prologue_families() if f.consumer == "S1.1")
    consumers = {ic for _, ic, _ in fam.pairs()}
    assert all(ic[0] == 0 or ic[1] == 1 for ic in consumers)
    assert (0, 5, 5) in consumers
    assert (2, 1, 5) in consumers
    fam5 = next(f for f in gol16_dep.prologue_families() if f.consumer == "S1.5")
    assert all(ic[0] == 0 for _, ic, _ in fam5.pairs())


def test_every_read_has_one_producer(gol16_virt, gol16_dep):
    seen: dict = {}
    for fam in gol16_dep.families:
        for ig, ic, k in fam.pairs():
            key = (fam.consumer, ic, fam.kind, fam.ref, k)
            assert key not in seen, f"two producers for {key}"
            seen[key] = (fam.producer, ig)


def test_delta_respects_time(gol16_virt, gol16_dep):
    stmts = {s.id: s for s in gol16_virt.statements}
    for fam in gol16_dep.families:
        for ig, ic, _ in fam.pairs():
            tg = scatter_of(stmts[fam.producer], ig)
            tc = scatter_of(stmts[fam.consumer], ic)
            assert tg < tc


def test_dump_contains_paper_form_families(gol16_dep, gol16_virt):
    text = dump_deps(gol16_dep)
    assert "{ S1.7[i', x', y'] -> S2.1[i', x', y'] :" in text
    assert "{ S2.2[i' - 1, x' - 1, y'] -> S1.1[i', x', y'] :" in text
    assert dump_deps(compute_flow(gol16_virt)) == text  # byte-stable


def test_uncovered_read_without_virtuals(gol16_path):
    scop = isolate_accesses(parse_scop_file(gol16_path))
    with pytest.raises(UncoveredRead):
        compute_flow(scop)


# ---------------------------------------------------------------------------
# Randomized small scops against the replay oracle


def random_scop_doc(rng: random.Random) -> dict:
    """A small 1-D two-statement scop with random affine accesses."""
    n = rng.randint(4, 8)
    iters = rng.randint(1, 3)
    shift_a = rng.randint(-1, 1)
    shift_b = rng.randint(-1, 1)
    lo = 1
    hi = n - 2
    doc = {
        "name": "rand",
        "grid": [1],
        "scatter_arity": 4,
        "fields": [
            {"name": "a", "type": "int64", "extents": [n]},
            {"name": "b", "type": "int64", "extents": [n]},
        ],
        "functions": {},
        "statements": [
            {
                "id": "W",
                "domain": f"{{ [i,x] : 0 <= i < {iters} and {lo} <= x <= {hi} }}",
                "schedule": "{ [i,x] -> [0,i,x,0] }",
                "accesses": [
                    {"field": "a", "kind": "read", "index": [f"x+{shift_a}"]},
                    {"field": "b", "kind": "write", "index": ["x"]},
                ],
                "body": ["add", ["access", 0], ["int", 1]],
            },
            {
                "id": "R",
                "domain": f"{{ [i,x] : 0 <= i < {iters} and {lo} <= x <= {hi} }}",
                "schedule": "{ [i,x] -> [0,i,x,1] }",
                "accesses": [
                    {"field": "b", "kind": "read", "index": [f"x+{shift_b}"]},
                    {"field": "a", "kind": "write", "index": ["x"]},
                ],
                "body": ["mul", ["access", 0], ["int", 2]],
            },
        ],
    }
    if rng.random() < 0.5:
        # interleave the two statements element-wise instead of loop-wise
        doc["statements"][0]["schedule"] = "{ [i,x] -> [0,i,x,0] }"
        doc["statements"][1]["schedule"] = "{ [i,x] -> [0,i,x,1] }"
    else:
        doc["statements"][0]["schedule"] = "{ [i,x] -> [0,i,0,x] }"
        doc["statements"][1]["schedule"] = "{ [i,x] -> [0,i,1,x] }"
    return doc


# W writes a[x] and R reads a[7 - x] right after it: reads with x <= 3 are
# fed by the previous iteration (scatter level 1), reads with x >= 4 by the
# same one (level 2).
TWO_LEVELS = {
    "name": "two_levels",
    "grid": [1],
    "scatter_arity": 4,
    "fields": [
        {"name": "a", "type": "int64", "extents": [8]},
        {"name": "b", "type": "int64", "extents": [8]},
    ],
    "functions": {},
    "statements": [
        {
            "id": "W",
            "domain": "{ [i,x] : 0 <= i < 3 and 0 <= x <= 7 }",
            "schedule": "{ [i,x] -> [0,i,x,0] }",
            "accesses": [{"field": "a", "kind": "write", "index": ["x"]}],
            "body": ["int", 1],
        },
        {
            "id": "R",
            "domain": "{ [i,x] : 0 <= i < 3 and 0 <= x <= 7 }",
            "schedule": "{ [i,x] -> [0,i,x,1] }",
            "accesses": [
                {"field": "a", "kind": "read", "index": ["7-x"]},
                {"field": "b", "kind": "write", "index": ["x"]},
            ],
            "body": ["add", ["access", 0], ["int", 1]],
        },
    ],
}


def test_writer_found_at_two_levels():
    """A writer last at two scatter levels makes one family."""
    virt = add_virtual_statements(isolate_accesses(parse_scop(json.dumps(TWO_LEVELS))))
    dep = compute_flow(virt)
    assert flows_of_depgraph(dep) == brute_force_flows(virt)
    fams = [f for f in dep.families if (f.producer, f.consumer) == ("W", "R.1")]
    assert [family_map_text(f) for f in fams] == [
        "{ W[i' - 1, -x' + 7] -> R.1[i', x'] : 1 <= i' <= 2 and 0 <= x' <= 3; "
        "W[i', -x' + 7] -> R.1[i', x'] : 0 <= i' <= 2 and 4 <= x' <= 7 }"
    ]


def test_two_reads_of_one_field_make_one_family():
    """A statement left unisolated that reads one field twice, or lists one
    scalar read twice, is resolved once for that field or scalar: one
    family per writer, holding the pairs of both reads."""
    doc = copy.deepcopy(TWO_LEVELS)
    writer, reader = doc["statements"]
    reader["accesses"].insert(1, {"field": "a", "kind": "read", "index": ["x"]})
    reader["body"] = ["add", ["access", 0], ["add", ["access", 1], ["var", "t"]]]
    reader["scalar_reads"] = ["t", "t"]
    writer["scalar_writes"] = ["t"]
    virt = add_virtual_statements(parse_scop(json.dumps(doc)))
    dep = compute_flow(virt)
    assert flows_of_depgraph(dep) == brute_force_flows(virt)
    keys = [(f.producer, f.consumer, f.kind, f.ref) for f in dep.families]
    assert len(keys) == len(set(keys))
    assert {("W", "R", "field", "a"), ("W", "R", "scalar", "t")} <= set(keys)


@pytest.mark.parametrize("seed", range(30))
def test_random_scops_match_oracle(seed):
    rng = random.Random(seed + 4000)
    scop = parse_scop(json.dumps(random_scop_doc(rng)))
    virt = add_virtual_statements(isolate_accesses(scop))
    dep = compute_flow(virt)
    assert flows_of_depgraph(dep) == brute_force_flows(virt)
