import collections
import json

import numpy as np
import pytest

from polydist.errors import ParseError, ValidationError
from polydist.fields import random_contents
from polydist.isets import AffineExpr, DivTerm, enumerate_set, point_table
from polydist import scop as scop_module
from polydist.pipeline import plan_scop
from polydist.scop import evaluate_rows, isolate_accesses, sequential_execute
from polydist.scopio import parse_scop, parse_scop_file, print_scop
from polydist.simrt import init_runtime, run

from oracle import contents_equal, evaluate_point, zero_contents


@pytest.fixture(scope="module")
def gol16(gol16_path):
    return parse_scop_file(gol16_path)


@pytest.fixture(scope="module")
def gol16_fused(scops_dir):
    return parse_scop_file(scops_dir / "gol16_fused.scop")


def test_gol16_statement_list(gol16):
    ids = [s.id for s in gol16.statements]
    assert ids == ["S1.1", "S1.2", "S1.3", "S1.4", "S1.5", "S1.6", "S1.7", "S2.1", "S2.2"]
    assert gol16.scatter_arity == 7
    assert gol16.grid.extents == (2, 2)
    for s in gol16.statements:
        assert len(enumerate_set(s.domain)) == 3 * 14 * 14


def test_gol16_access_elements(gol16):
    # spot-check the per-statement accessed elements at (i,x,y)=(0,3,5)
    point = (0, 3, 5)
    expect = {
        "S1.1": ("front", (2, 5)),
        "S1.2": ("front", (3, 6)),
        "S1.3": ("front", (4, 5)),
        "S1.4": ("front", (3, 4)),
        "S1.5": ("front", (3, 5)),
        "S1.7": ("back", (3, 5)),
        "S2.1": ("back", (3, 5)),
        "S2.2": ("front", (3, 5)),
    }
    for s in gol16.statements:
        if s.id == "S1.6":
            assert not s.accesses
            continue
        acc = s.accesses[0]
        idx = tuple(evaluate_point(e, point) for e in acc.index_exprs)
        assert (acc.field, idx) == expect[s.id]


def test_empty_scop_valid(scops_dir):
    scop = parse_scop_file(scops_dir / "empty.scop")
    assert scop.statements == ()
    assert scop.grid.nodes == [(0,)]


def test_out_of_bounds_access_rejected(gol16_path):
    doc = json.loads(gol16_path.read_text())
    doc["statements"][0]["accesses"][0]["index"] = ["x", "16"]
    with pytest.raises(ValidationError):
        parse_scop(json.dumps(doc))


def _triangle(index):
    return json.dumps({
        "name": "triangle",
        "grid": [1, 1],
        "scatter_arity": 2,
        "fields": [{"name": "f", "type": "int64", "extents": [16, 16]}],
        "functions": {},
        "statements": [{
            "id": "T",
            "domain": "{ [x,y] : 0 <= x < 16 and 0 <= y <= x }",
            "schedule": "{ [x,y] -> [x,y] }",
            "accesses": [{"field": "f", "kind": "read", "index": index}],
            "body": ["access", 0],
            "scalar_writes": ["v"],
        }],
    })


def test_bounds_checked_on_exact_ranges():
    # the domain's bounding box would give 15-x+y the range [0, 30]; over
    # the triangle it is [0, 15], and only y+1 leaves the extent
    parse_scop(_triangle(["15-x+y", "y"]))
    with pytest.raises(ValidationError) as ei:
        parse_scop(_triangle(["15-x+y", "y+1"]))
    assert str(ei.value) == "T: access f[dim 1] out of bounds (range [1, 16], extent 16)"


@pytest.mark.parametrize("scale", [1, 2**62, 2**70])
def test_evaluate_rows_matches_pointwise(scale):
    points = sorted((scale * x + d, y) for x in (-2, 0, 3) for d in (-1, 0, 1) for y in (-5, 0, 7))
    x, y = AffineExpr.var(2, 0), AffineExpr.var(2, 1)
    exprs = [
        x + y.scale(3),
        AffineExpr((2, -1), 5, (DivTerm(3, x - y, 4),)),
        AffineExpr((0, scale), 1, (DivTerm(-1, y, scale),)),
    ]
    got = evaluate_rows(exprs, point_table(points, 2))
    assert got.tolist() == [[evaluate_point(e, p) for e in exprs] for p in points]
    assert evaluate_rows(exprs, point_table([], 2)).shape == (0, 3)


def test_non_injective_schedule_rejected(gol16_path):
    doc = json.loads(gol16_path.read_text())
    doc["statements"][1]["schedule"] = doc["statements"][0]["schedule"]
    with pytest.raises(ValidationError):
        parse_scop(json.dumps(doc))


def test_non_injective_schedule_names_first_instance_in_statement_order():
    # B(0) and C(0), C(1) each land on a scatter of A.  In scatter order the
    # first clash is C(0) on (0, 2); in statement and then row order it is
    # B(0) on A(3)'s (0, 3), and that is the pair named.
    def stmt(sid, schedule):
        return {"id": sid, "domain": "{ [x] : 0 <= x < 4 }", "schedule": schedule, "accesses": []}

    doc = {
        "name": "clash", "grid": [1], "scatter_arity": 2,
        "fields": [{"name": "f", "type": "int64", "extents": [4]}], "functions": {},
        "statements": [stmt("A", "{ [x] -> [0, x] }"), stmt("B", "{ [x] -> [0, x + 3] }"),
                       stmt("C", "{ [x] -> [0, x + 2] }")],
    }
    with pytest.raises(ValidationError) as ei:
        parse_scop(json.dumps(doc))
    assert str(ei.value) == "schedule not injective: B(0,) and A(3,) share scatter (0, 3)"


def _with_schedule(gol16_path, schedule):
    doc = json.loads(gol16_path.read_text())
    doc["statements"][0]["schedule"] = schedule
    return json.dumps(doc)


@pytest.mark.parametrize(
    "schedule, message",
    [
        ("{ [i,x,y] -> [0,i,0,x,0,y,1] : i >= 1 }", "schedule is not functional"),
        ("{ [i,x,y] -> [0,floor(i/2),0,x,0,y,1] }", "must be affine (no floordiv)"),
        (
            "{ [i,x,y] -> [0,i,0,x,0,y,1]; [i,x,y] -> [2,i,0,x,0,y,1] }",
            "schedules must be single-piece functional maps",
        ),
        (
            "{ [a,x,y] -> [0,a,0,x,0,y,1] }",
            "schedule domain dims ['a', 'x', 'y'] do not match statement domain ['i', 'x', 'y']",
        ),
    ],
    ids=["guarded", "floordiv", "two-piece", "renamed"],
)
def test_schedule_rejected(gol16_path, schedule, message):
    with pytest.raises(ValidationError) as ei:
        parse_scop(_with_schedule(gol16_path, schedule))
    assert message in str(ei.value)


def test_subscripts_evaluated_once_per_statement(gol16_path, monkeypatch):
    # every instance table (a Statement object's rows) is evaluated at most
    # once per expression list: validation reads the cached subscripts
    calls = collections.Counter()
    real = scop_module.evaluate_rows

    def counting(exprs, rows):
        calls[id(rows), tuple(exprs)] += 1
        return real(exprs, rows)

    monkeypatch.setattr(scop_module, "evaluate_rows", counting)
    scop = parse_scop_file(gol16_path)
    analysis, plan = plan_scop(scop)
    init = random_contents(scop, 3)
    expected = sequential_execute(scop, init)
    final, _ = run(init_runtime(plan, analysis.scop.grid, init), analysis.scop)
    assert contents_equal(final, expected)
    # the parsed statements' subscripts are evaluated by validation and
    # read again by sequential execution; the isolated ones at most once
    parsed = [(id(s.instances), a.index_exprs) for s in scop.statements for a in s.accesses]
    assert [calls[key] for key in parsed] == [1] * 8
    assert max(calls.values()) == 1


def test_instance_order_sorted_once_per_scop(gol16_path, monkeypatch):
    # validation computes Scop.order, and sequential execution reads it
    calls = []
    real = scop_module.unique_rows

    def counting(table):
        calls.append(len(table))
        return real(table)

    monkeypatch.setattr(scop_module, "unique_rows", counting)
    scop = parse_scop_file(gol16_path)
    init = random_contents(scop, 3)
    assert contents_equal(sequential_execute(scop, init), sequential_execute(scop, init))
    assert calls == [sum(len(s.instances) for s in scop.statements)]


def test_malformed_json_position():
    with pytest.raises(ParseError) as ei:
        parse_scop("{ not json ")
    assert ei.value.line is not None


def test_body_undeclared_scalar_rejected(gol16_path):
    doc = json.loads(gol16_path.read_text())
    doc["statements"][6]["body"] = ["var", "ghost"]
    with pytest.raises(ValidationError):
        parse_scop(json.dumps(doc))


def test_print_parse_roundtrip(gol16):
    text = print_scop(gol16)
    again = parse_scop(text)
    assert print_scop(again) == text
    assert [s.id for s in again.statements] == [s.id for s in gol16.statements]


# ---------------------------------------------------------------------------
# Sequential execution against a hand-rolled Game of Life stepper


def five_point_step(front: np.ndarray) -> np.ndarray:
    """Independent reference: one generation of the reduced 5-point rule
    over the interior, boundary cells left untouched."""
    h, w = front.shape
    out = front.copy()
    for x in range(1, h - 1):
        for y in range(1, w - 1):
            neighbors = (
                int(front[x - 1, y])
                + int(front[x, y + 1])
                + int(front[x + 1, y])
                + int(front[x, y - 1])
            )
            if front[x, y]:
                out[x, y] = 2 <= neighbors <= 3
            else:
                out[x, y] = neighbors == 3
    return out


def reference_run(front0: np.ndarray, back0: np.ndarray, iters: int):
    front = front0.copy()
    back = back0.copy()
    for _ in range(iters):
        stepped = five_point_step(front)
        back[1:-1, 1:-1] = stepped[1:-1, 1:-1]
        front[1:-1, 1:-1] = back[1:-1, 1:-1]
    return front, back


def glider_contents(scop):
    init = zero_contents(scop)
    for dx, dy in [(0, 1), (1, 2), (2, 0), (2, 1), (2, 2)]:
        init["front"][2 + dx, 2 + dy] = True
    return init


def with_iters(gol16_path, n):
    doc = json.loads(gol16_path.read_text())
    for s in doc["statements"]:
        s["domain"] = s["domain"].replace("i < 3", f"i < {n}")
    return parse_scop(json.dumps(doc))


def test_sequential_matches_hand_stepper_one_iteration(gol16_path):
    scop = with_iters(gol16_path, 1)
    init = glider_contents(scop)
    got = sequential_execute(scop, init)
    want_front, want_back = reference_run(init["front"], init["back"], 1)
    assert np.array_equal(got["front"], want_front)
    assert np.array_equal(got["back"], want_back)


def test_sequential_matches_hand_stepper_three_iterations(gol16):
    init = glider_contents(gol16)
    got = sequential_execute(gol16, init)
    want_front, want_back = reference_run(init["front"], init["back"], 3)
    assert np.array_equal(got["front"], want_front)
    assert np.array_equal(got["back"], want_back)


def test_sequential_random_contents(gol16):
    init = random_contents(gol16, seed=1234)
    got = sequential_execute(gol16, init)
    want_front, want_back = reference_run(init["front"], init["back"], 3)
    assert np.array_equal(got["front"], want_front)
    assert np.array_equal(got["back"], want_back)


def test_zero_iterations_identity(gol16_path):
    scop = with_iters(gol16_path, 0)
    init = glider_contents(scop)
    got = sequential_execute(scop, init)
    assert contents_equal(got, init)


def test_all_dead_board_stays_dead(gol16):
    init = zero_contents(gol16)
    got = sequential_execute(gol16, init)
    assert not got["front"].any()
    assert not got["back"].any()


# ---------------------------------------------------------------------------
# Access isolation


def test_isolation_structure_matches_split_form(gol16_fused, gol16):
    iso = isolate_accesses(gol16_fused)
    assert [s.id for s in iso.statements] == [s.id for s in gol16.statements]
    assert iso.scatter_arity == 7
    for s in iso.statements:
        assert len(s.accesses) <= 1
    # accessed elements per statement match the pre-isolated corpus
    point = (1, 4, 7)
    for mine, ship in zip(iso.statements, gol16.statements):
        if not ship.accesses:
            assert not mine.accesses
            continue
        a, b = mine.accesses[0], ship.accesses[0]
        assert (a.field, a.kind) == (b.field, b.kind)
        assert tuple(evaluate_point(e, point) for e in a.index_exprs) == tuple(
            evaluate_point(e, point) for e in b.index_exprs
        )


def test_isolation_preserves_semantics(gol16_fused):
    iso = isolate_accesses(gol16_fused)
    init = random_contents(gol16_fused, seed=77)
    a = sequential_execute(gol16_fused, init)
    b = sequential_execute(iso, init)
    assert contents_equal(a, b)


def test_isolation_single_access_padded(gol16):
    iso = isolate_accesses(gol16)
    assert iso.scatter_arity == 8
    assert [s.id for s in iso.statements] == [s.id for s in gol16.statements]
    for s, orig in zip(iso.statements, gol16.statements):
        assert len(s.schedule_exprs) == 8
        assert s.schedule_exprs[-1].is_constant() and s.schedule_exprs[-1].const == 0
        assert s.accesses == orig.accesses


def test_isolation_zero_access_unchanged(gol16):
    iso = isolate_accesses(gol16)
    s16 = iso.statement("S1.6")
    assert not s16.accesses
    assert s16.body == gol16.statement("S1.6").body


def test_isolation_idempotent_semantics(gol16_fused):
    once = isolate_accesses(gol16_fused)
    twice = isolate_accesses(once)
    init = random_contents(gol16_fused, seed=5)
    assert contents_equal(sequential_execute(once, init), sequential_execute(twice, init))


@pytest.mark.parametrize("seed", range(12))
def test_isolation_preserves_semantics_random(seed):
    import random

    rng = random.Random(seed + 600)
    n = rng.randint(4, 7)
    sa, sb = rng.randint(-1, 1), rng.randint(-1, 1)
    doc = {
        "name": "randfused",
        "grid": [1],
        "scatter_arity": 3,
        "fields": [
            {"name": "a", "type": "int64", "extents": [n]},
            {"name": "b", "type": "int64", "extents": [n]},
        ],
        "functions": {},
        "statements": [
            {
                "id": "S",
                "domain": f"{{ [i,x] : 0 <= i < 2 and 1 <= x <= {n - 2} }}",
                "schedule": "{ [i,x] -> [0,i,x] }",
                "accesses": [
                    {"field": "a", "kind": "read", "index": [f"x+{sa}"]},
                    {"field": "b", "kind": "read", "index": [f"x+{sb}"]},
                    {"field": "a", "kind": "write", "index": ["x"]},
                ],
                "body": ["add", ["access", 0], ["mul", ["access", 1], ["int", 3]]],
            }
        ],
    }
    scop = parse_scop(json.dumps(doc))
    iso = isolate_accesses(scop)
    assert all(len(s.accesses) <= 1 for s in iso.statements)
    init = {
        "a": (np.arange(n, dtype=np.int64) * 7 + seed) % 101,
        "b": (np.arange(n, dtype=np.int64) * 13 + 3 * seed) % 89,
    }
    assert contents_equal(sequential_execute(scop, init), sequential_execute(iso, init))


def _branch_statement(sid, k, accesses, body=None, reads=(), writes=()):
    sd = {"id": sid, "domain": "{ [x] : 1 <= x <= 4 }", "schedule": f"{{ [x] -> [{k},x] }}",
          "accesses": [{"field": f, "kind": kind, "index": [index]} for f, kind, index in accesses]}
    if body is not None:
        sd["body"] = body
    if reads:
        sd["scalar_reads"] = list(reads)
    if writes:
        sd["scalar_writes"] = list(writes)
    return sd


# One statement per case of the split rule, in the order P (no access),
# Q (one access), A (two reads, a non-atomic body, a write between them and a
# scalar write), B (two reads, an atomic body and a write), C (two reads and
# a body without a write), D (two reads, no body) and E (one write).
ISOLATION_BRANCHES = {
    "name": "branches",
    "grid": [1],
    "scatter_arity": 2,
    "fields": [{"name": f, "type": "int64", "extents": [6]} for f in "abc"],
    "functions": {},
    "statements": [
        _branch_statement("P", 0, [], ["int", 2], writes=["t"]),
        _branch_statement("Q", 1, [("a", "read", "x")], ["access", 0], writes=["u"]),
        _branch_statement("A", 2, [("a", "read", "x-1"), ("c", "write", "x"), ("b", "read", "x+1")],
                          ["add", ["access", 0], ["mul", ["access", 2], ["var", "t"]]],
                          reads=["t"], writes=["w"]),
        _branch_statement("B", 3, [("a", "read", "x"), ("b", "read", "x"), ("a", "write", "x")],
                          ["access", 1]),
        _branch_statement("C", 4, [("c", "read", "x"), ("a", "read", "x+1")],
                          ["sub", ["access", 0], ["access", 1]], writes=["z"]),
        _branch_statement("D", 5, [("a", "read", "x"), ("b", "read", "x-1")]),
        _branch_statement("E", 6, [("b", "write", "x")], ["add", ["var", "z"], ["var", "w"]],
                          reads=["z", "w"]),
    ],
}


def test_isolation_branches_pinned():
    """Every child of every case of the split rule: id, accessed field and
    kind, body, scalar reads, scalar writes and trailing ordinal."""
    iso = isolate_accesses(parse_scop(json.dumps(ISOLATION_BRANCHES)))
    got = [(s.id, [(a.field, a.kind) for a in s.accesses], s.body, s.scalar_reads,
            s.scalar_writes, s.schedule_exprs[-1].const) for s in iso.statements]
    assert got == [
        ("P", [], ["int", 2], (), ("t",), 0),
        ("Q", [("a", "read")], ["access", 0], (), ("u",), 0),
        ("A.1", [("a", "read")], ["access", 0], (), ("A.v1",), 1),
        ("A.2", [("b", "read")], ["access", 0], (), ("A.v2",), 2),
        ("A.3", [], ["add", ["var", "A.v1"], ["mul", ["var", "A.v2"], ["var", "t"]]],
         ("A.v1", "A.v2", "t"), ("A.v3", "w"), 3),
        ("A.4", [("c", "write")], ["var", "A.v3"], ("A.v3",), (), 4),
        ("B.1", [("a", "read")], ["access", 0], (), ("B.v1",), 1),
        ("B.2", [("b", "read")], ["access", 0], (), ("B.v2",), 2),
        ("B.3", [("a", "write")], ["var", "B.v2"], ("B.v2",), (), 3),
        ("C.1", [("c", "read")], ["access", 0], (), ("C.v1",), 1),
        ("C.2", [("a", "read")], ["access", 0], (), ("C.v2",), 2),
        ("C.3", [], ["sub", ["var", "C.v1"], ["var", "C.v2"]], ("C.v1", "C.v2"), ("z",), 3),
        ("D.1", [("a", "read")], ["access", 0], (), ("D.v1",), 1),
        ("D.2", [("b", "read")], ["access", 0], (), ("D.v2",), 2),
        ("E", [("b", "write")], ["add", ["var", "z"], ["var", "w"]], ("z", "w"), (), 0),
    ]
    assert iso.scatter_arity == 3
    assert all(s.domain.space.name == s.id for s in iso.statements)
    a = parse_scop(json.dumps(ISOLATION_BRANCHES)).statement("A")
    assert iso.statement("A.2").accesses == a.accesses[2:]
    assert iso.statement("A.4").schedule_exprs[:2] == a.schedule_exprs


def test_isolation_branches_preserve_semantics():
    scop = parse_scop(json.dumps(ISOLATION_BRANCHES))
    iso = isolate_accesses(scop)
    iso.validate()
    init = {f: (np.arange(6, dtype=np.int64) * m + 1) % 17 for f, m in zip("abc", (3, 5, 7))}
    assert contents_equal(sequential_execute(scop, init), sequential_execute(iso, init))


def test_isolation_id_collision():
    doc = {"name": "collide", "grid": [1], "scatter_arity": 2,
           "fields": [{"name": "a", "type": "int64", "extents": [6]}], "functions": {},
           "statements": [
               _branch_statement("S", 0, [("a", "read", "x"), ("a", "write", "x")], ["access", 0]),
               _branch_statement("S.1", 1, [("a", "write", "x")], ["int", 0]),
           ]}
    with pytest.raises(ValidationError, match=r"isolation id collision: S\.1"):
        isolate_accesses(parse_scop(json.dumps(doc)))
