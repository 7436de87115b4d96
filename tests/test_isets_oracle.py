"""Randomized equivalence of the symbolic kernel against enumeration.

Every operation result, computed symbolically on constraints, must
enumerate to the same point set as the operation performed element-wise
on enumerations.
"""

import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydist import deps, isets, placement
from polydist.errors import UnboundedSet
from polydist.isets import (
    AffineExpr,
    Constraint,
    DivTerm,
    IntMap,
    IntSet,
    Space,
    apply,
    compose,
    conjoin,
    enumerate_set,
    enumerate_table,
    eq0,
    ge0,
    intersect,
    is_empty,
    lexmax,
    lexmin,
    normalize_piece,
    point_table,
    propagate,
    select_lex_extreme,
    subtract,
    union,
)
from polydist.deps import add_virtual_statements, compute_flow
from polydist.pipeline import analyze_scop, override_grid
from polydist.placement import block_distribute, place_statements
from polydist.scop import isolate_accesses
from polydist.scopio import parse_scop_file
from polydist.syntax import parse_map, parse_set

from oracle import (
    enumerate_by_pieces,
    evaluate_point,
    piece_is_empty_by_extreme,
    pair_rows_by_lookup,
    random_functional_exprs,
    random_map,
    random_set,
    random_space,
    ref_closure,
    ref_lex_extreme,
    run_algebra_case,
    search_only,
    subtract_pieces_unfiltered,
    subtract_unfiltered,
    transitive_closure,
)
from test_contract import EXPECTED as CONTRACT


def run_closure_case(seed: int) -> None:
    rng = random.Random(seed)
    space = random_space(rng, "c", max_dims=2)
    m = random_map(rng, space, space.renamed("c'"), max_extent=4)
    m = IntMap(space, space, m.pieces)
    pairs = enumerate_set(m.as_set())
    if len(pairs) > 400:
        return
    tc = transitive_closure(m)
    assert set(enumerate_set(tc.as_set())) == set(ref_closure(pairs, space.arity))


@pytest.mark.parametrize("seed", range(0, 120))
def test_algebra_oracle(seed):
    run_algebra_case(seed)


@pytest.mark.parametrize("seed", range(0, 60))
def test_algebra_oracle_search_path(seed, monkeypatch):
    """The same cases with box scanning off, so every enumeration and
    lexicographic extreme takes the backtracking search."""
    search_only(monkeypatch)
    run_algebra_case(seed)


@pytest.mark.parametrize("base, scanned", [(1 << 62, False), (1 << 59, True)])
def test_huge_bounds_stay_exact(base, scanned):
    """floor((x0 + x1) / 2) >= base + 1 over a 4x4 box at base: at 2^62 the
    sum x0 + x1 does not fit in int64, so the scan must hand the piece to
    the search."""
    space = Space("h", ("x0", "x1"))
    half_sum = AffineExpr((0, 0), -base - 1, (DivTerm(1, AffineExpr((1, 1)), 2),))
    box = IntSet.from_box(space, [(base, base + 3), (base, base + 3)])
    s = IntSet.make(space, [box.pieces[0] + (ge0(half_sum),)])
    assert (isets._scan_program(2, s.pieces[0]) is not None) == scanned
    cells = range(base, base + 4)
    expected = [p for p in itertools.product(cells, cells) if (p[0] + p[1]) // 2 >= base + 1]
    assert enumerate_set(s) == expected
    assert not is_empty(s)
    assert lexmin(s) == expected[0]
    assert lexmax(s) == expected[-1]


def test_floor_div_equality_is_scanned(monkeypatch):
    """2*x0 == 3*floor(x1/2) has no unit coefficient outside its floor
    division, so it defines no dimension; the scan checks it point by point."""
    space = Space("q", ("x0", "x1"))
    eq = AffineExpr((2, 0), 0, (DivTerm(-3, AffineExpr((0, 1)), 2),))
    box = IntSet.from_box(space, [(0, 9), (0, 9)])
    s = IntSet.make(space, [box.pieces[0] + (eq0(eq),)])
    assert len(s.pieces) == 1
    assert isets._scan_program(2, s.pieces[0]) is not None
    expected = [
        p for p in itertools.product(range(10), range(10)) if 2 * p[0] == 3 * (p[1] // 2)
    ]
    assert expected == [(0, 0), (0, 1), (3, 4), (3, 5), (6, 8), (6, 9)]
    scanned = (enumerate_set(s), lexmin(s), lexmax(s))
    assert scanned == (expected, expected[0], expected[-1])
    search_only(monkeypatch)
    assert (enumerate_set(s), lexmin(s), lexmax(s)) == scanned


def _floor(coeff: int, inner: AffineExpr, div: int) -> AffineExpr:
    return AffineExpr((0,) * len(inner.coeffs), 0, (DivTerm(coeff, inner, div),))


_X, _Y = AffineExpr.var(2, 0), AffineExpr.var(2, 1)


def _c(value: int) -> AffineExpr:
    return AffineExpr.constant(2, value)


# a constraint as written and as simplified by hand: the piece makes its
# floor terms canonical, however they are written
WRITTEN_FLOORS = {
    "constant-inner": (_X - _Y + _floor(1, _c(7), 2), _X - _Y + _c(3)),
    "repeated": (_floor(1, _X, 2) + _floor(1, _X, 2) - _Y, _floor(2, _X, 2) - _Y),
    "negated-copy": (_X - _c(4) + _floor(1, _Y, 3) - _floor(1, _Y, 3), _X - _c(4)),
    "zero-coefficient": (_Y - _c(2) + _floor(0, _X + _Y, 2), _Y - _c(2)),
    "nested": (_floor(1, _X + _floor(1, _c(7), 3) + _floor(1, _Y, 2) - _floor(1, _Y, 2), 2) - _Y,
               _floor(1, _X + _c(2), 2) - _Y),
}


@pytest.mark.parametrize("is_eq", [False, True], ids=["ge", "eq"])
@pytest.mark.parametrize("case", sorted(WRITTEN_FLOORS))
def test_written_floor_terms_give_the_simplified_pieces(case, is_eq):
    written, simplified = WRITTEN_FLOORS[case]
    space = Space("w", ("x", "y"))
    box = IntSet.from_box(space, [(0, 9), (0, 9)]).pieces[0]
    s = IntSet.make(space, [box + (Constraint(written, is_eq),)])
    assert s.pieces == IntSet.make(space, [box + (Constraint(simplified, is_eq),)]).pieces
    assert enumerate_set(s)


def _written_floor_term(rng: random.Random, n: int, depth: int) -> AffineExpr:
    """One floor term over n dims as a user might write it: a constant or a
    nested inner, repeated, beside a negated copy or times 0."""
    if rng.random() < 0.2:
        inner = AffineExpr.constant(n, rng.randint(-7, 7))
    elif depth and rng.random() < 0.3:
        inner = _written_floor_expr(rng, n, depth - 1)
    else:
        inner = AffineExpr(tuple(rng.choice([-1, 0, 1, 2]) for _ in range(n)), rng.randint(-3, 3))
    div = rng.randint(1, 5)
    term = _floor(rng.choice([-2, -1, 0, 1, 2]), inner, div)
    return rng.choice([term, term + term, term - term + _floor(1, inner, div), term.scale(0) + term])


def _written_floor_expr(rng: random.Random, n: int, depth: int) -> AffineExpr:
    expr = AffineExpr(tuple(rng.choice([-2, -1, 0, 1, 2]) for _ in range(n)), rng.randint(-4, 4))
    for _ in range(rng.randint(0, 2)):
        expr = expr + _written_floor_term(rng, n, depth)
    return expr


def test_written_floor_terms_enumerate_to_their_points():
    """200 random boxes cut by one to three constraints with floor terms
    written in every way above, nested to depth 2, enumerate to the box
    points that satisfy the constraints evaluated as written."""
    for seed in range(200):
        rng = random.Random(seed + 30000)
        n = rng.randint(1, 3)
        bounds = [(lo, lo + rng.randint(0, 5)) for lo in (rng.randint(-3, 3) for _ in range(n))]
        cons = [Constraint(_written_floor_expr(rng, n, 2), rng.random() < 0.2)
                for _ in range(rng.randint(1, 3))]
        space = Space("r", tuple(f"x{i}" for i in range(n)))
        s = IntSet.make(space, [IntSet.from_box(space, bounds).pieces[0] + tuple(cons)])
        expected = [p for p in itertools.product(*(range(lo, hi + 1) for lo, hi in bounds))
                    if all((evaluate_point(c.expr, p) == 0) if c.is_eq else evaluate_point(c.expr, p) >= 0
                           for c in cons)]
        assert enumerate_set(s) == expected, seed


@pytest.mark.parametrize(
    "extra",
    [
        (ge0(AffineExpr((-1, 0), 3)),),  # x0 <= 3: x1 is unbounded in the box tail
        (),  # x0 is unbounded where the search branches
    ],
    ids=["tail", "branch"],
)
@pytest.mark.parametrize("query", [enumerate_set, lexmin, lexmax, is_empty])
def test_unbounded_piece_raises(extra, query):
    space = Space("u", ("x0", "x1"))
    piece = (ge0(AffineExpr((1, 0))), ge0(AffineExpr((-1, 1)))) + extra
    s = IntSet.make(space, [piece])
    assert isets._scan_program(2, s.pieces[0]) is None
    with pytest.raises(UnboundedSet):
        query(s)


@pytest.mark.parametrize("seed", range(0, 40))
def test_closure_oracle(seed):
    run_closure_case(seed + 9000)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40, derandomize=True, deadline=None)
def test_algebra_oracle_hypothesis(seed):
    run_algebra_case(seed)


def test_compose_apply_associativity_random():
    rng = random.Random(7)
    for trial in range(25):
        dom = random_space(rng, "a", max_dims=3)
        mid = random_space(rng, "b", max_dims=2)
        out = random_space(rng, "c", max_dims=2)
        s = random_set(rng, dom, max_extent=5)
        f = random_map(rng, dom, mid, max_extent=4)
        g = random_map(rng, mid, out, max_extent=4)
        lhs = apply(compose(g, f), s)
        rhs = apply(g, apply(f, s))
        assert set(enumerate_set(lhs)) == set(enumerate_set(rhs)), f"trial {trial}"


def _image(exprs, points) -> list:
    return sorted({tuple(evaluate_point(e, p) for e in exprs) for p in points})


def test_apply_floor_map_on_coupled_rows():
    """Once the division is a dim and s0 is gone, the rows 4q - 1 <= r0 <=
    4q + 3 and 2 <= q - r0 <= 12 bound q only together with r0, so the
    splitting fallback takes q's range from the rational relaxation."""
    m = parse_map("{ [s0] -> [-s0 + floor((-s0 - 1)/3) - 4] }")
    s = parse_set("{ [s0] : -2 <= s0 <= 8 }")
    expected = sorted({(-v + (-v - 1) // 3 - 4,) for v in range(-2, 9)})
    assert enumerate_set(apply(m, s)) == expected


def test_functional_map_images_match_brute_force():
    """Random functional maps, a third with a floor division, applied to
    random sets: the image is every point's value, with no UnboundedSet."""
    for seed in range(500):
        rng = random.Random(seed + 10000)
        dom = random_space(rng, "s", max_dims=3)
        ran = random_space(rng, "r", max_dims=2)
        exprs = random_functional_exprs(rng, dom.arity, ran.arity)
        s = random_set(rng, dom)
        image = apply(IntMap.from_exprs(dom, ran, exprs), s)
        assert enumerate_set(image) == _image(exprs, enumerate_set(s)), seed


@pytest.fixture(scope="module")
def contract_placements(scops_dir):
    out = {}
    for name, grid in sorted(CONTRACT):
        scop = override_grid(parse_scop_file(scops_dir / f"{name}.scop"), map(int, grid.split("x")))
        out[(name, grid)] = analyze_scop(scop).stmt_placement
    return out


@pytest.mark.parametrize("config", sorted(CONTRACT), ids="-".join)
def test_placement_scan_counts_only_points(contract_placements, config):
    """Node dims bounded by block rows 2p <= x <= 2p + 1 are computed, not
    scanned: the scanned volume is the number of points (not a timing)."""
    for sid, m in contract_placements[config].maps.items():
        arity = m.n_in + m.n_out
        volume = sum(isets._scan_program(arity, p).volume for p in m.pieces)
        assert volume == len(enumerate_set(m.as_set())), sid


PAIR_CASES = ["negative", "unit", "division", "defined"]


def _pair_piece(rng, case):
    """A box over x0, x1 and x2 = floor(e/d) stated as the two rows
    d*x2 <= e <= d*x2 + d - 1, with e over x0, x1 (and a floor division)."""
    n = 3
    los = [rng.randint(-6, 2) for _ in range(2)]
    box = [(lo, lo + rng.randint(0, 6)) for lo in los]
    d = 1 if case == "unit" else rng.choice([2, 3, 4, 5])
    const = rng.randint(-12, -4) if case == "negative" else rng.randint(-3, 3)
    divs = ()
    if case == "division":
        divs = (DivTerm(rng.choice([-1, 1]), AffineExpr((1, rng.choice([-1, 1]), 0)), 3),)
    e = AffineExpr((rng.choice([-2, -1, 1, 3]), rng.choice([-1, 0, 1, 2]), 0), const, divs)
    x2 = AffineExpr.var(n, 2)
    cons = [ge0(e - x2.scale(d)), ge0(x2.scale(d) - e + AffineExpr.constant(n, d - 1))]
    for k, (lo, hi) in enumerate(box):
        cons += [ge0(AffineExpr.var(n, k).plus_const(-lo)), ge0(AffineExpr.var(n, k, -1).plus_const(hi))]
    if case == "defined":
        cons.append(eq0(x2 - AffineExpr.var(n, 0).plus_const(rng.randint(-2, 2))))
    return IntSet.make(Space("b", ("x0", "x1", "x2")), [cons])


@pytest.mark.parametrize("case", PAIR_CASES)
@pytest.mark.parametrize("seed", range(25))
def test_block_pair_scan_matches_search(case, seed):
    s = _pair_piece(random.Random(seed * 31 + PAIR_CASES.index(case)), case)
    for piece in s.pieces:
        prog = isets._scan_program(3, piece)
        assert prog is not None and len(prog.free) <= 2  # x2 (or x1) computed
        scanned = list(map(tuple, np.concatenate(list(isets._scan_piece(3, piece, 1 << 20))).tolist()))
        searched = list(isets._search_piece(3, piece, False))
        assert sorted(scanned) == searched


def _table_case(seed: int) -> IntSet:
    """A random set; every third one a union, every third a difference of
    two, whose pieces overlap or carry the negated rows of a subtraction."""
    rng = random.Random(seed + 20000)
    space = random_space(rng, "t")
    a, b = random_set(rng, space), random_set(rng, space)
    return (a, union(a, b), subtract(a, b))[seed % 3]


@pytest.mark.parametrize("search", [False, True], ids=["scan", "search"])
def test_enumerate_table_matches_enumerated_points(search, monkeypatch):
    """On 200 random sets the table builder gives the points of the
    set-and-sort reference row for row, and enumerate_set the same points as
    tuples; the table is int64 unless some piece was searched."""
    if search:
        monkeypatch.setattr(isets, "_ENUM_SCAN_CAP", 0)
    for seed in range(200):
        s = _table_case(seed)
        table = enumerate_table(s)
        points = enumerate_by_pieces(s)
        expected = point_table(points, s.arity)
        assert table.shape == expected.shape and table.tolist() == expected.tolist(), seed
        assert enumerate_set(s) == points, seed
        searched = search and any(propagate(s.arity, p) is not None for p in s.pieces)
        assert table.dtype == (object if searched else np.int64), seed


@pytest.mark.parametrize("base", [1 << 62, 1 << 70], ids=["2^62", "2^70"])
def test_enumerate_table_stays_exact_at_huge_bounds(base):
    """The half-sum set of test_huge_bounds_stay_exact, which the scan hands
    to the search: its table holds Python ints."""
    space = Space("h", ("x0", "x1"))
    half_sum = AffineExpr((0, 0), -base - 1, (DivTerm(1, AffineExpr((1, 1)), 2),))
    box = IntSet.from_box(space, [(base, base + 3), (base, base + 3)])
    s = IntSet.make(space, [box.pieces[0] + (ge0(half_sum),)])
    table = enumerate_table(s)
    assert table.dtype == object and all(type(v) is int for v in table.ravel())
    assert table.tolist() == point_table(enumerate_by_pieces(s), 2).tolist()


@pytest.mark.parametrize("maximize", [False, True], ids=["min", "max"])
def test_select_lex_extreme_matches_brute_force(maximize):
    """On a set, a union or a difference from each of the first 150 random
    algebra cases, floor divisions included, select_lex_extreme keeps the
    per-group extreme of the enumerated points, for every group width."""
    divided, widths = 0, set()
    for seed in range(150):
        a, b = _algebra_sets(seed)
        s = (a, union(a, b), subtract(a, b))[seed % 3]
        divided += any(p.divs for p in s.pieces)
        points = enumerate_set(s)
        for n_group in range(s.arity + 1):
            got = enumerate_set(select_lex_extreme(s, n_group, maximize))
            assert got == ref_lex_extreme(points, n_group, maximize), (seed, n_group)
            widths.add((s.arity, n_group))
    assert divided >= 15 and len(widths) == 14, (divided, widths)


@pytest.mark.parametrize("name", ["empty", "gol16", "gol16_fused", "gol32"])
def test_pair_rows_match_lookup(scops_dir, name):
    """The searched pair rows of every family of the shipped SCoPs equal
    the pair-by-pair lookup in Statement.rows."""
    scop = parse_scop_file(scops_dir / f"{name}.scop")
    dep = compute_flow(add_virtual_statements(isolate_accesses(scop)))
    for fam, got, want in zip(dep.families, dep.pair_rows, pair_rows_by_lookup(dep)):
        assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist(), fam.rel.space


def _algebra_sets(seed: int) -> tuple[IntSet, IntSet]:
    """The two random sets run_algebra_case(seed) starts from."""
    rng = random.Random(seed)
    space = random_space(rng, "s")
    return random_set(rng, space), random_set(rng, space)


def _late_piece(seed: int):
    """A piece over a 3-dim box with one to three coupled rows that
    interval propagation cannot fold into the box, so its first point (if
    any) may lie far into the scanned box."""
    rng = random.Random(seed + 30000)
    space = Space("l", ("l0", "l1", "l2"))
    ext = [rng.randint(4, 12), rng.randint(4, 12), rng.randint(16, 28)]
    rows = []
    for _ in range(rng.randint(1, 3)):
        e = AffineExpr(tuple(rng.choice([-5, -3, -2, 0, 2, 3, 5]) for _ in range(3)), rng.randint(-30, 30))
        rows.append(eq0(e) if rng.random() < 0.3 else ge0(e))
    box = IntSet.from_box(space, [(0, e - 1) for e in ext])
    return IntSet.make(space, [box.pieces[0] + tuple(rows)]).pieces


def _first_point_index(arity: int, piece):
    """Position in the scanned box of a piece's first point (the scan
    visits the box in order), or None for an empty piece."""
    prog = isets._scan_program(arity, piece)
    points = isets._piece_points(arity, piece)
    return int(((points[0, prog.free] - prog.los) * prog.strides).sum()) if len(points) else None


def test_piece_is_empty_matches_reference(monkeypatch):
    """The memoised emptiness that stops at its first scanned point answers
    as the lexicographic minimum does: on the pieces of the 500 random
    algebra cases, the conjunctions of their pieces and their unfiltered
    difference candidates (many of these empty), and on pieces whose only
    points lie past the first scanned block; then with scanning off."""
    cases = []
    for seed in range(500):
        a, b = _algebra_sets(seed)
        cases += [(a.arity, p) for p in a.pieces + b.pieces + intersect(a, b).pieces]
        cases += [(a.arity, conjoin(p, q)) for p in a.pieces for q in b.pieces]
        for q in b.pieces:
            cases += [(a.arity, p) for p in subtract_pieces_unfiltered(a.arity, list(a.pieces), q)]
    late = Counter()
    first, second = isets._FIRST_BLOCK, 5 * isets._FIRST_BLOCK  # the first two blocks' ends
    for seed in range(2000):
        for piece in _late_piece(seed):
            at = _first_point_index(3, piece)
            big = isets._scan_program(3, piece).volume > first
            kind = "empty" if at is None and big else "second" if at is not None and at >= second else (
                "first" if at is not None and at >= first else None)
            if kind:
                late[kind] += 1
                cases.append((3, piece))
    assert late["first"] >= 20 and late["second"] >= 3 and late["empty"] >= 3, late
    want = [piece_is_empty_by_extreme(arity, p) for arity, p in cases]
    assert 0 < sum(want) < len(want)
    isets.piece_is_empty.cache_clear()
    assert [isets.piece_is_empty(arity, p) for arity, p in cases] == want
    search_only(monkeypatch)
    assert [isets.piece_is_empty(arity, p) for arity, p in cases] == want


@pytest.fixture(scope="module")
def kernel_calls(scops_dir):
    """Every subtract and project_pieces call (arguments and result) that
    compute_flow and place_statements make on the four shipped SCoPs, and
    the first 60 random algebra cases make."""
    calls = {"subtract": [], "project": []}

    def recorded(name, f):
        def call(*args):
            out = f(*args)
            calls[name].append((args, out))
            return out
        return call

    with pytest.MonkeyPatch.context() as mp:
        for module in (isets, deps, placement):
            mp.setattr(module, "subtract", recorded("subtract", isets.subtract))
        for module in (isets, deps):
            mp.setattr(module, "project_pieces", recorded("project", isets.project_pieces))
        for name in ("empty", "gol16", "gol16_fused", "gol32"):
            virt = add_virtual_statements(isolate_accesses(parse_scop_file(scops_dir / f"{name}.scop")))
            dep = compute_flow(virt)
            place_statements(virt, dep, block_distribute(virt.fields, virt.grid))
        for seed in range(60):
            run_algebra_case(seed)
    assert len(calls["subtract"]) > 100 and len(calls["project"]) > 100
    return calls


def test_subtract_matches_unfiltered_reference(kernel_calls, monkeypatch):
    """Refuting candidates before they are built keeps exactly the pieces,
    in order, of building and testing every candidate: step by step and as
    the final set, on the 500 random algebra cases, on 100 of them with
    every subtrahend row repeated, and on every recorded subtract call."""
    refuted = Counter()
    excluded = isets._excluded
    monkeypatch.setattr(isets, "_excluded", lambda *a: refuted.update([excluded(*a)]) or excluded(*a))
    cases = [_algebra_sets(seed) for seed in range(500)]
    cases += [(a, IntSet(b.space, tuple(isets.Piece(q.divs, q.rows + q.rows) for q in b.pieces)))
              for a, b in cases[:100]]
    cases += [args for args, _ in kernel_calls["subtract"]]
    for a, b in cases:
        pieces = list(a.pieces)
        for q in b.pieces:
            want = subtract_pieces_unfiltered(a.arity, pieces, q)
            assert isets._subtract_pieces(a.arity, pieces, q) == want
            pieces = want
        assert subtract(a, b).pieces == subtract_unfiltered(a, b).pieces
    assert refuted[True] > 100, refuted


def test_project_pieces_returns_normalized_pieces(kernel_calls):
    """Every piece project_pieces returns is normalized and passes
    propagation, also when it drops no dim (dominance against the 0-dim
    prologue)."""
    assert any(not drop for (_, _, drop), _ in kernel_calls["project"])
    for (arity, _, drop), out in kernel_calls["project"]:
        for q in out:
            assert normalize_piece(q) == q and propagate(arity - len(set(drop)), q) is not None


def test_flow_scans_each_piece_once(scops_dir, monkeypatch):
    """Work guard: one compute_flow of gol32 2x2 asks whether 38 distinct
    pieces are empty, 211 times; each is scanned once."""
    virt = add_virtual_statements(isolate_accesses(
        override_grid(parse_scop_file(scops_dir / "gol32.scop"), (2, 2))))
    scanned = []
    scan = isets._scan_piece
    monkeypatch.setattr(isets, "_scan_piece", lambda arity, piece, *sizes: (
        scanned.append((arity, piece, sizes)) or scan(arity, piece, *sizes)))
    isets.piece_is_empty.cache_clear()
    compute_flow(virt)
    emptiness = [(arity, piece) for arity, piece, sizes in scanned
                 if sizes == (isets._SOLVE_SCAN_CAP, isets._FIRST_BLOCK)]
    assert len(emptiness) == len(set(emptiness)) <= 38


def test_flow_builds_each_scatter_order_once(scops_dir, monkeypatch):
    """Work guard: one compute_flow of gol32 2x2 builds each of its 60
    scatter orders (a writer's scatter before its reader's, or one
    candidate's before another's, in one column layout) once."""
    virt = add_virtual_statements(isolate_accesses(
        override_grid(parse_scop_file(scops_dir / "gol32.scop"), (2, 2))))
    built = []
    order = isets.lex_lt_pieces
    monkeypatch.setattr(deps, "lex_lt_pieces", lambda a, b: (
        built.append((*a, *b)) or order(a, b)))
    compute_flow(virt)
    assert len(built) == len(set(built)) == 60
