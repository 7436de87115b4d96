import pytest

from polydist.errors import EmptySet, SetTooLarge, SpaceMismatch, UnboundedSet
from polydist.isets import (
    AffineExpr,
    IntMap,
    Space,
    apply,
    compose,
    enumerate_set,
    first_outside,
    intersect,
    inverse,
    is_empty,
    lexmax,
    lexmin,
    map_union,
    restrict_domain,
    select_lex_extreme,
    subtract,
    union,
)
from polydist.syntax import format_map, parse_expr, parse_map, parse_set

from oracle import (
    evaluate_point,
    identity_map,
    is_single_valued,
    maps_equal,
    ref_apply,
    ref_compose,
    set_from_points,
    sets_equal,
    transitive_closure,
)

I = Space("I", ("i",))
XY = Space("XY", ("x", "y"))


def setp(text, space=None):
    return parse_set(text, space=space)


def test_intersect_interval_overlap():
    a = setp("{ [i] : 0 <= i < 4 }", I)
    b = setp("{ [i] : 2 <= i < 8 }", I)
    assert enumerate_set(intersect(a, b)) == [(2,), (3,)]


def test_intersect_idempotent():
    s = setp("{ [x,y] : 0 <= x < 3 and x <= y < 5 }", XY)
    assert sets_equal(intersect(s, s), s)


def test_intersect_disjoint():
    a = setp("{ [i] : 0 <= i < 2 }", I)
    b = setp("{ [i] : 5 <= i < 6 }", I)
    assert is_empty(intersect(a, b))


def test_space_mismatch():
    a = setp("{ [i] : 0 <= i < 2 }", I)
    b = setp("{ [x,y] : 0 <= x < 2 and 0 <= y < 2 }", XY)
    with pytest.raises(SpaceMismatch):
        intersect(a, b)


def test_enumerate_lexicographic():
    s = setp("{ [x,y] : 0 <= x < 2 and 0 <= y < 2 }", XY)
    assert enumerate_set(s) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_subtract_self_empty():
    s = setp("{ [x,y] : 0 <= x < 4 and 1 <= y < 3 }", XY)
    assert is_empty(subtract(s, s))


def test_is_empty_degenerate_interval():
    s = setp("{ [i] : 0 <= i < 0 }", I)
    assert is_empty(s)


def test_unbounded_set_rejected():
    with pytest.raises(UnboundedSet):
        parse_set("{ [i] : i >= 0 }")
    with pytest.raises(UnboundedSet):
        parse_set("{ [x,y] : x >= 0 and x < 4 and y <= x }")


def test_apply_transpose_map():
    m = parse_map("{ [i,j] -> [j,i] }")
    s = set_from_points(m.dom, [(1, 2)])
    assert enumerate_set(apply(m, s)) == [(2, 1)]


def test_apply_identity():
    s = setp("{ [x,y] : 0 <= x < 3 and 0 <= y < 2 }", XY)
    ident = identity_map(XY)
    assert sets_equal(apply(ident, s), s)


def test_apply_floordiv():
    m = parse_map("{ [i] -> [floor(i/8)] }")
    s = set_from_points(m.dom, [(7,), (8,)])
    assert enumerate_set(apply(m, s)) == [(0,), (1,)]


def test_compose_matches_sequential_apply():
    f = parse_map("{ [i] -> [i+1] : 0 <= i < 5 }")
    g = parse_map("{ [i] -> [2*i] : 0 <= i < 10 }", dom=f.ran)
    s = setp("{ [i] : 0 <= i < 5 }", f.dom)
    assert sets_equal(apply(compose(g, f), s), apply(g, apply(f, s)))


def test_compose_space_mismatch():
    f = parse_map("{ [i] -> [i] : 0 <= i < 3 }")
    g = parse_map("{ [x,y] -> [y,x] : 0 <= x < 3 and 0 <= y < 3 }")
    with pytest.raises(SpaceMismatch):
        compose(g, f)


def test_inverse_roundtrip():
    m = parse_map("{ [i,j] -> [j,i] : 0 <= i < 3 and 0 <= j < 2 }")
    assert maps_equal(inverse(inverse(m)), m)


def test_lexmin_lexmax_box():
    s = setp("{ [x,y] : 0 <= x < 3 and 0 <= y < 3 }", XY)
    assert lexmin(s) == (0, 0)
    assert lexmax(s) == (2, 2)


def test_lexmin_empty_raises():
    s = setp("{ [i] : 0 <= i < 0 }", I)
    with pytest.raises(EmptySet):
        lexmin(s)


@pytest.mark.parametrize("floor", ["", " and floor(y/2) >= 1"])
def test_extremes_of_a_box_past_sys_maxsize(floor):
    # the search yields a box's corner before it meets the box's size,
    # which only enumerating the box exceeds
    s = setp(f"{{ [x,y] : 0 <= x < 3 and 2 <= y <= {10**20}{floor} }}", XY)
    assert (lexmin(s), lexmax(s), is_empty(s)) == ((0, 2), (2, 10**20), False)
    if not floor:
        with pytest.raises(SetTooLarge):
            enumerate_set(s)


def test_first_outside():
    s = setp("{ [x,y] : 0 <= x < 3 and 1 <= y <= 99999999999999999999 }", XY)
    box = setp("{ [x,y] : 0 <= x < 3 and 1 <= y <= 14 }", XY)
    assert first_outside(s, box) == (0, 15)
    assert first_outside(box, s) is None
    assert first_outside(s, setp("{ [x,y] : 1 = 0 }", XY)) == (0, 1)


def test_lexmin_nonbox():
    s = setp("{ [x,y] : 1 <= x < 5 and x <= y < 5 and x + y >= 5 }", XY)
    pts = enumerate_set(s)
    assert lexmin(s) == min(pts)
    assert lexmax(s) == max(pts)


def test_transitive_closure_adds_pair():
    m = IntMap.make(I, I, [])
    m = map_union(m, _pair_map((0,), (1,)))
    m = map_union(m, _pair_map((1,), (2,)))
    tc = transitive_closure(m)
    got = set(enumerate_set(tc.as_set()))
    assert got == {(0, 1), (1, 2), (0, 2)}


def test_transitive_closure_empty():
    m = IntMap.make(I, I, [])
    assert is_empty(transitive_closure(m).as_set())


def test_transitive_closure_chain_five():
    m = IntMap.make(I, I, [])
    for a in range(4):
        m = map_union(m, _pair_map((a,), (a + 1,)))
    tc = transitive_closure(m)
    got = set(enumerate_set(tc.as_set()))
    expect = {(a, b) for a in range(5) for b in range(5) if a < b}
    assert got == expect
    assert len(expect) == 10


def test_transitive_closure_idempotent():
    m = parse_map("{ [i] -> [i+1] : 0 <= i < 6 }")
    m = IntMap(I, I, m.pieces)
    tc = transitive_closure(m)
    assert maps_equal(transitive_closure(tc), tc)


def test_de_morgan_within_box():
    u = setp("{ [x,y] : 0 <= x < 5 and 0 <= y < 5 }", XY)
    a = setp("{ [x,y] : 0 <= x < 3 and 1 <= y < 4 }", XY)
    b = setp("{ [x,y] : 2 <= x < 5 and 0 <= y < 2 }", XY)
    lhs = subtract(u, union(a, b))
    rhs = intersect(subtract(u, a), subtract(u, b))
    assert sets_equal(lhs, rhs)


def test_select_lex_extreme():
    # group dim x, value dim y: keep max y per x
    s = setp("{ [x,y] : 0 <= x < 3 and 0 <= y <= x }", XY)
    kept = select_lex_extreme(s, 1, maximize=True)
    assert enumerate_set(kept) == [(0, 0), (1, 1), (2, 2)]
    kept_min = select_lex_extreme(s, 1, maximize=False)
    assert enumerate_set(kept_min) == [(0, 0), (1, 0), (2, 0)]


def test_single_valued_flag():
    m = parse_map("{ [i] -> [i+1] : 0 <= i < 4 }")
    assert is_single_valued(m)
    multi = parse_map("{ [i] -> [j] : 0 <= i < 2 and 0 <= j <= i }")
    assert not is_single_valued(multi)


def _pair_map(a, b):
    n = len(a)
    sp = I if n == 1 else Space("S", tuple(f"d{i}" for i in range(n)))
    from polydist.isets import AffineExpr, eq0

    cons = []
    for i, v in enumerate(a):
        cons.append(eq0(AffineExpr.var(2 * n, i).plus_const(-v)))
    for i, v in enumerate(b):
        cons.append(eq0(AffineExpr.var(2 * n, n + i).plus_const(-v)))
    return IntMap.make(sp, sp, [cons])


def test_floor_nested_three_deep_against_oracle():
    """A map through floor(floor(floor(x/2)/3)/2): each floor is one more
    division column, so apply and compose project it like any other."""
    X, Y, Z = Space("X", ("x",)), Space("Y", ("a", "b")), Space("Z", ("c",))
    exprs = [parse_expr(t, X) for t in ("floor(floor(floor(x/2)/3)/2)", "x - 4*floor(x/4)")]
    f = restrict_domain(IntMap.from_exprs(X, Y, exprs), setp("{ [x] : 0 <= x <= 40 }", X))
    pairs = enumerate_set(f.as_set())
    assert pairs == [(x,) + tuple(evaluate_point(e, (x,)) for e in exprs) for x in range(41)]
    assert maps_equal(parse_map(format_map(f), dom=X, ran=Y), f)
    s = setp("{ [x] : 5 <= x <= 30 and floor(x/3) = 2*floor(x/6) }", X)
    assert enumerate_set(apply(f, s)) == ref_apply(pairs, enumerate_set(s), 1)
    g = parse_map("{ [a, b] -> [floor((a + floor(b/2))/2)] : 0 <= a <= 5 and 0 <= b <= 3 }", Y, Z)
    got = enumerate_set(compose(g, f).as_set())
    assert got == ref_compose(pairs, enumerate_set(g.as_set()), 1, 2)
