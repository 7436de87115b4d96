import random
import re

import pytest

from polydist.errors import ParseError
from polydist.isets import AffineExpr, Space, apply, enumerate_set
from polydist.syntax import format_map, format_set, parse_expr, parse_map, parse_set

from oracle import (
    evaluate_point,
    maps_equal,
    random_map,
    random_set,
    random_space,
    set_from_points,
    sets_equal,
)


def test_parse_simple_box():
    s = parse_set("{ [i,j] : 0 <= i < 3 and 1 <= j <= 2 }")
    assert enumerate_set(s) == [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)]


def test_parse_named_tuple():
    s = parse_set("{ S1.1[i,x,y] : 0 <= i < 2 and 0 <= x < 2 and y = 0 }")
    assert s.space.name == "S1.1"
    assert len(enumerate_set(s)) == 4


def test_parse_chained_comparison():
    a = parse_set("{ [i] : 0 <= i < 5 }")
    b = parse_set("{ [i] : i >= 0 and i < 5 }", space=a.space)
    assert sets_equal(a, b)


def test_parse_map_with_exprs_on_domain_side():
    m = parse_map("{ S2.2[i-1,x-1,y] -> S1.1[i,x,y] : 1 <= i < 3 and 2 <= x < 4 and 0 <= y < 2 }")
    pts = enumerate_set(m.as_set())
    for p in pts:
        gi, gx, gy, ci, cx, cy = p
        assert gi == ci - 1 and gx == cx - 1 and gy == cy


def test_parse_floor():
    m = parse_map("{ [w,h] -> [floor(w/8), floor(h/8)] : 0 <= w < 16 and 0 <= h < 16 }")
    img = apply(m, set_from_points(m.dom, [(7, 8)]))
    assert enumerate_set(img) == [(0, 1)]


def test_nested_floor_parses_and_enumerates():
    s = parse_set("{ [i] : 0 <= i <= 20 and floor(floor(floor(i/2)/2)/2) = 1 }")
    assert enumerate_set(s) == [(i,) for i in range(8, 16)]
    assert sets_equal(parse_set(format_set(s), space=s.space), s)


def test_floor_rows_print_in_expression_key_order():
    """Rows sort by (dim coefficients, constant, floor terms), as the
    printed golden dumps expect, not by their raw column tuples."""
    s = parse_set("{ [x, y] : 0 <= x <= 9 and y = floor(x/2) + 1 and y = 2 }")
    assert format_set(s) == "{ [x, y] : 0 <= x <= 9 and y = 2 and y = floor(x/2) + 1 }"


def test_floor_terms_print_by_divisor_then_inner():
    """A row's floor terms print in the order of (divisor, inner
    expression), not in column order, where floor(y/3) comes first
    because the other term uses it."""
    s = parse_set("{ [x, y] : 0 <= x <= 9 and 0 <= y <= 9 and "
                  "floor(y/3) + floor((x + floor(y/3))/2) >= 2 }")
    assert format_set(s).endswith(" and floor((x + floor(y/3))/2) + floor(y/3) >= 2 }")


def test_floor_of_a_constant_is_a_constant():
    assert parse_expr("floor(6/3)*x + floor(-7/2)", Space("s", ("x",))) == AffineExpr((2,), -4)


@pytest.mark.parametrize("text, column", [("(floor(x/2) - floor(x/2))*y", 26), ("0*floor(x/2)*y", 13)],
                         ids=["cancels", "times-0"])
def test_written_floor_term_times_a_variable_is_rejected(text, column):
    """A written floor term is not a constant, even when its coefficients
    cancel or are 0."""
    with pytest.raises(ParseError, match="^products of two variables are not affine") as exc:
        parse_expr(text, Space("s", ("x", "y")))
    assert exc.value.column == column


def test_parse_multi_piece():
    s = parse_set("{ [i] : i = 0; [i] : 2 <= i <= 4 }")
    assert enumerate_set(s) == [(0,), (2,), (3,), (4,)]


@pytest.mark.parametrize("text", ["floor(x/0)"])
def test_unsupported_floor_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_expr(text, Space("s", ("x",)))


def test_parse_errors_have_position():
    with pytest.raises(ParseError):
        parse_set("{ [i] : 0 <= ")
    with pytest.raises(ParseError):
        parse_set("{ [i] ! }")
    with pytest.raises(ParseError):
        parse_set("{ [i] : q >= 0 }")


# parser, text, message start, (line, column) of the offending token
ERROR_POSITIONS = [
    (parse_set, "{ [i] : 0 <= i and i <= 10 and 0 <= qq }", "unknown variable 'qq'", (1, 37)),
    (parse_set, "{ [i, j] : 0 <= i <= 2 and 0 <= j <= 2 and i*j <= 4 }", "products of two", (1, 45)),
    (parse_map, "{ [i] -> [floor(i/j)] : 0 <= i <= 4 }", "floor divisor", (1, 19)),
    (parse_map, "{ [i] -> [floor(i/0)] : 0 <= i <= 4 }", "floordiv divisor", (1, 19)),
    (parse_set, "{ [i] : 0 <= i <= 3 and * 2 >= 0 }", "unexpected token '*'", (1, 25)),
    (parse_map, "{ [i] : 0 <= i <= 3 }", "expected '->'", (1, 7)),
    (parse_set, "{ [i] -> [j] : 0 <= i, j <= 3 }", "unexpected '->'", (1, 7)),
    (parse_set, "{ A[i] : 0 <= i <= 3; B[i] : 0 <= i <= 3 }", "pieces must share the same", (1, 23)),
    (parse_set, "{ [i] : 0 <= i <= 3;\n  [i, j] : 0 <= i, j <= 3 }", "pieces must share tuple", (2, 3)),
    (parse_set, "{ [i] : 0 <= i <= 3 and ) }", "expected '}'", (1, 25)),
    (parse_set, "{ [i, j] : 0 <= i, j <= 2 and i*j <= 4 }", "bad condition", (1, 18)),
    (parse_set, "{ [i+1)] : 0 <= i <= 3 }", "expected ']'", (1, 7)),
]


@pytest.mark.parametrize("parse, text, message, position", ERROR_POSITIONS)
def test_parse_errors_point_at_the_offending_token(parse, text, message, position):
    with pytest.raises(ParseError, match="^" + re.escape(message)) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == position


def test_parse_expr_over_space():
    sp = Space("D", ("i", "x", "y"))
    e = parse_expr("x - 1", sp)
    assert evaluate_point(e, (0, 5, 7)) == 4
    e2 = parse_expr("2*i + floor(y/4)", sp)
    assert evaluate_point(e2, (3, 0, 9)) == 8


def test_roundtrip_random_sets():
    rng = random.Random(11)
    for _ in range(40):
        sp = random_space(rng, "s")
        s = random_set(rng, sp, max_extent=6)
        back = parse_set(format_set(s), space=s.space)
        assert sets_equal(back, s)


def test_roundtrip_random_maps():
    rng = random.Random(12)
    for _ in range(30):
        dom = random_space(rng, "d", max_dims=2)
        ran = random_space(rng, "r", max_dims=2)
        m = random_map(rng, dom, ran, max_extent=5)
        back = parse_map(format_map(m), dom=m.dom, ran=m.ran)
        assert maps_equal(back, m)


def test_roundtrip_empty_set():
    s = parse_set("{ [i] : 0 <= i < 0 }")
    back = parse_set(format_set(s), space=s.space)
    assert sets_equal(back, s)
