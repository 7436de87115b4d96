"""Randomized equivalence of the symbolic kernel against enumeration.

Every operation result, computed symbolically on constraints, must
enumerate to the same point set as the operation performed element-wise
on enumerations.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydist import isets
from polydist.errors import UnboundedSet
from polydist.isets import (
    AffineExpr,
    DivTerm,
    IntMap,
    IntSet,
    Space,
    apply,
    compose,
    enumerate_set,
    eq0,
    ge0,
    is_empty,
    lexmax,
    lexmin,
)

from oracle import (
    random_map,
    random_set,
    random_space,
    ref_closure,
    run_algebra_case,
    transitive_closure,
)


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
    monkeypatch.setattr(isets, "_ENUM_SCAN_CAP", 0)
    monkeypatch.setattr(isets, "_SOLVE_SCAN_CAP", 0)
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
    monkeypatch.setattr(isets, "_ENUM_SCAN_CAP", 0)
    monkeypatch.setattr(isets, "_SOLVE_SCAN_CAP", 0)
    assert (enumerate_set(s), lexmin(s), lexmax(s)) == scanned


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
@settings(max_examples=40, deadline=None)
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
