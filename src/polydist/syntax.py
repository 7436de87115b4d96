"""Textual notation for integer sets and maps.

Examples of the accepted syntax::

    { [i,j] : 0 <= i < 8 and 0 <= j < 8 }
    { S1.1[i,x,y] -> S2.2[i-1, x-1, y] : 1 <= i < 3 }
    { [w,h] -> [floor(w/8), floor(h/8)] }
    { [i] : i = 0; [i] : 2 <= i <= 4 }

Tuple entries that are plain identifiers bind dimension names; entries
that are expressions constrain the corresponding positional dimension.
Pieces are separated by ';'.  The printer emits the same syntax and
round-trips through the parser.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from .errors import ParseError, UnboundedSet
from .isets import (
    AffineExpr,
    Constraint,
    DivTerm,
    IntMap,
    IntSet,
    Piece,
    Space,
    _interval_signatures,
    eq0,
    ge0,
    propagate,
    row_expr,
    solve_block,
)

__all__ = ["parse_set", "parse_map", "parse_expr", "format_set", "format_map", "format_expr"]


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9.']*)"
    r"|(?P<op>->|<=|>=|==|!=|[-+*/<>=:;,(){}\[\]]))"
)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                if text[pos:].strip():
                    self._fail(pos, f"unexpected character {text[pos]!r}")
                break
            if m.group("num") is not None:
                self.toks.append(("num", m.group("num"), m.start("num")))
            elif m.group("name") is not None:
                self.toks.append(("name", m.group("name"), m.start("name")))
            else:
                self.toks.append(("op", m.group("op"), m.start("op")))
            pos = m.end()
        self.i = 0
        self.end = len(self.toks)  # tokens from this index on are out of reach

    def _fail(self, pos: int, message: str):
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        raise ParseError(message, line, col)

    def here(self) -> int:
        """Offset of the next token, or the end of the text."""
        return self.toks[self.i][2] if self.i < len(self.toks) else len(self.text)

    def last(self) -> int:
        """Offset of the token next() returned last."""
        return self.toks[self.i - 1][2]

    def peek(self) -> Optional[tuple[str, str]]:
        if self.i < self.end:
            kind, value, _ = self.toks[self.i]
            return kind, value
        return None

    def next(self) -> tuple[str, str]:
        if self.i >= self.end:
            if self.i < len(self.toks):
                self._fail(self.here(), f"unexpected token {self.toks[self.i][1]!r}")
            self._fail(len(self.text), "unexpected end of input")
        kind, value, _ = self.toks[self.i]
        self.i += 1
        return kind, value

    def expect(self, value: str):
        tok = self.peek()
        if tok is None or tok[1] != value:
            self._fail(self.here(), f"expected {value!r}")
        self.next()

    def accept(self, value: str) -> bool:
        tok = self.peek()
        if tok is not None and tok[1] == value:
            self.next()
            return True
        return False

    def done(self) -> bool:
        return self.i >= self.end

    def bracketed(self, stops: tuple[str, ...]) -> tuple[int, int]:
        """Skip tokens up to one of `stops` or up to a closing bracket that
        has no opening one; (start, end) of the run."""
        start, depth = self.i, 0
        while self.i < self.end:
            v = self.toks[self.i][1]
            if v in stops or (depth == 0 and v in (")", "]")):
                break
            depth += (v in ("(", "[")) - (v in (")", "]"))
            self.i += 1
        return start, self.i

    def parse_run(self, run: tuple[int, int], parse, what: str):
        """parse(self) over the tokens of one run; a parse that stops short
        fails with `what` at the token where it stopped."""
        saved = self.i, self.end
        self.i, self.end = run
        out = parse(self)
        if not self.done():
            self._fail(self.here(), what)
        self.i, self.end = saved
        return out


# ---------------------------------------------------------------------------
# Expression parsing over a name -> dim index environment


def _parse_expr(tk: _Tokens, env: dict[str, int], arity: int) -> AffineExpr:
    expr = _parse_term(tk, env, arity)
    while True:
        tok = tk.peek()
        if tok is None or tok[1] not in ("+", "-"):
            return expr
        op = tk.next()[1]
        rhs = _parse_term(tk, env, arity)
        expr = expr + rhs if op == "+" else expr - rhs


def _parse_term(tk: _Tokens, env: dict[str, int], arity: int) -> AffineExpr:
    factor = _parse_factor(tk, env, arity)
    while True:
        tok = tk.peek()
        if tok is None or tok[1] != "*":
            return factor
        tk.next()
        star = tk.last()
        rhs = _parse_factor(tk, env, arity)
        if factor.is_constant():
            factor = rhs.scale(factor.const)
        elif rhs.is_constant():
            factor = factor.scale(rhs.const)
        else:
            tk._fail(star, "products of two variables are not affine")


def _parse_factor(tk: _Tokens, env: dict[str, int], arity: int) -> AffineExpr:
    kind, value = tk.next()
    if value == "-":
        return -_parse_factor(tk, env, arity)
    if value == "(":
        inner = _parse_expr(tk, env, arity)
        tk.expect(")")
        return inner
    if kind == "num":
        return AffineExpr.constant(arity, int(value))
    if kind == "name":
        if value == "floor":
            tk.expect("(")
            inner = _parse_expr(tk, env, arity)
            tk.expect("/")
            knd, div = tk.next()
            at = tk.last()
            if knd != "num":
                tk._fail(at, "floor divisor must be a positive integer")
            tk.expect(")")
            try:
                term = DivTerm(1, inner, int(div))
            except ValueError as e:  # a divisor below 1
                tk._fail(at, str(e))
            if inner.is_constant():
                return AffineExpr.constant(arity, inner.const // term.div)
            return AffineExpr((0,) * arity, 0, (term,))
        if value not in env:
            tk._fail(tk.last(), f"unknown variable {value!r}")
        return AffineExpr.var(arity, env[value])
    tk._fail(tk.last(), f"unexpected token {value!r}")
    raise AssertionError


def _parse_condition(tk: _Tokens, env: dict[str, int], arity: int) -> list[Constraint]:
    cons: list[Constraint] = []
    while True:
        lhs = _parse_expr(tk, env, arity)
        while True:
            tok = tk.peek()
            if tok is None or tok[1] not in ("<", "<=", ">", ">=", "=", "=="):
                break
            op = tk.next()[1]
            rhs = _parse_expr(tk, env, arity)
            if op in ("=", "=="):
                cons.append(eq0(lhs - rhs))
            elif op == "<=":
                cons.append(ge0(rhs - lhs))
            elif op == "<":
                cons.append(ge0(rhs - lhs.plus_const(1)))
            elif op == ">=":
                cons.append(ge0(lhs - rhs))
            else:
                cons.append(ge0(lhs - rhs.plus_const(1)))
            lhs = rhs
        tok = tk.peek()
        if tok is not None and tok[1] == "and":
            tk.next()
            continue
        return cons


# ---------------------------------------------------------------------------
# Tuple parsing


def _parse_tuple(tk: _Tokens):
    """Returns (space_name or None, entries) where each entry is either
    ('name', ident) or ('expr', (start, end) of its token run)."""
    name = None
    tok = tk.peek()
    if tok is not None and tok[0] == "name":
        name = tk.next()[1]
    tk.expect("[")
    entries = []
    if not tk.accept("]"):
        while True:
            start, end = run = tk.bracketed((",", "]"))
            kind, value, _ = tk.toks[start] if end == start + 1 else (None, None, None)
            if kind == "name" and value != "floor":
                entries.append(("name", value))
            else:
                entries.append(("expr", run))
            if tk.accept(","):
                continue
            tk.expect("]")
            break
    return name, entries


def _fresh_names(prefix: str, entries, taken: set[str]) -> list[str]:
    out = []
    for idx, e in enumerate(entries):
        if e[0] == "name" and e[1] not in taken:
            out.append(e[1])
            taken.add(e[1])
        else:
            cand = f"{prefix}{idx}"
            while cand in taken:
                cand += "'"
            out.append(cand)
            taken.add(cand)
    return out


def _parse_body(text: str, want_map: bool):
    tk = _Tokens(text)
    tk.expect("{")
    pieces_raw = []
    space_names = None
    dims_in: Optional[list[str]] = None
    dims_out: Optional[list[str]] = None
    while True:
        piece_at = tk.here()
        in_name, in_entries = _parse_tuple(tk)
        out_name, out_entries = (None, None)
        arrow = tk.here()
        if tk.accept("->"):
            out_name, out_entries = _parse_tuple(tk)
        if want_map and out_entries is None:
            tk._fail(arrow, "expected '->' in map syntax")
        if not want_map and out_entries is not None:
            tk._fail(arrow, "unexpected '->' in set syntax")
        cond_slice = tk.bracketed((";", "}")) if tk.accept(":") else None
        pieces_raw.append((piece_at, in_name, in_entries, out_name, out_entries, cond_slice))
        if tk.accept(";"):
            continue
        tk.expect("}")
        break
    if not tk.done():
        tk._fail(tk.toks[tk.i][2], "trailing input after '}'")

    # Establish spaces from the first piece.
    first = pieces_raw[0]
    taken: set[str] = set()
    in_dims = _fresh_names("d", first[2], taken)
    out_dims = _fresh_names("o", first[4], taken) if want_map else []
    space_names = (first[1] or "", first[3] or "" if want_map else None)
    dims_in, dims_out = in_dims, out_dims

    arity = len(dims_in) + len(dims_out)
    pieces = []
    for piece_at, in_name, in_entries, out_name, out_entries, cond_slice in pieces_raw:
        if (in_name or "") != space_names[0] or (want_map and (out_name or "") != space_names[1]):
            tk._fail(piece_at, "pieces must share the same space names")
        if len(in_entries) != len(dims_in) or (want_map and len(out_entries) != len(dims_out)):
            tk._fail(piece_at, "pieces must share tuple arities")
        env: dict[str, int] = {}
        all_entries = list(enumerate(in_entries))
        if want_map:
            all_entries += [(len(dims_in) + j, e) for j, e in enumerate(out_entries)]
        for pos, e in all_entries:
            if e[0] == "name" and e[1] not in env:
                env[e[1]] = pos
        cons: list[Constraint] = []
        for pos, e in all_entries:
            if e[0] == "name":
                if env[e[1]] != pos:
                    cons.append(eq0(AffineExpr.var(arity, pos) - AffineExpr.var(arity, env[e[1]])))
            else:
                expr = tk.parse_run(
                    e[1], lambda t: _parse_expr(t, env, arity), "bad tuple entry expression"
                )
                cons.append(eq0(AffineExpr.var(arity, pos) - expr))
        if cond_slice is not None and cond_slice[0] != cond_slice[1]:
            cons.extend(
                tk.parse_run(cond_slice, lambda t: _parse_condition(t, env, arity), "bad condition")
            )
        pieces.append(cons)
    return space_names, dims_in, dims_out, pieces


def parse_set(text: str, space: Optional[Space] = None) -> IntSet:
    """The set a text denotes; UnboundedSet names a dimension that some
    piece leaves without a lower or an upper bound."""
    (name, _), dims_in, _, pieces = _parse_body(text, want_map=False)
    sp = space or Space(name or "set", tuple(dims_in))
    if sp.arity != len(dims_in):
        raise ParseError(f"expected arity {sp.arity}, found {len(dims_in)}")
    s = IntSet.make(sp, pieces)
    for piece in s.pieces:
        for dim, (lo, hi) in zip(sp.dims, propagate(sp.arity, piece)):
            if lo is None or hi is None:
                raise UnboundedSet(f"dimension {dim} is unbounded")
    return s


def parse_map(text: str, dom: Optional[Space] = None, ran: Optional[Space] = None) -> IntMap:
    (in_name, out_name), dims_in, dims_out, pieces = _parse_body(text, want_map=True)
    dsp = dom or Space(in_name or "dom", tuple(dims_in))
    rsp = ran or Space(out_name or "ran", tuple(dims_out))
    if dsp.arity != len(dims_in) or rsp.arity != len(dims_out):
        raise ParseError("tuple arity does not match the provided spaces")
    return IntMap.make(dsp, rsp, pieces)


def parse_expr(text: str, space: Space) -> AffineExpr:
    tk = _Tokens(text)
    env = {name: i for i, name in enumerate(space.dims)}
    expr = _parse_expr(tk, env, space.arity)
    if not tk.done():
        tk._fail(tk.toks[tk.i][2], "trailing input after expression")
    return expr


# ---------------------------------------------------------------------------
# Printing


def format_expr(expr: AffineExpr, names: Sequence[str]) -> str:
    parts: list[str] = []

    def push(coeff: int, atom: str):
        if coeff == 0:
            return
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        body = atom if mag == 1 else f"{mag}*{atom}"
        parts.append((sign, body))

    for i, c in enumerate(expr.coeffs):
        push(c, names[i])
    for dt in expr.divs:
        inner = format_expr(dt.inner, names)
        if " " in inner or inner.startswith("-"):
            inner = f"({inner})"
        push(dt.coeff, f"floor({inner}/{dt.div})")
    if expr.const != 0 or not parts:
        parts.append(("-" if expr.const < 0 else "+", str(abs(expr.const))))
    out = ""
    for sign, body in parts:
        if not out:
            out = body if sign == "+" else f"-{body}"
        else:
            out += f" {sign} {body}"
    return out


def _split_signed(expr: AffineExpr, names: Sequence[str]):
    """Render expr >= 0 / expr == 0 as 'pos OP neg' with both sides positive."""
    pos = AffineExpr(
        tuple(c if c > 0 else 0 for c in expr.coeffs),
        expr.const if expr.const > 0 else 0,
        tuple(dt for dt in expr.divs if dt.coeff > 0),
    )
    neg = AffineExpr(
        tuple(-c if c < 0 else 0 for c in expr.coeffs),
        -expr.const if expr.const < 0 else 0,
        tuple(DivTerm(-dt.coeff, dt.inner, dt.div) for dt in expr.divs if dt.coeff < 0),
    )
    return format_expr(pos, names), format_expr(neg, names)


def _format_piece_condition(arity: int, piece: Piece, names: Sequence[str]) -> str:
    rendered: list[str] = []
    used: set = set()
    # Interval chains first: lo <= e <= hi for groups on one expression.
    for others, canon, lo, hi in _interval_signatures(piece):
        if lo is None or hi is None or lo == hi:
            continue
        members = [r for r in piece.rows if r not in others]
        if len(members) < 2 or any(r in used for r in members):
            continue
        rendered.append(f"{lo} <= {format_expr(row_expr(arity, piece, canon), names)} <= {hi}")
        used.update(members)
    for r in piece.rows:
        if r in used:
            continue
        lhs, rhs = _split_signed(row_expr(arity, piece, r[1:-1], r[-1]), names)
        rendered.append(f"{lhs} = {rhs}" if r[0] else f"{lhs} >= {rhs}")
    return " and ".join(rendered)


def format_set(s: IntSet) -> str:
    names = s.space.dims
    prefix = s.space.name if s.space.name and not s.space.name.startswith(("set", "dom", "ran")) else ""
    if not s.pieces:
        body = f"{prefix}[{', '.join(names)}] : 1 = 0"
        return "{ " + body + " }"
    parts = []
    for piece in s.pieces:
        cond = _format_piece_condition(s.arity, piece, names)
        tup = f"{prefix}[{', '.join(names)}]"
        parts.append(f"{tup} : {cond}" if cond else tup)
    return "{ " + "; ".join(parts) + " }"


def format_map(m: IntMap, solve_side: str = "out") -> str:
    """Render a map; solve_side picks which tuple is printed as expressions
    of the other ("out" = range side, "in" = domain side)."""
    n_in, n_out = m.n_in, m.n_out
    in_names = m.dom.dims
    out_names = m.ran.dims
    all_names = tuple(in_names) + tuple(out_names)
    dom_prefix = m.dom.name if m.dom.name not in ("dom", "") else ""
    ran_prefix = m.ran.name if m.ran.name not in ("ran", "") else ""
    if not m.pieces:
        body = (
            f"{dom_prefix}[{', '.join(in_names)}] -> "
            f"{ran_prefix}[{', '.join(out_names)}] : 1 = 0"
        )
        return "{ " + body + " }"
    arity = n_in + n_out
    if solve_side == "in":
        block = list(range(n_in))
        free = list(range(n_in, arity))
    else:
        block = list(range(n_in, arity))
        free = list(range(n_in))
    parts = []
    for piece in m.pieces:
        solved = solve_block(arity, piece, block, free)
        if solved is not None:
            exprs, remaining = solved
            cond = _format_piece_condition(arity, remaining or Piece(), all_names)
            if solve_side == "in":
                in_tuple = ", ".join(format_expr(exprs[i], all_names) for i in block)
                tup = f"{dom_prefix}[{in_tuple}] -> {ran_prefix}[{', '.join(out_names)}]"
            else:
                out_tuple = ", ".join(format_expr(exprs[i], all_names) for i in block)
                tup = f"{dom_prefix}[{', '.join(in_names)}] -> {ran_prefix}[{out_tuple}]"
        else:
            cond = _format_piece_condition(arity, piece, all_names)
            tup = (
                f"{dom_prefix}[{', '.join(in_names)}] -> "
                f"{ran_prefix}[{', '.join(out_names)}]"
            )
        parts.append(f"{tup} : {cond}" if cond else tup)
    return "{ " + "; ".join(parts) + " }"
