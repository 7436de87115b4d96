"""JSON reader and writer for the scop input format.

The schema is documented in docs/scop-format.md; scops/gol16.scop is the
normative example.  ``parse_scop`` validates every documented invariant
and ``print_scop`` emits a document that parses back to an equal scop.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ParseError, UnboundedSet, ValidationError
from .exprs import PureFunction
from .isets import AffineExpr, IntSet, Space, solve_block
from .scop import AccessRef, ClusterGrid, FieldDecl, Scop, Statement
from .syntax import format_expr, format_set, parse_expr, parse_map, parse_set

__all__ = ["parse_scop", "parse_scop_file", "print_scop", "read_input"]


def _schedule_exprs(text: str, dom: Space) -> tuple[AffineExpr, ...]:
    """The output expressions of a schedule '{ [dims] -> [expr, ...] }'."""
    m = parse_map(text)
    if len(m.pieces) != 1:
        raise ValidationError("schedules must be single-piece functional maps")
    if m.dom.dims != dom.dims:
        raise ValidationError(
            f"schedule domain dims {list(m.dom.dims)} do not match statement domain "
            f"{list(dom.dims)}"
        )
    n_in, arity = m.n_in, m.n_in + m.n_out
    solved = solve_block(arity, m.pieces[0], range(n_in, arity), range(n_in))
    if solved is None or solved[1] is None or solved[1].rows:
        raise ValidationError(f"schedule is not functional: {text}")
    exprs = [solved[0][pos] for pos in range(n_in, arity)]
    if any(e.divs for e in exprs):
        raise ValidationError("schedule expressions must be affine (no floordiv)")
    return tuple(e.remap(list(range(n_in)) + [-1] * m.n_out, n_in) for e in exprs)


_REQUIRED = object()
_KINDS = {
    dict: ("an object", "objects"),
    str: ("a string", "strings"),
    int: ("an integer", "integers"),
}


def _is(value, kind) -> bool:
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def _entry(doc: dict, key: str, kind, where: str, default=_REQUIRED):
    """doc[key] if it is a `kind`, `default` if it is absent; otherwise a
    ParseError naming `where`, the key and the expected type."""
    if key not in doc:
        if default is _REQUIRED:
            raise ParseError(f"{where}: missing key {key!r}")
        return default
    if not _is(doc[key], kind):
        raise ParseError(f"{where}: {key!r} must be {_KINDS[kind][0]}")
    return doc[key]


def _items(doc: dict, key: str, kind, where: str, default=_REQUIRED) -> list:
    """doc[key] as a list of `kind` values, checked like ``_entry``."""
    items = _entry(doc, key, object, where, default)
    if not isinstance(items, list) or not all(_is(v, kind) for v in items):
        raise ParseError(f"{where}: {key!r} must be a list of {_KINDS[kind][1]}")
    return items


def _parse_statement(sd: dict, pos: int) -> Statement:
    sid = _entry(sd, "id", str, f"statement {pos}")
    where = f"statement {sid}"
    domain_text = _entry(sd, "domain", str, where)
    schedule_text = _entry(sd, "schedule", str, where)
    try:
        domain = parse_set(domain_text)
    except ParseError as e:
        raise ParseError(f"{where}: bad domain: {e}")
    except UnboundedSet as e:
        raise ValidationError(f"{where}: unbounded domain: {e}")
    domain = IntSet(Space(sid, domain.space.dims), domain.pieces)
    try:
        sched = _schedule_exprs(schedule_text, domain.space)
    except ParseError as e:
        raise ParseError(f"{where}: bad schedule: {e}")
    accesses = []
    for j, ad in enumerate(_items(sd, "accesses", dict, where, [])):
        at = f"{where} access {j}"
        index_texts = _items(ad, "index", str, at)
        try:
            idx = tuple(parse_expr(t, domain.space) for t in index_texts)
        except ParseError as e:
            raise ParseError(f"{at}: bad index: {e}")
        field, kind = _entry(ad, "field", str, at), _entry(ad, "kind", str, at)
        try:
            accesses.append(AccessRef(field=field, kind=kind, index_exprs=idx))
        except ValidationError as e:
            raise ValidationError(f"{at}: {e}") from None
    return Statement(
        id=sid,
        domain=domain,
        schedule_exprs=sched,
        accesses=tuple(accesses),
        body=sd.get("body"),
        scalar_reads=tuple(_items(sd, "scalar_reads", str, where, [])),
        scalar_writes=tuple(_items(sd, "scalar_writes", str, where, [])),
    )


def parse_scop(text: str, name: str = "scop") -> Scop:
    """The scop a JSON document describes, checked once, here: ParseError
    for a document of the wrong shape, ValidationError for a documented
    invariant it breaks."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.lineno, e.colno)
    except RecursionError:
        raise ParseError("invalid JSON: the document nests too deep to read") from None
    if not isinstance(doc, dict):
        raise ParseError("scop document must be a JSON object")
    fields = []
    for pos, fd in enumerate(_items(doc, "fields", dict, "scop")):
        where = f"field {_entry(fd, 'name', str, f'field {pos}')}"
        fields.append(
            FieldDecl(
                name=fd["name"],
                element_type=_entry(fd, "type", str, where),
                extents=tuple(_items(fd, "extents", int, where)),
            )
        )
    grid = ClusterGrid(tuple(_items(doc, "grid", int, "scop")))
    functions = {}
    for fname, fdoc in _entry(doc, "functions", dict, "scop", {}).items():
        where = f"function {fname}"
        if not isinstance(fdoc, dict):
            raise ParseError(f"{where}: must be an object")
        functions[fname] = PureFunction(
            fname, _items(fdoc, "params", str, where), _entry(fdoc, "body", object, where)
        )
    scop = Scop(
        name=_entry(doc, "name", str, "scop", name),
        fields=tuple(fields),
        statements=tuple(
            _parse_statement(sd, pos)
            for pos, sd in enumerate(_items(doc, "statements", dict, "scop"))
        ),
        scatter_arity=_entry(doc, "scatter_arity", int, "scop"),
        grid=grid,
        functions=functions,
    )
    scop.validate()
    return scop


def read_input(path) -> str:
    """A UTF-8 text file's contents, or ParseError naming the path and why not."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {getattr(e, 'strerror', None) or e}") from None


def parse_scop_file(path) -> Scop:
    return parse_scop(read_input(path), name=Path(path).stem)


def print_scop(scop: Scop) -> str:
    doc = {
        "name": scop.name,
        "grid": list(scop.grid.extents),
        "scatter_arity": scop.scatter_arity,
        "fields": [
            {"name": f.name, "type": f.element_type, "extents": list(f.extents)}
            for f in scop.fields
        ],
        "functions": {
            fn.name: {"params": list(fn.params), "body": fn.body}
            for fn in scop.functions.values()
        },
        "statements": [],
    }
    for s in scop.statements:
        dims = s.space.dims
        sched_range = ", ".join(format_expr(e, dims) for e in s.schedule_exprs)
        sd = {
            "id": s.id,
            "domain": format_set(s.domain),
            "schedule": f"{{ [{', '.join(dims)}] -> [{sched_range}] }}",
            "accesses": [
                {
                    "field": a.field,
                    "kind": a.kind,
                    "index": [format_expr(e, dims) for e in a.index_exprs],
                }
                for a in s.accesses
            ],
            "body": s.body,
        }
        if s.scalar_reads:
            sd["scalar_reads"] = list(s.scalar_reads)
        if s.scalar_writes:
            sd["scalar_writes"] = list(s.scalar_writes)
        doc["statements"].append(sd)
    return json.dumps(doc, indent=2) + "\n"
