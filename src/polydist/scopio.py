"""JSON reader and writer for the scop input format.

The schema is documented in docs/scop-format.md; scops/gol16.scop is the
normative example.  ``parse_scop`` validates every documented invariant
and ``print_scop`` emits a document that parses back to an equal scop.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from .errors import ParseError, ValidationError
from .exprs import PureFunction
from .isets import AffineExpr, IntSet, Space
from .scop import AccessRef, ClusterGrid, FieldDecl, Scop, Statement
from .syntax import format_expr, format_set, parse_expr, parse_set, _parse_body

__all__ = ["parse_scop", "parse_scop_file", "print_scop", "read_input"]


def _schedule_exprs(text: str, dom: Space) -> tuple[AffineExpr, ...]:
    """Parse a schedule string '{ [dims] -> [expr, ...] }' into output exprs."""
    (_, _), dims_in, dims_out, pieces = _parse_body(text, want_map=True)
    if len(pieces) != 1:
        raise ValidationError("schedules must be single-piece functional maps")
    if tuple(dims_in) != dom.dims:
        raise ValidationError(
            f"schedule domain dims {dims_in} do not match statement domain {list(dom.dims)}"
        )
    n_in, n_out = len(dims_in), len(dims_out)
    arity = n_in + n_out
    exprs: list[Optional[AffineExpr]] = [None] * n_out
    others: list = []
    for c in pieces[0]:
        hit = None
        for j in range(n_out):
            pos = n_in + j
            if (
                c.is_eq
                and exprs[j] is None
                and abs(c.expr.coeffs[pos]) == 1
                and not c.expr.dim_in_div(pos)
                and not any(c.expr.uses_dim(n_in + i) for i in range(n_out) if i != j)
            ):
                hit = (j, pos)
                break
        if hit is None:
            others.append(c)
            continue
        j, pos = hit
        rest = AffineExpr(
            tuple(0 if i == pos else v for i, v in enumerate(c.expr.coeffs)),
            c.expr.const,
            c.expr.divs,
        )
        exprs[j] = rest.scale(-c.expr.coeffs[pos]).remap(list(range(n_in)) + [-1] * n_out, n_in)
    if others or any(e is None for e in exprs):
        raise ValidationError(f"schedule is not functional: {text}")
    if any(e.divs for e in exprs):
        raise ValidationError("schedule expressions must be affine (no floordiv)")
    return tuple(exprs)


def parse_scop(text: str, name: str = "scop") -> Scop:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.lineno, e.colno)
    if not isinstance(doc, dict):
        raise ParseError("scop document must be a JSON object")
    for key in ("fields", "grid", "scatter_arity", "statements"):
        if key not in doc:
            raise ParseError(f"missing top-level key {key!r}")

    fields = []
    for fd in doc["fields"]:
        fields.append(
            FieldDecl(
                name=fd["name"],
                element_type=fd["type"],
                extents=tuple(int(e) for e in fd["extents"]),
            )
        )
    grid = ClusterGrid(tuple(int(e) for e in doc["grid"]))
    scatter_arity = int(doc["scatter_arity"])
    functions = {}
    for fname, fdoc in doc.get("functions", {}).items():
        functions[fname] = PureFunction(fname, fdoc["params"], fdoc["body"])

    statements = []
    for sd in doc["statements"]:
        sid = sd["id"]
        try:
            domain = parse_set(sd["domain"])
        except ParseError as e:
            raise ParseError(f"statement {sid}: bad domain: {e}")
        domain = IntSet(Space(sid, domain.space.dims), domain.pieces)
        try:
            sched = _schedule_exprs(sd["schedule"], domain.space)
        except ParseError as e:
            raise ParseError(f"statement {sid}: bad schedule: {e}")
        accesses = []
        for ad in sd.get("accesses", []):
            idx = tuple(parse_expr(t, domain.space) for t in ad["index"])
            accesses.append(AccessRef(field=ad["field"], kind=ad["kind"], index_exprs=idx))
        statements.append(
            Statement(
                id=sid,
                domain=domain,
                schedule_exprs=sched,
                accesses=tuple(accesses),
                body=sd.get("body"),
                scalar_reads=tuple(sd.get("scalar_reads", ())),
                scalar_writes=tuple(sd.get("scalar_writes", ())),
            )
        )
    scop = Scop(
        name=doc.get("name", name),
        fields=tuple(fields),
        statements=tuple(statements),
        scatter_arity=scatter_arity,
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
