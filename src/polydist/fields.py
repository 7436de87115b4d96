"""Field contents: construction, seeded random fill, and flat-text exchange.

The text format is one section per field, row-major values, so that a
simulator run and the sequential oracle can be diffed externally::

    field front bool 16 16
    0 1 0 ...
    field back bool 16 16
    ...
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError, ValidationError
from .scop import FieldDecl, Scop

__all__ = ["splitmix64", "random_contents", "dump_contents", "load_contents", "first_divergence"]

_MASK = (1 << 64) - 1


def splitmix64(seed: int):
    """The documented PRNG for reproducible initial field contents.

    state += 0x9E3779B97F4A7C15
    z = state; z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    yield z ^ (z >> 31)
    """
    state = seed & _MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


def _value_for(field: FieldDecl, word: int):
    if field.element_type == "bool":
        return bool(word & 1)
    if field.element_type == "int64":
        return word - (1 << 64) if word >= (1 << 63) else word
    return (word >> 11) * (2.0**-53)


def random_contents(scop: Scop, seed: int) -> dict:
    """Per field in declaration order, elements row-major, one PRNG draw each."""
    gen = splitmix64(seed)
    out = {}
    for f in scop.fields:
        arr = np.empty(f.extents, dtype=f.dtype)
        flat = arr.reshape(-1)
        for i in range(flat.size):
            flat[i] = _value_for(f, next(gen))
        out[f.name] = arr
    return out


def _fmt(field: FieldDecl, v) -> str:
    if field.element_type == "bool":
        return "1" if v else "0"
    if field.element_type == "int64":
        return str(int(v))
    return repr(float(v))


def dump_contents(scop: Scop, contents: dict) -> str:
    lines = []
    for f in scop.fields:
        arr = np.asarray(contents[f.name])
        lines.append(f"field {f.name} {f.element_type} {' '.join(map(str, f.extents))}")
        flat = arr.reshape(arr.shape[0], -1) if arr.ndim > 1 else arr.reshape(1, -1)
        for row in flat:
            lines.append(" ".join(_fmt(f, v) for v in row))
    return "\n".join(lines) + "\n"


def _value(etype: str, word: str):
    """One element of a contents file; ValueError unless it is a valid
    value of the element type."""
    if etype == "bool":
        if word not in ("0", "1"):
            raise ValueError
        return word == "1"
    if etype == "float64":
        return float(word)
    value = int(word)
    if not -(1 << 63) <= value < 1 << 63:
        raise ValueError
    return value


def load_contents(scop: Scop, text: str) -> dict:
    """Field contents from the flat text ``dump_contents`` writes.  A line
    that cannot be read is a ParseError at its 1-based number, and so is an
    unknown or repeated field; a header whose type or extents differ from
    the field's declaration, or a missing field, is a ValidationError."""
    out = {}
    lines = [(n, ln.split()) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    i = 0
    while i < len(lines):
        n, head = lines[i]
        if head[0] != "field" or len(head) < 4:
            raise ParseError(f"expected 'field NAME TYPE EXTENTS...', got {' '.join(head)!r}", n)
        name, etype = head[1], head[2]
        try:
            extents = tuple(int(x) for x in head[3:])
            fld = scop.field(name)
        except ValueError:
            raise ParseError(f"field {name}: extents must be integers", n) from None
        except KeyError:
            raise ParseError(f"unknown field {name!r}", n) from None
        if name in out:
            raise ParseError(f"field {name} given twice", n)
        if fld.element_type != etype or fld.extents != extents:
            raise ValidationError(f"field {name} header does not match declaration")
        rows = extents[0] if len(extents) > 1 else 1
        per_row = int(np.prod(extents)) // rows
        if i + rows >= len(lines):
            raise ParseError(f"field {name}: {rows} rows expected, {len(lines) - i - 1} given", n)
        values = []
        for r, (n, parts) in enumerate(lines[i + 1:i + 1 + rows]):
            if len(parts) != per_row:
                raise ParseError(f"field {name}: row {r} has {len(parts)} values, not {per_row}", n)
            for word in parts:
                try:
                    values.append(_value(etype, word))
                except ValueError:
                    raise ParseError(f"field {name}: bad {etype} value {word!r}", n) from None
        i += 1 + rows
        out[name] = np.array(values, dtype=fld.dtype).reshape(extents)
    for f in scop.fields:
        if f.name not in out:
            raise ValidationError(f"missing contents for field {f.name}")
    return out


def first_divergence(a: dict, b: dict):
    """(field, index, expected, got) of the first mismatch, or None.
    Elements compare bit for bit: float64 by its bit pattern, so nan
    matches the same nan and 0.0 differs from -0.0."""
    for name in sorted(a):
        av, bv = np.asarray(a[name]), np.asarray(b[name])
        if av.shape != bv.shape:
            return (name, None, av.shape, bv.shape)
        diff = _bits(av) != _bits(bv)
        if diff.any():
            idx = tuple(int(x) for x in np.argwhere(diff)[0])
            return (name, idx, av[idx], bv[idx])
    return None


def _bits(arr: np.ndarray) -> np.ndarray:
    return arr.view(np.int64) if arr.dtype == np.float64 else arr
