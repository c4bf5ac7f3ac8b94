"""Type-directed JSON serialization of result sequences.

The synthesized cardinality decides the outer shape: an upper bound of one
yields null or an unwrapped value, an unbounded upper bound always yields an
array. Objects serialize their visible entries, each at the entry's declared
type and mode; a reference with no visible entries serializes as
{"id": "<id>"}. Invisible entries are omitted entirely. The serializer never
reads the store.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring

from .model import (
    BoolVal,
    Cardinality,
    ComputedType,
    ComputedValue,
    IntVal,
    ObjType,
    ObjVal,
    StrVal,
    ValueSeq,
)

JsonValue = None | bool | int | str | list["JsonValue"] | dict[str, "JsonValue"]


class SerializeMismatch(Exception):
    pass


def serialize(vals: ValueSeq, ty: ComputedType, m: Cardinality) -> JsonValue:
    if not m.admits(len(vals)):
        raise SerializeMismatch(f"{len(vals)} values violate mode {m}")
    if m.hi <= 1:
        if not vals:
            return None
        return serialize_one(vals[0], ty)
    return [serialize_one(w, ty) for w in vals]


def serialize_one(w: ComputedValue, ty: ComputedType) -> JsonValue:
    match w:
        case BoolVal(value=b):
            if not isinstance(ty, ObjType):
                return b
        case IntVal(value=n):
            if not isinstance(ty, ObjType):
                return n
        case StrVal(value=s):
            if not isinstance(ty, ObjType):
                return s
        case ObjVal(id=id, shape=shape):
            if not isinstance(ty, ObjType):
                raise SerializeMismatch(f"reference where {ty} was expected")
            out: dict[str, JsonValue] = {}
            for lbl, entry in shape.items():
                if not entry.visible:
                    continue
                if lbl not in ty.entries:
                    raise SerializeMismatch(f"visible entry {lbl} missing from type")
                ety, ecard = ty.entries[lbl]
                out[lbl] = serialize(entry.values, ety, ecard)
            if not out:
                return {"id": id}
            return out
    raise SerializeMismatch(f"value {w!r} does not match type {ty}")


def to_json_text(value: JsonValue, pretty: bool = False) -> str:
    """Canonical JSON text: UTF-8, no insignificant whitespace in machine
    mode, two-space indentation in pretty mode; key order is kept as built.

    Pretty text is exactly `json.dumps(value, indent=2, ensure_ascii=False)`,
    but written here: `indent` turns off `json`'s C encoder, and its
    pure-Python one is several times slower than this writer."""
    if pretty:
        out: list[str] = []
        _write_pretty(value, "\n", out)
        return "".join(out)
    return json.dumps(value, separators=(",", ":"), ensure_ascii=False)


_SCALAR_TEXT = {None: "null", True: "true", False: "false"}


def _write_pretty(v, newline: str, out: list[str]) -> None:
    """Append v's pretty text to out; `newline` is a line break followed by
    the indentation of the line v starts on. Strings and keys are escaped by
    the same C function `json.dumps` uses when `ensure_ascii` is off, which
    raises `TypeError` for a key that is not a str."""
    t = type(v)
    if t is str:
        out.append(encode_basestring(v))
    elif t is int:
        out.append(int.__repr__(v))
    elif t is dict:
        if not v:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, x in v.items():
            out.append(sep)
            out.append(encode_basestring(key))
            out.append(": ")
            _write_pretty(x, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif t is list:
        if not v:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for x in v:
            out.append(sep)
            _write_pretty(x, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif t is bool or v is None:
        out.append(_SCALAR_TEXT[v])
    elif t is float:
        out.append(json.dumps(v))
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def debug_print(vals: ValueSeq) -> str:
    """The bracket notation for value sequences, with visibility marks."""
    return "[" + ", ".join(_debug_value(w) for w in vals) + "]"


def _debug_value(w: ComputedValue) -> str:
    match w:
        case BoolVal(value=b):
            return "tt" if b else "ff"
        case IntVal(value=n):
            return str(n)
        case StrVal(value=s):
            return json.dumps(s, ensure_ascii=False)
        case ObjVal(id=id, shape=shape):
            parts = []
            for lbl, entry in shape.items():
                mark = "≔" if entry.visible else "≔ᵢ"
                parts.append(f"{lbl} {mark} {debug_print(entry.values)}")
            return f"{id}⟨{', '.join(parts)}⟩"
    raise TypeError(f"not a computed value: {w!r}")
