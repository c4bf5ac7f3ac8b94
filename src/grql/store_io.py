"""Snapshot persistence: load and save schema+store as `.grdb.json` files.

A snapshot is a JSON object with a format version, the schema source text
(the grammar is the single source of truth for schemas), an entity list, and
the id counter. Scalar cells use native JSON types; reference cells are
{"ref": id} with an optional "props" map of link-property sequences. Edit
marks (`Store.locked`) live only inside one evaluation, so a snapshot holds
none: a loaded store has no marks, and saving ignores any a store carries.

`save_snapshot` writes the text straight from the store's tuples: no JSON
document is built, so a save allocates no container per entity, field or
cell and starts no cyclic-GC collection. The layout nests to fixed depths,
so each depth's line break and indentation is a constant, and strings are
escaped by the function `json.dumps` uses with `ensure_ascii` off; the text
is exactly `json.dumps(document, indent=2, ensure_ascii=False) + "\n"`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from json.encoder import encode_basestring

from .model import (
    BoolVal,
    IntVal,
    Label,
    ObjVal,
    Schema,
    Store,
    StoreTuple,
    StoredRef,
    StrVal,
    llabel,
)
from .parser import parse_schema
from .surface import ParseError
from .wellformed import Diagnostic, check_schema, check_store

FORMAT_VERSION = 1


class SnapshotError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


@dataclass
class LoadedSnapshot:
    schema: Schema
    store: Store
    next_id: int
    schema_text: str


def _cell_to_value(cell, path: str, diags: list[Diagnostic]):
    if isinstance(cell, bool):
        return BoolVal(cell)
    if isinstance(cell, int):
        try:
            return IntVal(cell)
        except ValueError as exc:
            diags.append(Diagnostic("BadCell", path, str(exc)))
            return None
    if isinstance(cell, str):
        return StrVal(cell)
    if isinstance(cell, dict) and "ref" in cell:
        if not isinstance(cell["ref"], str):
            diags.append(Diagnostic("BadCell", path, "reference id must be a string"))
            return None
        cell_props = cell.get("props", {})
        if not isinstance(cell_props, dict):
            diags.append(Diagnostic("BadCell", path, "link properties must be an object"))
            return None
        props: dict[Label, list] = {}
        for key, seq in cell_props.items():
            if not isinstance(seq, list):
                diags.append(Diagnostic("BadCell", f"{path}.{key}", "link property must be a list"))
                continue
            vals = []
            for x in seq:
                v = _cell_to_value(x, f"{path}.{key}", diags)
                if isinstance(v, (StoredRef, ObjVal)):
                    diags.append(Diagnostic("BadCell", f"{path}.{key}", "link properties hold scalars"))
                elif v is not None:
                    vals.append(v)
            lbl = llabel(key)
            if lbl in props:
                diags.append(Diagnostic("BadCell", f"{path}.{lbl}", "link property given twice"))
                continue
            props[lbl] = vals
        return StoredRef(cell["ref"], props)
    diags.append(Diagnostic("BadCell", path, f"unrecognized cell {cell!r}"))
    return None


def load_snapshot(text: str) -> LoadedSnapshot:
    """Parse and validate a snapshot; raises SnapshotError carrying every
    diagnostic found."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested to decode
        raise SnapshotError([Diagnostic("BadSnapshot", "-", f"not valid JSON: {exc}")]) from None
    if not isinstance(doc, dict) or doc.get("v") != FORMAT_VERSION:
        raise SnapshotError([Diagnostic("BadSnapshot", "-", f"missing or unsupported format version (need v={FORMAT_VERSION})")])

    schema_text = doc.get("schema", "")
    if not isinstance(schema_text, str):
        raise SnapshotError([Diagnostic("BadSnapshot", "schema", "schema must be source text")])
    try:
        schema, diags = parse_schema(schema_text)
    except ParseError as exc:
        raise SnapshotError([Diagnostic("SchemaParseError", "-", str(exc))]) from None
    diags.extend(check_schema(schema))

    next_id = doc.get("nextId", 0)
    if type(next_id) is not int:  # a JSON true/false decodes to a bool
        diags.append(Diagnostic("BadSnapshot", "nextId", "nextId must be an integer"))

    entities = doc.get("entities", [])
    if not isinstance(entities, list):
        diags.append(Diagnostic("BadSnapshot", "entities", "entities must be a list"))
        entities = []
    tuples: dict[str, StoreTuple] = {}
    for i, ent in enumerate(entities):
        if not isinstance(ent, dict) or "id" not in ent or "type" not in ent:
            diags.append(Diagnostic("BadSnapshot", f"entities[{i}]", "entity needs id and type"))
            continue
        id = ent["id"]
        if not isinstance(id, str):
            diags.append(Diagnostic("BadSnapshot", f"entities[{i}]", "entity id must be a string"))
            continue
        if not isinstance(ent["type"], str):
            diags.append(Diagnostic("BadSnapshot", f"entities[{i}]", "entity type must be a string"))
            continue
        if id in tuples:
            diags.append(Diagnostic("DuplicateId", f"#{id}", "entity id appears more than once"))
            continue
        fields = ent.get("fields", {})
        if not isinstance(fields, dict):
            diags.append(Diagnostic("BadSnapshot", f"#{id}", "fields must be an object"))
            continue
        record = {}
        for key, cells in fields.items():
            path = f"#{id}.{key}"
            if not isinstance(cells, list):
                diags.append(Diagnostic("BadCell", path, "field must hold a list of cells"))
                continue
            seq = []
            for cell in cells:
                v = _cell_to_value(cell, path, diags)
                if v is not None:
                    seq.append(v)
            record[key] = seq
        tuples[id] = StoreTuple(ent["type"], record)

    store = Store(tuples)
    if not diags:
        diags.extend(check_store(schema, store))
    if diags:
        raise SnapshotError(diags)
    return LoadedSnapshot(schema, store, max(next_id, store.max_numeric_id() + 1), schema_text)


# The snapshot layout nests to fixed depths, so the line break before an
# item is a constant per depth: an entity, its keys, a field, a cell, a
# reference's keys, a link property and that property's scalars.
_ENTITY, _ENTITY_KEY, _FIELD, _CELL, _REF_KEY, _PROP, _PROP_CELL = (
    "\n" + "  " * depth for depth in range(2, 9))


def _scalar_text(v) -> str:
    t = type(v)
    if t is StrVal:
        return encode_basestring(v.value)
    if t is IntVal:
        return int.__repr__(v.value)
    if t is BoolVal:
        return "true" if v.value else "false"
    raise TypeError(f"not a stored value: {v!r}")


def _ref_text(ref: StoredRef, key) -> str:
    text = "{" + _REF_KEY + '"ref": ' + encode_basestring(ref.id)
    if ref.link_props:
        sep = "," + _REF_KEY + '"props": {' + _PROP
        for lbl, seq in ref.link_props.items():
            if seq:
                cells = "[" + _PROP_CELL + ("," + _PROP_CELL).join(map(_scalar_text, seq)) + _PROP + "]"
            else:
                cells = "[]"
            text += sep + key(lbl) + cells
            sep = "," + _PROP
        text += _REF_KEY + "}"
    return text + _CELL + "}"


def save_snapshot(schema_text: str, store: Store, next_id: int) -> str:
    """Serialize back to snapshot text; byte-deterministic for a given store.
    The text goes straight from the tuples into one list of strings, joined
    once."""
    keys: dict[Label, str] = {}  # label -> its escaped `"label": ` text

    def key(lbl: Label) -> str:
        text = keys.get(lbl)
        if text is None:
            text = keys[lbl] = encode_basestring(lbl) + ": "
        return text

    out = ['{\n  "v": ', int.__repr__(FORMAT_VERSION),
           ',\n  "schema": ', encode_basestring(schema_text),
           ',\n  "nextId": ', int.__repr__(next_id),
           ',\n  "entities": ']
    append = out.append
    # each item's separator opens its container, so an empty container is
    # written whole after its loop
    entity_sep = "[" + _ENTITY
    for id, tup in store.tuples.items():
        append(entity_sep)
        entity_sep = "," + _ENTITY
        append("{" + _ENTITY_KEY + '"id": ' + encode_basestring(id)
               + "," + _ENTITY_KEY + '"type": ' + encode_basestring(tup.type_name)
               + "," + _ENTITY_KEY + '"fields": ')
        field_sep = "{" + _FIELD
        for lbl, seq in tup.record.items():
            append(field_sep)
            field_sep = "," + _FIELD
            append(key(lbl))
            cell_sep = "[" + _CELL
            for v in seq:
                append(cell_sep)
                cell_sep = "," + _CELL
                append(_ref_text(v, key) if type(v) is StoredRef else _scalar_text(v))
            append("[]" if not seq else _FIELD + "]")
        append("{}" if not tup.record else _ENTITY_KEY + "}")
        append(_ENTITY + "}")
    append("[]" if not store.tuples else "\n  ]")
    append("\n}\n")
    return "".join(out)


def seed_snapshot_text() -> str:
    """The running-example movie database shipped with the package."""
    return resources.files("grql.data").joinpath("movies.grdb.json").read_text(encoding="utf-8")


def load_seed() -> LoadedSnapshot:
    return load_snapshot(seed_snapshot_text())
