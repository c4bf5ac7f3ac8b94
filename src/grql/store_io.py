"""Snapshot persistence: load and save schema+store as `.grdb.json` files.

A snapshot is a JSON object with a format version, the schema source text
(the grammar is the single source of truth for schemas), an entity list, and
the id counter. Scalar cells use native JSON types; reference cells are
{"ref": id} with an optional "props" map of link-property sequences. Edit
marks (`Store.locked`) live only inside one evaluation, so a snapshot holds
none: a loaded store has no marks, and saving ignores any a store carries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

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
from .serialize import to_json_text
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


def _value_to_cell(v):
    match v:
        case BoolVal(value=b):
            return b
        case IntVal(value=n):
            return n
        case StrVal(value=s):
            return s
        case StoredRef(id=id, link_props=props):
            cell: dict = {"ref": id}
            if props:
                cell["props"] = {lbl: [_value_to_cell(x) for x in seq]
                                 for lbl, seq in props.items()}
            return cell
    raise TypeError(f"not a stored value: {v!r}")


def save_snapshot(schema_text: str, store: Store, next_id: int) -> str:
    """Serialize back to snapshot text; byte-deterministic for a given store."""
    entities = [
        {
            "id": id,
            "type": tup.type_name,
            "fields": {lbl: [_value_to_cell(v) for v in seq]
                       for lbl, seq in tup.record.items()},
        }
        for id, tup in store.tuples.items()
    ]
    doc = {"v": FORMAT_VERSION, "schema": schema_text, "nextId": next_id, "entities": entities}
    return to_json_text(doc, pretty=True) + "\n"


def seed_snapshot_text() -> str:
    """The running-example movie database shipped with the package."""
    return resources.files("grql.data").joinpath("movies.grdb.json").read_text(encoding="utf-8")


def load_seed() -> LoadedSnapshot:
    return load_snapshot(seed_snapshot_text())
