"""Snapshot persistence: load and save schema+store as `.grdb.json` files.

A snapshot is a JSON object with a format version, the schema source text
(the grammar is the single source of truth for schemas), an entity list, and
the id counter. Scalar cells use native JSON types; reference cells are
{"ref": id} with an optional "props" map of link-property sequences. Edit
marks (`Store.locked`) live only inside one evaluation, so a snapshot holds
none: a loaded store has no marks, and saving ignores any a store carries.

`load_snapshot` decodes and checks the entities in one pass directed by the
schema. Each (type, label) pair, and each link property, has a plan built
from the parsed schema once per load: the label's cardinality bounds and a
decoder that accepts only cells of the declared class (`type(c) is int`, so
a JSON `true` is no int; ints within int64) or, for a reference label,
`{"ref": id}` cells carrying exactly the declared link properties under
their `@` names. The pass keeps the file order of every field and link
property, notes each reference's id under its target type and resolves them
all once every tuple is in, and tracks the largest numeric id by the rule of
`Store.max_numeric_id`. It accepts exactly the entities that `check_store`
would pass and builds the same store. At the first thing it does not
recognise (an unknown type, a missing or extra label, a cell of the wrong
class or count, a bare-named link property, an extra key, a duplicate id, a
dangling or wrong-target reference) it gives up, and the load decodes the
same parsed document generically, cell by cell from each cell's JSON type,
and then runs `check_store`: every diagnostic, and every unusual input the
generic decode accepts, comes from that path alone.

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
    INT64_MAX,
    INT64_MIN,
    BoolVal,
    Cardinality,
    IntVal,
    Label,
    ObjVal,
    ScalarType,
    Schema,
    Store,
    StoreTuple,
    StoredRef,
    StoredRefType,
    StoredType,
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
    loaded = None if diags else _load_checked(schema, entities)
    if loaded is None:  # the generic decode and check_store say what is wrong, if anything
        store = _load_generic(entities, diags)
        if not diags:
            diags.extend(check_store(schema, store))
        if diags:
            raise SnapshotError(diags)
        loaded = store, store.max_numeric_id()
    store, max_id = loaded
    return LoadedSnapshot(schema, store, max(next_id, max_id + 1), schema_text)


def _load_generic(entities: list, diags: list[Diagnostic]) -> Store:
    """The store of an entity list decoded cell by cell from each cell's JSON
    type alone, appending every malformed shape to diags; the caller checks
    the store against the schema."""
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
    return Store(tuples)


# The schema-directed pass. A plan maps each label of a type (or each link
# property of a reference type) to (least length, greatest length, decoder);
# a decoder turns a list of JSON cells into a stored-value sequence, or
# returns None at the first cell it does not accept.

def _scalar_decoder(cls: type, make, lo: int | None = None, hi: int | None = None):
    """The decoder of a scalar label: each cell of class cls exactly (a JSON
    true is an int instance, not an int) and, if bounded, within [lo, hi]."""
    def decode(cells: list) -> list | None:
        for c in cells:
            if type(c) is not cls or lo is not None and not lo <= c <= hi:
                return None
        return [make(c) for c in cells]

    return decode


_SCALAR_DECODERS = {
    ScalarType.INT: _scalar_decoder(int, IntVal, INT64_MIN, INT64_MAX),
    ScalarType.STR: _scalar_decoder(str, StrVal),
    ScalarType.BOOL: _scalar_decoder(bool, BoolVal),
}


def _label_plan(ty: StoredType, card: Cardinality, refs: dict[str, list[str]]):
    if type(ty) is ScalarType:
        decode = _SCALAR_DECODERS[ty]
    else:
        decode = _ref_decoder(ty, refs)
    return card.lo, card.hi, decode


def _ref_decoder(ty: StoredRefType, refs: dict[str, list[str]]):
    """The decoder of a reference label: each cell `{"ref": id}`, with a
    `"props"` object when the type declares link properties. Each id goes
    to refs under the target type, to be resolved once every tuple is in."""
    ids = refs.setdefault(ty.target, [])
    props = {plbl: _label_plan(pty, pcard, refs) for plbl, (pty, pcard) in ty.link_props}
    keys = 2 if props else 1

    def decode(cells: list) -> list | None:
        seq = []
        for c in cells:
            if type(c) is not dict or len(c) != keys:
                return None
            id = c.get("ref")
            link = _decode_record(c.get("props"), props) if props else {}
            if type(id) is not str or link is None:
                return None
            ids.append(id)
            seq.append(StoredRef(id, link))
        return seq

    return decode


def _decode_record(src, plan: dict) -> dict | None:
    """The labels of a JSON object decoded by their plans, in the object's
    order; None unless it holds exactly the planned labels, each a list of
    admitted length whose cells decode."""
    if type(src) is not dict or len(src) != len(plan):
        return None
    out = {}
    for lbl, cells in src.items():
        lp = plan.get(lbl)
        if lp is None or type(cells) is not list:
            return None
        lo, hi, decode = lp
        if not lo <= len(cells) <= hi:
            return None
        seq = decode(cells)
        if seq is None:
            return None
        out[lbl] = seq
    return out


def _refs_resolve(tuples: dict[str, StoreTuple], refs: dict[str, list[str]]) -> bool:
    """Every id noted under a target type names a tuple of that type."""
    for target, ids in refs.items():
        for id in ids:
            tup = tuples.get(id)
            if tup is None or tup.type_name != target:
                return False
    return True


def _load_checked(schema: Schema, entities: list) -> tuple[Store, int] | None:
    """The store of a well-formed entity list, decoded and checked against
    the schema in one pass, with its largest numeric id; None at the first
    thing the pass does not recognise, for the generic decode to report."""
    refs: dict[str, list[str]] = {}  # target type -> the ids referring to it
    plans = {tname: {lbl: _label_plan(ty, card, refs) for lbl, (ty, card) in decl.labels.items()}
             for tname, decl in schema.types.items()}
    tuples: dict[str, StoreTuple] = {}
    max_id = 0
    for ent in entities:
        if type(ent) is not dict or len(ent) != 3:
            return None
        id, tname = ent.get("id"), ent.get("type")
        if type(id) is not str or type(tname) is not str or id in tuples or tname not in plans:
            return None
        record = _decode_record(ent.get("fields"), plans[tname])
        if record is None:
            return None
        tuples[id] = StoreTuple(tname, record)
        try:  # the rule of Store.max_numeric_id
            n = int(id)
        except ValueError:
            continue
        if n > max_id:
            max_id = n
    if not _refs_resolve(tuples, refs):
        return None
    return Store(tuples), max_id


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
