"""Snapshot loading: the schema-directed one-pass loader against the two-pass
loader it replaced, and the work a load does."""

import functools
import importlib.util
import json
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from grql import store_io
from grql.harness import GenConfig, gen_instance
from grql.model import ScalarType, Store, StoreTuple
from grql.parser import parse_schema, schema_to_source
from grql.store_io import (
    FORMAT_VERSION,
    LoadedSnapshot,
    SnapshotError,
    _cell_to_value,
    load_snapshot,
    save_snapshot,
    seed_snapshot_text,
)
from grql.surface import ParseError
from grql.wellformed import Diagnostic, check_schema, check_store

BENCH_GEN = Path(__file__).parent.parent / "bench" / "gen.py"


def two_pass_load_snapshot(text: str) -> LoadedSnapshot:
    """The loader the one-pass loader replaced, kept verbatim as the oracle:
    decode every cell by its JSON type, then check the store against the
    schema, then find the largest numeric id."""
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


@functools.cache
def _bench_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH_GEN)
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _instance_text(seed: int) -> str:
    inst = gen_instance(GenConfig(seed=seed, max_store_size=8))
    return save_snapshot(schema_to_source(inst.schema), inst.store, inst.store.max_numeric_id() + 1)


@functools.cache
def _base_docs() -> list[str]:
    """Well-formed snapshots: the seed, two small benchmark stores and
    generated instances over random schemas."""
    gen = _bench_gen()
    texts = [seed_snapshot_text(), gen.generate(1, 20)[0].snapshot_text(),
             gen.generate(2, 40)[0].snapshot_text()]
    return texts + [_instance_text(seed) for seed in range(8)]


# -- single mutations of a snapshot document ---------------------------------
# Each takes the document and a random stream and changes one thing in
# place; one that finds nothing to change leaves the document as it is.

def _cells(doc):
    """(sequence, index) of every top-level cell."""
    return [(cells, i) for ent in doc["entities"] for cells in ent["fields"].values()
            for i in range(len(cells))]


def _scalars(doc, kind=None):
    return [(cells, i) for cells, i in _cells(doc)
            if not isinstance(cells[i], dict) and (kind is None or type(cells[i]) is kind)]


def _refs(doc, with_props=False):
    return [cells[i] for cells, i in _cells(doc)
            if isinstance(cells[i], dict) and (not with_props or cells[i].get("props"))]


def _set_one(rng, places, value):
    if places:
        cells, i = rng.choice(places)
        cells[i] = value


def _wrong_class(doc, rng):
    if places := _scalars(doc):
        cells, i = rng.choice(places)
        others = {int: ["1", True, 1.5, None], str: [1, False, None, []], bool: [0, 1, "true", None]}
        cells[i] = rng.choice(others[type(cells[i])])


def _true_in_int(doc, rng):
    _set_one(rng, _scalars(doc, int), rng.choice([True, False]))


def _int_out_of_range(doc, rng):
    _set_one(rng, _scalars(doc, int), rng.choice([2**63, -2**63 - 1, 2**70]))


def _fewer_cells(doc, rng):
    if places := _cells(doc):
        cells, i = rng.choice(places)
        del cells[i]


def _more_cells(doc, rng):
    if places := _cells(doc):
        cells, i = rng.choice(places)
        cells.append(json.loads(json.dumps(cells[i])))


def _dangling_ref(doc, rng):
    if refs := _refs(doc):
        rng.choice(refs)["ref"] = "no such id"


def _wrong_target_ref(doc, rng):
    if refs := _refs(doc):
        ref = rng.choice(refs)
        types = {ent["id"]: ent["type"] for ent in doc["entities"]}
        others = [id for id, t in types.items() if t != types[ref["ref"]]]
        if others:
            ref["ref"] = rng.choice(others)


def _undeclared_prop(doc, rng):
    if refs := _refs(doc):
        rng.choice(refs).setdefault("props", {})["@undeclared"] = []


def _missing_prop(doc, rng):
    if refs := _refs(doc, with_props=True):
        props = rng.choice(refs)["props"]
        del props[rng.choice(list(props))]


def _bare_prop(doc, rng):
    # "character" and "@character" name the same link property
    if refs := _refs(doc, with_props=True):
        ref = rng.choice(refs)
        bare = rng.choice(list(ref["props"]))
        ref["props"] = {key.lstrip("@") if key == bare else key: v for key, v in ref["props"].items()}


def _props_not_object(doc, rng):
    if refs := _refs(doc):
        rng.choice(refs)["props"] = rng.choice([[], None, "x"])


def _extra_ref_key(doc, rng):
    if refs := _refs(doc):
        rng.choice(refs)["extra"] = 1


def _entity(doc, rng):
    return rng.choice(doc["entities"]) if doc["entities"] else {}


def _missing_label(doc, rng):
    if fields := _entity(doc, rng).get("fields"):
        del fields[rng.choice(list(fields))]


def _extra_label(doc, rng):
    if ent := _entity(doc, rng):
        ent["fields"][rng.choice(["extra", ""])] = []


def _no_fields(doc, rng):
    _entity(doc, rng).pop("fields", None)


def _unknown_type(doc, rng):
    if ent := _entity(doc, rng):
        ent["type"] = "NoSuchType"


def _duplicate_id(doc, rng):
    if doc["entities"]:
        a, b = rng.choice(doc["entities"]), rng.choice(doc["entities"])
        a["id"] = b["id"]


def _non_string_id_or_type(doc, rng):
    if ent := _entity(doc, rng):
        key = rng.choice(["id", "type"])
        ent[key] = rng.choice([5, None, [ent[key]]])


def _extra_entity_key(doc, rng):
    if ent := _entity(doc, rng):
        ent["extra"] = 1


def _renamed_id(doc, rng):
    # ids that are not plain decimal strings, renamed at every reference;
    # `int` reads some of them as numbers
    if ent := _entity(doc, rng):
        old, new = ent["id"], rng.choice([" 7 ", "x", "1_000", "٣", "-4", "0", "+9", "99"])
        ent["id"] = new
        for ref in _refs(doc):
            if ref["ref"] == old:
                ref["ref"] = new


def _bad_next_id(doc, rng):
    doc["nextId"] = rng.choice(["5", True, 1.5, None, -1, 0, 2**64])


def _any_value(doc, rng):
    _set_one(rng, _cells(doc), rng.choice([None, 0, "", [], {}, {"ref": None}, 2**64, -0.0]))


def _unchanged(doc, rng):
    pass


MUTATIONS = [
    _unchanged, _wrong_class, _true_in_int, _int_out_of_range, _fewer_cells, _more_cells,
    _dangling_ref, _wrong_target_ref, _undeclared_prop, _missing_prop, _bare_prop,
    _props_not_object, _extra_ref_key, _missing_label, _extra_label, _no_fields,
    _unknown_type, _duplicate_id, _non_string_id_or_type, _extra_entity_key, _renamed_id,
    _bad_next_id, _any_value,
]


def _outcome(load, text):
    """What a loader makes of the text: the snapshot and its saved bytes,
    which show the order of every field and link property, or the
    diagnostics."""
    try:
        snap = load(text)
    except SnapshotError as exc:
        return exc.diagnostics
    return snap, save_snapshot(snap.schema_text, snap.store, snap.next_id)


def _differential_property(phases=tuple(Phase)):
    @settings(max_examples=400, deadline=None, database=None, derandomize=True, phases=phases)
    @given(st.integers(0, len(_base_docs()) - 1), st.sampled_from(MUTATIONS),
           st.randoms(use_true_random=False))
    def loads_like_the_two_pass_loader(base, mutate, rng):
        doc = json.loads(_base_docs()[base])
        mutate(doc, rng)
        text = json.dumps(doc)
        assert _outcome(load_snapshot, text) == _outcome(two_pass_load_snapshot, text)

    return loads_like_the_two_pass_loader


def test_loads_like_the_two_pass_loader():
    _differential_property()()


def _isinstance_ints(cells):
    # a JSON true passes for an int
    if all(isinstance(c, int) and store_io.INT64_MIN <= c <= store_io.INT64_MAX for c in cells):
        return [store_io.IntVal(c) for c in cells]
    return None


def _refs_resolve_to_any_type(tuples, refs):
    return all(id in tuples for ids in refs.values() for id in ids)


@pytest.mark.parametrize("owner, key, broken", [
    (store_io._SCALAR_DECODERS, ScalarType.INT, _isinstance_ints),
    (vars(store_io), "_refs_resolve", _refs_resolve_to_any_type),
], ids=["isinstance_ints", "refs_resolve_to_any_type"])
def test_a_broken_one_pass_loader_fails_the_differential_property(monkeypatch, owner, key, broken):
    monkeypatch.setitem(owner, key, broken)
    with pytest.raises(AssertionError):
        _differential_property(phases=(Phase.generate,))()  # caught, not shrunk


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def _spied(monkeypatch) -> dict[str, int]:
    calls: dict[str, int] = {}
    for owner, name in ((store_io, "check_store"), (store_io, "_cell_to_value"),
                        (store_io, "_load_generic"), (Store, "max_numeric_id")):
        _counting(monkeypatch, owner, name, calls)
    return calls


def test_a_well_formed_load_decodes_each_cell_once(monkeypatch):
    # a work counter, not a time: the two-pass loader called check_store
    # once, _cell_to_value once per cell and max_numeric_id once
    calls = _spied(monkeypatch)
    for text in (_bench_gen().generate(1, 300)[0].snapshot_text(), seed_snapshot_text()):
        load_snapshot(text)
    assert calls == {}


def test_one_bad_cell_sends_the_load_to_the_generic_decode_once(monkeypatch):
    doc = json.loads(seed_snapshot_text())
    doc["entities"][0]["fields"]["age"] = ["sixty"]
    cells = sum(len(seq) for ent in doc["entities"] for seq in ent["fields"].values())
    props = sum(len(seq) for ref in _refs(doc, with_props=True) for seq in ref["props"].values())
    calls = _spied(monkeypatch)
    with pytest.raises(SnapshotError) as err:
        load_snapshot(json.dumps(doc))
    assert [str(d) for d in err.value.diagnostics] == ["ValueTypeMismatch #1.age expected int"]
    assert calls == {"_load_generic": 1, "check_store": 1, "_cell_to_value": cells + props}
