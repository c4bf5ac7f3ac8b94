"""Snapshot load/save: validation, round-trips, and the shipped seed data."""

import gc
import importlib
import json
from json.encoder import encode_basestring
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grql import store_io
from grql.model import (
    INT64_MAX,
    INT64_MIN,
    BoolVal,
    IntVal,
    Store,
    StoredRef,
    StoreTuple,
    StrVal,
    llabel,
    olabel,
)
from grql.store_io import (
    SnapshotError,
    load_seed,
    load_snapshot,
    save_snapshot,
    seed_snapshot_text,
)

NAME, AGE, BORN = olabel("name"), olabel("age"), olabel("born")
CHAR = llabel("character")


def test_seed_snapshot_contents():
    snap = load_seed()
    assert set(snap.schema.types) == {"Person", "Movie"}
    movies = [t for t in snap.store.tuples.values() if t.type_name == "Movie"]
    people = [t for t in snap.store.tuples.values() if t.type_name == "Person"]
    assert len(movies) == 3 and len(people) == 7
    assert snap.next_id == 12
    tr = snap.store.tuples["7"]
    assert tr.record[olabel("title")] == [StrVal("Transistors")]
    assert tr.record[olabel("actors")][0] == StoredRef("2", {CHAR: [StrVal("Meg Tech")]})
    assert snap.store.tuples["11"].record[NAME] == [StrVal("Christopher Nolens")]
    assert snap.store.tuples["1"].record[AGE] == [IntVal(60)]
    # a loaded store carries no edit marks
    assert snap.store.locked == frozenset()


def test_round_trip_identity():
    snap = load_seed()
    text = save_snapshot(snap.schema_text, snap.store, snap.next_id)
    again = load_snapshot(text)
    assert again.store == snap.store
    assert again.schema == snap.schema
    assert again.next_id == snap.next_id


def test_save_is_byte_deterministic():
    snap = load_seed()
    a = save_snapshot(snap.schema_text, snap.store, snap.next_id)
    b = save_snapshot(snap.schema_text, snap.store, snap.next_id)
    assert a == b
    # and the shipped file is exactly what save produces
    assert a == seed_snapshot_text()


def test_save_after_insert_round_trips():
    from grql.desugar import desugar
    from grql.evaluator import EvalConfig, evaluate
    from grql.parser import parse_query
    from grql.typecheck import synth

    snap = load_seed()
    expr = desugar(parse_query(
        'insert Person { name := "New", age := 1, born := <str>{} }'))
    synth(snap.schema, {}, expr)
    cfg = EvalConfig(next_id=snap.next_id)
    out = evaluate(snap.schema, cfg, {}, snap.store, expr)
    assert out.next_id == 13
    text = save_snapshot(snap.schema_text, out.store_after.unlock_all(), out.next_id)
    again = load_snapshot(text)
    assert again.store.tuples["12"].record[NAME] == [StrVal("New")]
    assert again.next_id == 13


def test_empty_store_round_trips():
    from grql.model import Store

    text = save_snapshot("type Person { required name: str; };", Store(), 1)
    snap = load_snapshot(text)
    assert snap.store.tuples == {}


def test_duplicate_id_rejected():
    doc = json.loads(seed_snapshot_text())
    doc["entities"].append(dict(doc["entities"][0]))
    with pytest.raises(SnapshotError) as err:
        load_snapshot(json.dumps(doc))
    assert any(d.code == "DuplicateId" for d in err.value.diagnostics)


def test_cardinality_violation_rejected():
    doc = json.loads(seed_snapshot_text())
    for ent in doc["entities"]:
        if ent["id"] == "7":
            ent["fields"]["directors"] = []
    with pytest.raises(SnapshotError) as err:
        load_snapshot(json.dumps(doc))
    assert any(d.code == "CardinalityViolation" for d in err.value.diagnostics)


def test_version_field_required():
    with pytest.raises(SnapshotError):
        load_snapshot("{}")
    with pytest.raises(SnapshotError):
        load_snapshot('{"v": 2, "schema": "", "entities": []}')
    with pytest.raises(SnapshotError):
        load_snapshot("not json at all")


def test_schema_errors_reported():
    bad = {"v": 1, "schema": "type T { x: Ghost; };", "entities": [], "nextId": 1}
    with pytest.raises(SnapshotError) as err:
        load_snapshot(json.dumps(bad))
    assert any(d.code == "UndefinedTypeName" for d in err.value.diagnostics)


def test_schema_duplicates_reported_in_source_order():
    schema = ("type T { x: str; x: int64; };\n"
              "type T { y: str; y: str; };\n"
              "type U { n: str; };\n"
              "type V { l: U { p: str; p: str; }; };\n")
    bad = {"v": 1, "schema": schema, "entities": [], "nextId": 1}
    with pytest.raises(SnapshotError) as err:
        load_snapshot(json.dumps(bad))
    assert [(d.code, d.path) for d in err.value.diagnostics] == [
        ("DuplicateLabel", "T.x"),
        ("DuplicateTypeName", "T"),
        ("DuplicateLabel", "V.l.@p"),
    ]


def test_boolean_cells_not_confused_with_ints():
    doc = {
        "v": 1,
        "schema": "type T { flag: bool; n: int64; };",
        "nextId": 2,
        "entities": [
            {"id": "1", "type": "T", "fields": {"flag": [True], "n": [1]}},
        ],
    }
    snap = load_snapshot(json.dumps(doc))
    from grql.model import BoolVal

    rec = snap.store.tuples["1"].record
    assert rec[olabel("flag")] == [BoolVal(True)]
    assert rec[olabel("n")] == [IntVal(1)]
    # an int where a bool is declared is a type mismatch, not a coercion
    doc["entities"][0]["fields"]["flag"] = [1]
    with pytest.raises(SnapshotError) as err:
        load_snapshot(json.dumps(doc))
    assert any(d.code == "ValueTypeMismatch" for d in err.value.diagnostics)


def test_next_id_advances_past_numeric_ids():
    doc = json.loads(seed_snapshot_text())
    doc["nextId"] = 2  # stale counter: ids go up to 11
    snap = load_snapshot(json.dumps(doc))
    assert snap.next_id == 12
    del doc["nextId"]  # a missing counter keeps its default
    assert load_snapshot(json.dumps(doc)).next_id == 12


def test_repo_root_copy_matches_packaged_seed():
    from pathlib import Path

    root_copy = Path(__file__).parent.parent / "movies.grdb.json"
    assert root_copy.read_text(encoding="utf-8") == seed_snapshot_text()


def test_empty_field_name_is_an_extra_label():
    doc = json.loads(seed_snapshot_text())
    doc["entities"][0]["fields"][""] = [1]
    with pytest.raises(SnapshotError) as err:
        load_snapshot(json.dumps(doc))
    assert [str(d) for d in err.value.diagnostics] == [
        "ExtraLabel #1. label not declared in schema"]


def test_link_property_given_twice_is_a_bad_cell():
    # "character" and "@character" name the same link property
    doc = json.loads(seed_snapshot_text())
    movie = next(ent for ent in doc["entities"] if ent["id"] == "7")
    movie["fields"]["actors"][0]["props"] = {"character": ["A"], "@character": ["B"]}
    with pytest.raises(SnapshotError) as err:
        load_snapshot(json.dumps(doc))
    assert [str(d) for d in err.value.diagnostics] == [
        "BadCell #7.actors.@character link property given twice"]


def _with_schema_int(doc):
    doc["schema"] = 5


def _with_fields_list(doc):
    doc["entities"][0]["fields"] = [1]


def _with_props_list(doc):
    movie = next(ent for ent in doc["entities"] if ent["id"] == "7")
    movie["fields"]["actors"][0]["props"] = [1]


def _with_entities_int(doc):
    doc["entities"] = 5


def _with_int_ref(doc):
    # id 1 exists, so `str` of the int would have resolved
    movie = next(ent for ent in doc["entities"] if ent["id"] == "7")
    movie["fields"]["directors"] = [{"ref": 1}]


def _with_list_ref(doc):
    movie = next(ent for ent in doc["entities"] if ent["id"] == "7")
    movie["fields"]["directors"] = [{"ref": [1]}]


def _with_int_entity_id(doc):
    doc["entities"][2]["id"] = 99


def _with_list_entity_type(doc):
    doc["entities"][2]["type"] = ["Person"]


def _with_str_next_id(doc):
    doc["nextId"] = "99"


def _with_bool_next_id(doc):
    doc["nextId"] = True


@pytest.mark.parametrize("corrupt, code, path", [
    (_with_schema_int, "BadSnapshot", "schema"),
    (_with_fields_list, "BadSnapshot", "#1"),
    (_with_props_list, "BadCell", "#7.actors"),
    (_with_entities_int, "BadSnapshot", "entities"),
    (_with_int_ref, "BadCell", "#7.directors"),
    (_with_list_ref, "BadCell", "#7.directors"),
    (_with_int_entity_id, "BadSnapshot", "entities[2]"),
    (_with_list_entity_type, "BadSnapshot", "entities[2]"),
    (_with_str_next_id, "BadSnapshot", "nextId"),
    (_with_bool_next_id, "BadSnapshot", "nextId"),
])
def test_malformed_json_shapes_are_diagnostics(corrupt, code, path):
    doc = json.loads(seed_snapshot_text())
    corrupt(doc)
    with pytest.raises(SnapshotError) as err:
        load_snapshot(json.dumps(doc))
    assert (code, path) in [(d.code, d.path) for d in err.value.diagnostics]


@pytest.mark.parametrize("corrupt, line", [
    (_with_int_ref, "BadCell #7.directors reference id must be a string"),
    (_with_int_entity_id, "BadSnapshot entities[2] entity id must be a string"),
    (_with_list_entity_type, "BadSnapshot entities[2] entity type must be a string"),
    (_with_str_next_id, "BadSnapshot nextId nextId must be an integer"),
    (_with_bool_next_id, "BadSnapshot nextId nextId must be an integer"),
])
def test_non_string_ids_are_rejected_not_rewritten(corrupt, line):
    doc = json.loads(seed_snapshot_text())
    corrupt(doc)
    with pytest.raises(SnapshotError) as err:
        load_snapshot(json.dumps(doc))
    assert [str(d) for d in err.value.diagnostics] == [line]


def _stdlib_snapshot_text(schema_text, store, next_id):
    """The snapshot document, built from the format's description and written
    by the stdlib encoder."""
    def cell(v):
        if not isinstance(v, StoredRef):
            return v.value
        if not v.link_props:
            return {"ref": v.id}
        return {"ref": v.id, "props": {lbl: [x.value for x in seq] for lbl, seq in v.link_props.items()}}

    entities = [{"id": id, "type": tup.type_name,
                 "fields": {lbl: [cell(v) for v in seq] for lbl, seq in tup.record.items()}}
                for id, tup in store.tuples.items()]
    doc = {"v": 1, "schema": schema_text, "nextId": next_id, "entities": entities}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def test_saved_text_is_the_stdlib_indent_2_text_for_generated_stores():
    from grql.harness import GenConfig, gen_instance
    from grql.parser import schema_to_source

    for seed in range(500):
        inst = gen_instance(GenConfig(seed=seed))
        args = (schema_to_source(inst.schema), inst.store, inst.store.max_numeric_id() + 1)
        assert save_snapshot(*args) == _stdlib_snapshot_text(*args)


def _bench_gen(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    return importlib.import_module("gen")


def test_saved_text_is_the_stdlib_indent_2_text_for_bench_and_seed_stores(monkeypatch):
    gen = _bench_gen(monkeypatch)
    for text in (gen.generate(1, 200)[0].snapshot_text(), seed_snapshot_text()):
        snap = load_snapshot(text)
        args = (snap.schema_text, snap.store, snap.next_id)
        assert save_snapshot(*args) == _stdlib_snapshot_text(*args)


# Hand-built stores at the edges of the format: every scalar kind, empty
# sequences, a type with no labels, non-ASCII names, and links with no, one
# and several link properties.
EDGE_SCHEMA = """type T {
  s: str;
  multi ss: str;
  multi n: int64;
  multi b: bool;
  multi plain: T;
  multi one: T { p: str; };
  multi several: T { p: str; multi q: int64; f: bool; };
};
type E { };
type Ünï { é: str; };
"""

_ODD_TEXT = st.one_of(
    st.sampled_from(["", '"', "\\", "\x00", "\x1f", "\x7f", "\n\t\r\b\f", "\u2028\u2029",
                     "\U0001F3AC", '\\"', "é"]),
    st.text(alphabet=st.sampled_from('a"\\\x00\x1f\n\u2028\U0001F3AC é'), max_size=6),
    st.text(max_size=6),
)
_INTS = st.one_of(st.sampled_from([INT64_MIN, INT64_MAX, -1, 0]),
                  st.integers(INT64_MIN, INT64_MAX))


@st.composite
def _edge_stores(draw):
    """A well-formed store over EDGE_SCHEMA and a next id past its ids."""
    ids = draw(st.lists(_ODD_TEXT, unique=True, max_size=5))
    types = {id: draw(st.sampled_from(["T", "E", "Ünï"])) for id in ids}
    targets = st.sampled_from([id for id in ids if types[id] == "T"] or [None])
    strs, ints, bools = _ODD_TEXT.map(StrVal), _INTS.map(IntVal), st.booleans().map(BoolVal)

    def cells(values, most=3):
        return draw(st.lists(values, max_size=most))

    def refs(*props):
        # a link property draws from its own strategy; [] when none is declared
        prop = st.tuples(*(st.tuples(st.just(lbl), st.lists(v, max_size=m))
                           for lbl, v, m in props))
        got = cells(st.tuples(targets, prop))
        return [StoredRef(id, dict(ps)) for id, ps in got if id is not None]

    tuples = {}
    for id in ids:
        if types[id] == "E":
            tuples[id] = StoreTuple("E", {})
        elif types[id] == "Ünï":
            tuples[id] = StoreTuple("Ünï", {"é": cells(strs, 1)})
        else:
            tuples[id] = StoreTuple("T", {
                "s": cells(strs, 1), "ss": cells(strs), "n": cells(ints), "b": cells(bools),
                "plain": refs(),
                "one": refs(("@p", strs, 1)),
                "several": refs(("@p", strs, 1), ("@q", ints, 3), ("@f", bools, 1)),
            })
    store = Store(tuples)
    return store, store.max_numeric_id() + 1 + draw(st.integers(0, 1000))


def _edge_store_property():
    @settings(max_examples=300, deadline=None, database=None)
    @given(_edge_stores())
    def saved_text_is_stdlib_text_and_loads_back(case):
        store, next_id = case
        text = save_snapshot(EDGE_SCHEMA, store, next_id)
        assert text == _stdlib_snapshot_text(EDGE_SCHEMA, store, next_id)
        snap = load_snapshot(text)
        assert snap.store.tuples == store.tuples
        assert snap.next_id == next_id

    return saved_text_is_stdlib_text_and_loads_back


def test_saved_text_is_the_stdlib_indent_2_text_for_edge_case_stores():
    _edge_store_property()()


def _quote_left_unescaped(monkeypatch):
    def encode(s):
        return '"' + '"'.join(encode_basestring(part)[1:-1] for part in s.split('"')) + '"'

    monkeypatch.setattr(store_io, "encode_basestring", encode)


def _props_one_level_too_shallow(monkeypatch):
    monkeypatch.setattr(store_io, "_PROP", store_io._REF_KEY)
    monkeypatch.setattr(store_io, "_PROP_CELL", store_io._PROP)


@pytest.mark.parametrize("break_writer", [_quote_left_unescaped, _props_one_level_too_shallow])
def test_a_broken_writer_fails_the_edge_case_property(monkeypatch, break_writer):
    break_writer(monkeypatch)
    with pytest.raises(AssertionError):
        _edge_store_property()()


def test_a_save_starts_no_garbage_collection(monkeypatch):
    # a work counter, not a time: writing the n = 2000 store used to build a
    # document whose containers started 37 collections
    snap = load_snapshot(_bench_gen(monkeypatch).generate(1, 2000)[0].snapshot_text())
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(count)
    try:
        gc.collect()
        starts.clear()
        save_snapshot(snap.schema_text, snap.store, snap.next_id)
    finally:
        gc.callbacks.remove(count)
        if not enabled:
            gc.disable()
    assert starts == []
