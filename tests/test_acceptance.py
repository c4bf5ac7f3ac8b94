"""The acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (the fuzz criterion takes a few
seconds; the whole module is budgeted well under its stated limits).
"""

import hashlib
import itertools
import json
import random
import time

from cardinality_tables import ADD_TABLE, LE_TABLE, MUL_TABLE
from grql.cli import main
from grql.desugar import desugar
from grql.evaluator import EvalConfig, evaluate
from grql.harness import CONSTRUCTORS, run_fuzz
from grql.model import (
    ALL_CARDINALITIES,
    EMPTY,
    ONE,
    card_add,
    card_le,
    card_mul,
    seq_perm_eq,
)
from grql.parser import parse_query
from grql.serialize import serialize, to_json_text
from grql.store_io import load_seed, seed_snapshot_text
from grql.typecheck import synth

RUNNING_QUERY = ("select Movie { title, year, directors: { name, age }, "
                 "actors: { name, @character }}")


def _run(snap, text, seed=None, dedup=False):
    expr = desugar(parse_query(text))
    ty, card = synth(snap.schema, {}, expr)
    cfg = EvalConfig(permutation_seed=seed, dedup_projections=dedup,
                     next_id=snap.next_id)
    out = evaluate(snap.schema, cfg, {}, snap.store, expr)
    return out, ty, card


def _passed(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_running_example_end_to_end():
    t0 = time.monotonic()
    snap = load_seed()
    out, ty, card = _run(snap, RUNNING_QUERY)
    doc = json.loads(to_json_text(serialize(out.result, ty, card)))
    assert isinstance(doc, list) and len(doc) == 3
    tr = next(m for m in doc if m["title"] == "Transistors")
    assert tr == {
        "title": "Transistors",
        "year": 2007,
        "directors": [{"name": "Michael Cove", "age": 60}],
        "actors": [
            {"name": "Megan Wolf", "@character": "Meg Tech"},
            {"name": "Shy Andbuff", "@character": "Sam Man"},
        ],
    }
    assert list(tr) == ["title", "year", "directors", "actors"]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passed(1, f"shaped running-example query matches the expected JSON ({elapsed:.3f}s)")


def test_criterion_2_projection_backlink_goldens():
    t0 = time.monotonic()
    snap = load_seed()
    tr = '(Movie filter .title = "Transistors")'
    cn = '(Person filter .name = "Christopher Nolens")'
    sm = '(Person filter .name = "Sillier Murphy")'

    def values(text):
        out, _, _ = _run(snap, text)
        return sorted(v.value for v in out.result)

    def ref_ids(text):
        out, _, _ = _run(snap, text)
        return sorted(w.id for w in out.result)

    goldens = [
        ("Movie.title", values, ["Interception", "Open Hammer", "Transistors"]),
        (f"{tr}.title", values, ["Transistors"]),
        (f"{tr}.actors.@character", values, ["Meg Tech", "Sam Man"]),
        (f"{tr}.directors", ref_ids, ["1"]),
        (f"{tr}.directors.name", values, ["Michael Cove"]),
        (f"{cn}.<directors[is Movie]", ref_ids, ["8", "9"]),
        (f"{cn}.<directors[is Movie].title", values, ["Interception", "Open Hammer"]),
        (f"{cn}.<actors[is Movie]", ref_ids, []),
        (f"{sm}.<actors[is Movie]", ref_ids, ["8", "9"]),
        (f"{sm}.<actors[is Movie].title", values, ["Interception", "Open Hammer"]),
        (f"{sm}.<actors[is Movie].@character", values, ["Doc Boom", "Fissure"]),
    ]
    for text, view, expected in goldens:
        assert view(text) == expected, text

    # the carried link properties on projected and sought references
    out, _, _ = _run(snap, f"{tr}.actors")
    assert {w.id: w.shape[next(iter(w.shape))].values[0].value for w in out.result} == {
        "2": "Meg Tech", "5": "Sam Man"}
    out, _, _ = _run(snap, f"{sm}.<actors[is Movie]")
    assert {w.id: w.shape[next(iter(w.shape))].values[0].value for w in out.result} == {
        "8": "Fissure", "9": "Doc Boom"}

    # order-insensitivity: a seeded run permutes but agrees as a multiset
    base, _, _ = _run(snap, "Movie.title")
    seeded, _, _ = _run(snap, "Movie.title", seed=9)
    assert seq_perm_eq(base.result, seeded.result)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passed(2, f"projection and backlink goldens reproduce up to permutation ({elapsed:.3f}s)")


def test_criterion_3_cardinality_semiring_tables():
    modes = ALL_CARDINALITIES
    assert len(modes) == 5
    for a, b in itertools.product(modes, modes):
        assert card_add(a, b) == ADD_TABLE[(a, b)]
        assert card_mul(a, b) == MUL_TABLE[(a, b)]
        assert card_le(a, b) == LE_TABLE[(a, b)]
    for a, b in itertools.product(modes, modes):
        assert card_add(a, b) == card_add(b, a)
        assert card_mul(a, b) == card_mul(b, a)
    for a in modes:
        assert card_add(EMPTY, a) == a
        assert card_mul(ONE, a) == a
        assert card_mul(EMPTY, a) == EMPTY
        assert card_le(a, a)
    for a, b, c in itertools.product(modes, repeat=3):
        assert card_add(card_add(a, b), c) == card_add(a, card_add(b, c))
        assert card_mul(card_mul(a, b), c) == card_mul(a, card_mul(b, c))
        assert card_mul(a, card_add(b, c)) == card_add(card_mul(a, b), card_mul(a, c))
        if card_le(a, b) and card_le(b, c):
            assert card_le(a, c)
    for a, b in itertools.product(modes, modes):
        if card_le(a, b) and card_le(b, a):
            assert a == b
    _passed(3, "5x5 add/mul/le tables match the hand-derived oracle; semiring and order laws hold")


def test_criterion_4_serialization_conformance():
    from grql.model import (
        AT_LEAST_ONE,
        AT_MOST_ONE,
        IntVal,
        MANY,
        ObjType,
        ObjVal,
        ScalarType,
        StrVal,
        invis,
        olabel,
        vis,
    )

    A, B, FOO = olabel("a"), olabel("b"), olabel("foo")
    rows = [
        ([], ScalarType.STR, AT_MOST_ONE, "null"),
        ([], ScalarType.STR, MANY, "[]"),
        ([StrVal("Hi")], ScalarType.STR, AT_MOST_ONE, '"Hi"'),
        ([StrVal("Hi")], ScalarType.STR, ONE, '"Hi"'),
        ([StrVal("Hi")], ScalarType.STR, MANY, '["Hi"]'),
        ([StrVal("Hi"), StrVal("you")], ScalarType.STR, AT_LEAST_ONE, '["Hi","you"]'),
        ([ObjVal("7", {}), ObjVal("8", {})], ObjType("N", {}), MANY,
         '[{"id":"7"},{"id":"8"}]'),
        ([ObjVal("7", {FOO: vis([IntVal(4)])})],
         ObjType("N", {FOO: (ScalarType.INT, ONE)}), AT_MOST_ONE, '{"foo":4}'),
        ([ObjVal("7", {A: invis([IntVal(4)]), B: vis([])})],
         ObjType("N", {A: (ScalarType.INT, ONE), B: (ScalarType.INT, AT_MOST_ONE)}),
         ONE, '{"b":null}'),
    ]
    for vals, ty, m, expected in rows:
        assert to_json_text(serialize(vals, ty, m)) == expected
    _passed(4, "all nine serialization rows reproduce byte-exactly")


def test_criterion_5_metatheory_at_desk_scale():
    t0 = time.monotonic()
    failures, coverage = run_fuzz(10000, master_seed=1)
    elapsed = time.monotonic() - t0
    assert failures == [], [f"{ce.property_name}: {ce.witness}" for ce in failures[:3]]
    missing = [c for c in CONSTRUCTORS if coverage.get(c, 0) < 1]
    assert not missing, f"constructors never generated: {missing}"
    assert elapsed < 120.0
    _passed(5, f"10000 cases x 3 eval seeds: zero counter-examples, "
               f"all {len(CONSTRUCTORS)} constructors exercised ({elapsed:.1f}s)")


def test_criterion_6_mutation_semantics():
    from grql.model import IntVal, StoredRef, StrVal, olabel

    snap = load_seed()
    out, ty, card = _run(
        snap,
        'insert Movie { directors := (insert Person { name := "Paul Shiver",'
        ' age := 37, born := "Earth" }), title := "Frozen Planet",'
        ' year := 2011, actors := <Person>{} }',
    )
    new_ids = sorted(set(out.store_after.tuples) - set(snap.store.tuples), key=int)
    assert len(new_ids) == 2
    person_id, movie_id = new_ids
    person = out.store_after.tuples[person_id]
    movie = out.store_after.tuples[movie_id]
    assert person.type_name == "Person"
    assert person.record[olabel("name")] == [StrVal("Paul Shiver")]
    assert movie.type_name == "Movie"
    assert movie.record[olabel("title")] == [StrVal("Frozen Planet")]
    assert movie.record[olabel("directors")] == [StoredRef(person_id, {})]
    assert movie.record[olabel("actors")] == []

    out2, _, _ = _run(
        snap,
        'with m := (Movie filter .title = "Transistors") select '
        "(update m set { year := 2008 }) union (update m set { year := 2009 })",
    )
    assert len(out2.result) == 1  # the second update returned []
    assert out2.store_after.tuples["7"].record[olabel("year")] == [IntVal(2008)]
    _passed(6, "nested insert adds exactly two linked tuples; only the first update applies")


def test_criterion_7_dedup_discrepancy():
    snap = load_seed()
    formal, _, _ = _run(snap, "Movie.directors")
    assert len(formal.result) == 3
    deduped, _, _ = _run(snap, "Movie.directors", dedup=True)
    assert len(deduped.result) == 2
    assert {w.id for w in formal.result} == {w.id for w in deduped.result} == {"1", "11"}
    _passed(7, "projection yields 3 directors formally and 2 with --dedup")


def test_criterion_8_no_commit_purity(tmp_path, capsys):
    path = tmp_path / "movies.grdb.json"
    path.write_text(seed_snapshot_text(), encoding="utf-8")
    before = hashlib.sha256(path.read_bytes()).hexdigest()

    rng = random.Random(8)
    queries = []
    for i in range(100):
        kind = rng.randrange(3)
        n = rng.randint(0, 9999)
        if kind == 0:
            queries.append(f'insert Person {{ name := "p{i}", age := {n}, born := <str>{{}} }}')
        elif kind == 1:
            queries.append(f"update Movie set {{ year := {n} }}")
        else:
            queries.append(
                f'insert Movie {{ title := "t{i}", year := {n}, '
                f"directors := (insert Person {{ name := \"d{i}\", age := 1, "
                f"born := <str>{{}} }}), actors := <Person>{{}} }}"
            )
    for q in queries:
        assert main(["run", str(path), q]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == before
    capsys.readouterr()
    _passed(8, "snapshot bytes unchanged across 100 uncommitted mutation queries")
