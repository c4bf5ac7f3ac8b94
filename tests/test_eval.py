"""Evaluator semantics: golden projections and backlinks over the running
store, the evaluation helpers, builtin interpretations, and mutation rules."""

import pytest

from grql import core
from grql.desugar import desugar
from grql.evaluator import (
    EvalConfig,
    EvalFault,
    evaluate,
    order_by_keys,
    project,
    record_extend,
    run_builtin,
    seek,
    strip_for_storage,
)
from grql.model import (
    BoolVal,
    IntVal,
    ObjVal,
    ScalarType,
    StoredRef,
    StoredRefType,
    StrVal,
    invis,
    llabel,
    olabel,
    seq_perm_eq,
    vis,
    ONE,
    AT_MOST_ONE,
)
from grql.parser import parse_query
from grql.typecheck import synth

TITLE, YEAR = olabel("title"), olabel("year")
NAME, AGE, BORN = olabel("name"), olabel("age"), olabel("born")
DIRECTORS, ACTORS = olabel("directors"), olabel("actors")
RATING = olabel("rating")
CHAR = llabel("character")


def run(snap, text, seed=None, dedup=False):
    expr = desugar(parse_query(text))
    synth(snap.schema, {}, expr)  # the harness precondition: typed input
    cfg = EvalConfig(permutation_seed=seed, dedup_projections=dedup,
                     next_id=snap.next_id)
    return evaluate(snap.schema, cfg, {}, snap.store, expr)


def strs(vals):
    return sorted(v.value for v in vals)


def ids(vals):
    return sorted(v.id for v in vals)


def test_union_of_literals_canonical_order(seed_snapshot):
    out = run(seed_snapshot, "3 union 4 union 4 union <int>{}")
    assert out.result == [IntVal(3), IntVal(4), IntVal(4)]


def test_union_seeded_is_permutation(seed_snapshot):
    base = run(seed_snapshot, "3 union 4 union 5").result
    for seed in (1, 2, 99):
        seeded = run(seed_snapshot, "3 union 4 union 5", seed=seed).result
        assert seq_perm_eq(base, seeded)


def test_long_set_literal_counts_without_deep_recursion(seed_snapshot):
    text = "count({" + ",".join(map(str, range(5000))) + "})"
    assert run(seed_snapshot, text).result == [IntVal(5000)]


def test_long_set_literal_keeps_canonical_order(seed_snapshot):
    text = "{" + ",".join(map(str, range(1000))) + "}"
    assert run(seed_snapshot, text).result == [IntVal(i) for i in range(1000)]


def test_name_evaluates_to_refs(seed_snapshot):
    out = run(seed_snapshot, "Movie")
    assert out.result == [ObjVal("7", {}), ObjVal("8", {}), ObjVal("9", {})]


def test_projection_goldens(seed_snapshot):
    assert strs(run(seed_snapshot, "Movie.title").result) == [
        "Interception", "Open Hammer", "Transistors"]
    tr = 'Movie filter .title = "Transistors"'
    assert strs(run(seed_snapshot, f"({tr}).title").result) == ["Transistors"]
    assert strs(run(seed_snapshot, f"({tr}).actors.@character").result) == [
        "Meg Tech", "Sam Man"]
    assert ids(run(seed_snapshot, f"({tr}).directors").result) == ["1"]
    assert strs(run(seed_snapshot, f"({tr}).directors.name").result) == ["Michael Cove"]


def test_projected_actors_carry_link_props(seed_snapshot):
    out = run(seed_snapshot, '(Movie filter .title = "Transistors").actors')
    by_id = {w.id: w for w in out.result}
    assert set(by_id) == {"2", "5"}
    assert by_id["2"].shape[CHAR].values == [StrVal("Meg Tech")]
    assert by_id["5"].shape[CHAR].values == [StrVal("Sam Man")]


def test_backlink_goldens(seed_snapshot):
    cn = '(Person filter .name = "Christopher Nolens")'
    out = run(seed_snapshot, f"{cn}.<directors[is Movie]")
    assert ids(out.result) == ["8", "9"]
    assert strs(run(seed_snapshot, f"{cn}.<directors[is Movie].title").result) == [
        "Interception", "Open Hammer"]
    assert run(seed_snapshot, f"{cn}.<actors[is Movie]").result == []

    sm = '(Person filter .name = "Sillier Murphy")'
    out = run(seed_snapshot, f"{sm}.<actors[is Movie]")
    assert ids(out.result) == ["8", "9"]
    assert strs(run(seed_snapshot, f"{sm}.<actors[is Movie].title").result) == [
        "Interception", "Open Hammer"]
    assert strs(run(seed_snapshot, f"{sm}.<actors[is Movie].@character").result) == [
        "Doc Boom", "Fissure"]


def test_dedup_discrepancy(seed_snapshot):
    formal = run(seed_snapshot, "Movie.directors")
    assert ids(formal.result) == ["1", "11", "11"]
    deduped = run(seed_snapshot, "Movie.directors", dedup=True)
    assert ids(deduped.result) == ["1", "11"]


def test_shaped_query_matches_displayed_value(seed_snapshot):
    out = run(seed_snapshot,
              "select Movie { title, year, directors: { name, age },"
              " actors: { name, @character }}")
    tr = next(w for w in out.result if w.shape[TITLE].values == [StrVal("Transistors")])
    assert tr.shape[YEAR].values == [IntVal(2007)]
    (director,) = tr.shape[DIRECTORS].values
    assert director.shape[NAME].values == [StrVal("Michael Cove")]
    # age 60 per the store tables (the narrative flow shows 53; store wins)
    assert director.shape[AGE].values == [IntVal(60)]
    actors = tr.shape[ACTORS].values
    assert [(a.shape[NAME].values, a.shape[CHAR].values) for a in actors] == [
        ([StrVal("Megan Wolf")], [StrVal("Meg Tech")]),
        ([StrVal("Shy Andbuff")], [StrVal("Sam Man")]),
    ]
    # every attached entry is visible
    assert all(e.visible for e in tr.shape.values())


def test_shaping_attaches_new_entries(seed_snapshot):
    out = run(seed_snapshot, "Movie { rating := 4 }")
    assert ids(out.result) == ["7", "8", "9"]
    for w in out.result:
        assert w.shape[RATING] == vis([IntVal(4)])


def test_shaping_loads_stored_properties(seed_snapshot):
    out = run(seed_snapshot, "Movie { year := .year }")
    assert {w.id: w.shape[YEAR].values[0].value for w in out.result} == {
        "7": 2007, "8": 2010, "9": 2024}


def test_trivial_shape_keeps_bare_refs(seed_snapshot):
    out = run(seed_snapshot, "Movie {}")
    assert out.result == [ObjVal("7", {}), ObjVal("8", {}), ObjVal("9", {})]


def test_trivial_reshape_makes_entries_invisible(seed_snapshot):
    out = run(seed_snapshot, "Movie { rating := 4 } {}")
    for w in out.result:
        entry = w.shape[RATING]
        assert not entry.visible and entry.values == [IntVal(4)]


# -- helper operations -------------------------------------------------------

def test_project_prefers_carried_entry(seed_store):
    assert project(seed_store, TITLE, ObjVal("7", {})) == [StrVal("Transistors")]
    assert project(seed_store, RATING, ObjVal("7", {RATING: vis([IntVal(4)])})) == [IntVal(4)]
    # visibility marks are ignored by projection
    assert project(seed_store, RATING, ObjVal("7", {RATING: invis([IntVal(4)])})) == [IntVal(4)]


def test_project_db_fallback_carries_visible_link_props(seed_store):
    out = project(seed_store, ACTORS, ObjVal("7", {}))
    assert [w.id for w in out] == ["2", "5"]
    assert all(w.shape[CHAR].visible for w in out)


def test_project_faults(seed_store):
    with pytest.raises(EvalFault):
        project(seed_store, TITLE, IntVal(3))
    with pytest.raises(EvalFault):
        project(seed_store, RATING, ObjVal("7", {}))


def test_seek_goldens(seed_store):
    out = seek(seed_store, "Movie", DIRECTORS, "11")
    assert sorted(w.id for w in out) == ["8", "9"]
    assert all(w.shape == {} for w in out)

    out = seek(seed_store, "Movie", ACTORS, "6")
    assert sorted(w.id for w in out) == ["8", "9"]
    by_id = {w.id: w for w in out}
    assert by_id["8"].shape[CHAR].values == [StrVal("Fissure")]
    assert by_id["9"].shape[CHAR].values == [StrVal("Doc Boom")]
    # link properties picked up by a reverse traversal start out invisible
    assert not by_id["8"].shape[CHAR].visible

    assert seek(seed_store, "Movie", ACTORS, "11") == []


def test_seek_dedups_identical_occurrences(seed_schema, seed_store):
    from grql.model import Store, StoreTuple

    store = Store(dict(seed_store.tuples))
    rec = dict(store.tuples["7"].record)
    rec[DIRECTORS] = [StoredRef("1", {}), StoredRef("1", {})]
    store.tuples["7"] = StoreTuple("Movie", rec)
    # one result per distinct (source, link-property record) pair
    assert [w.id for w in seek(store, "Movie", DIRECTORS, "1")] == ["7"]


def test_record_extend():
    w = ObjVal("7", {RATING: vis([IntVal(4)])})
    out = record_extend(w, {})
    assert out.shape[RATING].values == [IntVal(4)] and not out.shape[RATING].visible

    out = record_extend(ObjVal("7", {}), {YEAR: vis([IntVal(2007)])})
    assert out.shape == {YEAR: vis([IntVal(2007)])}

    a, b = olabel("a"), olabel("b")
    out = record_extend(ObjVal("7", {a: vis([IntVal(1)]), b: vis([IntVal(2)])}),
                        {b: vis([IntVal(9)])})
    assert list(out.shape) == [b, a]
    assert out.shape[b] == vis([IntVal(9)])
    assert out.shape[a] == invis([IntVal(1)])


def test_strip_for_storage():
    assert strip_for_storage([IntVal(5)], ScalarType.INT) == [IntVal(5)]
    ty = StoredRefType("Person", ((CHAR, (ScalarType.STR, ONE)),))
    w = ObjVal("2", {NAME: vis([StrVal("Megan Wolf")]), CHAR: vis([StrVal("Meg Tech")])})
    assert strip_for_storage([w], ty) == [StoredRef("2", {CHAR: [StrVal("Meg Tech")]})]
    assert strip_for_storage([], ty) == []


def test_strip_missing_required_link_prop_faults():
    ty = StoredRefType("Person", ((CHAR, (ScalarType.STR, ONE)),))
    with pytest.raises(EvalFault) as err:
        strip_for_storage([ObjVal("2", {})], ty)
    assert err.value.code == "MissingLinkProp"
    # a lower bound of zero tolerates the absence and stores an empty sequence
    lax = StoredRefType("Person", ((CHAR, (ScalarType.STR, AT_MOST_ONE)),))
    assert strip_for_storage([ObjVal("2", {})], lax) == [StoredRef("2", {CHAR: []})]


def test_run_builtin_interpretations():
    refs = [ObjVal("7", {}), ObjVal("8", {}), ObjVal("9", {})]
    assert run_builtin("count", [refs]) == [IntVal(3)]
    assert run_builtin("coalesce", [[], [StrVal("a"), StrVal("b")]]) == [StrVal("a"), StrVal("b")]
    assert run_builtin("coalesce", [[StrVal("z")], [StrVal("a")]]) == [StrVal("z")]
    assert run_builtin("any", [[]]) == [BoolVal(False)]
    assert run_builtin("any", [[BoolVal(False), BoolVal(True)]]) == [BoolVal(True)]
    assert run_builtin("append", [[StrVal("a")], [StrVal("b")]]) == [StrVal("ab")]
    assert run_builtin("add", [[IntVal(2)], [IntVal(3)]]) == [IntVal(5)]
    assert run_builtin("lt", [[IntVal(2)], [IntVal(3)]]) == [BoolVal(True)]
    assert run_builtin("not", [[BoolVal(True)]]) == [BoolVal(False)]


def test_eq_on_refs_compares_ids_only():
    a = ObjVal("7", {RATING: vis([IntVal(4)])})
    b = ObjVal("7", {})
    assert run_builtin("eq", [[a], [b]]) == [BoolVal(True)]
    assert run_builtin("eq", [[a], [ObjVal("8", {})]]) == [BoolVal(False)]


def test_add_overflow_faults():
    with pytest.raises(EvalFault) as err:
        run_builtin("add", [[IntVal(2**62)], [IntVal(2**62)]])
    assert err.value.code == "BuiltinDomain"


def test_order_by_keys():
    a, b, c = IntVal(10), IntVal(20), IntVal(30)
    assert order_by_keys([(a, [IntVal(2)]), (b, [IntVal(1)]), (c, [])]) == [c, b, a]
    assert order_by_keys([(a, []), (b, [])]) == [a, b]
    assert order_by_keys([(a, [StrVal("x")]), (b, [StrVal("x")])]) == [a, b]
    assert order_by_keys([(a, [BoolVal(True)]), (b, [BoolVal(False)])]) == [b, a]
    with pytest.raises(EvalFault):
        order_by_keys([(a, [IntVal(1)]), (b, [StrVal("s")])])
    with pytest.raises(EvalFault):
        order_by_keys([(a, [ObjVal("7", {})])])


def test_surface_operator_goldens(seed_snapshot):
    cases = [
        ('count(Person filter .age = 38)', [IntVal(3)]),
        ('count(Person filter .age < 40)', [IntVal(3)]),
        ('count(Person filter not(.age < 50))', [IntVal(3)]),
        ('1 + 2 + 3', [IntVal(6)]),
        ('<str>{} ?? "fallback"', [StrVal("fallback")]),
        ('"value" ?? "fallback"', [StrVal("value")]),
        ('any(Movie.year < 2010)', [BoolVal(True)]),
        ('any(Movie.year < 2000)', [BoolVal(False)]),
        ('append("grand ", (Movie filter .year = 2024).title)', [StrVal("grand Open Hammer")]),
    ]
    for text, expected in cases:
        assert run(seed_snapshot, text).result == expected, text
    out = run(seed_snapshot, "Movie order by .year")
    assert [w.id for w in out.result] == ["7", "8", "9"]
    out = run(seed_snapshot, "(Movie order by .year).title")
    assert [v.value for v in out.result] == ["Transistors", "Interception", "Open Hammer"]


# -- mutation semantics -------------------------------------------------------

def test_read_isolation(seed_snapshot):
    out = run(seed_snapshot, "select Movie { title, n := count(.actors) }")
    assert out.store_after.tuples == seed_snapshot.store.tuples


def test_nested_insert_adds_two_tuples(seed_snapshot):
    out = run(seed_snapshot,
              'insert Movie { directors := (insert Person { name := "Paul Shiver",'
              ' age := 37, born := "Earth" }), title := "Frozen Planet",'
              ' year := 2011, actors := <Person>{} }')
    new_ids = set(out.store_after.tuples) - set(seed_snapshot.store.tuples)
    assert new_ids == {"12", "13"}
    person = out.store_after.tuples["12"]
    movie = out.store_after.tuples["13"]
    assert person.type_name == "Person" and "12" in out.store_after.locked
    assert person.record[NAME] == [StrVal("Paul Shiver")]
    assert movie.type_name == "Movie" and "13" in out.store_after.locked
    assert movie.record[DIRECTORS] == [StoredRef("12", {})]
    assert movie.record[ACTORS] == []
    (ref,) = out.result
    assert ref.id == "13"
    assert all(not e.visible for e in ref.shape.values())


def test_insert_reads_initial_store(seed_snapshot):
    # the new movie is not visible to Movie within the same query
    out = run(seed_snapshot,
              'with m := (insert Movie { title := "X", year := 1, directors := '
              '(insert Person { name := "d", age := 1, born := <str>{} }), '
              'actors := <Person>{} }) select count(Movie)')
    assert out.result == [IntVal(3)]


def test_double_update_first_wins(seed_snapshot):
    out = run(seed_snapshot,
              'with m := (Movie filter .title = "Transistors") select '
              "(update m set { year := 2008 }) union (update m set { year := 2009 })")
    assert len(out.result) == 1  # the second update returned []
    assert out.store_after.tuples["7"].record[YEAR] == [IntVal(2008)]
    assert "7" in out.store_after.locked


def test_update_of_fresh_insert_is_noop(seed_snapshot):
    out = run(seed_snapshot,
              'with p := (insert Person { name := "n", age := 1, born := <str>{} }) '
              "select update p set { age := 2 }")
    assert out.result == []
    new_id = (set(out.store_after.tuples) - set(seed_snapshot.store.tuples)).pop()
    assert out.store_after.tuples[new_id].record[AGE] == [IntVal(1)]


def test_update_keeps_unmentioned_labels(seed_snapshot):
    out = run(seed_snapshot,
              'update (Movie filter .title = "Transistors") set { year := 1999 }')
    tup = out.store_after.tuples["7"]
    assert tup.record[YEAR] == [IntVal(1999)]
    assert tup.record[TITLE] == [StrVal("Transistors")]
    assert tup.record[ACTORS] == seed_snapshot.store.tuples["7"].record[ACTORS]


def test_insert_ids_fresh_and_monotone(seed_snapshot):
    out = run(seed_snapshot,
              "for x in Movie union (insert Person { name := x.title, age := x.year,"
              " born := <str>{} })")
    new = sorted(set(out.store_after.tuples) - set(seed_snapshot.store.tuples), key=int)
    assert new == ["12", "13", "14"]
    assert [w.id for w in out.result] == new


def test_mutation_inside_shape_threads_store(seed_snapshot):
    out = run(seed_snapshot,
              'Movie { p := (insert Person { name := .title, age := 0, born := <str>{} }) }')
    new = set(out.store_after.tuples) - set(seed_snapshot.store.tuples)
    assert len(new) == 3


def test_default_config_allocates_past_the_initial_store(seed_snapshot):
    expr = desugar(parse_query('insert Person { name := "N", age := 1, born := <str>{} }'))
    out = evaluate(seed_snapshot.schema, EvalConfig(), {}, seed_snapshot.store, expr)
    (w,) = out.result
    assert w.id == str(seed_snapshot.store.max_numeric_id() + 1)
    assert w.id not in seed_snapshot.store.tuples


def test_zero_label_type_end_to_end():
    from grql.model import Store
    from grql.store_io import load_snapshot, save_snapshot
    from grql.serialize import serialize, to_json_text
    from grql.wellformed import check_store

    snap = load_snapshot(save_snapshot("type T { };", Store(), 1))
    expr = desugar(parse_query("insert T {}"))
    ty, m = synth(snap.schema, {}, expr)
    cfg = EvalConfig(next_id=snap.next_id)
    out = evaluate(snap.schema, cfg, {}, snap.store, expr)
    assert to_json_text(serialize(out.result, ty, m)) == '{"id":"1"}'
    assert check_store(snap.schema, out.store_after.unlock_all()) == []


def test_self_link_cycle_stays_well_formed():
    from grql.model import Store, StoredRef, olabel
    from grql.store_io import load_snapshot, save_snapshot
    from grql.wellformed import check_store, store_extends, type_computed_seq

    schema_text = 'type U { required name: str; friend: U; };'
    empty = load_snapshot(save_snapshot(schema_text, Store(), 1))
    seed_expr = desugar(parse_query('insert U { name := "a", friend := <U>{} }'))
    synth(empty.schema, {}, seed_expr)
    seeded = evaluate(empty.schema, EvalConfig(next_id=1), {},
                      empty.store, seed_expr)
    snap = load_snapshot(save_snapshot(schema_text, seeded.store_after.unlock_all(),
                                       seeded.next_id))

    cyc = desugar(parse_query("for u in U union (update u set { friend := u })"))
    ty, m = synth(snap.schema, {}, cyc)
    out = evaluate(snap.schema, EvalConfig(next_id=snap.next_id),
                   {}, snap.store, cyc)
    assert out.store_after.tuples["1"].record[olabel("friend")] == [StoredRef("1", {})]
    assert check_store(snap.schema, out.store_after.unlock_all()) == []
    assert store_extends(snap.store, out.store_after)
    assert type_computed_seq(snap.schema, snap.store, out.store_after, out.result, ty, m)


def test_defensive_faults_on_untyped_inputs(seed_snapshot):
    # these inputs never pass the checker; the evaluator still fails cleanly
    cfg = lambda: EvalConfig(next_id=seed_snapshot.next_id)

    def fault(e, env=None):
        with pytest.raises(EvalFault) as err:
            evaluate(seed_snapshot.schema, cfg(), env or {},
                     seed_snapshot.store, e)
        return err.value.code

    assert fault(core.Var("ghost")) == "UnboundVar"
    assert fault(core.Proj(core.Prim(IntVal(1)), TITLE)) == "NotARef"
    assert fault(core.Backlink(core.Prim(IntVal(1)), DIRECTORS, "Movie")) == "NotARef"
    assert fault(core.If(core.Prim(IntVal(1)), core.Prim(IntVal(1)),
                         core.Prim(IntVal(2)))) == "Stuck"
    assert fault(core.Update(core.Name("Movie"), "x", [])) == "Stuck"
    assert fault(core.Call("nope", [])) == "Stuck"
    assert fault(core.Proj(core.Name("Movie"), RATING)) == "MissingLabel"


ADVERSARIAL = [
    # repeated shadowing may change an entry's type; the last shape wins
    "Movie { title := .title } { title := 1 } { title := true }",
    # nested shapes, then projection of the carried entries
    "(Movie { d := .directors { n := count(.name) } }).d.n",
    # ordering by a computed entry
    "(Movie { k := .year + 1 }) order by .k",
    # backlinks from reshaped subjects
    '((Person { z := 1 }) filter .name = "Christopher Nolens").<directors[is Movie].title',
    # link reassignment: stored link props round-trip through projection
    "for m in Movie union (update m set { actors := m.actors })",
    # new link with a link property attached via shaping
    'insert Movie { title := "S", year := 1, directors := (insert Person '
    '{ name := "d", age := 0, born := <str>{} }), '
    'actors := Person { @character := "extra" } }',
    # conditionals on data choosing between mutations (branch types must agree)
    'for p in Person union (if p.age < 40 then (update p set { born := "young" }) '
    'else (update p set { born := "old" }))',
    # coalesce across object sequences, empty and not
    "count(coalesce(<Person>{}, Movie.directors))",
    "Movie filter any(.actors.@character = \"Fissure\")",
    # order by an optional key where some elements lack a value
    "(Person { k := .born }) order by .k",
]


@pytest.mark.parametrize("text", ADVERSARIAL)
def test_adversarial_battery(seed_snapshot, text):
    from grql.harness import inserted_fingerprints, result_fingerprint
    from grql.wellformed import check_store, store_extends, type_computed_seq

    expr = desugar(parse_query(text))
    ty, card = synth(seed_snapshot.schema, {}, expr)
    prints = []
    for seed in (None, 21, 22):
        cfg = EvalConfig(permutation_seed=seed, next_id=seed_snapshot.next_id)
        out = evaluate(seed_snapshot.schema, cfg, {}, seed_snapshot.store, expr)
        assert type_computed_seq(seed_snapshot.schema, seed_snapshot.store,
                                 out.store_after, out.result, ty, card), text
        assert check_store(seed_snapshot.schema, out.store_after.unlock_all()) == [], text
        assert store_extends(seed_snapshot.store, out.store_after), text
        base_ids = set(seed_snapshot.store.tuples)
        prints.append((result_fingerprint(out.result, out.store_after, base_ids),
                       inserted_fingerprints(out.store_after, base_ids)))
    assert prints[0] == prints[1] == prints[2], text


def test_seeded_runs_permutation_equivalent(seed_snapshot):
    text = "select Movie { title, ch := .actors.@character }"
    base = run(seed_snapshot, text).result
    for seed in (3, 4):
        other = run(seed_snapshot, text, seed=seed).result
        assert len(other) == len(base)
        for w in base:
            match = next(o for o in other if o.id == w.id)
            for lbl, entry in w.shape.items():
                assert seq_perm_eq(entry.values, match.shape[lbl].values)
