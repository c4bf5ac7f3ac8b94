"""Schema/store well-formedness, value typing, and store extension."""

from grql.model import (
    AT_LEAST_ONE,
    AT_MOST_ONE,
    EMPTY,
    IntVal,
    MANY,
    ONE,
    ObjType,
    ObjVal,
    ObjectTypeDecl,
    ScalarType,
    Schema,
    Store,
    StoreTuple,
    StoredRef,
    StoredRefType,
    StrVal,
    invis,
    llabel,
    olabel,
    vis,
)
from grql.wellformed import (
    check_schema,
    check_store,
    store_extends,
    type_computed_seq,
    type_stored_seq,
)

NAME, AGE, BORN = olabel("name"), olabel("age"), olabel("born")
TITLE, YEAR = olabel("title"), olabel("year")
DIRECTORS, ACTORS = olabel("directors"), olabel("actors")
CHAR = llabel("character")


def codes(diags):
    return {d.code for d in diags}


def test_running_schema_ok(seed_schema):
    assert check_schema(seed_schema) == []


def test_undefined_target():
    schema = Schema({
        "Movie": ObjectTypeDecl({DIRECTORS: (StoredRefType("Director"), AT_LEAST_ONE)}),
    })
    assert codes(check_schema(schema)) == {"UndefinedTypeName"}


def test_label_kind_clash_across_roles():
    # "name" used as a Person property and as a link property elsewhere
    schema = Schema({
        "Person": ObjectTypeDecl({NAME: (ScalarType.STR, ONE)}),
        "Movie": ObjectTypeDecl({
            ACTORS: (StoredRefType("Person", ((llabel("name"), (ScalarType.STR, ONE)),)), MANY),
        }),
    })
    assert "LabelKindClash" in codes(check_schema(schema))


def test_running_store_ok(seed_schema, seed_store):
    assert check_store(seed_schema, seed_store) == []


def test_store_cardinality_violation(seed_schema, seed_store):
    store = Store(dict(seed_store.tuples))
    broken = StoreTuple("Movie", dict(store.tuples["7"].record))
    broken.record[DIRECTORS] = []  # declared [1,inf]
    store.tuples["7"] = broken
    assert "CardinalityViolation" in codes(check_store(seed_schema, store))


def test_store_dangling_ref(seed_schema, seed_store):
    store = Store(dict(seed_store.tuples))
    broken = StoreTuple("Movie", dict(store.tuples["7"].record))
    broken.record[ACTORS] = [StoredRef("99", {CHAR: [StrVal("Ghost")]})]
    store.tuples["7"] = broken
    assert "DanglingRef" in codes(check_store(seed_schema, store))


def test_store_missing_and_extra_labels(seed_schema, seed_store):
    store = Store(dict(seed_store.tuples))
    rec = dict(store.tuples["1"].record)
    del rec[BORN]
    rec[olabel("extra")] = [IntVal(1)]
    store.tuples["1"] = StoreTuple("Person", rec)
    found = codes(check_store(seed_schema, store))
    assert {"MissingLabel", "ExtraLabel"} <= found


def test_store_value_type_mismatch(seed_schema, seed_store):
    store = Store(dict(seed_store.tuples))
    rec = dict(store.tuples["1"].record)
    rec[AGE] = [StrVal("old")]
    store.tuples["1"] = StoreTuple("Person", rec)
    assert "ValueTypeMismatch" in codes(check_store(seed_schema, store))


def test_store_unknown_type(seed_schema, seed_store):
    store = Store(dict(seed_store.tuples))
    store.tuples["50"] = StoreTuple("Alien", {})
    assert "UnknownType" in codes(check_store(seed_schema, store))


# -- stored-value sequence typing ---------------------------------------------

def test_stored_seq_scalar(seed_schema, seed_store):
    assert type_stored_seq(seed_schema, seed_store, [StrVal("Transistors")], ScalarType.STR, ONE)
    assert not type_stored_seq(seed_schema, seed_store, [], ScalarType.STR, ONE)
    assert not type_stored_seq(seed_schema, seed_store, [IntVal(5)], ScalarType.STR, ONE)


def test_stored_seq_refs_with_link_props(seed_schema, seed_store):
    ty = StoredRefType("Person", ((CHAR, (ScalarType.STR, ONE)),))
    vals = [
        StoredRef("2", {CHAR: [StrVal("Meg Tech")]}),
        StoredRef("5", {CHAR: [StrVal("Sam Man")]}),
    ]
    assert type_stored_seq(seed_schema, seed_store, vals, ty, MANY)
    # wrong target type
    assert not type_stored_seq(seed_schema, seed_store, [StoredRef("7", {CHAR: []})], ty, MANY)
    # missing link property record
    assert not type_stored_seq(seed_schema, seed_store, [StoredRef("2", {})], ty, MANY)


# -- computed-value sequence typing -------------------------------------------

def test_computed_empty_always_types_at_many(seed_schema, seed_store):
    assert type_computed_seq(seed_schema, seed_store, seed_store, [], ScalarType.INT, MANY)
    assert type_computed_seq(seed_schema, seed_store, seed_store, [],
                             ObjType("Movie", {}), MANY)


def test_computed_stored_ref(seed_schema, seed_store):
    vals = [ObjVal("7", {})]
    assert type_computed_seq(seed_schema, seed_store, seed_store, vals, ObjType("Movie", {}), MANY)
    assert not type_computed_seq(seed_schema, seed_store, seed_store, vals,
                                 ObjType("Person", {}), MANY)


def test_computed_entries_must_match_exactly(seed_schema, seed_store):
    ty = ObjType("Movie", {TITLE: (ScalarType.STR, ONE)})
    good = [ObjVal("7", {TITLE: vis([StrVal("Transistors")])})]
    bare = [ObjVal("7", {})]
    assert type_computed_seq(seed_schema, seed_store, seed_store, good, ty, MANY)
    assert not type_computed_seq(seed_schema, seed_store, seed_store, bare, ty, MANY)


def test_computed_new_ref_needs_all_labels_and_lock(seed_schema, seed_store):
    full_entries = {
        TITLE: (ScalarType.STR, ONE),
        YEAR: (ScalarType.INT, ONE),
        DIRECTORS: (ObjType("Person", {}), AT_LEAST_ONE),
        ACTORS: (ObjType("Person", {}), MANY),
    }
    new_val = ObjVal("40", {
        TITLE: invis([StrVal("New")]),
        YEAR: invis([IntVal(2030)]),
        DIRECTORS: invis([ObjVal("1", {})]),
        ACTORS: invis([]),
    })
    ext = seed_store.with_tuple("40", StoreTuple("Movie", {
        TITLE: [StrVal("New")], YEAR: [IntVal(2030)],
        DIRECTORS: [StoredRef("1", {})], ACTORS: [],
    }))
    ty = ObjType("Movie", full_entries)
    assert type_computed_seq(seed_schema, seed_store, ext, [new_val], ty, ONE)

    # dropping one carried label breaks the new-ref label-coverage premise
    partial = ObjVal("40", {k: v for k, v in new_val.shape.items() if k != ACTORS})
    ty_partial = ObjType("Movie", {k: v for k, v in full_entries.items() if k != ACTORS})
    assert not type_computed_seq(seed_schema, seed_store, ext, [partial], ty_partial, ONE)

    # an unlocked extension tuple does not type either
    ext_unlocked = Store(ext.tuples)
    assert not type_computed_seq(seed_schema, seed_store, ext_unlocked, [new_val], ty, ONE)


def test_computed_monotone_in_extension(seed_schema, seed_store):
    # typing holds with the initial store extended by an unrelated insert
    vals = [ObjVal("7", {})]
    ty = ObjType("Movie", {})
    ext = seed_store.with_tuple("77", StoreTuple("Person", {
        NAME: [StrVal("X")], AGE: [IntVal(1)], BORN: [],
    }))
    assert store_extends(seed_store, ext)
    assert type_computed_seq(seed_schema, seed_store, seed_store, vals, ty, MANY)
    assert type_computed_seq(seed_schema, seed_store, ext, vals, ty, MANY)


def test_stored_typing_implies_computed_typing(seed_schema, seed_store):
    # lift each stored record cell and retype it as a computed value
    from grql.evaluator import project

    for id, tup in seed_store.tuples.items():
        decl = seed_schema.decl(tup.type_name)
        for lbl, (sty, scard) in decl.labels.items():
            assert type_stored_seq(seed_schema, seed_store, tup.record[lbl], sty, scard)
            computed = project(seed_store, lbl, ObjVal(id, {}))
            from grql.model import stored_to_computed_type

            assert type_computed_seq(seed_schema, seed_store, seed_store, computed,
                                     stored_to_computed_type(sty), scard)


# -- store extension -----------------------------------------------------------

def test_extension_reflexive(seed_store):
    assert store_extends(seed_store, seed_store)


def test_extension_with_fresh_locked_insert(seed_store):
    ext = seed_store.with_tuple("90", StoreTuple("Person", {NAME: [StrVal("N")], AGE: [IntVal(2)], BORN: []}))
    assert store_extends(seed_store, ext)
    # but not the other way round
    assert not store_extends(ext, seed_store)


def test_extension_rejects_changed_unlocked_tuple(seed_store):
    rec = dict(seed_store.tuples["1"].record)
    rec[AGE] = [IntVal(61)]
    ext = Store({**seed_store.tuples, "1": StoreTuple("Person", rec)})
    assert not store_extends(seed_store, ext)
    # locking the modified tuple makes it a legal edit
    ext = Store(ext.tuples, frozenset({"1"}))
    assert store_extends(seed_store, ext)


def test_shaped_query_result_types_at_synthesized_type(seed_snapshot):
    from grql.desugar import desugar
    from grql.evaluator import EvalConfig, evaluate
    from grql.parser import parse_query
    from grql.typecheck import synth

    expr = desugar(parse_query(
        "select Movie { title, year, directors: { name, age },"
        " actors: { name, @character }}"))
    ty, card = synth(seed_snapshot.schema, {}, expr)
    cfg = EvalConfig(next_id=seed_snapshot.next_id)
    out = evaluate(seed_snapshot.schema, cfg, {}, seed_snapshot.store, expr)
    assert type_computed_seq(seed_snapshot.schema, seed_snapshot.store,
                             out.store_after, out.result, ty, card)


def test_extension_transitive(seed_store):
    mid = seed_store.with_tuple("90", StoreTuple("Person", {NAME: [StrVal("A")], AGE: [IntVal(1)], BORN: []}))
    top = mid.with_tuple("91", StoreTuple("Person", {NAME: [StrVal("B")], AGE: [IntVal(2)], BORN: []}))
    assert store_extends(seed_store, mid) and store_extends(mid, top)
    assert store_extends(seed_store, top)


# -- store-check diagnostics golden --------------------------------------------

def _corrupted_stores(inst, rng):
    """Copies of a generated store, each with one seeded corruption, then one
    with all of them at once; a corruption that does not apply is skipped."""
    import copy

    from grql.model import BoolVal

    wrong_scalar = {ScalarType.INT: StrVal("x"), ScalarType.STR: BoolVal(True),
                    ScalarType.BOOL: IntVal(1)}
    ids = list(inst.store.tuples)
    typed = [(id, lbl, ty, card)
             for id in ids
             for lbl, (ty, card) in inst.schema.decl(inst.store.tuples[id].type_name).labels.items()]
    scalars = [t for t in typed if isinstance(t[2], ScalarType)]
    refs = [t for t in typed if isinstance(t[2], StoredRefType)]
    propped = [(id, lbl, ty, card) for id, lbl, ty, card in refs
               if ty.link_props and inst.store.tuples[id].record[lbl]]

    def unknown_type(tuples):
        id = rng.choice(ids)
        tuples[id].type_name = "Nope"

    def missing_label(tuples):
        id, lbl, _, _ = rng.choice(typed)
        del tuples[id].record[lbl]

    def extra_label(tuples):
        tuples[rng.choice(ids)].record["zz"] = [IntVal(0)]

    def cardinality(tuples):
        id, lbl, _, card = rng.choice(typed)
        seq = tuples[id].record[lbl]
        tuples[id].record[lbl] = [] if card.lo == 1 else seq * 2 if card.hi == 1 and seq else seq

    def wrong_scalar_type(tuples):
        id, lbl, ty, _ = rng.choice(scalars)
        tuples[id].record[lbl] = [wrong_scalar[ty]] + tuples[id].record[lbl][1:]

    def dangling_ref(tuples):
        id, lbl, _, _ = rng.choice(refs)
        tuples[id].record[lbl] = tuples[id].record[lbl] + [StoredRef("99999")]

    def wrong_target(tuples):
        id, lbl, ty, _ = rng.choice(refs)
        others = [o for o in ids if inst.store.tuples[o].type_name != ty.target]
        if others:
            tuples[id].record[lbl] = [StoredRef(rng.choice(others))]

    def link_prop(tuples):
        id, lbl, ty, _ = rng.choice(propped)
        props = tuples[id].record[lbl][0].link_props
        plbl, (pty, pcard) = rng.choice(ty.link_props)
        match rng.randrange(4):
            case 0:
                del props[plbl]
            case 1:
                props["@zz"] = []
            case 2:
                props[plbl] = [wrong_scalar[pty]]
            case 3:
                # an undeclared property is reported before the declared ones
                props[plbl] = [] if pcard.lo == 1 else props[plbl] * 2 + [wrong_scalar[pty]]
                props["@zz"] = []

    corruptions = [unknown_type, missing_label, extra_label, cardinality]
    corruptions += [wrong_scalar_type] if scalars else []
    corruptions += [dangling_ref, wrong_target] if refs else []
    corruptions += [link_prop] if propped else []
    everything = copy.deepcopy(inst.store.tuples)
    for corrupt in corruptions:
        tuples = copy.deepcopy(inst.store.tuples)
        corrupt(tuples)
        yield Store(tuples)
    for corrupt in reversed(corruptions):
        corrupt(everything)
    yield Store(everything)


# sha256 over the diagnostic lines of check_store on the corrupted copies of
# the default-config generated stores for seeds 0..499; a change to a
# diagnostic's code, path, message or order changes it
STORE_DIAGNOSTICS_DIGEST = "c581778cc473b96e80078abbfdfb6d2101261c6d6dd782b9a6e4426ebe9fa346"


def test_store_diagnostics_match_golden_digest():
    import hashlib
    import random

    from grql.harness import GenConfig, gen_instance

    h = hashlib.sha256()
    for seed in range(500):
        inst = gen_instance(GenConfig(seed=seed))
        for store in _corrupted_stores(inst, random.Random(seed)):
            h.update(repr([str(d) for d in check_store(inst.schema, store)]).encode())
    assert h.hexdigest() == STORE_DIAGNOSTICS_DIGEST
