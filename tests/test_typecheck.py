"""Type-and-cardinality synthesis over the running schema."""

import pytest

from grql import core
from grql.desugar import desugar
from grql.model import (
    AT_LEAST_ONE,
    AT_MOST_ONE,
    BoolVal,
    EMPTY,
    IntVal,
    MANY,
    ONE,
    ObjType,
    ScalarType,
    StrVal,
    llabel,
    olabel,
)
from grql.parser import parse_query
from grql.typecheck import TypeCheckError, check_against_stored, resolve_builtin, synth
from grql.model import StoredRefType

TITLE, YEAR = olabel("title"), olabel("year")
NAME, AGE = olabel("name"), olabel("age")
DIRECTORS, ACTORS = olabel("directors"), olabel("actors")
CHAR = llabel("character")


def synth_text(schema, text):
    return synth(schema, {}, desugar(parse_query(text)))


def err_code(schema, text):
    with pytest.raises(TypeCheckError) as err:
        synth_text(schema, text)
    return err.value.code


def test_prim(seed_schema):
    assert synth_text(seed_schema, "3") == (ScalarType.INT, ONE)
    assert synth_text(seed_schema, '"hi"') == (ScalarType.STR, ONE)
    assert synth_text(seed_schema, "true") == (ScalarType.BOOL, ONE)


def test_empty_annotation(seed_schema):
    assert synth_text(seed_schema, "<int>{}") == (ScalarType.INT, EMPTY)
    assert synth_text(seed_schema, "<Person>{}") == (ObjType("Person", {}), EMPTY)
    assert err_code(seed_schema, "<Ghost>{}") == "UnknownName"


def test_name_and_projection_modes(seed_schema):
    assert synth_text(seed_schema, "Movie") == (ObjType("Movie", {}), MANY)
    # [1,inf] directors through a [0,inf] subject
    assert synth_text(seed_schema, "Movie.directors") == (ObjType("Person", {}), MANY)
    assert synth_text(seed_schema, "Movie.title") == (ScalarType.STR, MANY)
    assert err_code(seed_schema, "Ghost") == "UnknownName"
    assert err_code(seed_schema, "Movie.rating") == "NoSuchLabel"
    assert err_code(seed_schema, "Movie.title.year") == "NotAnObject"


def test_projection_prefers_carried_entries(seed_schema):
    # the shape overrides title at int#[1,1]; projecting yields the override
    e = desugar(parse_query("with m := Movie { title := 1 } select m.title"))
    assert synth(seed_schema, {}, e) == (ScalarType.INT, MANY)


def test_link_property_projection(seed_schema):
    assert synth_text(seed_schema, "Movie.actors.@character") == (ScalarType.STR, MANY)


def test_union_requires_matching_types(seed_schema):
    assert synth_text(seed_schema, "1 union 2") == (ScalarType.INT, AT_LEAST_ONE)
    assert err_code(seed_schema, '1 union "s"') == "BranchTypeMismatch"


def test_append_over_wide_arguments_is_lifted_but_direct_call_rejected(seed_schema):
    # the surface call form broadcasts: two pairs of strings give [1,inf]
    ty, card = synth_text(seed_schema, 'append("Hello " union "Bye ", "Alice" union "Bob")')
    assert (ty, card) == (ScalarType.STR, AT_LEAST_ONE)
    # the core dagger form with over-wide arguments has no type
    bad = core.Call("append", [
        core.Union(core.Prim(StrVal("a")), core.Prim(StrVal("b"))),
        core.Prim(StrVal("c")),
    ])
    with pytest.raises(TypeCheckError) as err:
        synth(seed_schema, {}, bad)
    assert err.value.code == "CardinalityExceeded"


def test_backlink_cardinality_and_type(seed_schema):
    e = desugar(parse_query("with p := Person select p.<actors[is Movie]"))
    ty, card = synth(seed_schema, {}, e)
    assert card == MANY
    assert ty == ObjType("Movie", {CHAR: (ScalarType.STR, AT_MOST_ONE)})
    assert err_code(seed_schema, "with p := Person select p.<title[is Movie]") == "NoSuchLabel"
    assert err_code(seed_schema, "with m := Movie select m.<actors[is Movie]") == "StoreTypeMismatch"


def test_shaped_running_query_type(seed_schema):
    ty, card = synth_text(
        seed_schema,
        "select Movie { title, year, directors: { name, age }, actors: { name, @character }}",
    )
    assert card == MANY
    assert isinstance(ty, ObjType) and ty.target == "Movie"
    assert ty.entries[TITLE] == (ScalarType.STR, ONE)
    assert ty.entries[YEAR] == (ScalarType.INT, ONE)
    dty, dcard = ty.entries[DIRECTORS]
    assert dcard == AT_LEAST_ONE
    assert dty == ObjType("Person", {NAME: (ScalarType.STR, ONE), AGE: (ScalarType.INT, ONE)})
    aty, acard = ty.entries[ACTORS]
    assert acard == MANY
    assert aty == ObjType("Person", {NAME: (ScalarType.STR, ONE),
                                     CHAR: (ScalarType.STR, AT_MOST_ONE)})


def test_if_requires_single_bool(seed_schema):
    assert synth_text(seed_schema, "if true then 1 else 2") == (ScalarType.INT, ONE)
    # branches may differ in mode; the result is the interval hull
    assert synth_text(seed_schema, "if true then 1 else <int>{}") == (ScalarType.INT, AT_MOST_ONE)
    assert err_code(seed_schema, "if 1 then 1 else 2") == "BranchTypeMismatch"
    assert err_code(seed_schema, 'if true then 1 else "s"') == "BranchTypeMismatch"
    bad = core.If(core.Union(core.Prim(BoolVal(True)), core.Prim(BoolVal(False))),
                  core.Prim(IntVal(1)), core.Prim(IntVal(2)))
    with pytest.raises(TypeCheckError) as err:
        synth(seed_schema, {}, bad)
    assert err.value.code == "CardinalityExceeded"


def test_for_multiplies_modes(seed_schema):
    assert synth_text(seed_schema, "for x in Movie union x.title") == (ScalarType.STR, MANY)
    assert synth_text(seed_schema, "for x in {1,2} union x") == (ScalarType.INT, AT_LEAST_ONE)


def test_orderby_returns_subject_type(seed_schema):
    assert synth_text(seed_schema, "Movie order by .year") == (ObjType("Movie", {}), MANY)
    assert err_code(seed_schema, "Movie order by (.title union .title)") == "KeyNotOptionalSingle"
    assert err_code(seed_schema, "Movie order by .directors") == "KeyNotOptionalSingle"


def test_unbound_variable():
    from grql.model import Schema

    with pytest.raises(TypeCheckError) as err:
        synth(Schema(), {}, core.Var("nope"))
    assert err.value.code == "UnboundVar"


def test_weakening(seed_schema):
    e = desugar(parse_query("count(Movie)"))
    base = synth(seed_schema, {}, e)
    extended = synth(seed_schema, {"unused": (ScalarType.INT, ONE)}, e)
    assert base == extended


def test_determinism(seed_schema):
    e = desugar(parse_query("select Movie { title, n := count(.actors) }"))
    assert synth(seed_schema, {}, e) == synth(seed_schema, {}, e)


# -- builtin signature resolution ---------------------------------------------

def test_resolve_count():
    assert resolve_builtin("count", [ObjType("Movie", {})]) == (ScalarType.INT, ONE)


def test_resolve_coalesce_polymorphic():
    assert resolve_builtin("coalesce", [ScalarType.STR, ScalarType.STR]) == (ScalarType.STR, MANY)


def test_resolve_eq_mismatch():
    with pytest.raises(TypeCheckError) as err:
        resolve_builtin("eq", [ScalarType.INT, ScalarType.STR])
    assert err.value.code == "NoSignature"


def test_resolve_unknown_name():
    with pytest.raises(TypeCheckError):
        resolve_builtin("bogus", [ScalarType.INT])


INT, STR, BOOL = ScalarType.INT, ScalarType.STR, ScalarType.BOOL
A, B = ObjType("A", {}), ObjType("B", {})
A_X1 = ObjType("A", {olabel("x"): (INT, ONE)})
A_XMANY = ObjType("A", {olabel("x"): (INT, MANY)})
UNIVERSE = (INT, STR, BOOL, A, B, A_X1, A_XMANY)

# Every (builtin, argument types, result) row that resolves; every other row
# over UNIVERSE has no signature. Object types are equal only when their
# targets and entries are, so eq and coalesce accept the diagonal.
RESOLVING = [
    *[("count", (t,), (INT, ONE)) for t in UNIVERSE],
    *[("eq", (t, t), (BOOL, ONE)) for t in UNIVERSE],
    ("append", (STR, STR), (STR, ONE)),
    *[("coalesce", (t, t), (t, MANY)) for t in UNIVERSE],
    ("any", (BOOL,), (BOOL, ONE)),
    ("add", (INT, INT), (INT, ONE)),
    ("lt", (INT, INT), (BOOL, ONE)),
    ("not", (BOOL,), (BOOL, ONE)),
]


def test_resolution_over_the_type_universe():
    from itertools import product

    from grql.builtins import REGISTRY

    rows = resolved = 0
    for name, spec in REGISTRY.items():
        for args in product(UNIVERSE, repeat=len(spec.modifiers)):
            expected = next((r for n, a, r in RESOLVING if n == name and a == args), None)
            assert spec.resolve(list(args)) == expected, (name, args)
            rows += 1
            resolved += expected is not None
    assert (rows, resolved) == (266, len(RESOLVING)) == (266, 26)


# -- the insert/update auxiliary judgment --------------------------------------

def test_check_against_stored_scalar(seed_schema):
    e = desugar(parse_query('"Paul Shiver"'))
    assert check_against_stored(seed_schema, {}, e, ScalarType.STR, ONE) is ScalarType.STR
    bad = desugar(parse_query("5"))
    with pytest.raises(TypeCheckError) as err:
        check_against_stored(seed_schema, {}, bad, ScalarType.STR, ONE)
    assert err.value.code == "StoreTypeMismatch"


def test_check_against_stored_empty_ref(seed_schema):
    actors_ty = StoredRefType("Person", ((CHAR, (ScalarType.STR, AT_MOST_ONE)),))
    e = desugar(parse_query("<Person>{}"))
    got = check_against_stored(seed_schema, {}, e, actors_ty, MANY)
    assert got == ObjType("Person", {})


def test_check_against_stored_requires_lb1_props(seed_schema):
    strict = StoredRefType("Person", ((CHAR, (ScalarType.STR, ONE)),))
    bare = desugar(parse_query("Person"))
    with pytest.raises(TypeCheckError) as err:
        check_against_stored(seed_schema, {}, bare, strict, MANY)
    assert err.value.code == "StoreTypeMismatch"
    carried = desugar(parse_query('Person { @character := "c" }'))
    got = check_against_stored(seed_schema, {}, carried, strict, MANY)
    assert got.entries[CHAR] == (ScalarType.STR, ONE)


def test_insert_type_and_mode(seed_schema):
    ty, card = synth_text(
        seed_schema,
        'insert Person { name := "P", age := 1, born := <str>{} }',
    )
    assert card == ONE
    assert ty.target == "Person"
    assert ty.entries[NAME] == (ScalarType.STR, ONE)
    assert ty.entries[olabel("born")] == (ScalarType.STR, AT_MOST_ONE)


def test_insert_must_cover_all_labels(seed_schema):
    assert err_code(seed_schema, 'insert Person { name := "P" }') == "StoreTypeMismatch"
    assert err_code(
        seed_schema,
        'insert Person { name := "P", age := 1, born := <str>{}, zap := 1 }',
    ) == "NoSuchLabel"


def test_insert_cardinality_checked(seed_schema):
    assert err_code(
        seed_schema,
        'insert Person { name := "a" union "b", age := 1, born := <str>{} }',
    ) == "CardinalityExceeded"


def test_update_subject_and_mode(seed_schema):
    # a bare update lifts; the inner dagger form wants a [1,1] subject
    ty, card = synth_text(seed_schema, "update Movie set { year := 2000 }")
    assert card == MANY  # [0,inf] subject times [0,1] per-element update
    assert ty.entries == {YEAR: (ScalarType.INT, ONE)}
    bad = core.Update(core.Name("Movie"), "x", [])
    with pytest.raises(TypeCheckError) as err:
        synth(seed_schema, {}, bad)
    assert err.value.code == "BadUpdateSubject"


def test_update_rejects_unknown_label(seed_schema):
    assert err_code(seed_schema, "update Movie set { rating := 1 }") == "NoSuchLabel"


def test_type_printer_surface_notation(seed_schema):
    ty, card = synth_text(seed_schema, "Movie.directors")
    assert f"{ty} # {card}" == "Person { } # [0, inf]"
    ty, card = synth_text(seed_schema, "Movie { title }")
    assert f"{ty} # {card}" == "Movie { title: str # [1, 1] } # [0, inf]"
    ty, card = synth_text(seed_schema, "Movie.actors")
    assert str(ty) == "Person { @character: str # [0, 1] }"
