"""Lexing, parsing, schema declarations, and printer round-trips."""

import pytest
from hypothesis import given, settings, strategies as st

from grql import core, surface as s
from grql.desugar import desugar
from grql.model import (
    AT_LEAST_ONE,
    AT_MOST_ONE,
    BoolVal,
    IntVal,
    MANY,
    ONE,
    ScalarType,
    StrVal,
    llabel,
    olabel,
)
from grql.parser import parse_query, parse_schema, schema_to_source
from grql.surface import ParseError, format_expr

SCHEMA_TEXT = """\
type Person { required name: str; required age: int64; born: str; };
type Movie {
  required title: str;
  required year: int64;
  required multi directors: Person;
  multi actors: Person { character: str; }; };
"""


def test_parse_running_schema():
    schema, diags = parse_schema(SCHEMA_TEXT)
    assert diags == []
    assert list(schema.types) == ["Person", "Movie"]
    person, movie = schema.types["Person"], schema.types["Movie"]
    assert len(person.labels) == 3
    assert len(movie.labels) == 4
    modes = {str(lbl): card for lbl, (_, card) in movie.labels.items()}
    assert modes["title"] == ONE
    assert modes["directors"] == AT_LEAST_ONE
    assert modes["actors"] == MANY
    actors, _ = movie.labels[olabel("actors")]
    assert actors.target == "Person"
    assert len(actors.link_props) == 1
    prop_label, (prop_scalar, prop_card) = actors.link_props[0]
    assert prop_label == llabel("character")
    assert prop_scalar is ScalarType.STR
    assert prop_card == AT_MOST_ONE  # the unannotated default


def test_parse_empty_type_body():
    schema, diags = parse_schema("type T { }")
    assert diags == []
    assert list(schema.types) == ["T"] and schema.types["T"].labels == {}


def test_parse_schema_missing_type_is_error():
    with pytest.raises(ParseError):
        parse_schema("type T { x: }")


def test_schema_round_trips_through_printer():
    schema, diags = parse_schema(SCHEMA_TEXT)
    assert diags == []
    text = schema_to_source(schema)
    again, diags2 = parse_schema(text)
    assert diags2 == []
    assert again == schema


def test_duplicate_label_reported():
    _, diags = parse_schema("type T { x: str; x: int64; };")
    assert any(d.code == "DuplicateLabel" for d in diags)


def test_duplicate_type_dropped_whole():
    schema, diags = parse_schema("type T { a: str; };\n"
                                 "type T { x: int; x: str; };")
    # the second body is dropped, and its own repeated label is not reported
    assert list(schema.types["T"].labels) == [olabel("a")]
    assert [str(d) for d in diags] == ["DuplicateTypeName T type declared more than once"]


def test_duplicate_link_property_reported():
    schema, diags = parse_schema("type U { n: str; };\n"
                                 "type T { l: U { p: str; p: int; q: int; }; };")
    ty, _ = schema.types["T"].labels[olabel("l")]
    assert [lbl for lbl, _ in ty.link_props] == [llabel("p"), llabel("q")]
    assert ty.link_props[0][1][0] is ScalarType.STR  # the first declaration wins
    assert [str(d) for d in diags] == [
        "DuplicateLabel T.l.@p link property declared more than once"]


def test_select_shape_shorthand():
    shape = parse_query("select Movie { title, year }")
    assert isinstance(shape, s.Shape)  # `select` is inert and leaves no node
    assert shape.subject == s.Var("Movie")
    assert desugar(shape.subject) == core.Name("Movie")
    labels = [str(lbl) for lbl, _ in shape.entries]
    assert labels == ["title", "year"]
    for lbl, entry in shape.entries:
        assert entry == s.Path(s.Var(s.IMPLICIT), lbl)


def test_set_literal():
    e = parse_query("{2,3,4}")
    assert e == s.SetLit([s.ScalarLit(IntVal(2)), s.ScalarLit(IntVal(3)), s.ScalarLit(IntVal(4))])


def test_nested_set_literal_parses_nested():
    e = parse_query("{{{2}, {3, {4}}}}")
    assert isinstance(e, s.SetLit)
    assert isinstance(e.items[0], s.SetLit)


def test_union_keyword_is_set_literal():
    assert parse_query("2 union 3") == s.SetLit([s.ScalarLit(IntVal(2)), s.ScalarLit(IntVal(3))])


def test_empty_braces_need_cast():
    with pytest.raises(ParseError):
        parse_query("{}")
    assert parse_query("<int>{}") == s.EmptyCast("int")
    assert parse_query("<Person>{}") == s.EmptyCast("Person")


def test_backlink_syntax():
    e = parse_query("with x := Person select x.<directors[is Movie]")
    assert isinstance(e, s.With)
    assert e.body == s.Backlink(s.Var("x"), olabel("directors"), "Movie")


def test_leading_dot_requires_scope():
    with pytest.raises(ParseError):
        parse_query(".title")
    e = parse_query("Movie { t := .title }")
    assert isinstance(e, s.Shape)


def test_string_escapes():
    e = parse_query('"a\\"b\\\\c\\nd"')
    assert e == s.ScalarLit(StrVal('a"b\\c\nd'))
    with pytest.raises(ParseError):
        parse_query('"bad \\q escape"')


def test_keywords_case_insensitive_identifiers_not():
    assert parse_query("SELECT Movie") == s.Var("Movie")
    assert parse_query("movie") == s.Var("movie")
    assert desugar(parse_query("movie")) == core.Name("movie")  # an unbound name is a type
    assert parse_query("TRUE") == s.ScalarLit(BoolVal(True))


def test_comments_ignored():
    e = parse_query("2 # trailing comment\nunion 3")
    assert isinstance(e, s.SetLit)


def test_trailing_input_rejected():
    with pytest.raises(ParseError) as err:
        parse_query("2 3")
    assert err.value.span[0] >= 2


def test_parse_error_spans_inside_input():
    bad = ["select", "Movie {", "2 +", '<int>{', "update Movie set"]
    for text in bad:
        with pytest.raises(ParseError) as err:
            parse_query(text)
        lo, hi = err.value.span
        assert 0 <= lo <= hi <= len(text)


def test_infix_operators():
    assert parse_query("1 + 2") == s.Call("add", [s.ScalarLit(IntVal(1)), s.ScalarLit(IntVal(2))])
    assert parse_query("1 < 2") == s.Call("lt", [s.ScalarLit(IntVal(1)), s.ScalarLit(IntVal(2))])
    assert parse_query('"a" = "b"') == s.Call("eq", [s.ScalarLit(StrVal("a")), s.ScalarLit(StrVal("b"))])
    assert parse_query("<int>{} ?? 5") == s.Call("coalesce", [s.EmptyCast("int"), s.ScalarLit(IntVal(5))])


def test_format_examples():
    assert format_expr(s.SetLit([s.ScalarLit(IntVal(n)) for n in (2, 3, 4)])) == "{2, 3, 4}"
    assert format_expr(s.Path(s.Var("Movie"), olabel("title"))) == "Movie.title"
    assert format_expr(s.Backlink(s.Var("x"), olabel("directors"), "Movie")) == "x.<directors[is Movie]"


# -- printer round-trip over generated surface trees -------------------------

_names = st.sampled_from(["Movie", "Person", "T0"])
_vars = st.sampled_from(["x", "y", "z"])
_labels = st.sampled_from([olabel("title"), olabel("year"), llabel("character")])


def _exprs(bound: tuple[str, ...], implicit: bool, depth: int):
    leaves = [
        st.builds(s.ScalarLit, st.builds(IntVal, st.integers(-99, 99))),
        st.builds(s.ScalarLit, st.builds(StrVal, st.text(alphabet="ab\"\\\n", max_size=4))),
        st.builds(s.ScalarLit, st.builds(BoolVal, st.booleans())),
        st.builds(s.EmptyCast, st.sampled_from(["int", "str", "bool", "Person"])),
        st.builds(s.Var, _names),
    ]
    if bound:
        leaves.append(st.builds(s.Var, st.sampled_from(sorted(bound))))
    if implicit:
        leaves.append(st.builds(s.Path, st.just(s.Var(s.IMPLICIT)), _labels))
    leaf = st.one_of(leaves)
    if depth <= 0:
        return leaf

    sub = _exprs(bound, implicit, depth - 1)

    def with_binder(var):
        return st.tuples(sub, _exprs(tuple(set(bound) | {var}), implicit, depth - 1))

    composites = [
        st.lists(sub, min_size=1, max_size=3).map(s.SetLit),
        st.builds(s.Path, sub, _labels),
        st.builds(s.Backlink, sub, st.just(olabel("directors")), _names),
        st.builds(s.Call, st.sampled_from(["count", "eq", "coalesce"]),
                  st.lists(sub, min_size=1, max_size=2)),
        st.builds(s.If, sub, sub, sub),
        # shapes, filters and order-by introduce the implicit subject
        st.builds(
            s.Shape, sub,
            st.lists(st.tuples(st.sampled_from([olabel("a"), olabel("b")]),
                               _exprs(bound, True, depth - 1)),
                     min_size=0, max_size=2, unique_by=lambda kv: kv[0]),
        ),
        st.builds(s.Filter, sub, _exprs(bound, True, depth - 1)),
        st.builds(s.OrderBy, sub, _exprs(bound, True, depth - 1)),
        st.builds(s.Insert, _names,
                  st.lists(st.tuples(st.sampled_from([olabel("a"), olabel("b")]), sub),
                           min_size=0, max_size=2, unique_by=lambda kv: kv[0])),
        st.builds(s.Update, sub,
                  st.lists(st.tuples(st.sampled_from([olabel("a"), olabel("b")]),
                                     _exprs(bound, True, depth - 1)),
                           min_size=1, max_size=2, unique_by=lambda kv: kv[0])),
    ]
    for var in ("x", "y"):
        composites.append(
            with_binder(var).map(lambda be, v=var: s.With(v, be[0], be[1])))
        composites.append(
            with_binder(var).map(lambda be, v=var: s.For(v, be[0], be[1])))
    return st.one_of(leaf, *composites)


@settings(max_examples=300, deadline=None)
@given(_exprs((), False, 3))
def test_parse_format_round_trip(e):
    text = format_expr(e)
    assert parse_query(text) == e
