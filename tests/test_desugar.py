"""Structural checks of the lowering to core syntax: derived-form expansions
are compared against hand-built trees up to binder renaming."""

import pytest

from grql import core
from grql.desugar import DesugarError, desugar
from grql.model import BoolVal, IntVal, ScalarType, StrVal, llabel, olabel
from grql.parser import parse_query


def alpha_eq(a: core.Expr, b: core.Expr, env: dict | None = None) -> bool:
    """Structural equality up to a bijective renaming of binders."""
    env = env or {}

    def var_eq(x: str, y: str) -> bool:
        return env.get(x, x if x not in env else None) == y if x in env else x == y

    match (a, b):
        case (core.Var(name=x), core.Var(name=y)):
            return env.get(x, x) == y
        case (core.Prim(value=u), core.Prim(value=v)):
            return u == v
        case (core.Empty(ty=t1, of_var=v1), core.Empty(ty=t2, of_var=v2)):
            if (v1 is None) != (v2 is None):
                return False
            if v1 is not None:
                return env.get(v1, v1) == v2
            return t1 == t2
        case (core.Union(left=l1, right=r1), core.Union(left=l2, right=r2)):
            return alpha_eq(l1, l2, env) and alpha_eq(r1, r2, env)
        case (core.Name(type_name=n1), core.Name(type_name=n2)):
            return n1 == n2
        case (core.Proj(subject=s1, label=lb1), core.Proj(subject=s2, label=lb2)):
            return lb1 == lb2 and alpha_eq(s1, s2, env)
        case (core.Backlink(subject=s1, label=lb1, type_name=n1),
              core.Backlink(subject=s2, label=lb2, type_name=n2)):
            return lb1 == lb2 and n1 == n2 and alpha_eq(s1, s2, env)
        case (core.Shaping(subject=s1, binder=x1, shape=sh1),
              core.Shaping(subject=s2, binder=x2, shape=sh2)):
            if len(sh1) != len(sh2) or not alpha_eq(s1, s2, env):
                return False
            inner = {**env, x1: x2}
            return all(l1 == l2 and alpha_eq(e1, e2, inner)
                       for (l1, e1), (l2, e2) in zip(sh1, sh2))
        case (core.Call(fn=f1, args=a1), core.Call(fn=f2, args=a2)):
            return f1 == f2 and len(a1) == len(a2) and all(
                alpha_eq(x, y, env) for x, y in zip(a1, a2))
        case (core.If(cond=c1, then_branch=t1, else_branch=f1),
              core.If(cond=c2, then_branch=t2, else_branch=f2)):
            return (alpha_eq(c1, c2, env) and alpha_eq(t1, t2, env)
                    and alpha_eq(f1, f2, env))
        case (core.With(bound=b1, binder=x1, body=e1),
              core.With(bound=b2, binder=x2, body=e2)):
            return alpha_eq(b1, b2, env) and alpha_eq(e1, e2, {**env, x1: x2})
        case (core.For(source=s1, binder=x1, body=e1),
              core.For(source=s2, binder=x2, body=e2)):
            return alpha_eq(s1, s2, env) and alpha_eq(e1, e2, {**env, x1: x2})
        case (core.OrderBy(source=s1, binder=x1, key=k1),
              core.OrderBy(source=s2, binder=x2, key=k2)):
            return alpha_eq(s1, s2, env) and alpha_eq(k1, k2, {**env, x1: x2})
        case (core.Insert(type_name=n1, shape=sh1), core.Insert(type_name=n2, shape=sh2)):
            return n1 == n2 and len(sh1) == len(sh2) and all(
                l1 == l2 and alpha_eq(e1, e2, env)
                for (l1, e1), (l2, e2) in zip(sh1, sh2))
        case (core.Update(subject=s1, binder=x1, shape=sh1),
              core.Update(subject=s2, binder=x2, shape=sh2)):
            if len(sh1) != len(sh2) or not alpha_eq(s1, s2, env):
                return False
            inner = {**env, x1: x2}
            return all(l1 == l2 and alpha_eq(e1, e2, inner)
                       for (l1, e1), (l2, e2) in zip(sh1, sh2))
    return False


def lower(text: str) -> core.Expr:
    return desugar(parse_query(text))


def test_select_shape_shorthand():
    got = lower("select Movie { title }")
    want = core.Shaping(core.Name("Movie"), "x",
                        [(olabel("title"), core.Proj(core.Var("x"), olabel("title")))])
    assert alpha_eq(got, want)


def test_nested_sets_flatten_to_same_core():
    assert lower("{{{2}, {3, {4}}}}") == lower("{2,3,4}")
    assert lower("{2,3,4}") == core.Union(
        core.Union(core.Prim(IntVal(2)), core.Prim(IntVal(3))), core.Prim(IntVal(4)))


def test_singleton_set_is_transparent():
    assert lower("{2}") == core.Prim(IntVal(2))


def test_if_expansion_keeps_standard_branch_order():
    got = lower("if true then 1 else 2")
    want = core.For(core.Prim(BoolVal(True)), "b",
                    core.If(core.Var("b"), core.Prim(IntVal(1)), core.Prim(IntVal(2))))
    assert alpha_eq(got, want)


def test_filter_expansion():
    got = lower("Person filter .age = 38")
    # for(Person; x. if(any!(lifted eq); x; empty)) with the derived if
    lifted_eq = core.For(
        core.Proj(core.Var("x"), olabel("age")), "a",
        core.For(core.Prim(IntVal(38)), "b",
                 core.Call("eq", [core.Var("a"), core.Var("b")])))
    want = core.For(
        core.Name("Person"), "x",
        core.For(core.Call("any", [lifted_eq]), "c",
                 core.If(core.Var("c"), core.Var("x"), core.Empty(of_var="x"))))
    assert alpha_eq(got, want)


def test_lifted_call_broadcast_order():
    # one-mode parameters bind with `for`, argument 1 outermost
    got = lower('append("a" union "b", "c")')
    want = core.For(
        core.Union(core.Prim(StrVal("a")), core.Prim(StrVal("b"))), "x1",
        core.For(core.Prim(StrVal("c")), "x2",
                 core.Call("append", [core.Var("x1"), core.Var("x2")])))
    assert alpha_eq(got, want)


def test_lifted_coalesce_uses_optional_for():
    got = lower("coalesce(<int>{}, 7)")
    rest = lambda x1: core.With(core.Prim(IntVal(7)), "x2",
                                core.Call("coalesce", [core.Var(x1), core.Var("x2")]))
    is_empty = core.Call("eq", [core.Prim(IntVal(0)),
                                core.Call("count", [core.Var("y")])])
    want = core.With(
        core.Empty(ty=ScalarType.INT), "y",
        core.For(is_empty, "b",
                 core.If(core.Var("b"),
                         core.With(core.Empty(of_var="y"), "xt", rest("xt")),
                         core.For(core.Var("y"), "xe", rest("xe")))))
    assert alpha_eq(got, want)


def test_update_lifting():
    got = lower("update Movie set { year := 5 }")
    want = core.For(core.Name("Movie"), "y",
                    core.Update(core.Var("y"), "x", [(olabel("year"), core.Prim(IntVal(5)))]))
    assert alpha_eq(got, want)


def test_update_shape_sees_subject():
    got = lower("update Movie set { year := .year }")
    want = core.For(core.Name("Movie"), "y",
                    core.Update(core.Var("y"), "x",
                                [(olabel("year"), core.Proj(core.Var("x"), olabel("year")))]))
    assert alpha_eq(got, want)


def test_link_prop_projection():
    got = lower("Movie { a := .actors { c := .@character } }")
    assert isinstance(got, core.Shaping)
    (_, inner), = got.shape
    assert isinstance(inner, core.Shaping)
    (_, proj), = inner.shape
    assert proj == core.Proj(core.Var(inner.binder), llabel("character"))


@pytest.mark.parametrize("text", [
    "select Movie { title, year }",
    "Person filter .age = 38 order by .name",
    "coalesce(coalesce(<int>{}, 1), 2)",
    "for x in {1,2} union if x = 1 then x else x + 1",
    "insert Person { name := \"n\", age := 1, born := <str>{} }",
    "update (Person filter .age = 38) set { born := \"here\" }",
])
def test_binders_are_alpha_distinct(text):
    e = lower(text)
    names = core.binders(e)
    assert len(names) == len(set(names))
    # fresh binders live in a namespace the grammar cannot produce
    assert all(n.startswith("$") for n in names)


def test_user_shadowing_is_renamed_apart():
    e = lower("with x := 1 select with x := 2 select x")
    assert isinstance(e, core.With) and isinstance(e.body, core.With)
    assert e.binder != e.body.binder
    assert e.body.body == core.Var(e.body.binder)


def test_identifiers_resolve_to_binders_then_type_names():
    # a binder shadows the type of the same name, in its body only
    e = lower("with Movie := 1 select Movie")
    assert e.body == core.Var(e.binder)
    e = lower("for x in x union x")
    assert e.source == core.Name("x") and e.body == core.Var(e.binder)
    e = lower("with x := 1, y := x select Person")
    assert e.body.bound == core.Var(e.binder) and e.body.body == core.Name("Person")


def test_unknown_function():
    with pytest.raises(DesugarError) as err:
        lower("frobnicate(1)")
    assert err.value.code == "UnknownFunction"


def test_arity_mismatch():
    with pytest.raises(DesugarError) as err:
        lower("count(1, 2)")
    assert err.value.code == "ArityMismatch"


def test_right_nested_coalesce_past_the_binder_bound():
    from grql.desugar import MAX_BINDERS

    # each level lowers the rest twice, so the output doubles per level
    with pytest.raises(DesugarError) as err:
        lower("1 ?? (" * 20 + "1" + ")" * 20)
    assert err.value.code == "QueryTooLarge"
    assert str(MAX_BINDERS) in err.value.message
    # a left-nested chain lowers each operand once and stays small
    assert len(core.binders(lower(" ?? ".join(["<int>{}"] * 60 + ["1"])))) < 1000


def test_empty_cast_annotations():
    from grql.model import ObjType

    assert lower("<int>{}") == core.Empty(ty=ScalarType.INT)
    assert lower("<int64>{}") == core.Empty(ty=ScalarType.INT)
    assert lower("<Person>{}") == core.Empty(ty=ObjType("Person", {}))


def test_desugar_total_on_parser_output():
    from hypothesis import given, settings

    from grql.surface import format_expr
    from test_syntax import _exprs

    @settings(max_examples=200, deadline=None)
    @given(_exprs((), False, 3))
    def check(e):
        parsed = parse_query(format_expr(e))
        try:
            out = desugar(parsed)
        except DesugarError:
            return  # unknown function / arity are the documented failure modes
        names = core.binders(out)
        assert len(names) == len(set(names))

    check()
