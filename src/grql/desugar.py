"""Lowering from surface syntax to the core expression language.

Every derived form is expanded here:

  * if(e; et; ef)        => for(e; b. if!(b; et; ef))
  * e1 filter e2         => for(e1; x. if(any!(e2); x; empty))
  * optional_for         => with(e1; y. if(eq(0, count!(y));
                                           with(empty; x. e2); for(y; x. e2)))
  * call f(e1,..,en)     => bind_1(e1; x1. ... bind_n(en; xn. f!(x1,..,xn)))
                            with bind chosen by the parameter modifier
                            (with for *, for for 1, optional_for for ?)
  * update e set S       => for(e; y. update!(y) set x.S)
  * shorthand shapes     => already explicit entries after parsing
  * identifier x         => the nearest enclosing with/for binder named x,
                            otherwise the type name x

Every binder in the output is a fresh '$k' name, so output binders are
globally distinct and user shadowing disappears. Branch bodies that a derived
form mentions twice are lowered twice, keeping binders distinct.
"""

from __future__ import annotations

from . import core, surface
from .builtins import REGISTRY, ParamModifier
from .model import IntVal, ObjType
from .parser import SCALAR_NAMES
from .surface import QueryError, Span

# Most binders one query may lower to. The optional-parameter form lowers the
# rest of a call once per branch, so each level of a right-nested `??` about
# doubles the output; this stops such a query in well under a second.
MAX_BINDERS = 20_000


class DesugarError(QueryError):
    """An unknown function, a wrong argument count, or a query too large to
    lower."""


class _Desugarer:
    def __init__(self) -> None:
        self.counter = 0

    def fresh(self) -> str:
        if self.counter == MAX_BINDERS:
            raise DesugarError("QueryTooLarge", f"query lowers to more than {MAX_BINDERS} binders")
        name = f"${self.counter}"
        self.counter += 1
        return name

    def lower(self, e: surface.SurfaceExpr, env: dict[str, str], implicit: str | None) -> core.Expr:
        match e:
            case surface.ScalarLit(value=v):
                return core.Prim(v, span=e.span)
            case surface.SetLit():
                items = _flatten_sets(e)
                return _balanced_union([self.lower(x, env, implicit) for x in items], e.span)
            case surface.EmptyCast(target=t):
                ty = SCALAR_NAMES.get(t)
                if ty is None:
                    return core.Empty(ty=ObjType(t, {}), span=e.span)
                return core.Empty(ty=ty, span=e.span)
            case surface.Var(name=n):
                if n == surface.IMPLICIT:
                    if implicit is None:
                        raise DesugarError("UnboundVar", "no implicit subject in scope", e.span)
                    return core.Var(implicit, span=e.span)
                if n in env:
                    return core.Var(env[n], span=e.span)
                return core.Name(n, span=e.span)
            case surface.Path(subject=s, label=lbl):
                return core.Proj(self.lower(s, env, implicit), lbl, span=e.span)
            case surface.Backlink(subject=s, label=lbl, type_name=t):
                return core.Backlink(self.lower(s, env, implicit), lbl, t, span=e.span)
            case surface.Shape(subject=s, entries=entries):
                subj = self.lower(s, env, implicit)
                x = self.fresh()
                shape = [(lbl, self.lower(v, env, x)) for lbl, v in entries]
                return core.Shaping(subj, x, shape, span=e.span)
            case surface.Filter(subject=s, cond=c):
                subj = self.lower(s, env, implicit)
                x = self.fresh()
                cond = core.Call("any", [self.lower(c, env, x)], span=c.span)
                keep = core.Var(x, span=e.span)
                drop = core.Empty(of_var=x, span=e.span)
                return core.For(subj, x, self._derived_if(cond, keep, drop, e.span), span=e.span)
            case surface.OrderBy(subject=s, key=k):
                subj = self.lower(s, env, implicit)
                x = self.fresh()
                return core.OrderBy(subj, x, self.lower(k, env, x), span=e.span)
            case surface.For(var=v, source=src, body=b):
                source = self.lower(src, env, implicit)
                x = self.fresh()
                return core.For(source, x, self.lower(b, {**env, v: x}, implicit), span=e.span)
            case surface.With(var=v, bound=bd, body=b):
                bound = self.lower(bd, env, implicit)
                x = self.fresh()
                return core.With(bound, x, self.lower(b, {**env, v: x}, implicit), span=e.span)
            case surface.If(cond=c, then_branch=t, else_branch=f):
                return self._derived_if(
                    self.lower(c, env, implicit),
                    self.lower(t, env, implicit),
                    self.lower(f, env, implicit),
                    e.span,
                )
            case surface.Call(fn=fn, args=args):
                return self.lower_call(e, fn, args, env, implicit)
            case surface.Insert(type_name=t, entries=entries):
                shape = [(lbl, self.lower(v, env, implicit)) for lbl, v in entries]
                return core.Insert(t, shape, span=e.span)
            case surface.Update(subject=s, entries=entries):
                subj = self.lower(s, env, implicit)
                y = self.fresh()
                x = self.fresh()
                shape = [(lbl, self.lower(v, env, x)) for lbl, v in entries]
                return core.For(subj, y, core.Update(core.Var(y), x, shape, span=e.span), span=e.span)
        raise TypeError(f"unknown surface node {e!r}")

    def _derived_if(self, cond: core.Expr, then: core.Expr, els: core.Expr, span) -> core.Expr:
        b = self.fresh()
        return core.For(cond, b, core.If(core.Var(b), then, els, span=span), span=span)

    def lower_call(self, e, fn: str, args: list[surface.SurfaceExpr],
                   env: dict[str, str], implicit: str | None) -> core.Expr:
        spec = REGISTRY.get(fn)
        if spec is None:
            raise DesugarError("UnknownFunction", f"unknown function {fn!r}", e.span)
        if len(args) != len(spec.modifiers):
            raise DesugarError(
                "ArityMismatch",
                f"{fn} takes {len(spec.modifiers)} argument(s), got {len(args)}",
                e.span,
            )

        def build(i: int, xs: list[str]) -> core.Expr:
            if i == len(args):
                return core.Call(fn, [core.Var(x) for x in xs], span=e.span)
            arg = self.lower(args[i], env, implicit)
            mod = spec.modifiers[i]
            if mod is ParamModifier.MANY:
                x = self.fresh()
                return core.With(arg, x, build(i + 1, xs + [x]), span=e.span)
            if mod is ParamModifier.ONE:
                x = self.fresh()
                return core.For(arg, x, build(i + 1, xs + [x]), span=e.span)
            # optional: run the continuation once with x empty, or per element
            y = self.fresh()
            is_empty = core.Call(
                "eq", [core.Prim(IntVal(0)), core.Call("count", [core.Var(y)])], span=e.span
            )
            x_then = self.fresh()
            then = core.With(core.Empty(of_var=y), x_then, build(i + 1, xs + [x_then]), span=e.span)
            x_else = self.fresh()
            els = core.For(core.Var(y), x_else, build(i + 1, xs + [x_else]), span=e.span)
            return core.With(arg, y, self._derived_if(is_empty, then, els, e.span), span=e.span)

        return build(0, [])


def _flatten_sets(e: surface.SurfaceExpr) -> list[surface.SurfaceExpr]:
    """Set-literal braces do not nest: collect leaves through nested SetLits."""
    if isinstance(e, surface.SetLit):
        out: list[surface.SurfaceExpr] = []
        for item in e.items:
            out.extend(_flatten_sets(item))
        return out
    return [e]


def _balanced_union(items: list[core.Expr], span: Span | None) -> core.Expr:
    """Union of the items in order, as a tree of depth log n, so that checking
    and evaluating a long set literal stays within the recursion limit."""
    if len(items) == 1:
        return items[0]
    mid = (len(items) + 1) // 2
    return core.Union(_balanced_union(items[:mid], span), _balanced_union(items[mid:], span),
                      span=span)


def desugar(e: surface.SurfaceExpr) -> core.Expr:
    """Lower parser output to the core language; total given a known function
    registry."""
    return _Desugarer().lower(e, {}, None)
