"""A core-to-core pass between `synth` and evaluation that makes the
evaluator do less work, guided by the cardinalities `synth` computes.

The desugarer runs before type checking, so it binds every built-in argument,
`if` condition and `update` subject with a `for`, in case the value is not a
singleton. Two rewrites undo what the types show is not needed:

1. A singleton `for` becomes a substitution: `for x in s union b` is
   `b[x := s]` when `synth` gives `s` the cardinality [1, 1], `s` is pure and
   total, and either `s` is a variable or literal, or `x` occurs at most once
   in the simplified `b` and not under an iterating body. `Empty(of_var=x)`
   becomes `Empty(ty=<type of s>)`.
2. A loop-invariant subterm is bound once: a closed, pure, total subterm
   (other than a variable, literal or empty set) under an iterating body is
   bound by a `with` at the top of the query and read through a variable.

A term is pure when it holds no `insert` or `update`, and total when it calls
no built-in whose row in `builtins.REGISTRY` says it can fail. Such a term
reads only the initial store and cannot fault, so evaluating it later (rule
1), never (rule 1, `x` unused) or earlier (rule 2) gives the same values; the
canonical evaluation order of everything else is unchanged. An iterating
body is the body of a `for` whose source may hold more than one value and,
whatever their subject, an `order by` key and the entries of a shape or an
`update`.

The pass is linear in the size of the term: `synth` records each `for`
source's type and cardinality, one walk (`scan`) counts each binder's uses
and decides every rewrite, and one walk (`rebuild`) applies them. It relies
on binders being distinct, as the desugarer makes them; a term that reuses a
binder name is returned unchanged.
"""

from __future__ import annotations

from . import core
from .builtins import REGISTRY
from .model import INF, Cardinality, ComputedType, ONE, Schema
from .typecheck import synth

# Most subterms one query binds at its top. Each is one more nested `with`
# for the evaluator's recursion; the rest are evaluated in place.
MAX_HOISTS = 64

_TRIVIAL = (core.Var, core.Prim, core.Empty)


class _Reused(Exception):
    """A binder name occurs twice: substitution could capture a variable."""


class _Simplifier:
    def __init__(self, fors: dict[int, tuple[ComputedType, Cardinality]]):
        self.fors = fors  # id(for node) -> its source's (type, cardinality)
        # per binder: its depth among the binders around it, and the number
        # of iterating bodies around its scope
        self.depth: dict[str, int] = {}
        self.level: dict[str, int] = {}
        # per binder: uses in the simplified term (an upper bound), and
        # whether a use sits under an iterating body inside its scope
        self.uses: dict[str, int] = {}
        self.iterated: set[str] = set()
        self.singletons: set[int] = set()  # ids of the for nodes rule 1 removes
        self.invariant: set[int] = set()  # ids of closed, pure, total, non-trivial nodes
        # rebuild state: what each removed binder becomes, and the bindings
        # rule 2 adds, innermost first
        self.subst: dict[str, core.Expr] = {}
        self.retype: dict[str, ComputedType] = {}
        self.hoists: list[tuple[str, core.Expr]] = []

    def bind(self, x: str, depth: int, level: int) -> None:
        if x in self.depth:
            raise _Reused(x)
        self.depth[x] = depth
        self.level[x] = level
        self.uses[x] = 0

    def scan(self, e: core.Expr, depth: int, level: int) -> tuple[float, bool]:
        """Count uses and decide the rewrites in `e`, children first. Returns
        the least depth of a binder free in `e` (INF when `e` is closed) and
        whether `e` is pure and total. `depth` counts the binders around `e`,
        `level` the iterating bodies around it."""
        match e:
            case core.Var(name=x):
                self.uses[x] += 1
                if level > self.level[x]:
                    self.iterated.add(x)
                return self.depth[x], True
            case core.Prim():
                return INF, True
            case core.Empty(of_var=x):
                return (INF if x is None else self.depth[x]), True
            case core.Name():
                lo, ok = INF, True
            case core.Union(left=a, right=b):
                lo_a, ok_a = self.scan(a, depth, level)
                lo_b, ok_b = self.scan(b, depth, level)
                lo, ok = min(lo_a, lo_b), ok_a and ok_b
            case core.Proj(subject=a) | core.Backlink(subject=a):
                lo, ok = self.scan(a, depth, level)
            case core.Call(fn=fn, args=args):
                lo, ok = INF, REGISTRY[fn].total
                for a in args:
                    lo_a, ok_a = self.scan(a, depth, level)
                    lo, ok = min(lo, lo_a), ok and ok_a
            case core.If(cond=c, then_branch=t, else_branch=f):
                lo, ok = INF, True
                for a in (c, t, f):
                    lo_a, ok_a = self.scan(a, depth, level)
                    lo, ok = min(lo, lo_a), ok and ok_a
            case core.With(bound=a, binder=x, body=b):
                lo, ok = self.scan(a, depth, level)
                self.bind(x, depth, level)
                lo_b, ok_b = self.scan(b, depth + 1, level)
                lo, ok = min(lo, _outside(lo_b, depth)), ok and ok_b
            case core.For(source=a, binder=x, body=b):
                lo, ok = self.scan(a, depth, level)
                ty, card = self.fors[id(e)]
                inner = level + (card.hi > 1)
                self.bind(x, depth, inner)
                lo_b, ok_b = self.scan(b, depth + 1, inner)
                if ok:
                    self.singleton_for(e, a, x, card)
                lo, ok = min(lo, _outside(lo_b, depth)), ok and ok_b
            case core.OrderBy(source=a, binder=x, key=k):
                lo, ok = self.scan(a, depth, level)
                self.bind(x, depth, level + 1)
                lo_k, ok_k = self.scan(k, depth + 1, level + 1)
                lo, ok = min(lo, _outside(lo_k, depth)), ok and ok_k
            case core.Shaping(subject=a, binder=x, shape=shape) | core.Update(
                    subject=a, binder=x, shape=shape):
                lo, ok = self.scan(a, depth, level)
                self.bind(x, depth, level + 1)
                for _, v in shape:
                    lo_v, ok_v = self.scan(v, depth + 1, level + 1)
                    lo, ok = min(lo, _outside(lo_v, depth)), ok and ok_v
                ok = ok and isinstance(e, core.Shaping)
            case core.Insert(shape=shape):
                lo = INF
                for _, v in shape:
                    lo = min(lo, self.scan(v, depth, level)[0])
                ok = False
            case _:
                raise TypeError(f"unknown core node {e!r}")
        if lo == INF and ok:
            self.invariant.add(id(e))
        return lo, ok

    def singleton_for(self, e: core.For, s: core.Expr, x: str, card: Cardinality) -> None:
        """Rule 1 for a `for` over a pure, total source of cardinality
        `card`, once its body has been scanned."""
        if card != ONE:
            return
        if isinstance(s, core.Var):
            # every use of x becomes a use of s's variable
            self.uses[s.name] += self.uses[x] - 1
            if x in self.iterated:
                self.iterated.add(s.name)
        elif not isinstance(s, core.Prim) and (self.uses[x] > 1 or x in self.iterated):
            return
        self.singletons.add(id(e))

    def fresh(self) -> str:
        k = len(self.hoists)
        while f"$c{k}" in self.depth:
            k += 1
        name = f"$c{k}"
        self.depth[name] = 0
        return name

    def rebuild(self, e: core.Expr, iterating: bool) -> core.Expr:
        """`e` with every decided rewrite applied; `iterating` says whether
        `e` sits under an iterating body, where rule 2 applies."""
        if iterating and id(e) in self.invariant and len(self.hoists) < MAX_HOISTS:
            # evaluated once from now on, so only iterating bodies inside
            # e itself count for what e holds
            once = self.rebuild(e, False)
            if isinstance(once, _TRIVIAL):
                return once
            name = self.fresh()
            self.hoists.append((name, once))
            return core.Var(name)
        go = self.rebuild
        span = e.span
        match e:
            case core.Var(name=x):
                return self.subst.get(x, e)
            case core.Prim() | core.Name():
                return e
            case core.Empty(of_var=x):
                ty = self.retype.get(x)
                return e if ty is None else core.Empty(ty=ty, span=span)
            case core.Union(left=a, right=b):
                return core.Union(go(a, iterating), go(b, iterating), span=span)
            case core.Proj(subject=a, label=lbl):
                return core.Proj(go(a, iterating), lbl, span=span)
            case core.Backlink(subject=a, label=lbl, type_name=n):
                return core.Backlink(go(a, iterating), lbl, n, span=span)
            case core.Call(fn=fn, args=args):
                return core.Call(fn, [go(a, iterating) for a in args], span=span)
            case core.If(cond=c, then_branch=t, else_branch=f):
                return core.If(go(c, iterating), go(t, iterating), go(f, iterating), span=span)
            case core.With(bound=a, binder=x, body=b):
                return core.With(go(a, iterating), x, go(b, iterating), span=span)
            case core.For(source=a, binder=x, body=b):
                ty, card = self.fors[id(e)]
                if id(e) in self.singletons:
                    if self.uses[x]:
                        self.subst[x] = go(a, iterating)
                    self.retype[x] = ty
                    return go(b, iterating)
                return core.For(go(a, iterating), x, go(b, iterating or card.hi > 1), span=span)
            case core.OrderBy(source=a, binder=x, key=k):
                return core.OrderBy(go(a, iterating), x, go(k, True), span=span)
            case core.Shaping(subject=a, binder=x, shape=shape):
                return core.Shaping(go(a, iterating), x, [(lbl, go(v, True)) for lbl, v in shape],
                                    span=span)
            case core.Update(subject=a, binder=x, shape=shape):
                return core.Update(go(a, iterating), x, [(lbl, go(v, True)) for lbl, v in shape],
                                   span=span)
            case core.Insert(type_name=n, shape=shape):
                return core.Insert(n, [(lbl, go(v, iterating)) for lbl, v in shape], span=span)
        raise TypeError(f"unknown core node {e!r}")


def _outside(lo: float, depth: int) -> float:
    """The least depth of a free binder of a binder's scope, leaving out the
    binder itself (at `depth`; the scope's other free binders are shallower)."""
    return lo if lo < depth else INF


def simplify(schema: Schema, e: core.Expr) -> core.Expr:
    """`e`, well typed in the empty context, rewritten by the two rules in
    the module docstring. The result has the same type and cardinality, and
    evaluates to the same canonical result, store and next id. Raises
    TypeCheckError when `e` is not well typed."""
    fors: dict[int, tuple[ComputedType, Cardinality]] = {}
    synth(schema, {}, e, fors)
    s = _Simplifier(fors)
    try:
        s.scan(e, 0, 0)
    except _Reused:
        return e
    out = s.rebuild(e, False)
    for name, bound in reversed(s.hoists):
        out = core.With(bound, name, out)
    return out
