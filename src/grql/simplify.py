"""A core-to-core pass between `synth` and evaluation that makes the
evaluator do less work, guided by the cardinalities `synth` computes.

The desugarer runs before type checking, so it binds every built-in argument,
`if` condition and `update` subject with a `for`, and every many-valued
argument with a `with`, in case the value is not a singleton; and it lowers
`S filter .l = k` to a scan of S that compares each element's values of `l`
with each value of `k`; and the evaluator builds every value that `count!`
only counts. Five rewrites undo what the types show is not needed:

1. A singleton binder becomes a substitution: `for x in s union b` is
   `b[x := s]` when `synth` gives `s` the cardinality [1, 1], `s` is pure and
   total, and either `s` is a variable or literal, or `x` occurs at most once
   in the simplified `b` and not under an iterating body. `with x := s select
   b` is `b[x := s]` under the same conditions, whatever the cardinality of
   `s`. `Empty(of_var=x)` becomes `Empty(ty=<type of s>)`.
2. A loop-invariant subterm is bound once: a closed, pure, total subterm
   (other than a variable, literal or empty set) under an iterating body is
   bound by a `with` at the top of the query and read through a variable.
3. A filter on a property is one lookup: the desugarer's
   `for x in S union for b in C union if!(b; x; empty)`, where C, of
   cardinality [1, 1], is its test that `x.l` and `k` share a value (from
   `.l = k`, `k = .l` or `any(eq(.l, k))`), is `Lookup(S, l, k)` when `l` is
   scalar in the type `synth` gives the elements of S (a carried entry or a
   stored label) and `k` is pure and total and mentions neither `x` nor the
   binder of `x.l`. When S is a type name the lookup probes the value index,
   so S is left exactly as it is (rule 2 never binds it): a filter whose key
   reads an outer binder is a probe per outer value, not a scan. Any other S
   is rewritten like every other subterm, and the lookup is a hash
   semi-join of its elements with the values of `k`. On a `for` that both
   rules could rewrite, rule 3 wins.
4. `any!(f!(...))` is `f!(...)` when the row of `f` in `builtins.REGISTRY`
   returns a [1, 1] bool.
5. A count of a stored chain reads ids only: `count!(s)` is `Size(s)` when
   `s` is a type name, or a lookup over one, followed by zero or more
   projections of stored object labels (no link properties), every one but
   the last a link of the type it projects from. The evaluator counts the
   ids the chain reaches through the stored sequences and builds no value.

A term is pure when it holds no `insert` or `update`, and total when it calls
no built-in whose row in `builtins.REGISTRY` says it can fail. Such a term
reads only the initial store and cannot fault, so evaluating it later (rule
1), never (rule 1, `x` unused) or earlier (rules 2 and 3) gives the same
values; the canonical evaluation order of everything else is unchanged.
Rule 5 changes no count; under a seed it skips the chain's permutations, so
later draws differ and other results stay equal up to permutation. An
iterating body is the body of a `for` whose source may hold more than one
value and, whatever their subject, an `order by` key and the entries of a
shape or an `update`.

The pass is linear in the size of the term: `synth` records the type and
cardinality of each `for` source and `with` bound, one walk (`scan`) counts
each binder's uses and decides every rewrite but rules 4 and 5, and one
walk (`rebuild`) applies them; rules 4 and 5 read the rebuilt arguments.
Rule 3 reads the condition as the desugarer wrote it, so it does not depend
on what rules 1 and 4 make of it; it uses the use counts to see that `k`
mentions neither binder. The pass relies on binders being distinct, as the
desugarer makes them; a term that reuses a binder name is returned
unchanged.
"""

from __future__ import annotations

from collections import Counter

from . import core
from .builtins import REGISTRY
from .model import (
    INF, Cardinality, ComputedType, ONE, ScalarType, Schema, StoredRefType, is_link_prop,
)
from .typecheck import label_entry, synth

# Most subterms one query binds at its top. Each is one more nested `with`
# for the evaluator's recursion; the rest are evaluated in place.
MAX_HOISTS = 64

_TRIVIAL = (core.Var, core.Prim, core.Empty)

# the built-ins that return one bool, which rule 4 takes out of an any!
_ONE_BOOL = frozenset(name for name, spec in REGISTRY.items()
                      if spec.result is ScalarType.BOOL and spec.card == ONE)


class _Reused(Exception):
    """A binder name occurs twice: substitution could capture a variable."""


class _Simplifier:
    def __init__(self, schema: Schema, sources: dict[int, tuple[ComputedType, Cardinality]]):
        self.schema = schema
        # id(for or with node) -> its source's or bound's (type, cardinality)
        self.sources = sources
        # per binder: its depth among the binders around it, and the number
        # of iterating bodies around its scope
        self.depth: dict[str, int] = {}
        self.level: dict[str, int] = {}
        # per binder: uses in the simplified term (an upper bound), and
        # whether a use sits under an iterating body inside its scope
        self.uses: dict[str, int] = {}
        self.iterated: set[str] = set()
        self.empties: Counter[str] = Counter()  # per binder: the empty sets typed by it
        self.singletons: set[int] = set()  # ids of the for and with nodes rule 1 removes
        self.lookups: dict[int, tuple[str, core.Expr]] = {}  # id(for) -> rule 3's (label, key)
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
                if x is None:
                    return INF, True
                self.empties[x] += 1
                return self.depth[x], True
            case core.Name():
                lo, ok = INF, True
            case core.Union(left=a, right=b):
                lo_a, ok_a = self.scan(a, depth, level)
                lo_b, ok_b = self.scan(b, depth, level)
                lo, ok = min(lo_a, lo_b), ok_a and ok_b
            case core.Proj(subject=a) | core.Backlink(subject=a) | core.Size(source=a):
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
                if ok:
                    self.substitute(e, a, x)
                lo, ok = min(lo, _outside(lo_b, depth)), ok and ok_b
            case core.For(source=a, binder=x, body=b):
                lo, ok = self.scan(a, depth, level)
                ty, card = self.sources[id(e)]
                inner = level + (card.hi > 1)
                self.bind(x, depth, inner)
                lo_b, ok_b = self.scan(b, depth + 1, inner)
                if ok_b:
                    self.lookup(e, ty, x, b)
                if ok and id(e) not in self.lookups:
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
            case core.Lookup(source=a, key=k):
                lo, ok = self.scan(a, depth, level)
                lo_k, ok_k = self.scan(k, depth, level)
                lo, ok = min(lo, lo_k), ok and ok_k
            case _:
                raise TypeError(f"unknown core node {e!r}")
        if lo == INF and ok:
            self.invariant.add(id(e))
        return lo, ok

    def singleton_for(self, e: core.For, s: core.Expr, x: str, card: Cardinality) -> None:
        """Rule 1 for a `for` over a pure, total source of cardinality
        `card`, once its body has been scanned."""
        if card == ONE:
            self.substitute(e, s, x)

    def substitute(self, e: core.For | core.With, s: core.Expr, x: str) -> None:
        """Rule 1 for a binder `x` of a pure, total `s` that holds one value
        or is bound by a `with`, once the binder's scope has been scanned."""
        if isinstance(s, core.Var):
            # every use of x becomes a use of s's variable
            self.uses[s.name] += self.uses[x] - 1
            if x in self.iterated:
                self.iterated.add(s.name)
        elif not isinstance(s, core.Prim) and (self.uses[x] > 1 or x in self.iterated):
            return
        self.singletons.add(id(e))

    def lookup(self, e: core.For, ty: ComputedType, x: str, body: core.Expr) -> None:
        """Rule 3 for `for x in <source of type ty> union body`, a pure, total
        body, once it has been scanned."""
        match body:
            # the desugarer's if, here over one bool, keeping x or nothing
            case core.For(source=c, binder=b, body=core.If(
                    cond=core.Var(name=b1), then_branch=core.Var(name=x1),
                    else_branch=core.Empty() as f)
                    ) if (b1, x1) == (b, x) and self.sources[id(body)][1] == ONE:
                found = _membership(c, x)
            case _:
                found = None
        if found is None:
            return
        label, key, y = found
        # x.l types, so ty is an object type with the label
        lty, _ = label_entry(self.schema, ty, label)
        # x.l and the then-branch are the only uses of x, the test the only
        # use of y, and no empty set but the else-branch takes its type from
        # either: the key mentions neither
        if (isinstance(lty, ScalarType) and self.uses[x] == 2
                and self.empties[x] == (f.of_var == x)
                and (y is None or (self.uses[y] == 1 and not self.empties[y]))):
            self.lookups[id(e)] = label, key

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
                args = [go(a, iterating) for a in args]
                if fn == "any" and isinstance(args[0], core.Call) and args[0].fn in _ONE_BOOL:
                    return args[0]
                if fn == "count":
                    return self.count(args[0], span)
                return core.Call(fn, args, span=span)
            case core.If(cond=c, then_branch=t, else_branch=f):
                return core.If(go(c, iterating), go(t, iterating), go(f, iterating), span=span)
            case core.With(bound=a, binder=x, body=b) | core.For(
                    source=a, binder=x, body=b) if id(e) in self.singletons:
                if self.uses[x]:
                    self.subst[x] = go(a, iterating)
                self.retype[x] = self.sources[id(e)][0]
                return go(b, iterating)
            case core.With(bound=a, binder=x, body=b):
                return core.With(go(a, iterating), x, go(b, iterating), span=span)
            case core.For(source=a) if id(e) in self.lookups:
                label, key = self.lookups[id(e)]
                return core.Lookup(self.lookup_source(a, iterating), label, go(key, iterating),
                                   span=span)
            case core.For(source=a, binder=x, body=b):
                many = self.sources[id(e)][1].hi > 1
                return core.For(go(a, iterating), x, go(b, iterating or many), span=span)
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
            case core.Lookup(source=a, label=lbl, key=k):
                return core.Lookup(self.lookup_source(a, iterating), lbl, go(k, iterating),
                                   span=span)
            case core.Size(source=a):
                return self.count(go(a, iterating), span)
        raise TypeError(f"unknown core node {e!r}")

    def lookup_source(self, a: core.Expr, iterating: bool) -> core.Expr:
        """A lookup's source, rebuilt: a type name stays as it is, so that the
        lookup probes the value index."""
        return a if isinstance(a, core.Name) else self.rebuild(a, iterating)

    def count(self, source: core.Expr, span) -> core.Expr:
        """Rule 5: `count!(source)`, rebuilt, as a Size node when `source` is
        a stored chain."""
        if _stored_chain(self.schema, source):
            return core.Size(source, span=span)
        return core.Call("count", [source], span=span)


def _membership(c: core.Expr, x: str) -> tuple[str, core.Expr, str | None] | None:
    """`(l, k, y)` when the condition `c` is the desugarer's test that `x.l`
    and `k` share a value: `for y in x.l union for z in k union eq!(y, z)`
    (or with `k` first and no `y` around it), bare, under `any!` or bound
    by a `with` that `any!` reads; `y` is the binder whose scope holds `k`."""
    match c:
        case core.Call(fn="any", args=[core.With(
                bound=m, binder=v, body=core.Call(fn="any", args=[core.Var(name=v1)]))]) if v1 == v:
            c = m
        case core.Call(fn="any", args=[m]):
            c = m
    match c:
        case core.For(source=a, binder=y, body=core.For(source=b, binder=z, body=core.Call(
                fn="eq", args=[core.Var(name=y1), core.Var(name=z1)]))) if (y1, z1) == (y, z):
            match a, b:
                case core.Proj(subject=core.Var(name=x1), label=label), _ if x1 == x:
                    return label, b, y
                case _, core.Proj(subject=core.Var(name=x1), label=label) if x1 == x:
                    return label, a, None
    return None


def _stored_chain(schema: Schema, e: core.Expr) -> bool:
    """Whether `e` is a chain rule 5 counts: a declared type name or a lookup
    over one, then projections of stored object labels, each but the last a
    link of the type it projects from."""
    labels = []
    while isinstance(e, core.Proj):
        labels.append(e.label)
        e = e.subject
    if isinstance(e, core.Lookup):
        e = e.source
    decl = schema.decl(e.type_name) if isinstance(e, core.Name) else None
    if decl is None:
        return False
    for label in reversed(labels):
        if decl is None or is_link_prop(label) or label not in decl.labels:
            return False
        sty, _ = decl.labels[label]
        # past a scalar label there is no declaration: it must be the last
        decl = schema.decl(sty.target) if isinstance(sty, StoredRefType) else None
    return True


def _outside(lo: float, depth: int) -> float:
    """The least depth of a free binder of a binder's scope, leaving out the
    binder itself (at `depth`; the scope's other free binders are shallower)."""
    return lo if lo < depth else INF


def simplify(schema: Schema, e: core.Expr) -> core.Expr:
    """`e`, well typed in the empty context, rewritten by the five rules in
    the module docstring. The result has the same type and cardinality, and
    evaluates to the same canonical result, store and next id. Raises
    TypeCheckError when `e` is not well typed."""
    sources: dict[int, tuple[ComputedType, Cardinality]] = {}
    synth(schema, {}, e, sources)
    s = _Simplifier(schema, sources)
    try:
        s.scan(e, 0, 0)
    except _Reused:
        return e
    out = s.rebuild(e, False)
    for name, bound in reversed(s.hoists):
        out = core.With(bound, name, out)
    return out
