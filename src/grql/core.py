"""Core (desugared) expression syntax.

This is the constructor set the checker and evaluator operate on; no derived
forms of the surface syntax remain. Two nodes, Lookup and Size, are derived
forms of the core itself that only `simplify` creates. An Empty node carries
either an explicit type annotation or the name of an in-scope variable whose
element type it adopts (the deferred form produced when lowering filters and
optional iteration, where the annotation is not syntactically available).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import BoolVal, ComputedType, IntVal, Label, ScalarValue, StrVal
from .surface import Span


@dataclass
class Expr:
    span: Span | None = field(default=None, compare=False, kw_only=True)


@dataclass
class Var(Expr):
    name: str


@dataclass
class Prim(Expr):
    value: ScalarValue


@dataclass
class Empty(Expr):
    ty: ComputedType | None = None
    of_var: str | None = None

    def __post_init__(self) -> None:
        if (self.ty is None) == (self.of_var is None):
            raise ValueError("Empty needs exactly one of ty / of_var")


@dataclass
class Union(Expr):
    left: Expr
    right: Expr


@dataclass
class Name(Expr):
    type_name: str


@dataclass
class Proj(Expr):
    subject: Expr
    label: Label


@dataclass
class Backlink(Expr):
    subject: Expr
    label: Label
    type_name: str


@dataclass
class Lookup(Expr):
    """The elements of `source` whose scalar label `label` holds a value of
    `key`, in source order and with the source's duplicates; by definition
    `for x in source union if!(any!(for y in x.l union for z in key union
    eq!(y, z)); x; empty)`, with `key` pure, total and free of x and y. Over
    a type name it is one probe of the store's value index; over any other
    source, a hash semi-join of the source's elements with the key's values."""

    source: Expr
    label: Label
    key: Expr


@dataclass
class Size(Expr):
    """The number of values of `source`; by definition `count!(source)`,
    with `source` a stored chain: a type name, or a `Lookup` over one,
    followed by projections of stored object labels, every one but the last
    a link. It reads ids only and builds no value."""

    source: Expr


@dataclass
class Shaping(Expr):
    subject: Expr
    binder: str
    shape: list[tuple[Label, Expr]]


@dataclass
class Call(Expr):
    """A direct built-in application (the dagger form); arguments must satisfy
    the signature's parameter modifiers."""

    fn: str
    args: list[Expr]


@dataclass
class If(Expr):
    """The dagger conditional: scrutinee must be a single boolean."""

    cond: Expr
    then_branch: Expr
    else_branch: Expr


@dataclass
class With(Expr):
    bound: Expr
    binder: str
    body: Expr


@dataclass
class For(Expr):
    source: Expr
    binder: str
    body: Expr


@dataclass
class OrderBy(Expr):
    source: Expr
    binder: str
    key: Expr


@dataclass
class Insert(Expr):
    type_name: str
    shape: list[tuple[Label, Expr]]


@dataclass
class Update(Expr):
    """The dagger update: subject must be a single object."""

    subject: Expr
    binder: str
    shape: list[tuple[Label, Expr]]


def walk(e: Expr):
    """Yield every node of the expression tree, preorder."""
    yield e
    match e:
        case Union(left=a, right=b):
            yield from walk(a)
            yield from walk(b)
        case Proj(subject=a) | Backlink(subject=a) | Size(source=a):
            yield from walk(a)
        case Shaping(subject=a, shape=shape):
            yield from walk(a)
            for _, child in shape:
                yield from walk(child)
        case Call(args=args):
            for a in args:
                yield from walk(a)
        case If(cond=c, then_branch=t, else_branch=f):
            yield from walk(c)
            yield from walk(t)
            yield from walk(f)
        case With(bound=a, body=b) | OrderBy(source=a, key=b) | For(source=a, body=b):
            yield from walk(a)
            yield from walk(b)
        case Insert(shape=shape):
            for _, child in shape:
                yield from walk(child)
        case Update(subject=a, shape=shape):
            yield from walk(a)
            for _, child in shape:
                yield from walk(child)
        case Lookup(source=a, key=k):
            yield from walk(a)
            yield from walk(k)


def binders(e: Expr) -> list[str]:
    out = []
    for node in walk(e):
        match node:
            case Shaping(binder=b) | With(binder=b) | For(binder=b) | OrderBy(binder=b) | Update(binder=b):
                out.append(b)
    return out


def to_text(e: Expr) -> str:
    """Human-readable rendering of a core expression (debugging and
    counterexample reports; not parseable)."""
    match e:
        case Var(name=n):
            return n
        case Prim(value=IntVal(value=v)):
            return str(v)
        case Prim(value=StrVal(value=v)):
            return repr(v)
        case Prim(value=BoolVal(value=v)):
            return "tt" if v else "ff"
        case Empty(ty=ty, of_var=var):
            return f"empty[{ty}]" if ty is not None else f"empty[type-of {var}]"
        case Union(left=a, right=b):
            return f"({to_text(a)} union {to_text(b)})"
        case Name(type_name=n):
            return n
        case Proj(subject=a, label=lbl):
            return f"{to_text(a)}.{lbl}"
        case Backlink(subject=a, label=lbl, type_name=n):
            return f"{to_text(a)}.<{lbl}[is {n}]"
        case Lookup(source=a, label=lbl, key=k):
            return f"lookup!({to_text(a)}.{lbl}, {to_text(k)})"
        case Size(source=a):
            return f"count!({to_text(a)})"
        case Shaping(subject=a, binder=x, shape=shape):
            inner = ", ".join(f"{lbl} := {to_text(v)}" for lbl, v in shape)
            return f"{to_text(a)} {{{x}| {inner} }}"
        case Call(fn=f, args=args):
            return f"{f}!({', '.join(to_text(a) for a in args)})"
        case If(cond=c, then_branch=t, else_branch=f):
            return f"if!({to_text(c)}; {to_text(t)}; {to_text(f)})"
        case With(bound=a, binder=x, body=b):
            return f"with {x} := {to_text(a)} select {to_text(b)}"
        case For(source=a, binder=x, body=b):
            return f"for {x} in {to_text(a)} union {to_text(b)}"
        case OrderBy(source=a, binder=x, key=k):
            return f"{to_text(a)} order by {x}.{to_text(k)}"
        case Insert(type_name=n, shape=shape):
            inner = ", ".join(f"{lbl} := {to_text(v)}" for lbl, v in shape)
            return f"insert {n} {{ {inner} }}"
        case Update(subject=a, binder=x, shape=shape):
            inner = ", ".join(f"{lbl} := {to_text(v)}" for lbl, v in shape)
            return f"update!({to_text(a)}) set {x}.{{ {inner} }}"
    raise TypeError(f"unknown core node {e!r}")


__all__ = [
    "Expr", "Var", "Prim", "Empty", "Union", "Name", "Proj", "Backlink",
    "Lookup", "Size", "Shaping", "Call", "If", "With", "For", "OrderBy", "Insert", "Update",
    "walk", "binders", "to_text",
]
