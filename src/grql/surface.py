"""Surface abstract syntax, query errors, and the canonical printer.

The surface AST is what the parser produces; it still contains derived forms
(filter, order by, if, lifted calls, shapes with shorthands already expanded
to explicit entries). Spans are byte offsets into the source and are ignored
by structural equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import BoolVal, IntVal, Label, ScalarValue, StrVal

Span = tuple[int, int]

# Name of the implicit subject variable: `.label` parses to Path(Var(DOT), label).
IMPLICIT = "."


class QueryError(Exception):
    """An error in a query at any stage of the front end or the evaluator,
    printed as `Code at a..b: message`, or `Code: message` without a span."""

    def __init__(self, code: str, message: str, span: Span | None = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.span = span

    def __str__(self) -> str:
        if self.span is None:
            return f"{self.code}: {self.message}"
        return f"{self.code} at {self.span[0]}..{self.span[1]}: {self.message}"


class ParseError(QueryError):
    """A lexing or parsing error; prints as `message (at a..b; expected …)`."""

    def __init__(self, message: str, span: Span, expected: str = ""):
        super().__init__("ParseError", message, span)
        self.expected = expected

    def __str__(self) -> str:
        loc = f"at {self.span[0]}..{self.span[1]}"
        if self.expected:
            return f"{self.message} ({loc}; expected {self.expected})"
        return f"{self.message} ({loc})"


@dataclass
class SurfaceExpr:
    span: Span = field(default=(0, 0), compare=False, kw_only=True)


@dataclass
class ScalarLit(SurfaceExpr):
    value: ScalarValue


@dataclass
class SetLit(SurfaceExpr):
    items: list[SurfaceExpr]


@dataclass
class EmptyCast(SurfaceExpr):
    """`<target>{}`: the empty sequence annotated with a scalar or object type."""

    target: str


@dataclass
class Var(SurfaceExpr):
    """A bare identifier: the desugarer resolves it to a `with`/`for` binder
    in scope, or else to a type name."""

    name: str


@dataclass
class Path(SurfaceExpr):
    subject: SurfaceExpr
    label: Label


@dataclass
class Backlink(SurfaceExpr):
    subject: SurfaceExpr
    label: Label
    type_name: str


@dataclass
class Shape(SurfaceExpr):
    subject: SurfaceExpr
    entries: list[tuple[Label, SurfaceExpr]]


@dataclass
class Filter(SurfaceExpr):
    subject: SurfaceExpr
    cond: SurfaceExpr


@dataclass
class OrderBy(SurfaceExpr):
    subject: SurfaceExpr
    key: SurfaceExpr


@dataclass
class For(SurfaceExpr):
    var: str
    source: SurfaceExpr
    body: SurfaceExpr


@dataclass
class With(SurfaceExpr):
    var: str
    bound: SurfaceExpr
    body: SurfaceExpr


@dataclass
class If(SurfaceExpr):
    cond: SurfaceExpr
    then_branch: SurfaceExpr
    else_branch: SurfaceExpr


@dataclass
class Call(SurfaceExpr):
    fn: str
    args: list[SurfaceExpr]


@dataclass
class Insert(SurfaceExpr):
    type_name: str
    entries: list[tuple[Label, SurfaceExpr]]


@dataclass
class Update(SurfaceExpr):
    subject: SurfaceExpr
    entries: list[tuple[Label, SurfaceExpr]]


# ---------------------------------------------------------------------------
# Canonical printer

# Precedence levels, loosest first. Right-open constructs print bare only at
# statement level; parenthesized anywhere tighter.
_STMT, _CHAIN, _OPERAND, _POSTFIX, _PRIMARY = 0, 1, 2, 3, 4


def _level(e: SurfaceExpr) -> int:
    match e:
        case With() | For() | If():
            return _STMT
        case Filter() | OrderBy():
            return _CHAIN
        case Path() | Backlink() | Shape():
            return _POSTFIX
        case _:
            return _PRIMARY


def _quote(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def _entries_text(entries: list[tuple[Label, SurfaceExpr]]) -> str:
    return ", ".join(f"{lbl} := {_fmt(e, _STMT)}" for lbl, e in entries)


def _fmt(e: SurfaceExpr, min_level: int) -> str:
    text = _fmt_bare(e)
    if _level(e) < min_level:
        return f"({text})"
    return text


def _fmt_bare(e: SurfaceExpr) -> str:
    match e:
        case ScalarLit(value=IntVal(value=n)):
            return str(n)
        case ScalarLit(value=StrVal(value=s)):
            return _quote(s)
        case ScalarLit(value=BoolVal(value=b)):
            return "true" if b else "false"
        case SetLit(items=items):
            return "{" + ", ".join(_fmt(x, _STMT) for x in items) + "}"
        case EmptyCast(target=t):
            return f"<{t}>{{}}"
        case Var(name=n):
            if n == IMPLICIT:
                raise ValueError("implicit subject cannot be printed outside a projection")
            return n
        case Path(subject=Var(name=n), label=lbl) if n == IMPLICIT:
            return f".{lbl}"
        case Path(subject=s, label=lbl):
            return f"{_fmt(s, _POSTFIX)}.{lbl}"
        case Backlink(subject=s, label=lbl, type_name=t):
            return f"{_fmt(s, _POSTFIX)}.<{lbl}[is {t}]"
        case Shape(subject=s, entries=entries):
            if not entries:
                return f"{_fmt(s, _POSTFIX)} {{}}"
            return f"{_fmt(s, _POSTFIX)} {{ {_entries_text(entries)} }}"
        case Filter(subject=s, cond=c):
            return f"{_fmt(s, _CHAIN)} filter {_fmt(c, _OPERAND)}"
        case OrderBy(subject=s, key=k):
            return f"{_fmt(s, _CHAIN)} order by {_fmt(k, _OPERAND)}"
        case For(var=v, source=src, body=b):
            return f"for {v} in {_fmt(src, _CHAIN)} union {_fmt(b, _STMT)}"
        case With(var=v, bound=bd, body=b):
            return f"with {v} := {_fmt(bd, _CHAIN)} select {_fmt(b, _STMT)}"
        case If(cond=c, then_branch=t, else_branch=f):
            return f"if {_fmt(c, _CHAIN)} then {_fmt(t, _CHAIN)} else {_fmt(f, _STMT)}"
        case Call(fn=fn, args=args):
            return f"{fn}({', '.join(_fmt(a, _STMT) for a in args)})"
        case Insert(type_name=t, entries=entries):
            if not entries:
                return f"insert {t} {{}}"
            return f"insert {t} {{ {_entries_text(entries)} }}"
        case Update(subject=s, entries=entries):
            return f"update {_fmt(s, _CHAIN)} set {{ {_entries_text(entries)} }}"
    raise TypeError(f"unknown surface node {e!r}")


def format_expr(e: SurfaceExpr) -> str:
    """Canonical concrete syntax; parse_query(format_expr(e)) == e structurally."""
    return _fmt(e, _STMT)
