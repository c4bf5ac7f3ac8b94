"""Lexer and recursive-descent parser for schemas and queries.

The accepted grammar is documented in GRAMMAR.md. Keywords are
case-insensitive, identifiers case-sensitive, comments run from '#' to end of
line. Set-literal braces never nest semantically; the desugarer flattens them.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import surface as s
from .model import (
    AT_LEAST_ONE,
    AT_MOST_ONE,
    MANY,
    ONE,
    BoolVal,
    Cardinality,
    IntVal,
    Label,
    ObjectTypeDecl,
    ScalarType,
    Schema,
    StoredRefType,
    StrVal,
    bare,
    is_link_prop,
    llabel,
)
from .surface import ParseError, Span
from .wellformed import Diagnostic

KEYWORDS = {
    "select", "filter", "order", "by", "for", "in", "union", "with",
    "if", "then", "else", "insert", "update", "set", "is", "true", "false",
    "type", "required", "multi",
}

SCALAR_NAMES = {"int": ScalarType.INT, "int64": ScalarType.INT,
                "str": ScalarType.STR, "bool": ScalarType.BOOL}

# (required, multi) flags of a schema member or link property -> its mode
_FLAG_CARDS = {(False, False): AT_MOST_ONE, (True, False): ONE,
               (False, True): MANY, (True, True): AT_LEAST_ONE}

# How deep a query may nest. Each bracketed or keyword-introduced
# subexpression counts one level, and so does each node that an operator,
# postfix, filter or order-by loop wraps around the one before; the items of
# a set literal, a union chain, a call's arguments and a shape's entries are
# siblings and count once. The later stages recurse once per level, so this
# keeps every accepted query inside Python's default recursion limit.
MAX_DEPTH = 64

# Binary operators, loosest level first: each symbol's built-in, and whether
# the level repeats (`a + b + c`) or takes one operator at most (`a = b`).
_BINARY = (({"??": "coalesce"}, True), ({"=": "eq", "<": "lt"}, False), ({"+": "add"}, True))

_SYMBOLS = (":=", ".<", "??", "{", "}", "(", ")", "[", "]", ",", ";",
            ":", ".", "<", ">", "=", "+", "-", "@")


@dataclass
class Token:
    kind: str  # "ident", "int", "str", "kw:<word>", or a symbol literal
    text: str
    span: Span


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], (i, j)))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word.lower() in KEYWORDS:
                toks.append(Token("kw:" + word.lower(), word, (i, j)))
            else:
                toks.append(Token("ident", word, (i, j)))
            i = j
            continue
        if ch == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    if j + 1 >= n:
                        raise ParseError("unterminated escape", (i, n))
                    esc = text[j + 1]
                    if esc == '"':
                        out.append('"')
                    elif esc == "\\":
                        out.append("\\")
                    elif esc == "n":
                        out.append("\n")
                    else:
                        raise ParseError(f"unknown escape \\{esc}", (j, j + 2))
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string literal", (i, n))
            toks.append(Token("str", "".join(out), (i, j + 1)))
            i = j + 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token(sym, sym, (i, i + len(sym))))
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", (i, i + 1))
    toks.append(Token("eof", "", (n, n)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        self.implicit_depth = 0           # nesting of implicit-subject contexts
        self.depth = 0                    # nesting so far, bounded by MAX_DEPTH

    # -- token plumbing ------------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def advance(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str = "") -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"unexpected {tok.kind or 'end of input'} {tok.text!r}",
                tok.span, expected=what or kind,
            )
        return self.advance()

    def accept(self, kind: str) -> Token | None:
        if self.at(kind):
            return self.advance()
        return None

    def nest(self, span: Span) -> None:
        """Count one more level of nesting below the current one."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nested more than {MAX_DEPTH} levels deep", span)

    def sibling(self, base: int, parse):
        """Parse one of several siblings: each starts at the parent's depth
        `base`, and the parent ends as deep as its deepest sibling."""
        deepest = self.depth
        self.depth = base
        item = parse()
        self.depth = max(deepest, self.depth)
        return item

    # -- queries -------------------------------------------------------------

    def parse_query(self) -> s.SurfaceExpr:
        e = self.parse_expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {tok.text!r}", tok.span)
        return e

    def parse_expr(self) -> s.SurfaceExpr:
        start = self.peek().span[0]
        base = self.depth
        e = self.parse_chain()
        if self.at("kw:union"):
            items = [e]
            while self.accept("kw:union"):
                items.append(self.sibling(base, self.parse_chain))
            return s.SetLit(items, span=(start, self.prev_end()))
        return e

    def prev_end(self) -> int:
        return self.toks[self.pos - 1].span[1] if self.pos > 0 else 0

    def parse_chain(self) -> s.SurfaceExpr:
        self.nest(self.peek().span)
        start = self.peek().span[0]
        e = self.parse_binary()
        while True:
            if tok := self.accept("kw:filter"):
                self.nest(tok.span)
                self.implicit_depth += 1
                cond = self.parse_binary()
                self.implicit_depth -= 1
                e = s.Filter(e, cond, span=(start, self.prev_end()))
            elif self.at("kw:order"):
                self.nest(self.advance().span)
                self.expect("kw:by", "'by'")
                self.implicit_depth += 1
                key = self.parse_binary()
                self.implicit_depth -= 1
                e = s.OrderBy(e, key, span=(start, self.prev_end()))
            else:
                return e

    def parse_binary(self, level: int = 0) -> s.SurfaceExpr:
        """One level of `_BINARY` and everything tighter: each operator is
        sugar for a call of two arguments, grouped to the left."""
        if level == len(_BINARY):
            return self.parse_postfix()
        ops, repeats = _BINARY[level]
        start = self.peek().span[0]
        e = self.parse_binary(level + 1)
        while self.peek().kind in ops:
            tok = self.advance()
            self.nest(tok.span)
            rhs = self.parse_binary(level + 1)
            e = s.Call(ops[tok.kind], [e, rhs], span=(start, self.prev_end()))
            if not repeats:
                break
        return e

    def parse_postfix(self) -> s.SurfaceExpr:
        start = self.peek().span[0]
        e = self.parse_primary()
        while True:
            if self.at("."):
                self.nest(self.advance().span)
                lbl = self.parse_label()
                e = s.Path(e, lbl, span=(start, self.prev_end()))
            elif self.at(".<"):
                self.nest(self.advance().span)
                name = self.expect("ident", "link label").text
                self.expect("[", "'[is TypeName]'")
                self.expect("kw:is", "'is'")
                tname = self.expect("ident", "type name").text
                self.expect("]", "']'")
                e = s.Backlink(e, name, tname, span=(start, self.prev_end()))
            elif self.at("{"):
                entries = self.parse_shape_entries()
                e = s.Shape(e, entries, span=(start, self.prev_end()))
            else:
                return e

    def parse_label(self) -> Label:
        if self.accept("@"):
            name = self.expect("ident", "link property name").text
            return llabel(name)
        return self.expect("ident", "label").text

    def parse_shape_entries(self) -> list[tuple[Label, s.SurfaceExpr]]:
        """`{ entry, ... }` where an entry is `l := e`, shorthand `l`
        (== `l := .l`), or nested `l: { ... }` (== `l := .l { ... }`)."""
        open_tok = self.expect("{")
        self.nest(open_tok.span)
        base = self.depth
        entries: list[tuple[Label, s.SurfaceExpr]] = []
        seen: set[Label] = set()
        self.implicit_depth += 1
        while not self.at("}"):
            lbl_start = self.peek().span[0]
            lbl = self.parse_label()
            if lbl in seen:
                raise ParseError(f"duplicate shape label {lbl}", (lbl_start, self.prev_end()))
            seen.add(lbl)
            if self.accept(":="):
                expr = self.sibling(base, self.parse_expr)
            elif self.at(":"):
                if is_link_prop(lbl):
                    raise ParseError("nested shape shorthand needs an object label",
                                     (lbl_start, self.prev_end()))
                self.advance()
                subject = s.Path(s.Var(s.IMPLICIT), lbl, span=(lbl_start, self.prev_end()))
                nested = self.sibling(base, self.parse_shape_entries)
                expr = s.Shape(subject, nested, span=(lbl_start, self.prev_end()))
            else:
                expr = s.Path(s.Var(s.IMPLICIT), lbl, span=(lbl_start, self.prev_end()))
            entries.append((lbl, expr))
            if not self.accept(","):
                break
        self.implicit_depth -= 1
        self.expect("}", "'}' closing shape opened at %d" % open_tok.span[0])
        return entries

    def parse_assign_entries(self, what: str) -> list[tuple[Label, s.SurfaceExpr]]:
        """`{ l := e, ... }`: explicit assignments only (insert/update shapes)."""
        self.expect("{")
        base = self.depth
        entries: list[tuple[Label, s.SurfaceExpr]] = []
        seen: set[Label] = set()
        while not self.at("}"):
            lbl_start = self.peek().span[0]
            lbl = self.parse_label()
            if lbl in seen:
                raise ParseError(f"duplicate {what} label {lbl}", (lbl_start, self.prev_end()))
            seen.add(lbl)
            self.expect(":=", f"':=' ({what} entries take explicit values)")
            entries.append((lbl, self.sibling(base, self.parse_expr)))
            if not self.accept(","):
                break
        self.expect("}")
        return entries

    def parse_primary(self) -> s.SurfaceExpr:
        tok = self.peek()
        start = tok.span[0]
        if tok.kind == "int":
            self.advance()
            try:
                return s.ScalarLit(IntVal(int(tok.text)), span=tok.span)
            except ValueError as exc:
                raise ParseError(str(exc), tok.span) from None
        if tok.kind == "-":
            self.advance()
            num = self.expect("int", "integer literal")
            try:
                return s.ScalarLit(IntVal(-int(num.text)), span=(start, num.span[1]))
            except ValueError as exc:
                raise ParseError(str(exc), (start, num.span[1])) from None
        if tok.kind == "str":
            self.advance()
            return s.ScalarLit(StrVal(tok.text), span=tok.span)
        if tok.kind == "kw:true":
            self.advance()
            return s.ScalarLit(BoolVal(True), span=tok.span)
        if tok.kind == "kw:false":
            self.advance()
            return s.ScalarLit(BoolVal(False), span=tok.span)
        if tok.kind == "(":
            self.advance()
            e = self.parse_expr()
            self.expect(")")
            return e
        if tok.kind == "{":
            return self.parse_set_literal()
        if tok.kind == "<":
            self.advance()
            target = self.expect("ident", "type name inside cast").text
            self.expect(">")
            self.expect("{", "'{}' (the empty set)")
            self.expect("}", "'}' (casts apply to empty braces only)")
            return s.EmptyCast(target, span=(start, self.prev_end()))
        if tok.kind == ".":
            if self.implicit_depth == 0:
                raise ParseError("no implicit subject in scope for leading '.'", tok.span)
            self.advance()
            lbl = self.parse_label()
            return s.Path(s.Var(s.IMPLICIT), lbl, span=(start, self.prev_end()))
        if tok.kind == "kw:select":
            self.advance()
            return self.parse_expr()
        if tok.kind == "kw:with":
            return self.parse_with()
        if tok.kind == "kw:for":
            return self.parse_for()
        if tok.kind == "kw:if":
            return self.parse_if()
        if tok.kind == "kw:insert":
            self.advance()
            tname = self.expect("ident", "type name").text
            entries = self.parse_assign_entries("insert")
            return s.Insert(tname, entries, span=(start, self.prev_end()))
        if tok.kind == "kw:update":
            self.advance()
            subject = self.parse_chain()
            self.expect("kw:set", "'set'")
            self.implicit_depth += 1
            entries = self.parse_assign_entries("update")
            self.implicit_depth -= 1
            return s.Update(subject, entries, span=(start, self.prev_end()))
        if tok.kind == "ident":
            self.advance()
            if self.at("("):
                self.advance()
                base = self.depth
                call_args: list[s.SurfaceExpr] = []
                if not self.at(")"):
                    call_args.append(self.sibling(base, self.parse_expr))
                    while self.accept(","):
                        call_args.append(self.sibling(base, self.parse_expr))
                self.expect(")")
                return s.Call(tok.text, call_args, span=(start, self.prev_end()))
            return s.Var(tok.text, span=tok.span)
        raise ParseError(f"unexpected {tok.kind} {tok.text!r}", tok.span, expected="an expression")

    def parse_set_literal(self) -> s.SurfaceExpr:
        open_tok = self.expect("{")
        start = open_tok.span[0]
        if self.at("}"):
            raise ParseError(
                "empty set literal needs a type cast, e.g. <int>{}", open_tok.span
            )
        base = self.depth
        items = [self.sibling(base, self.parse_expr)]
        while self.accept(","):
            items.append(self.sibling(base, self.parse_expr))
        self.expect("}")
        return s.SetLit(items, span=(start, self.prev_end()))

    def parse_with(self) -> s.SurfaceExpr:
        start = self.expect("kw:with").span[0]
        bindings: list[tuple[str, s.SurfaceExpr]] = []
        while True:
            name = self.expect("ident", "binder name").text
            self.expect(":=", "':='")
            bindings.append((name, self.parse_chain()))
            if not self.accept(","):
                break
        self.expect("kw:select", "'select' after with-bindings")
        e = self.parse_expr()
        for name, bound in reversed(bindings):
            e = s.With(name, bound, e, span=(start, self.prev_end()))
        return e

    def parse_for(self) -> s.SurfaceExpr:
        start = self.expect("kw:for").span[0]
        name = self.expect("ident", "binder name").text
        self.expect("kw:in", "'in'")
        source = self.parse_chain()
        self.expect("kw:union", "'union' separating the loop body")
        body = self.parse_expr()
        return s.For(name, source, body, span=(start, self.prev_end()))

    def parse_if(self) -> s.SurfaceExpr:
        start = self.expect("kw:if").span[0]
        cond = self.parse_chain()
        self.expect("kw:then", "'then'")
        then_branch = self.parse_chain()
        self.expect("kw:else", "'else'")
        else_branch = self.parse_expr()
        return s.If(cond, then_branch, else_branch, span=(start, self.prev_end()))

    # -- schemas ---------------------------------------------------------

    def parse_schema(self) -> tuple[Schema, list[Diagnostic]]:
        schema = Schema()
        diags: list[Diagnostic] = []
        while not self.at("eof"):
            self.expect("kw:type", "'type'")
            name = self.expect("ident", "type name").text
            self.expect("{")
            labels: dict[Label, tuple] = {}
            body_diags: list[Diagnostic] = []
            while not self.at("}"):
                self.parse_member(name, labels, body_diags)
            self.expect("}")
            self.accept(";")
            # a repeated type is dropped whole, its own duplicates unreported
            if name in schema.types:
                diags.append(Diagnostic("DuplicateTypeName", name, "type declared more than once"))
            else:
                schema.types[name] = ObjectTypeDecl(labels)
                diags.extend(body_diags)
        return schema, diags

    def parse_card(self) -> Cardinality:
        required = bool(self.accept("kw:required"))
        multi = bool(self.accept("kw:multi"))
        return _FLAG_CARDS[required, multi]

    def parse_member(self, type_name: str, labels: dict[Label, tuple],
                     diags: list[Diagnostic]) -> None:
        card = self.parse_card()
        lbl = self.expect("ident", "label").text
        path = f"{type_name}.{lbl}"
        self.expect(":", "':'")
        target_tok = self.expect("ident", "scalar type or type name")
        prop_diags: list[Diagnostic] = []
        if target_tok.text in SCALAR_NAMES:
            ty = SCALAR_NAMES[target_tok.text]
        else:
            props: dict[Label, tuple] = {}
            if self.accept("{"):
                while not self.at("}"):
                    self.parse_link_prop(path, props, prop_diags)
                self.expect("}")
            ty = StoredRefType(target_tok.text, tuple(props.items()))
        self.expect(";", "';'")
        if lbl in labels:
            diags.append(Diagnostic("DuplicateLabel", path, "label declared more than once"))
        else:
            labels[lbl] = (ty, card)
            diags.extend(prop_diags)

    def parse_link_prop(self, member_path: str, props: dict[Label, tuple],
                        diags: list[Diagnostic]) -> None:
        card = self.parse_card()
        self.accept("@")
        lbl = llabel(self.expect("ident", "link property name").text)
        self.expect(":", "':'")
        ty_tok = self.expect("ident", "scalar type")
        if ty_tok.text not in SCALAR_NAMES:
            raise ParseError("link properties must have scalar types", ty_tok.span)
        self.expect(";", "';'")
        if lbl in props:
            diags.append(Diagnostic("DuplicateLabel", f"{member_path}.{lbl}",
                                    "link property declared more than once"))
        else:
            props[lbl] = (SCALAR_NAMES[ty_tok.text], card)


def parse_query(text: str) -> s.SurfaceExpr:
    """Parse a single expression; trailing input is rejected."""
    return _Parser(text).parse_query()


def parse_schema(text: str) -> tuple[Schema, list[Diagnostic]]:
    """Parse schema source into a Schema, reporting repeated type names,
    labels and link properties. Well-formedness beyond duplicates is
    check_schema's job."""
    return _Parser(text).parse_schema()


def schema_to_source(schema: Schema) -> str:
    """Render a schema back to source text (parse_schema round-trips it).
    The empty mode has no concrete syntax and cannot be rendered."""

    def flags(card: Cardinality) -> str:
        if card == ONE:
            return "required "
        if card == AT_LEAST_ONE:
            return "required multi "
        if card == MANY:
            return "multi "
        if card.hi == 0:
            raise ValueError("the empty mode has no schema syntax")
        return ""

    lines = []
    for tname, decl in schema.types.items():
        lines.append(f"type {tname} {{")
        for lbl, (ty, card) in decl.labels.items():
            if isinstance(ty, StoredRefType):
                if ty.link_props:
                    props = " ".join(
                        f"{flags(pc)}{bare(plbl)}: {pt};" for plbl, (pt, pc) in ty.link_props
                    )
                    lines.append(f"  {flags(card)}{lbl}: {ty.target} {{ {props} }};")
                else:
                    lines.append(f"  {flags(card)}{lbl}: {ty.target};")
            else:
                lines.append(f"  {flags(card)}{lbl}: {ty};")
        lines.append("};")
    return "\n".join(lines) + "\n"
