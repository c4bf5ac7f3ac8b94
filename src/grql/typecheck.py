"""Type-and-cardinality synthesis for core expressions.

synth is a total, deterministic decision procedure: given a well-formed
schema, a context, and a core expression it either returns the unique
(type, cardinality) pair or raises TypeCheckError with one of the documented
codes.
"""

from __future__ import annotations

from . import core
from .builtins import MODIFIER_CARD, REGISTRY
from .model import (
    AT_MOST_ONE,
    Cardinality,
    ComputedType,
    Label,
    MANY,
    ONE,
    ObjType,
    ScalarType,
    Schema,
    StoredRefType,
    StoredType,
    card_add,
    card_if_join,
    card_le,
    card_mul,
    is_link_prop,
    scalar_type_of,
    stored_to_computed_type,
)
from .surface import QueryError, Span

Context = dict[str, tuple[ComputedType, Cardinality]]

ERROR_CODES = (
    "UnboundVar", "UnknownName", "NoSuchLabel", "NotAnObject",
    "CardinalityExceeded", "NoSignature", "StoreTypeMismatch",
    "BranchTypeMismatch", "KeyNotOptionalSingle", "BadUpdateSubject",
)


class TypeCheckError(QueryError):
    def __init__(self, code: str, message: str, span: Span | None = None):
        assert code in ERROR_CODES
        super().__init__(code, message, span)


def resolve_builtin(name: str, arg_types: list[ComputedType],
                    span: Span | None = None) -> tuple[ComputedType, Cardinality]:
    """The result type and cardinality of the unique signature for this name
    and argument type sequence; a `NoSignature` error carries `span`."""
    spec = REGISTRY.get(name)
    if spec is None or len(arg_types) != len(spec.modifiers):
        raise TypeCheckError("NoSignature", f"no signature for {name}/{len(arg_types)}", span)
    result = spec.resolve(arg_types)
    if result is None:
        shown = ", ".join(str(t) for t in arg_types)
        raise TypeCheckError("NoSignature", f"no signature for {name}({shown})", span)
    return result


def extend_type(base: ObjType, new: list[tuple[Label, tuple[ComputedType, Cardinality]]]) -> ObjType:
    """Right-biased record extension on object types: new entries win, in
    shape order; surviving old entries follow in their prior order."""
    entries: dict[Label, tuple[ComputedType, Cardinality]] = dict(new)
    for lbl, item in base.entries.items():
        if lbl not in entries:
            entries[lbl] = item
    return ObjType(base.target, entries)


def label_entry(schema: Schema, t: ObjType, lbl: Label) -> tuple[ComputedType, Cardinality] | None:
    """The type and cardinality of label `lbl` on a value of type `t`: its
    carried entry when `t` has one, else the stored label of `t`'s target;
    None when neither has it."""
    if lbl in t.entries:
        return t.entries[lbl]
    decl = schema.decl(t.target)
    if decl is None or lbl not in decl.labels:
        return None
    sty, scard = decl.labels[lbl]
    return stored_to_computed_type(sty), scard


def _validate_annotation(schema: Schema, ty: ComputedType, span: Span | None) -> None:
    if isinstance(ty, ObjType):
        if schema.decl(ty.target) is None:
            raise TypeCheckError("UnknownName", f"unknown type {ty.target!r} in annotation", span)
        for ety, _ in ty.entries.values():
            _validate_annotation(schema, ety, span)


def synth(schema: Schema, ctx: Context, e: core.Expr,
          sources: dict[int, tuple[ComputedType, Cardinality]] | None = None,
          ) -> tuple[ComputedType, Cardinality]:
    """The type and cardinality of `e` in `ctx`. When `sources` is given, it
    also collects the type and cardinality of the source of every `for` node
    and of the bound of every `with` node in `e`, keyed by the node's `id`."""
    match e:
        case core.Var(name=n):
            if n not in ctx:
                raise TypeCheckError("UnboundVar", f"unbound variable {n!r}", e.span)
            return ctx[n]

        case core.Prim(value=v):
            return scalar_type_of(v), ONE

        case core.Empty(ty=ty, of_var=var):
            if ty is None:
                if var not in ctx:
                    raise TypeCheckError("UnboundVar", f"unbound variable {var!r}", e.span)
                return ctx[var][0], Cardinality(0, 0)
            _validate_annotation(schema, ty, e.span)
            return ty, Cardinality(0, 0)

        case core.Union(left=a, right=b):
            ta, ma = synth(schema, ctx, a, sources)
            tb, mb = synth(schema, ctx, b, sources)
            if ta != tb:
                raise TypeCheckError(
                    "BranchTypeMismatch", f"union operands have different types: {ta} vs {tb}", e.span
                )
            return ta, card_add(ma, mb)

        case core.Name(type_name=n):
            if schema.decl(n) is None:
                raise TypeCheckError("UnknownName", f"unknown type {n!r}", e.span)
            return ObjType(n, {}), MANY

        case core.Proj(subject=subj, label=lbl):
            tsubj, msubj = synth(schema, ctx, subj, sources)
            if not isinstance(tsubj, ObjType):
                raise TypeCheckError("NotAnObject", f"cannot project {lbl} from {tsubj}", e.span)
            entry = label_entry(schema, tsubj, lbl)
            if entry is None:
                raise TypeCheckError(
                    "NoSuchLabel", f"{tsubj.target} has no label {lbl}", e.span
                )
            ety, ecard = entry
            return ety, card_mul(ecard, msubj)

        case core.Backlink(subject=subj, label=lbl, type_name=n):
            decl = schema.decl(n)
            if decl is None:
                raise TypeCheckError("UnknownName", f"unknown type {n!r}", e.span)
            if lbl not in decl.labels:
                raise TypeCheckError("NoSuchLabel", f"{n} has no link {lbl}", e.span)
            sty, _ = decl.labels[lbl]
            if not isinstance(sty, StoredRefType):
                raise TypeCheckError("NoSuchLabel", f"{n}.{lbl} is a property, not a link", e.span)
            tsubj, _ = synth(schema, ctx, subj, sources)
            if not isinstance(tsubj, ObjType):
                raise TypeCheckError("NotAnObject", "backlink subject must be an object", e.span)
            if tsubj.target != sty.target:
                raise TypeCheckError(
                    "StoreTypeMismatch",
                    f"backlink subject is {tsubj.target}, but {n}.{lbl} targets {sty.target}",
                    e.span,
                )
            entries = {plbl: (pty, pcard) for plbl, (pty, pcard) in sty.link_props}
            return ObjType(n, entries), MANY

        case core.Shaping(subject=subj, binder=x, shape=shape):
            tsubj, msubj = synth(schema, ctx, subj, sources)
            if not isinstance(tsubj, ObjType):
                raise TypeCheckError("NotAnObject", "only objects can be shaped", e.span)
            inner = {**ctx, x: (tsubj, ONE)}
            new_entries = []
            for lbl, expr in shape:
                ety, ecard = synth(schema, inner, expr, sources)
                new_entries.append((lbl, (ety, ecard)))
            return extend_type(tsubj, new_entries), msubj

        case core.Call(fn=fn, args=args):
            arg_results = [synth(schema, ctx, a, sources) for a in args]
            result = resolve_builtin(fn, [t for t, _ in arg_results], e.span)
            for i, ((_, m), mod) in enumerate(zip(arg_results, REGISTRY[fn].modifiers)):
                bound = MODIFIER_CARD[mod]
                if not card_le(m, bound):
                    raise TypeCheckError(
                        "CardinalityExceeded",
                        f"argument {i + 1} of {fn} has cardinality {m}, not within {bound}",
                        e.span,
                    )
            return result

        case core.If(cond=c, then_branch=t, else_branch=f):
            tc, mc = synth(schema, ctx, c, sources)
            if tc is not ScalarType.BOOL:
                raise TypeCheckError("BranchTypeMismatch", f"condition must be bool, got {tc}", e.span)
            if mc != ONE:
                raise TypeCheckError(
                    "CardinalityExceeded", f"condition must have cardinality [1, 1], got {mc}", e.span
                )
            tt, mt = synth(schema, ctx, t, sources)
            tf, mf = synth(schema, ctx, f, sources)
            if tt != tf:
                raise TypeCheckError(
                    "BranchTypeMismatch", f"branches have different types: {tt} vs {tf}", e.span
                )
            return tt, card_if_join(mt, mf)

        case core.With(bound=bd, binder=x, body=b):
            tb, mb = synth(schema, ctx, bd, sources)
            if sources is not None:
                sources[id(e)] = tb, mb
            return synth(schema, {**ctx, x: (tb, mb)}, b, sources)

        case core.For(source=src, binder=x, body=b):
            ts, ms = synth(schema, ctx, src, sources)
            if sources is not None:
                sources[id(e)] = ts, ms
            tbody, mbody = synth(schema, {**ctx, x: (ts, ONE)}, b, sources)
            return tbody, card_mul(ms, mbody)

        case core.OrderBy(source=src, binder=x, key=k):
            ts, ms = synth(schema, ctx, src, sources)
            tkey, mkey = synth(schema, {**ctx, x: (ts, ONE)}, k, sources)
            if not isinstance(tkey, ScalarType) or not card_le(mkey, AT_MOST_ONE):
                raise TypeCheckError(
                    "KeyNotOptionalSingle",
                    f"order key must be an optional single scalar, got {tkey} # {mkey}",
                    e.span,
                )
            return ts, ms

        case core.Insert(type_name=n, shape=shape):
            decl = schema.decl(n)
            if decl is None:
                raise TypeCheckError("UnknownName", f"unknown type {n!r}", e.span)
            provided = {lbl for lbl, _ in shape}
            for lbl in provided:
                if is_link_prop(lbl) or lbl not in decl.labels:
                    raise TypeCheckError("NoSuchLabel", f"{n} has no label {lbl}", e.span)
            missing = [lbl for lbl in decl.labels if lbl not in provided]
            if missing:
                raise TypeCheckError(
                    "StoreTypeMismatch",
                    f"insert must give every label of {n}; missing {', '.join(missing)}",
                    e.span,
                )
            by_label = dict(shape)
            entries = {}
            for lbl, (sty, scard) in decl.labels.items():
                ety = check_against_stored(schema, ctx, by_label[lbl], sty, scard, sources)
                entries[lbl] = (ety, scard)
            return ObjType(n, entries), ONE

        case core.Update(subject=subj, binder=x, shape=shape):
            tsubj, msubj = synth(schema, ctx, subj, sources)
            if not isinstance(tsubj, ObjType) or msubj != ONE:
                raise TypeCheckError(
                    "BadUpdateSubject",
                    f"update subject must be a single object, got {tsubj} # {msubj}",
                    e.span,
                )
            decl = schema.decl(tsubj.target)
            if decl is None:
                raise TypeCheckError("UnknownName", f"unknown type {tsubj.target!r}", e.span)
            inner = {**ctx, x: (tsubj, ONE)}
            entries = {}
            for lbl, expr in shape:
                if is_link_prop(lbl) or lbl not in decl.labels:
                    raise TypeCheckError("NoSuchLabel", f"{tsubj.target} has no label {lbl}", e.span)
                sty, scard = decl.labels[lbl]
                ety = check_against_stored(schema, inner, expr, sty, scard, sources)
                entries[lbl] = (ety, scard)
            return ObjType(tsubj.target, entries), AT_MOST_ONE

        case core.Lookup(source=src, label=lbl, key=k):
            ts, ms = synth(schema, ctx, src, sources)
            if not isinstance(ts, ObjType):
                raise TypeCheckError("NotAnObject", f"cannot look up {lbl} in {ts}", e.span)
            lty, _ = label_entry(schema, ts, lbl) or (None, None)
            if not isinstance(lty, ScalarType):
                raise TypeCheckError("NoSuchLabel", f"{ts.target} has no property {lbl}", e.span)
            tk, _ = synth(schema, ctx, k, sources)
            if tk is not lty:
                raise TypeCheckError(
                    "StoreTypeMismatch", f"lookup key is {tk}, but {lbl} of {ts} holds {lty}",
                    e.span,
                )
            return ts, card_mul(ms, AT_MOST_ONE)

        case core.Size(source=src):
            synth(schema, ctx, src, sources)
            return ScalarType.INT, ONE

    raise TypeError(f"unknown core node {e!r}")


def check_against_stored(
    schema: Schema,
    ctx: Context,
    e: core.Expr,
    ty: StoredType,
    m: Cardinality,
    sources: dict[int, tuple[ComputedType, Cardinality]] | None = None,
) -> ComputedType:
    """Check an expression against a stored type and mode (the insert/update
    auxiliary judgment); returns the synthesized computed type."""
    te, me = synth(schema, ctx, e, sources)
    if not card_le(me, m):
        raise TypeCheckError(
            "CardinalityExceeded", f"expression has cardinality {me}, not within {m}", e.span
        )
    if isinstance(ty, ScalarType):
        if te is not ty:
            raise TypeCheckError("StoreTypeMismatch", f"expected {ty}, got {te}", e.span)
        return te

    if not isinstance(te, ObjType) or te.target != ty.target:
        raise TypeCheckError(
            "StoreTypeMismatch", f"expected a reference to {ty.target}, got {te}", e.span
        )
    for plbl, (pty, pcard) in ty.link_props:
        if plbl in te.entries:
            ety, ecard = te.entries[plbl]
            if ety is not pty:
                raise TypeCheckError(
                    "StoreTypeMismatch", f"link property {plbl} must be {pty}, got {ety}", e.span
                )
            if not card_le(ecard, pcard):
                raise TypeCheckError(
                    "CardinalityExceeded",
                    f"link property {plbl} has cardinality {ecard}, not within {pcard}",
                    e.span,
                )
        elif pcard.lo != 0:
            raise TypeCheckError(
                "StoreTypeMismatch",
                f"required link property {plbl} is not carried by the value", e.span,
            )
    return te
