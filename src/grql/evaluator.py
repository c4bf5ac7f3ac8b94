"""Big-step evaluator with the (env; init store; store-before -> store-after)
judgment.

Reads (names, projections, backlinks) resolve against the store that existed
when evaluation started; writes accumulate in the current store, which is
threaded functionally left-to-right. Every sequence-producing step is only
determined up to permutation: with no seed the evaluator uses the canonical
order (concatenation order, store iteration in id-allocation order); with a
seed each such step applies a seeded pseudo-random permutation.

Because reads only ever see the initial store, they use three caches that
the store builds lazily, at most once per store object: the per-type extents
(`Store.extent`, read by type names), the reverse-link index
(`Store.backlinks`, read by `seek`) and the value index (`Store.lookup`, read
by the `Lookup` nodes over a type name that `simplify` makes of filters).
A `Size` node, which `simplify` makes of a count of a stored chain, reads the
same extents and value index and then the initial store's stored sequences,
one step at a time, as ids: it builds no value.
Writes make new store objects and never touch the initial one, so the caches
need no updating during a query. When the query's store is committed,
`Store.unlock_all` hands it copies of the initial store's caches, patched
for the written tuples.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

from . import core
from .builtins import REGISTRY, BuiltinDomainError
from .model import (
    BoolVal,
    ComputedValue,
    EntityId,
    IntVal,
    Label,
    ObjVal,
    ScalarValue,
    ScalarType,
    Schema,
    ShapeEntry,
    Store,
    StoreTuple,
    StoredRef,
    StoredType,
    StoredValueSeq,
    TypeName,
    ValueSeq,
    invis,
    scalar_type_of,
    vis,
)
from .surface import QueryError

Environment = dict[str, ValueSeq]

FAULT_KINDS = (
    "UnboundVar", "MissingLabel", "NotARef", "BuiltinDomain", "Stuck",
    "IncomparableKeys", "MissingLinkProp",
)


class EvalFault(QueryError):
    """A runtime fault. `Evaluator.run` sets `span` to the source span of the
    innermost node with one that the fault passes through."""

    def __init__(self, code: str, message: str):
        assert code in FAULT_KINDS
        super().__init__(code, message)


@dataclass
class EvalConfig:
    permutation_seed: int | None = None
    dedup_projections: bool = False  # False reproduces the formal semantics
    # the first id an insert allocates; None: one past every numeric id of
    # the initial store
    next_id: int | None = None


@dataclass
class EvalOutcome:
    result: ValueSeq
    store_after: Store
    next_id: int  # the id the next insert would allocate


def project(init_store: Store, label: Label, w: ComputedValue) -> ValueSeq:
    """Project a label from an object value, preferring the carried entry
    (whatever its visibility) and falling back to the initial store."""
    if not isinstance(w, ObjVal):
        raise EvalFault("NotARef", f"cannot project {label} from a scalar")
    entry = w.shape.get(label)
    if entry is not None:
        return entry.values
    tup = init_store.get(w.id)
    if tup is None or label not in tup.record:
        raise EvalFault("MissingLabel", f"no stored value for {label} on id {w.id}")
    return [_stored_to_computed(v) for v in tup.record[label]]


def _stored_to_computed(v) -> ComputedValue:
    if isinstance(v, StoredRef):
        return ObjVal(v.id, {lbl: vis(list(seq)) for lbl, seq in v.link_props.items()})
    return v


def seek(init_store: Store, type_name: TypeName, label: Label, target: EntityId) -> ValueSeq:
    """Reverse lookup: sources of the given type whose label links to the
    target id, each carrying that link's properties; one result per distinct
    (source, link-property record) pair. Reads the store's reverse-link
    index, whose entries are in store scan order."""
    out: ValueSeq = []
    src: EntityId | None = None
    seen: list[dict] = []
    for src_id, ref in init_store.backlinks(type_name, label).get(target, ()):
        if src_id != src:
            src, seen = src_id, []
        if ref.link_props in seen:
            continue
        seen.append(ref.link_props)
        out.append(ObjVal(src_id, {lbl: invis(list(s)) for lbl, s in ref.link_props.items()}))
    return out


def record_extend(w: ComputedValue, shape: dict[Label, ShapeEntry]) -> ComputedValue:
    """Right-biased record extension: new entries win and come first in shape
    order; surviving old entries follow in their prior order, made invisible."""
    if not isinstance(w, ObjVal):
        raise EvalFault("NotARef", "only objects can be shaped")
    merged: dict[Label, ShapeEntry] = dict(shape)
    for lbl, entry in w.shape.items():
        if lbl not in merged:
            merged[lbl] = invis(entry.values)
    return ObjVal(w.id, merged)


def strip_for_storage(vals: ValueSeq, ty: StoredType) -> StoredValueSeq:
    """Strip computed values down to storable form: scalars pass through,
    references keep their id and exactly the declared link properties."""
    return [_strip_value(w, ty) for w in vals]


def _strip_value(w: ComputedValue, ty: StoredType):
    if isinstance(ty, ScalarType):
        if isinstance(w, ObjVal):
            raise EvalFault("Stuck", "reference where a scalar was expected")
        return w
    if not isinstance(w, ObjVal):
        raise EvalFault("Stuck", "scalar where a reference was expected")
    props: dict[Label, list[ScalarValue]] = {}
    for plbl, (_pty, pcard) in ty.link_props:
        entry = w.shape.get(plbl)
        if entry is None:
            if pcard.lo != 0:
                raise EvalFault(
                    "MissingLinkProp", f"value for id {w.id} carries no {plbl} entry"
                )
            props[plbl] = []
            continue
        seq: list[ScalarValue] = []
        for x in entry.values:
            if isinstance(x, ObjVal):
                raise EvalFault("Stuck", f"link property {plbl} holds a reference")
            seq.append(x)
        props[plbl] = seq
    return StoredRef(w.id, props)


def run_builtin(name: str, args: list[ValueSeq]) -> ValueSeq:
    """Interpret a built-in application; the checker has already matched the
    arguments against the signature's parameter modifiers."""
    spec = REGISTRY.get(name)
    if spec is None:
        raise EvalFault("Stuck", f"unknown builtin {name!r}")
    try:
        return spec.run(args)
    except BuiltinDomainError as exc:
        raise EvalFault("BuiltinDomain", str(exc)) from None


def order_by_keys(pairs: list[tuple[ComputedValue, ValueSeq]]) -> ValueSeq:
    """Stable sort of values by their key sequences; an empty key sorts before
    every nonempty key."""
    kinds = set()
    for _, key in pairs:
        if len(key) > 1:
            raise EvalFault("IncomparableKeys", "order key produced more than one value")
        if key:
            if isinstance(key[0], ObjVal):
                raise EvalFault("IncomparableKeys", "order keys must be scalars")
            kinds.add(scalar_type_of(key[0]))
    if len(kinds) > 1:
        raise EvalFault("IncomparableKeys", "order keys mix scalar types")
    decorated = [((0,) if not key else (1, key[0].value), i, w)
                 for i, (w, key) in enumerate(pairs)]
    decorated.sort(key=lambda item: (item[0], item[1]))
    return [w for _, _, w in decorated]


class Evaluator:
    """One evaluation session: fixed schema, config, and initial store.

    `run` is the only recursive entry point: it looks the node's method up in
    `_DISPATCH` by constructor, and every method evaluates its children
    through `self.run`, so a subclass or a wrapper of `run` sees every node.
    """

    def __init__(self, schema: Schema, config: EvalConfig, init_store: Store):
        self.schema = schema
        self.config = config
        self.init = init_store
        self.next_id = (config.next_id if config.next_id is not None
                        else init_store.max_numeric_id() + 1)
        self.rng = (
            random.Random(config.permutation_seed)
            if config.permutation_seed is not None
            else None
        )

    def permute(self, vals: ValueSeq) -> ValueSeq:
        if self.rng is not None and len(vals) > 1:
            vals = list(vals)
            self.rng.shuffle(vals)
        return vals

    def _dedup(self, vals: ValueSeq) -> ValueSeq:
        if not self.config.dedup_projections:
            return vals
        out: ValueSeq = []
        seen_ids: set[EntityId] = set()
        for w in vals:
            if isinstance(w, ObjVal):
                if w.id in seen_ids:
                    continue
                seen_ids.add(w.id)
            out.append(w)
        return out

    def run(self, env: Environment, store: Store, e: core.Expr) -> tuple[ValueSeq, Store]:
        method = _DISPATCH.get(type(e))
        if method is None:
            raise TypeError(f"unknown core node {e!r}")
        try:
            return method(self, env, store, e)
        except EvalFault as exc:
            # the innermost node with a span names the fault's source
            if exc.span is None:
                exc.span = e.span
            raise

    def _var(self, env: Environment, store: Store, e: core.Var):
        vals = env.get(e.name)
        if vals is None:
            raise EvalFault("UnboundVar", f"unbound variable {e.name!r}")
        return vals, store

    def _prim(self, env: Environment, store: Store, e: core.Prim):
        return [e.value], store

    def _empty(self, env: Environment, store: Store, e: core.Empty):
        return [], store

    def _union(self, env: Environment, store: Store, e: core.Union):
        wa, store = self.run(env, store, e.left)
        wb, store = self.run(env, store, e.right)
        return self.permute(wa + wb), store

    def _name(self, env: Environment, store: Store, e: core.Name):
        refs: ValueSeq = [ObjVal(id, {}) for id in self.init.extent(e.type_name)]
        return self.permute(refs), store

    def _proj(self, env: Environment, store: Store, e: core.Proj):
        ws, store = self.run(env, store, e.subject)
        out: ValueSeq = []
        for w in ws:
            out.extend(project(self.init, e.label, w))
        return self.permute(self._dedup(out)), store

    def _backlink(self, env: Environment, store: Store, e: core.Backlink):
        ws, store = self.run(env, store, e.subject)
        out: ValueSeq = []
        for w in ws:
            if not isinstance(w, ObjVal):
                raise EvalFault("NotARef", "backlink subject must be an object")
            out.extend(seek(self.init, e.type_name, e.label, w.id))
        return self.permute(self._dedup(out)), store

    def _probe(self, type_name: TypeName, label: Label, keys: ValueSeq) -> Sequence[EntityId]:
        """The ids of `type_name` whose scalar `label` holds a value of `keys`,
        read from the value index: one key's entry, or the ids that hold any
        of several keys, each once and in extent order as the scan gives them."""
        index = self.init.lookup(type_name, label)
        if len(keys) == 1:
            return index.get(keys[0], ())
        hits = set().union(*(index.get(k, ()) for k in keys))
        return [id for id in self.init.extent(type_name) if id in hits] if hits else []

    def _lookup(self, env: Environment, store: Store, e: core.Lookup):
        source = e.source
        if isinstance(source, core.Name):
            keys, store = self.run(env, store, e.key)
            ids = self._probe(source.type_name, e.label, keys)
            return self.permute([ObjVal(id, {}) for id in ids]), store
        # a hash semi-join: each element that shares a value with the key,
        # in source order and with the source's duplicates, as the scan keeps
        ws, store = self.run(env, store, source)
        keys, store = self.run(env, store, e.key)
        wanted = set(keys)
        init, label = self.init, e.label
        out = [w for w in ws if not wanted.isdisjoint(project(init, label, w))]
        return self.permute(out), store

    def _size(self, env: Environment, store: Store, e: core.Size):
        # the chain's base, and its labels first step first
        base, labels = e.source, []
        while isinstance(base, core.Proj):
            labels.append(base.label)
            base = base.subject
        labels.reverse()
        if isinstance(base, core.Name):
            ids = self.init.extent(base.type_name)
        else:  # a Lookup over a type name
            keys, store = self.run(env, store, base.key)
            ids = self._probe(base.source.type_name, base.label, keys)
        dedup = self.config.dedup_projections
        for i, label in enumerate(labels):
            cells = self._cells(ids, label)
            if i == len(labels) - 1 and not (
                    dedup and next((isinstance(seq[0], StoredRef) for seq in cells if seq), False)):
                # every value counts, duplicates too, unless --dedup drops a link's
                return [IntVal(sum(map(len, cells)))], store
            ids = [ref.id for seq in cells for ref in seq]
            if dedup:
                # each target once, as `_dedup` keeps it
                ids = list(dict.fromkeys(ids))
        return [IntVal(len(ids))], store

    def _cells(self, ids: Sequence[EntityId], label: Label) -> list[StoredValueSeq]:
        """The stored sequence of `label` on each id, as `project` reads it
        from the initial store."""
        tuples = self.init.tuples
        try:
            return [tuples[id].record[label] for id in ids]
        except KeyError:
            id = next(id for id in ids if id not in tuples or label not in tuples[id].record)
            raise EvalFault("MissingLabel", f"no stored value for {label} on id {id}") from None

    def _shaping(self, env: Environment, store: Store, e: core.Shaping):
        ws, store = self.run(env, store, e.subject)
        out: ValueSeq = []
        for w in ws:
            inner = {**env, e.binder: [w]}
            record: dict[Label, ShapeEntry] = {}
            for lbl, expr in e.shape:
                vals, store = self.run(inner, store, expr)
                record[lbl] = vis(vals)
            out.append(record_extend(w, record))
        return out, store

    def _call(self, env: Environment, store: Store, e: core.Call):
        arg_vals = []
        for a in e.args:
            vals, store = self.run(env, store, a)
            arg_vals.append(vals)
        return self.permute(run_builtin(e.fn, arg_vals)), store

    def _if(self, env: Environment, store: Store, e: core.If):
        wc, store = self.run(env, store, e.cond)
        if len(wc) != 1 or not isinstance(wc[0], BoolVal):
            raise EvalFault("Stuck", "condition did not produce a single boolean")
        branch = e.then_branch if wc[0].value else e.else_branch
        return self.run(env, store, branch)

    def _with(self, env: Environment, store: Store, e: core.With):
        vals, store = self.run(env, store, e.bound)
        return self.run({**env, e.binder: vals}, store, e.body)

    def _for(self, env: Environment, store: Store, e: core.For):
        ws, store = self.run(env, store, e.source)
        x, body = e.binder, e.body
        out: ValueSeq = []
        for w in ws:
            vals, store = self.run({**env, x: [w]}, store, body)
            out.extend(vals)
        return self.permute(out), store

    def _order_by(self, env: Environment, store: Store, e: core.OrderBy):
        ws, store = self.run(env, store, e.source)
        x, key = e.binder, e.key
        pairs = []
        for w in ws:
            key_vals, store = self.run({**env, x: [w]}, store, key)
            pairs.append((w, key_vals))
        return order_by_keys(pairs), store

    def _insert(self, env: Environment, store: Store, e: core.Insert):
        n = e.type_name
        decl = self.schema.decl(n)
        if decl is None:
            raise EvalFault("Stuck", f"unknown type {n!r}")
        computed: dict[Label, ValueSeq] = {}
        for lbl, expr in e.shape:
            vals, store = self.run(env, store, expr)
            computed[lbl] = vals
        record: dict[Label, StoredValueSeq] = {}
        for lbl, (sty, _) in decl.labels.items():
            record[lbl] = strip_for_storage(computed[lbl], sty)
        id = str(self.next_id)
        self.next_id += 1
        assert self.init.get(id) is None and store.get(id) is None, "id not fresh"
        store = store.with_tuple(id, StoreTuple(n, record))
        shape_rec = {lbl: invis(computed[lbl]) for lbl in decl.labels}
        return [ObjVal(id, shape_rec)], store

    def _update(self, env: Environment, store: Store, e: core.Update):
        ws, store = self.run(env, store, e.subject)
        if len(ws) != 1 or not isinstance(ws[0], ObjVal):
            raise EvalFault("Stuck", "update subject did not produce a single object")
        w = ws[0]
        inner = {**env, e.binder: [w]}
        computed: dict[Label, ValueSeq] = {}
        for lbl, expr in e.shape:
            vals, store = self.run(inner, store, expr)
            computed[lbl] = vals
        tup = store.get(w.id)
        if tup is None or w.id in store.locked:
            # absent or already edited this query: the update is a no-op
            return [], store
        decl = self.schema.decl(tup.type_name)
        if decl is None:
            raise EvalFault("Stuck", f"unknown type {tup.type_name!r}")
        record = dict(tup.record)
        for lbl, _ in e.shape:
            sty, _card = decl.labels[lbl]
            record[lbl] = strip_for_storage(computed[lbl], sty)
        store = store.with_tuple(w.id, StoreTuple(tup.type_name, record))
        return [ObjVal(w.id, {lbl: invis(computed[lbl]) for lbl, _ in e.shape})], store


# One method per core constructor; `Evaluator.run` is the only caller.
_DISPATCH = {
    core.Var: Evaluator._var,
    core.Prim: Evaluator._prim,
    core.Empty: Evaluator._empty,
    core.Union: Evaluator._union,
    core.Name: Evaluator._name,
    core.Proj: Evaluator._proj,
    core.Backlink: Evaluator._backlink,
    core.Lookup: Evaluator._lookup,
    core.Size: Evaluator._size,
    core.Shaping: Evaluator._shaping,
    core.Call: Evaluator._call,
    core.If: Evaluator._if,
    core.With: Evaluator._with,
    core.For: Evaluator._for,
    core.OrderBy: Evaluator._order_by,
    core.Insert: Evaluator._insert,
    core.Update: Evaluator._update,
}


def evaluate(
    schema: Schema,
    config: EvalConfig,
    env: Environment,
    store: Store,
    e: core.Expr,
) -> EvalOutcome:
    """Evaluate a core expression against `store`, which is both the initial
    store that reads see and the store that writes start from; raises
    EvalFault on the (statically unreachable) stuck cases and on built-in
    domain errors."""
    evaluator = Evaluator(schema, config, store)
    result, after = evaluator.run(env, store, e)
    return EvalOutcome(result, after, evaluator.next_id)
