"""Randomized metatheory harness.

Generates well-formed schemas and stores plus well-typed core expressions,
then checks the soundness theorems as executable properties: every seeded
evaluation succeeds (totality), results type at the synthesized type and
cardinality (preservation), the final store stays well-formed and extends the
initial one, an expression without insert or update leaves the store as it
was (read isolation), and runs under different permutation seeds agree up to
permutation at every set boundary (with freshly inserted ids compared up to
renaming).

Generation is type-directed: a target type and cardinality are fixed first
and productions are chosen that hit the target exactly, so every instance is
well-typed by construction with no rejection sampling against the checker.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

from . import core
from .evaluator import EvalConfig, EvalFault, Evaluator
from .model import (
    ALL_CARDINALITIES,
    AT_LEAST_ONE,
    AT_MOST_ONE,
    BoolVal,
    Cardinality,
    ComputedType,
    EMPTY,
    IntVal,
    Label,
    MANY,
    ONE,
    ObjType,
    ObjVal,
    ScalarType,
    Schema,
    ObjectTypeDecl,
    Store,
    StoreTuple,
    StoredRef,
    StoredRefType,
    StrVal,
    ValueSeq,
    card_le,
    card_mul,
    llabel,
)
from .parser import schema_to_source
from .serialize import to_json_text
from .store_io import save_snapshot
from .typecheck import extend_type, synth
from .wellformed import check_schema, check_store, store_extends, type_computed_seq

# schema modes exclude [0,0]: it has no concrete syntax
_SCHEMA_MODES = (AT_MOST_ONE, ONE, MANY, AT_LEAST_ONE)
_PROP_MODES = (AT_MOST_ONE, ONE, AT_MOST_ONE, ONE, MANY)

_INT_BOUND = 2**16
_WORDS = ("ada", "bel", "cyg", "dio", "eos", "fay", "gus", "hal")


@dataclass
class GenConfig:
    seed: int = 0
    max_types: int = 2
    max_labels: int = 3
    max_depth: int = 2
    max_store_size: int = 5
    max_expr_depth: int = 4
    mutation_probability: float = 0.5

    def __post_init__(self) -> None:
        if min(self.max_types, self.max_labels, self.max_depth,
               self.max_store_size, self.max_expr_depth) < 1:
            raise ValueError("all generator bounds must be >= 1")
        if not 0.0 <= self.mutation_probability <= 1.0:
            raise ValueError("mutationProbability must be within [0, 1]")


@dataclass
class Instance:
    schema: Schema
    store: Store
    expr: core.Expr
    ty: ComputedType
    card: Cardinality
    config: GenConfig


@dataclass
class CounterExample:
    """A failed property: the instance it failed on (generated from, or
    shrunk down from, `instance.config`) and the evaluation seeds."""

    instance: Instance
    eval_seeds: list[int]
    property_name: str
    witness: str


Context = dict[str, tuple[ComputedType, Cardinality]]


_SCALARS = (ScalarType.INT, ScalarType.STR, ScalarType.BOOL)


def _random_scalar(rng: random.Random, t: ScalarType) -> IntVal | StrVal | BoolVal:
    if t is ScalarType.INT:
        return IntVal(rng.randint(-_INT_BOUND, _INT_BOUND))
    if t is ScalarType.STR:
        return StrVal(rng.choice(_WORDS))
    return BoolVal(rng.random() < 0.5)


def _min_depth(m: Cardinality) -> int:
    """Smallest tree depth at which a scalar of mode m is constructible."""
    return 1 if m in (ONE, EMPTY) else 2


class _Gen:
    def __init__(self, rng: random.Random, cfg: GenConfig, schema: Schema, mutations: bool):
        self.rng = rng
        self.cfg = cfg
        self.schema = schema
        self.mutations = mutations
        self.counter = 0
        self.shape_nesting = 0  # bounded by cfg.max_depth
        # number of enclosing contexts evaluated once per element of a
        # possibly-permuted multi-element sequence (for bodies, shape entries,
        # order keys). The first update to an entity wins, so an update that
        # executes under such a context races on the iteration order and the
        # race is observable; updates are only generated outside them.
        self.iter_depth = 0
        # (source type, link label, declared ref type) for backlink targets
        self.links: list[tuple[str, Label, StoredRefType]] = [
            (tname, lbl, ty)
            for tname, decl in schema.types.items()
            for lbl, (ty, _) in decl.labels.items()
            if isinstance(ty, StoredRefType)
        ]
        # a type is insertable iff a finite insert derivation exists: every
        # required link must target an insertable type (least fixpoint, so
        # required-link cycles are excluded and generation terminates)
        self.insertable: set[str] = set()
        while True:
            grown = {n for n, decl in schema.types.items()
                     if all(ty.target in self.insertable
                            for ty, card in decl.labels.values()
                            if isinstance(ty, StoredRefType) and card.lo == 1)}
            if grown == self.insertable:
                break
            self.insertable = grown

    def fresh(self) -> str:
        self.counter += 1
        return f"$g{self.counter}"

    def pick(self, xs):
        return xs[self.rng.randrange(len(xs))]

    def sub_modes(self, depth: int, allowed=ALL_CARDINALITIES,
                  within: Cardinality = MANY) -> list[Cardinality]:
        """The modes in `allowed` that fit `within` and are constructible at `depth`."""
        return [m for m in allowed if _min_depth(m) <= depth and card_le(m, within)]

    @contextmanager
    def iterating(self, many: bool):
        """Generate under a context evaluated once per element when `many`."""
        self.iter_depth += many
        try:
            yield
        finally:
            self.iter_depth -= many

    # -- scalar expressions ------------------------------------------------

    def literal(self, t: ScalarType) -> core.Expr:
        return core.Prim(_random_scalar(self.rng, t))

    def scalar(self, ctx: Context, t: ScalarType, m: Cardinality, depth: int) -> core.Expr:
        """An expression with synth result exactly (t, m)."""
        assert depth >= _min_depth(m)
        options: list = ["base"]
        for name, (vt, vm) in ctx.items():
            if vt == t and vm == m:
                options.append(("var", name))
        if depth >= _min_depth(m) + 1:
            options.extend(("wrap", "wrap"))
        if depth >= 2:
            if m == ONE:
                options.extend(("call", "call", "split"))
            if m in (AT_MOST_ONE, AT_LEAST_ONE) or (m == MANY and depth >= 3):
                options.append("split")
            proj = self.scalar_proj_options(ctx, t, m)
            if proj:
                options.extend((("proj", proj), ("proj", proj)))
        choice = self.pick(options)
        match choice:
            case ("var", name):
                return core.Var(name)
            case ("proj", proj):
                subj_name, lbl = self.pick(proj)
                return core.Proj(core.Var(subj_name), lbl)
            case "call":
                return self.scalar_call(ctx, t, depth)
            case "split":
                return self.scalar_split(ctx, t, m, depth)
            case "wrap":
                return self.wrap(ctx, t, m, depth)
            case _:
                return self.scalar_base(ctx, t, m)

    def scalar_base(self, ctx: Context, t: ScalarType, m: Cardinality) -> core.Expr:
        if m == ONE:
            return self.literal(t)
        if m == EMPTY:
            return core.Empty(ty=t)
        if m == AT_MOST_ONE:
            # if!(b; v; empty): joins [1,1] with [0,0]
            return core.If(self.literal(ScalarType.BOOL), self.literal(t), core.Empty(ty=t))
        if m == AT_LEAST_ONE:
            return core.Union(self.literal(t), self.literal(t))
        # [0,inf]: coalesce always widens to unconstrained cardinality
        return core.Call("coalesce", [core.Empty(ty=t), self.literal(t)])

    def scalar_split(self, ctx: Context, t: ScalarType, m: Cardinality, depth: int) -> core.Expr:
        """Produce mode m as a union or conditional join of smaller modes."""
        sub = depth - 1
        if m == ONE:
            # [1,1] + [0,0] = [1,1]: a union with an exact lower bound
            left = self.scalar(ctx, t, ONE, sub)
            right = core.Empty(ty=t)
            return core.Union(left, right) if self.rng.random() < 0.5 else core.Union(right, left)
        if m == AT_MOST_ONE:
            if sub >= 2 and self.rng.random() < 0.3:
                return core.Union(self.scalar(ctx, t, AT_MOST_ONE, sub), core.Empty(ty=t))
            cond = self.scalar(ctx, ScalarType.BOOL, ONE, sub)
            lo = self.pick(self.sub_modes(sub, (EMPTY, AT_MOST_ONE)))
            hi = self.pick(self.sub_modes(sub, (ONE, AT_MOST_ONE)))
            return core.If(cond, self.scalar(ctx, t, hi, sub), self.scalar(ctx, t, lo, sub))
        if m == AT_LEAST_ONE:
            right = self.pick(self.sub_modes(sub, (ONE, AT_LEAST_ONE)))
            return core.Union(self.scalar(ctx, t, ONE, sub), self.scalar(ctx, t, right, sub))
        pairs = [(EMPTY, MANY), (MANY, MANY), (AT_MOST_ONE, AT_MOST_ONE), (AT_MOST_ONE, MANY)]
        pairs = [p for p in pairs if _min_depth(p[0]) <= sub and _min_depth(p[1]) <= sub]
        left, right = self.pick(pairs)
        return core.Union(self.scalar(ctx, t, left, sub), self.scalar(ctx, t, right, sub))

    def scalar_call(self, ctx: Context, t: ScalarType, depth: int) -> core.Expr:
        sub = depth - 1

        def ones(at: ScalarType, n: int = 2) -> list[core.Expr]:
            return [self.scalar(ctx, at, ONE, sub) for _ in range(n)]

        if t is ScalarType.INT and self.rng.random() < 0.5:
            vals, _, _ = self.any_seq(ctx, sub)
            return core.Call("count", [vals])
        if t is not ScalarType.BOOL:
            return core.Call("add" if t is ScalarType.INT else "append", ones(t))
        kinds = ["eq", "any", "lt", "not"]
        one_obj_feasible = (self.mutations and self.insertable) or any(
            isinstance(vt, ObjType) and vm == ONE for vt, vm in ctx.values()
        )
        if depth >= 3 and one_obj_feasible:
            kinds.append("eq_obj")
        match self.pick(kinds):
            case "any":
                mode = self.pick(self.sub_modes(sub))
                return core.Call("any", [self.scalar(ctx, ScalarType.BOOL, mode, sub)])
            case "lt":
                return core.Call("lt", ones(ScalarType.INT))
            case "not":
                return core.Call("not", ones(ScalarType.BOOL, 1))
            case "eq_obj":
                # eq takes [1,1] arguments: bind one object, compare it to itself
                expr, _, _ = self.object(ctx, sub, want_modes=(ONE,))
                y = self.fresh()
                return core.With(expr, y, core.Call("eq", [core.Var(y), core.Var(y)]))
            case _:
                return core.Call("eq", ones(self.pick(_SCALARS)))

    def scalar_proj_options(self, ctx: Context, t: ScalarType, m: Cardinality):
        """Projections Var(x).L from object variables at [1,1] that hit (t, m)
        exactly (the label mode multiplied by the subject mode)."""
        out = []
        for name, (vt, vm) in ctx.items():
            if not isinstance(vt, ObjType) or vm != ONE:
                continue
            for lbl, (ety, ecard) in vt.entries.items():
                if ety == t and card_mul(ecard, vm) == m:
                    out.append((name, lbl))
            decl = self.schema.decl(vt.target)
            for lbl, (sty, scard) in (decl.labels.items() if decl else ()):
                if lbl not in vt.entries and sty == t and card_mul(scard, vm) == m:
                    out.append((name, lbl))
        return out

    # -- wrappers ------------------------------------------------------------

    def wrap(self, ctx: Context, t: ScalarType, m: Cardinality, depth: int) -> core.Expr:
        """A (t, m) scalar under a mode-preserving wrapper: a with-binding, a
        [1,1] for-loop, or an order by."""
        sub = depth - 1
        kind = self.pick(("with", "for_one", "orderby"))
        if kind == "orderby":
            body = self.scalar(ctx, t, m, sub)
            x = self.fresh()
            key_t = self.pick(_SCALARS)
            key_m = self.pick(self.sub_modes(sub, (EMPTY, ONE, AT_MOST_ONE)))
            with self.iterating(m.hi > 1):
                key = self.scalar({**ctx, x: (t, ONE)}, key_t, key_m, sub)
            return core.OrderBy(body, x, key)
        if kind == "with":
            bound, bty, bcard = self.any_seq(ctx, sub)
        else:
            bty, bcard = self.pick(_SCALARS), ONE
            bound = self.scalar(ctx, bty, ONE, sub)
        x = self.fresh()
        body = self.scalar({**ctx, x: (bty, bcard)}, t, m, sub)
        return (core.With if kind == "with" else core.For)(bound, x, body)

    def any_seq(self, ctx: Context, depth: int) -> tuple[core.Expr, ComputedType, Cardinality]:
        """Any well-typed expression (with-bindings, count arguments)."""
        if self.rng.random() < 0.4:
            return self.object(ctx, depth)
        t = self.pick(_SCALARS)
        m = self.pick(self.sub_modes(depth))
        return self.scalar(ctx, t, m, depth), t, m

    # -- object expressions ----------------------------------------------

    def object(self, ctx: Context, depth: int, want_modes=None,
               target: str | None = None) -> tuple[core.Expr, ObjType, Cardinality]:
        """An object-typed expression; the production is chosen first and the
        achieved (type, mode) reported back. Feasible modes: [0,0] and [0,inf]
        always; [1,1] and [0,1] via context variables or mutations."""
        allowed = lambda m: want_modes is None or m in want_modes
        names = [target] if target else list(self.schema.types)
        feasible: list = []

        for name, (vt, vm) in ctx.items():
            if isinstance(vt, ObjType) and allowed(vm) and (target is None or vt.target == target):
                feasible.append(("var", name, vt, vm))
        if allowed(MANY):
            feasible.append(("name", self.pick(names)))
            backlinks = [(src_t, lbl, refty) for src_t, lbl, refty in self.links
                         if (target is None or src_t == target)]
            if backlinks and depth >= 2:
                feasible.append(("backlink", *self.pick(backlinks)))
        if allowed(EMPTY):
            feasible.append(("empty", self.pick(names)))
        insert_names = [n for n in names if n in self.insertable]
        if self.mutations and depth >= 2 and insert_names:
            if allowed(ONE):
                feasible.append(("insert", self.pick(insert_names)))
            if allowed(AT_MOST_ONE) and depth >= 3:
                if target is None and self.iter_depth == 0:
                    feasible.append(("update",))
                feasible.append(("opt_insert", self.pick(insert_names)))
            if (allowed(MANY) and depth >= 3 and target is None
                    and self.iter_depth == 0):
                feasible.append(("lifted_update",))
        assert feasible, f"no object production for modes {want_modes} target {target}"

        expr: core.Expr
        match self.pick(feasible):
            case ("var", name, vt, vm):
                expr, ty, card = core.Var(name), vt, vm
            case ("name", n):
                expr, ty, card = core.Name(n), ObjType(n, {}), MANY
            case ("empty", n):
                ty = ObjType(n, {})
                expr, card = core.Empty(ty=ty), EMPTY
            case ("backlink", src_t, lbl, refty):
                subj, _, _ = self.object(ctx, depth - 1, target=refty.target)
                ty = ObjType(src_t, {p: (pt, pc) for p, (pt, pc) in refty.link_props})
                expr, card = core.Backlink(subj, lbl, src_t), MANY
            case ("insert", n):
                expr, ty = self.insert(ctx, n, depth)
                card = ONE
            case ("opt_insert", n):
                ins, ity = self.insert(ctx, n, depth - 1)
                cond = self.scalar(ctx, ScalarType.BOOL, ONE, depth - 1)
                expr, ty, card = core.If(cond, ins, core.Empty(ty=ity)), ity, AT_MOST_ONE
            case ("update",):
                # update! over a directly generated [1,1] subject
                subj, subj_ty, _ = self.object(ctx, depth - 1, want_modes=(ONE,))
                expr, ty = self.update(ctx, subj, subj_ty, depth)
                card = AT_MOST_ONE
            case ("lifted_update",):
                expr, ty, card = self.lifted_update(ctx, depth)
            case other:
                raise AssertionError(other)

        if depth >= 2 and self.rng.random() < 0.5:
            expr, ty = self.reshape(ctx, expr, ty, depth, card)
        if depth >= 2 and self.rng.random() < 0.15:
            # union with the typed empty set: the mode is unchanged
            expr = core.Union(expr, core.Empty(ty=ty))
        return expr, ty, card

    def reshape(self, ctx: Context, subj: core.Expr, subj_ty: ObjType,
                depth: int, subj_card: Cardinality) -> tuple[core.Expr, ObjType]:
        """Apply a shape; the subject's mode is preserved and shadowed entries
        survive invisibly in both the value and the type."""
        x = self.fresh()
        inner_ctx = {**ctx, x: (subj_ty, ONE)}
        decl = self.schema.decl(subj_ty.target)
        shape: list[tuple[Label, core.Expr]] = []
        new_entries: list[tuple[Label, tuple[ComputedType, Cardinality]]] = []
        used: set[Label] = set()
        with self.iterating(subj_card.hi > 1):
            for _ in range(self.rng.randint(1, 2)):
                if self.rng.random() < 0.5 and decl and decl.labels:
                    lbl = self.pick(list(decl.labels))
                else:
                    lbl = self.pick(("w1", "w2", "w3"))
                if lbl in used:
                    continue
                used.add(lbl)
                nested_ok = depth >= 3 and self.shape_nesting < self.cfg.max_depth
                if nested_ok and self.rng.random() < 0.3:
                    self.shape_nesting += 1
                    e, ety, ecard = self.object(inner_ctx, depth - 1)
                    self.shape_nesting -= 1
                    shape.append((lbl, e))
                    new_entries.append((lbl, (ety, ecard)))
                else:
                    t = self.pick(_SCALARS)
                    m = self.pick(self.sub_modes(depth - 1))
                    shape.append((lbl, self.scalar(inner_ctx, t, m, depth - 1)))
                    new_entries.append((lbl, (t, m)))
        return core.Shaping(subj, x, shape), extend_type(subj_ty, new_entries)

    def lifted_update(self, ctx: Context, depth: int) -> tuple[core.Expr, ObjType, Cardinality]:
        """The canonical lifted update: for(seq; y. update!(y) set x.S).

        The sequence is name-based so its elements have pairwise distinct ids
        and iterations never contend on an edit mark (a backlink sequence may
        repeat an id with different link-property payloads, which makes the
        winner of first-update-wins order-dependent and observable). The
        entry expressions run per element and must not update."""
        n = self.pick(list(self.schema.types))
        seq: core.Expr = core.Name(n)
        seq_ty = ObjType(n, {})
        if depth >= 3 and self.rng.random() < 0.4:
            seq, seq_ty = self.reshape(ctx, seq, seq_ty, depth - 1, MANY)
        y = self.fresh()
        inner_ctx = {**ctx, y: (seq_ty, ONE)}
        with self.iterating(True):
            upd, ty = self.update(inner_ctx, core.Var(y), seq_ty, depth - 1)
        return core.For(seq, y, upd), ty, card_mul(MANY, AT_MOST_ONE)

    def insert(self, ctx: Context, n: str, depth: int) -> tuple[core.Expr, ObjType]:
        """insert n { every schema label }; only reachable when mutations are
        enabled and depth >= 2."""
        decl = self.schema.decl(n)
        shape, entries = self.label_values(ctx, decl, list(decl.labels), depth)
        return core.Insert(n, shape), ObjType(n, entries)

    def update(self, ctx: Context, subj: core.Expr, subj_ty: ObjType,
               depth: int) -> tuple[core.Expr, ObjType]:
        """update! of a given subject over a label subset (possibly empty,
        which still locks the tuple)."""
        decl = self.schema.decl(subj_ty.target)
        x = self.fresh()
        inner_ctx = {**ctx, x: (subj_ty, ONE)}
        labels = [lbl for lbl, (sty, scard) in decl.labels.items()
                  if not isinstance(sty, StoredRefType)
                  or scard.lo == 0 or sty.target in self.insertable]
        chosen = [lbl for lbl in labels if self.rng.random() < 0.6]
        if not chosen and labels:
            chosen = [self.pick(labels)]
        shape, entries = self.label_values(inner_ctx, decl, chosen, depth)
        return core.Update(subj, x, shape), ObjType(subj_ty.target, entries)

    def label_values(self, ctx: Context, decl: ObjectTypeDecl, labels: list[Label],
                     depth: int) -> tuple[list[tuple[Label, core.Expr]],
                                          dict[Label, tuple[ComputedType, Cardinality]]]:
        """One generated value per label, within the label's declared mode:
        the shape of an insert or update and the entries of its type."""
        shape: list[tuple[Label, core.Expr]] = []
        entries = {}
        scalar_depth = max(depth - 1, 1)
        for lbl in labels:
            sty, scard = decl.labels[lbl]
            if isinstance(sty, StoredRefType):
                e, ety = self.link_value(ctx, sty, scard, depth - 1)
            else:
                mode = self.pick(self.sub_modes(scalar_depth, within=scard))
                e, ety = self.scalar(ctx, sty, mode, scalar_depth), sty
            shape.append((lbl, e))
            entries[lbl] = (ety, scard)
        return shape, entries

    def link_value(self, ctx: Context, refty: StoredRefType, m: Cardinality,
                   depth: int) -> tuple[core.Expr, ComputedType]:
        """An expression checkable against (refty, m): it targets the link's
        object type and carries every link property with lower bound one.
        The depth budget is soft here; required properties force a shape."""
        required = [(lbl, pt, pc) for lbl, (pt, pc) in refty.link_props if pc.lo == 1]
        optional = [(lbl, pt, pc) for lbl, (pt, pc) in refty.link_props if pc.lo == 0]
        wanted = required + [p for p in optional if self.rng.random() < 0.4]

        # the bare subject: a plain object of the target type within mode m
        opts = []
        for name, (vt, vm) in ctx.items():
            if (isinstance(vt, ObjType) and vt.target == refty.target
                    and not vt.entries and card_le(vm, m)):
                opts.append(("var", name, vt, vm))
        if m.lo == 0:
            opts.append("empty")
        can_insert = self.mutations and refty.target in self.insertable
        # a required link forces an insert; otherwise inserts need budget
        if m.hi >= 1 and can_insert and (depth >= 1 or m.lo == 1):
            opts.append("insert")
        if m == MANY:
            opts.append("name")
        assert opts, f"no value production for link to {refty.target} at {m}"
        subj_ty = ObjType(refty.target, {})
        match self.pick(opts):
            case ("var", name, subj_ty, subj_card):
                subj: core.Expr = core.Var(name)
            case "empty":
                subj, subj_card = core.Empty(ty=subj_ty), EMPTY
            case "name":
                subj, subj_card = core.Name(refty.target), MANY
            case _:
                subj, subj_ty = self.insert(ctx, refty.target, depth - 1)
                subj_card = ONE
        if not wanted:
            return subj, subj_ty
        x = self.fresh()
        inner_ctx = {**ctx, x: (subj_ty, ONE)}
        shape = []
        new_entries = []
        with self.iterating(subj_card.hi > 1):
            for lbl, pt, pc in wanted:
                if pc.lo == 1:
                    mode = ONE
                else:
                    mode = self.pick(self.sub_modes(max(depth, 1), (ONE, EMPTY, AT_MOST_ONE),
                                                    within=pc))
                e = self.scalar(inner_ctx, pt, mode, max(depth, _min_depth(mode)))
                shape.append((lbl, e))
                new_entries.append((lbl, (pt, mode)))
        return core.Shaping(subj, x, shape), extend_type(subj_ty, new_entries)


def _gen_schema(rng: random.Random, cfg: GenConfig) -> Schema:
    n_types = rng.randint(1, cfg.max_types)
    names = [f"T{i}" for i in range(n_types)]
    schema = Schema()
    for tname in names:
        labels: dict[Label, tuple] = {}
        for j in range(rng.randint(1, cfg.max_labels)):
            lbl = f"{rng.choice(_WORDS)}{j}"
            if lbl in labels:
                continue
            card = rng.choice(_SCHEMA_MODES)
            if rng.random() < 0.35:
                target = rng.choice(names)
                props = tuple(
                    (llabel(f"p{k}"), (rng.choice(_SCALARS), rng.choice(_PROP_MODES)))
                    for k in range(rng.randint(0, 2))
                )
                labels[lbl] = (StoredRefType(target, props), card)
            else:
                labels[lbl] = (rng.choice(_SCALARS), card)
        schema.types[tname] = ObjectTypeDecl(labels)
    return schema


def _gen_store(rng: random.Random, cfg: GenConfig, schema: Schema) -> Store:
    names = list(schema.types)
    count = max(len(names), rng.randint(1, cfg.max_store_size))
    assignment = list(names)
    while len(assignment) < count:
        assignment.append(rng.choice(names))
    ids = [str(i + 1) for i in range(count)]
    by_type: dict[str, list[str]] = {}
    for id, tname in zip(ids, assignment):
        by_type.setdefault(tname, []).append(id)

    def seq_len(card: Cardinality) -> int:
        hi = 2 if card.hi == float("inf") else int(card.hi)
        return rng.randint(card.lo, max(card.lo, hi))

    tuples: dict[str, StoreTuple] = {}
    for id, tname in zip(ids, assignment):
        record = {}
        for lbl, (sty, scard) in schema.types[tname].labels.items():
            n = seq_len(scard)
            if isinstance(sty, StoredRefType):
                cells = []
                for _ in range(n):
                    target_id = rng.choice(by_type[sty.target])
                    props = {
                        plbl: [_random_scalar(rng, pt) for _ in range(seq_len(pc))]
                        for plbl, (pt, pc) in sty.link_props
                    }
                    cells.append(StoredRef(target_id, props))
                record[lbl] = cells
            else:
                record[lbl] = [_random_scalar(rng, sty) for _ in range(n)]
        tuples[id] = StoreTuple(tname, record)
    return Store(tuples)


def gen_instance(cfg: GenConfig) -> Instance:
    """Deterministically generate a well-formed, well-typed instance."""
    rng = random.Random(cfg.seed)
    schema = _gen_schema(rng, cfg)
    store = _gen_store(rng, cfg, schema)
    mutations = rng.random() < cfg.mutation_probability
    gen = _Gen(rng, cfg, schema, mutations)

    depth = cfg.max_expr_depth
    if depth == 1:
        roll = rng.random()
        if roll < 0.4:
            expr: core.Expr = gen.literal(gen.pick(_SCALARS))
        elif roll < 0.7:
            expr = core.Empty(ty=gen.pick(_SCALARS))
        else:
            expr = core.Name(gen.pick(list(schema.types)))
    elif rng.random() < 0.45:
        t = gen.pick(_SCALARS)
        expr = gen.scalar({}, t, gen.pick(ALL_CARDINALITIES), depth)
    else:
        expr, _, _ = gen.object({}, depth)

    ty, card = synth(schema, {}, expr)
    assert not check_schema(schema) and not check_store(schema, store)
    return Instance(schema, store, expr, ty, card, cfg)


# ---------------------------------------------------------------------------
# Canonical fingerprints: structural comparison up to permutation at every
# set boundary, with freshly inserted ids compared by expanding their store
# records (a renaming-insensitive canonical form; self-links cut by markers).

def _fp_seq(vals: ValueSeq, store: Store, base, stack) -> str:
    return "[" + ",".join(sorted(_fp_value(v, store, base, stack) for v in vals)) + "]"


def _fp_value(v, store: Store, base, stack) -> str:
    if isinstance(v, ObjVal):
        entries = ",".join(
            f"{lbl}{'+' if e.visible else '-'}{_fp_seq(e.values, store, base, stack)}"
            for lbl, e in sorted(v.shape.items())
        )
        return f"obj({_fp_id(v.id, store, base, stack)}|{entries})"
    return _fp_scalar(v)


def _fp_scalar(v) -> str:
    if isinstance(v, BoolVal):
        return f"b:{v.value}"
    if isinstance(v, IntVal):
        return f"i:{v.value}"
    return f"s:{v.value!r}"


def _fp_id(id: str, store: Store, base: set[str], stack: tuple) -> str:
    if id in base:
        return f"id:{id}"
    if id in stack:
        return f"cyc:{len(stack) - stack.index(id)}"
    tup = store.get(id)
    if tup is None:
        return "ghost"
    inner = stack + (id,)
    record = ",".join(
        f"{lbl}=" + "[" + ",".join(sorted(_fp_cell(c, store, base, inner) for c in seq)) + "]"
        for lbl, seq in sorted(tup.record.items())
    )
    return f"new:{tup.type_name}:({record})"


def _fp_cell(c, store: Store, base, stack) -> str:
    if isinstance(c, StoredRef):
        props = ",".join(
            f"{lbl}=[{','.join(sorted(_fp_scalar(x) for x in seq))}]"
            for lbl, seq in sorted(c.link_props.items())
        )
        return f"ref({_fp_id(c.id, store, base, stack)}|{props})"
    return _fp_scalar(c)


def result_fingerprint(result: ValueSeq, store_after: Store, base_ids: set[str]) -> str:
    return _fp_seq(result, store_after, base_ids, ())


def inserted_fingerprints(store_after: Store, base_ids: set[str]) -> list[str]:
    return sorted(
        _fp_id(id, store_after, base_ids, ())
        for id in store_after.tuples
        if id not in base_ids
    )


# ---------------------------------------------------------------------------

def check_soundness(instance: Instance, eval_seeds: list[int],
                    evaluator_cls=Evaluator) -> CounterExample | None:
    """Run the executable soundness properties; None means all passed."""

    def ce(prop: str, witness: str) -> CounterExample:
        return CounterExample(instance, list(eval_seeds), prop, witness)

    base_ids = set(instance.store.tuples)
    mutating = any(isinstance(n, (core.Insert, core.Update)) for n in core.walk(instance.expr))
    fingerprints: list[tuple[str, list[str]]] = []

    for seed in eval_seeds:
        cfg = EvalConfig(permutation_seed=seed)
        ev = evaluator_cls(instance.schema, cfg, instance.store)
        try:
            result, after = ev.run({}, instance.store, instance.expr)
        except EvalFault as exc:
            return ce("totality", f"seed {seed}: {exc}")
        except Exception as exc:  # a crash is still a totality failure
            return ce("totality", f"seed {seed}: crashed: {type(exc).__name__}: {exc}")
        if not type_computed_seq(instance.schema, instance.store, after,
                                 result, instance.ty, instance.card):
            return ce("preservation",
                      f"seed {seed}: result does not type at {instance.ty} # {instance.card}")
        diags = check_store(instance.schema, after)
        if diags:
            return ce("store-wellformed", f"seed {seed}: {diags[0]}")
        if not store_extends(instance.store, after):
            return ce("extension", f"seed {seed}: final store does not extend the initial one")
        if not mutating and after != instance.store:
            return ce("read-isolation", f"seed {seed}: read-only expression changed the store")
        fingerprints.append(
            (result_fingerprint(result, after, base_ids),
             inserted_fingerprints(after, base_ids))
        )

    first = fingerprints[0]
    for seed, other in zip(eval_seeds[1:], fingerprints[1:]):
        if other[0] != first[0]:
            return ce("permutation-insensitivity",
                      f"seeds {eval_seeds[0]} and {seed} disagree on the result")
        if other[1] != first[1]:
            return ce("permutation-insensitivity",
                      f"seeds {eval_seeds[0]} and {seed} disagree on inserted tuples")
    return None


def constructor_counts(e: core.Expr) -> Counter[str]:
    return Counter(type(node).__name__ for node in core.walk(e))


CONSTRUCTORS = ("Var", "Prim", "Empty", "Union", "Name", "Proj", "Backlink",
                "Shaping", "Call", "If", "With", "For", "OrderBy", "Insert", "Update")


def _derive_case_seed(master_seed: int, index: int) -> int:
    return (master_seed * 1_000_003 + index) & 0x7FFFFFFFFFFFFFFF


def _derive_eval_seeds(master_seed: int, index: int, count: int = 3) -> list[int]:
    return [(master_seed * 7_777_777 + index * 31 + j + 1) & 0x7FFFFFFFFFFFFFFF
            for j in range(count)]


def run_case(master_seed: int, index: int, base: GenConfig) -> tuple[CounterExample | None, Counter[str]]:
    cfg = replace(base, seed=_derive_case_seed(master_seed, index))
    instance = gen_instance(cfg)
    ce = check_soundness(instance, _derive_eval_seeds(master_seed, index))
    return ce, constructor_counts(instance.expr)


def _run_range(args) -> tuple[list[CounterExample], Counter[str]]:
    master_seed, start, stop, base = args
    failures: list[CounterExample] = []
    coverage: Counter[str] = Counter()
    for i in range(start, stop):
        ce, counts = run_case(master_seed, i, base)
        if ce is not None:
            failures.append(ce)
        coverage.update(counts)
    return failures, coverage


def run_fuzz(cases: int, master_seed: int, base: GenConfig | None = None,
             workers: int = 1) -> tuple[list[CounterExample], Counter[str]]:
    """Run `cases` generated instances, three eval seeds each; returns the
    counter-examples found (normally none) and constructor coverage counts."""
    base = base or GenConfig()
    if workers <= 1:
        return _run_range((master_seed, 0, cases, base))
    import concurrent.futures

    chunk = max(1, cases // workers)
    ranges = [(master_seed, i, min(i + chunk, cases), base) for i in range(0, cases, chunk)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_run_range, ranges))
    return ([ce for fails, _ in results for ce in fails],
            sum((cov for _, cov in results), Counter()))


# ---------------------------------------------------------------------------
# Counterexample files and shrinking

def counterexample_to_json(ce: CounterExample) -> str:
    """The file `grql fuzz` writes. Replay reads `seed`, `config` and
    `eval_seeds`; `snapshot` and `expr` show the shrunk instance to a reader."""
    inst = ce.instance
    config = asdict(inst.config)
    seed = config.pop("seed")
    doc = {
        "seed": seed,
        "config": config,
        "eval_seeds": ce.eval_seeds,
        "property": ce.property_name,
        "witness": ce.witness,
        "snapshot": save_snapshot(schema_to_source(inst.schema), inst.store,
                                  inst.store.max_numeric_id() + 1),
        "expr": core.to_text(inst.expr),
    }
    return to_json_text(doc, pretty=True) + "\n"


def replay_counterexample(text: str) -> CounterExample | None:
    """Re-run a stored counter-example from its seed; returns the reproduced
    failure, shrunk, or None if it no longer fails. Generation, evaluation
    and shrinking are deterministic, so this is the instance the fuzzer wrote
    to the file. Raises ValueError when the text is not such a file."""
    try:
        doc = json.loads(text)
        cfg = GenConfig(seed=doc["seed"], **doc["config"])
        eval_seeds = doc["eval_seeds"]
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested to decode
        raise ValueError(f"not valid JSON: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"counter-example file has no {exc} key") from None
    except TypeError as exc:
        raise ValueError(f"not a counter-example file: {exc}") from None
    if not isinstance(cfg.seed, int):
        raise ValueError("seed must be an integer")
    if not (isinstance(eval_seeds, list) and eval_seeds
            and all(isinstance(s, int) for s in eval_seeds)):
        raise ValueError("eval_seeds must be a non-empty list of integers")
    ce = check_soundness(gen_instance(cfg), eval_seeds)
    return None if ce is None else shrink(ce)


def _closed(e: core.Expr) -> bool:
    bound = set(core.binders(e))
    for node in core.walk(e):
        match node:
            case core.Var(name=n) if n not in bound:
                return False
            case core.Empty(of_var=v) if v is not None and v not in bound:
                return False
    return True


def shrink(ce: CounterExample, evaluator_cls=Evaluator) -> CounterExample:
    """Greedy shrink: replace the expression by a failing closed subtree and
    drop store tuples while the same property still fails. `ce` must be what
    check_soundness returned for its instance; since evaluation is
    deterministic, the last failing candidate's record is the result, and
    `ce` itself when no candidate fails."""
    instance = ce.instance
    prop = ce.property_name

    def fails(candidate: Instance) -> CounterExample | None:
        found = check_soundness(candidate, ce.eval_seeds, evaluator_cls=evaluator_cls)
        return found if found is not None and found.property_name == prop else None

    budget = 200
    changed = True
    while changed and budget > 0:
        changed = False
        for sub in list(core.walk(instance.expr)):
            if budget <= 0:
                break
            if sub is instance.expr or not _closed(sub):
                continue
            budget -= 1
            try:
                ty, card = synth(instance.schema, {}, sub)
            except Exception:
                continue
            found = fails(replace(instance, expr=sub, ty=ty, card=card))
            if found is not None:
                ce, instance = found, found.instance
                changed = True
                break
        for id in list(instance.store.tuples):
            if budget <= 0:
                break
            smaller = Store({k: v for k, v in instance.store.tuples.items() if k != id})
            if check_store(instance.schema, smaller):
                continue
            budget -= 1
            found = fails(replace(instance, store=smaller))
            if found is not None:
                ce, instance = found, found.instance
                changed = True
                break
    return ce
