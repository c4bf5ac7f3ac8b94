"""Well-formedness judgments: schema checking, store checking, stored-value
typing, computed-value typing, and store extension.

Diagnostics are collected exhaustively (no fail-fast) so callers can report
every problem in one pass. Diagnostic codes are part of the CLI's stable
output contract; the closed set is documented in the README.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    SCALAR_TYPES,
    Cardinality,
    ComputedType,
    ObjVal,
    ScalarType,
    Schema,
    Store,
    StoredRef,
    StoredRefType,
    StoredType,
    StoredValueSeq,
    ValueSeq,
    bare,
    is_link_prop,
)


@dataclass(frozen=True)
class Diagnostic:
    code: str
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} {self.path} {self.message}"


def check_schema(schema: Schema) -> list[Diagnostic]:
    """Schema well-formedness: referenced type names are declared, top-level
    labels are object labels, and no bare label name is used both as an
    object label and as a link property anywhere in the schema."""
    diags: list[Diagnostic] = []
    object_names: dict[str, str] = {}
    link_prop_names: dict[str, str] = {}

    for tname, decl in schema.types.items():
        for lbl, (ty, _card) in decl.labels.items():
            path = f"{tname}.{lbl}"
            if is_link_prop(lbl):
                diags.append(
                    Diagnostic("LabelKindClash", path, "top-level label must be an object label")
                )
            object_names.setdefault(bare(lbl), path)
            if isinstance(ty, StoredRefType):
                if ty.target not in schema.types:
                    diags.append(
                        Diagnostic("UndefinedTypeName", path, f"link target {ty.target!r} is not declared")
                    )
                # StoredRefType itself rejects a link property without `@`
                for plbl, _ in ty.link_props:
                    link_prop_names.setdefault(bare(plbl), f"{path}.{plbl}")

    for name, path in link_prop_names.items():
        if name in object_names:
            diags.append(
                Diagnostic(
                    "LabelKindClash",
                    path,
                    f"label {name!r} is used both as an object label ({object_names[name]}) "
                    "and as a link property",
                )
            )
    return diags


def type_stored_seq(
    schema: Schema,
    store: Store,
    vals: StoredValueSeq,
    ty: StoredType,
    m: Cardinality,
) -> bool:
    """Stored-value sequence typing: length within the mode and every element
    typed against ty. Reference elements must resolve in the store with the
    right target type and carry exactly the declared link properties. This is
    check_store's per-sequence judgment, so the two cannot disagree."""
    diags: list[Diagnostic] = []
    _check_seq(store, vals, ty, m, "", diags)
    return not diags


def check_store(schema: Schema, store: Store) -> list[Diagnostic]:
    """Store well-formedness: each tuple's type is declared, its record carries
    exactly the schema's labels, and every label's sequence types against the
    declared stored type and mode."""
    diags: list[Diagnostic] = []
    for id, tup in store.tuples.items():
        decl = schema.decl(tup.type_name)
        if decl is None:
            diags.append(Diagnostic("UnknownType", f"#{id}", f"type {tup.type_name!r} is not declared"))
            continue
        labels, record = decl.labels, tup.record
        if record.keys() != labels.keys():
            for lbl in labels:
                if lbl not in record:
                    diags.append(Diagnostic("MissingLabel", f"#{id}.{lbl}", "label required by schema is absent"))
            for lbl in record:
                if lbl not in labels:
                    diags.append(Diagnostic("ExtraLabel", f"#{id}.{lbl}", "label not declared in schema"))
        for lbl, (ty, card) in labels.items():
            seq = record.get(lbl)
            if seq is not None:
                _check_seq(store, seq, ty, card, f"#{id}.{lbl}", diags)
    return diags


def _check_seq(store: Store, seq: StoredValueSeq, ty: StoredType, card: Cardinality,
               path: str, diags: list[Diagnostic]) -> None:
    """Append the diagnostics of one stored sequence against (ty, card) to
    diags. A well-typed sequence allocates nothing: scalar types come from a
    lookup on the value's class, and a reference's link properties are read
    straight from the declared tuple."""
    if not card.admits(len(seq)):
        diags.append(Diagnostic("CardinalityViolation", path, f"{len(seq)} values, mode {card}"))
    if type(ty) is ScalarType:
        for v in seq:
            if SCALAR_TYPES.get(type(v)) is not ty:
                diags.append(Diagnostic("ValueTypeMismatch", path, f"expected {ty}"))
        return
    for v in seq:
        if type(v) is not StoredRef:
            diags.append(Diagnostic("ValueTypeMismatch", path, f"expected reference to {ty.target}"))
            continue
        tup = store.get(v.id)
        if tup is None:
            diags.append(Diagnostic("DanglingRef", path, f"id {v.id!r} not present in store"))
            continue
        if tup.type_name != ty.target:
            diags.append(Diagnostic(
                "ValueTypeMismatch", path, f"id {v.id!r} has type {tup.type_name}, expected {ty.target}"))
            continue
        props = v.link_props
        first = len(diags)
        present = 0
        for plbl, (pty, pcard) in ty.link_props:
            pseq = props.get(plbl)
            if pseq is None:
                diags.append(Diagnostic("MissingLabel", f"{path}.{plbl}", "declared link property is absent"))
                continue
            present += 1
            if pcard.admits(len(pseq)):
                for x in pseq:
                    if SCALAR_TYPES.get(type(x)) is not pty:
                        break
                else:
                    continue  # well typed: no path string is built
            _check_seq(store, pseq, pty, pcard, f"{path}.{plbl}", diags)
        if present != len(props):
            # undeclared link properties, reported ahead of the declared ones
            declared = dict(ty.link_props)
            diags[first:first] = [Diagnostic("ExtraLabel", f"{path}.{plbl}", "link property not declared")
                                  for plbl in props if plbl not in declared]


def type_computed_seq(
    schema: Schema,
    init_store: Store,
    ext_store: Store,
    vals: ValueSeq,
    ty: ComputedType,
    m: Cardinality,
) -> bool:
    """Computed-value sequence typing against an initial and an extended store.

    A reference types either because its id was present in the initial store
    with the right type name, or because the extended store holds it with an
    edit mark and it carries an entry for every label of its schema type; carried
    entries type recursively either way.
    """
    if not m.admits(len(vals)):
        return False
    return all(_type_computed_value(schema, init_store, ext_store, v, ty) for v in vals)


def _type_computed_value(schema: Schema, init_store: Store, ext_store: Store, v, ty: ComputedType) -> bool:
    if isinstance(ty, ScalarType):
        return SCALAR_TYPES.get(type(v)) is ty
    if not isinstance(v, ObjVal):
        return False
    if set(v.shape) != set(ty.entries):
        return False

    init_tup = init_store.get(v.id)
    if init_tup is not None and init_tup.type_name == ty.target:
        ok = True
    else:
        decl = schema.decl(ty.target)
        ext_tup = ext_store.get(v.id)
        ok = (
            decl is not None
            and ext_tup is not None
            and v.id in ext_store.locked
            and ext_tup.type_name == ty.target
            and set(decl.labels) <= set(v.shape)
        )
    if not ok:
        return False
    for lbl, (ety, ecard) in ty.entries.items():
        if not type_computed_seq(schema, init_store, ext_store, v.shape[lbl].values, ety, ecard):
            return False
    return True


def store_extends(base: Store, ext: Store) -> bool:
    """Database store extension: every id of base appears in ext with the same
    type name, and every tuple of ext without an edit mark appears verbatim,
    also unmarked, in base."""
    for id, tup in base.tuples.items():
        other = ext.get(id)
        if other is None or other.type_name != tup.type_name:
            return False
    for id, tup in ext.tuples.items():
        if id in ext.locked:
            continue
        orig = base.get(id)
        if orig is None or id in base.locked or orig.type_name != tup.type_name or orig.record != tup.record:
            return False
    return True
