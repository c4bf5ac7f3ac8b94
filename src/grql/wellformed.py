"""Well-formedness judgments: schema checking, store checking, stored-value
typing, computed-value typing, and store extension.

Diagnostics are collected exhaustively (no fail-fast) so callers can report
every problem in one pass. Diagnostic codes are part of the CLI's stable
output contract; the closed set is documented in the README.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
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
    scalar_type_of,
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
    check_store's per-value judgment, so the two cannot disagree."""
    return m.admits(len(vals)) and not any(
        _stored_value_diags(schema, store, v, ty, "") for v in vals)


def check_store(schema: Schema, store: Store) -> list[Diagnostic]:
    """Store well-formedness: each tuple's type is declared, its record carries
    exactly the schema's labels, and every label's sequence types against the
    declared stored type and mode."""
    diags: list[Diagnostic] = []
    for id, tup in store.tuples.items():
        decl = schema.decl(tup.type_name)
        where = f"#{id}"
        if decl is None:
            diags.append(Diagnostic("UnknownType", where, f"type {tup.type_name!r} is not declared"))
            continue
        for lbl in decl.labels:
            if lbl not in tup.record:
                diags.append(Diagnostic("MissingLabel", f"{where}.{lbl}", "label required by schema is absent"))
        for lbl in tup.record:
            if lbl not in decl.labels:
                diags.append(Diagnostic("ExtraLabel", f"{where}.{lbl}", "label not declared in schema"))
        for lbl, (ty, card) in decl.labels.items():
            if lbl not in tup.record:
                continue
            seq = tup.record[lbl]
            path = f"{where}.{lbl}"
            if not card.admits(len(seq)):
                diags.append(
                    Diagnostic("CardinalityViolation", path, f"{len(seq)} values, mode {card}")
                )
            for v in seq:
                diags.extend(_stored_value_diags(schema, store, v, ty, path))
    return diags


def _stored_value_diags(schema: Schema, store: Store, v, ty: StoredType, path: str) -> list[Diagnostic]:
    if isinstance(ty, ScalarType):
        if isinstance(v, (StoredRef, ObjVal)) or scalar_type_of(v) is not ty:
            return [Diagnostic("ValueTypeMismatch", path, f"expected {ty}")]
        return []
    if not isinstance(v, StoredRef):
        return [Diagnostic("ValueTypeMismatch", path, f"expected reference to {ty.target}")]
    tup = store.get(v.id)
    if tup is None:
        return [Diagnostic("DanglingRef", path, f"id {v.id!r} not present in store")]
    if tup.type_name != ty.target:
        return [
            Diagnostic("ValueTypeMismatch", path, f"id {v.id!r} has type {tup.type_name}, expected {ty.target}")
        ]
    diags: list[Diagnostic] = []
    props = ty.prop_map()
    for plbl in v.link_props:
        if plbl not in props:
            diags.append(Diagnostic("ExtraLabel", f"{path}.{plbl}", "link property not declared"))
    for plbl, (pty, pcard) in props.items():
        ppath = f"{path}.{plbl}"
        if plbl not in v.link_props:
            diags.append(Diagnostic("MissingLabel", ppath, "declared link property is absent"))
            continue
        seq = v.link_props[plbl]
        if not pcard.admits(len(seq)):
            diags.append(Diagnostic("CardinalityViolation", ppath, f"{len(seq)} values, mode {pcard}"))
        for x in seq:
            if isinstance(x, (StoredRef, ObjVal)) or scalar_type_of(x) is not pty:
                diags.append(Diagnostic("ValueTypeMismatch", ppath, f"expected {pty}"))
    return diags


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
        return not isinstance(v, (ObjVal, StoredRef)) and scalar_type_of(v) is ty
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
