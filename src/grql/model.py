"""Core domain model: cardinality modes, labels, values, types, schemas, stores.

Cardinality modes form a semiring over the five intervals
[0,0], [0,1], [0,inf], [1,1], [1,inf]; they bound the length of every
value sequence in the system and drive both static checking and
serialization.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice

INF = float("inf")

_LOWER_BOUNDS = (0, 1)
_UPPER_BOUNDS = (0, 1, INF)


@dataclass(frozen=True)
class Cardinality:
    """Interval [lo, hi] with lo in {0,1} and hi in {0,1,inf}, lo <= hi."""

    lo: int
    hi: int | float

    def __post_init__(self) -> None:
        if self.lo not in _LOWER_BOUNDS or self.hi not in _UPPER_BOUNDS:
            raise ValueError(f"bad cardinality bounds [{self.lo},{self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo},{self.hi}]")

    def admits(self, n: int) -> bool:
        return self.lo <= n <= self.hi

    def __str__(self) -> str:
        hi = "inf" if self.hi == INF else str(int(self.hi))
        return f"[{self.lo}, {hi}]"


EMPTY = Cardinality(0, 0)
AT_MOST_ONE = Cardinality(0, 1)
MANY = Cardinality(0, INF)
ONE = Cardinality(1, 1)
AT_LEAST_ONE = Cardinality(1, INF)

ALL_CARDINALITIES = (EMPTY, AT_MOST_ONE, MANY, ONE, AT_LEAST_ONE)


def card_le(a: Cardinality, b: Cardinality) -> bool:
    """Interval containment: a <= b iff every length allowed by a is allowed by b."""
    return b.lo <= a.lo and a.hi <= b.hi


def card_add(a: Cardinality, b: Cardinality) -> Cardinality:
    """Addition: bounds add, rounding back into the legal bound sets."""
    lo = min(1, a.lo + b.lo)
    hi_sum = a.hi + b.hi
    hi = hi_sum if hi_sum <= 1 else INF
    return Cardinality(lo, hi)


def card_mul(a: Cardinality, b: Cardinality) -> Cardinality:
    """Componentwise product with 0 * inf = 0."""
    lo = a.lo * b.lo
    if a.hi == 0 or b.hi == 0:
        hi: int | float = 0
    elif a.hi == INF or b.hi == INF:
        hi = INF
    else:
        hi = a.hi * b.hi
    return Cardinality(lo, hi)


def card_if_join(a: Cardinality, b: Cardinality) -> Cardinality:
    """Interval hull, used to join the modes of conditional branches."""
    return Cardinality(min(a.lo, b.lo), max(a.hi, b.hi))


# Labels, type names and entity ids are plain strings. A link-property label
# carries the '@' prefix (`llabel` adds it, `is_link_prop` reads it); an
# object label never does. Ids are decimal-counter strings allocated
# monotonically per store, unique across the whole store.
Label = str
TypeName = str
EntityId = str


def olabel(name: str) -> Label:
    """An object label: the name itself."""
    return name


def llabel(name: str) -> Label:
    return name if is_link_prop(name) else "@" + name


def is_link_prop(lbl: Label) -> bool:
    return lbl.startswith("@")


def bare(lbl: Label) -> str:
    """The label without its '@' prefix: the name both kinds share."""
    return lbl[1:] if is_link_prop(lbl) else lbl


class ScalarType(enum.Enum):
    INT = "int"
    STR = "str"
    BOOL = "bool"

    def __str__(self) -> str:
        return self.value


INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class IntVal:
    value: int

    def __post_init__(self) -> None:
        if not INT64_MIN <= self.value <= INT64_MAX:
            raise ValueError(f"integer out of 64-bit range: {self.value}")


@dataclass(frozen=True)
class StrVal:
    value: str


@dataclass(frozen=True)
class BoolVal:
    value: bool


ScalarValue = IntVal | StrVal | BoolVal


# the scalar type of each scalar value class; any other value has none
SCALAR_TYPES: dict[type, ScalarType] = {
    BoolVal: ScalarType.BOOL, IntVal: ScalarType.INT, StrVal: ScalarType.STR}


def scalar_type_of(v: ScalarValue) -> ScalarType:
    ty = SCALAR_TYPES.get(type(v))
    if ty is None:
        raise TypeError(f"not a scalar value: {v!r}")
    return ty


# ---------------------------------------------------------------------------
# Stored types and values (data at rest)

@dataclass(frozen=True)
class StoredRefType:
    """Reference type: target object type plus declared link properties."""

    target: TypeName
    # insertion order is the canonical iteration order
    link_props: tuple[tuple[Label, tuple[ScalarType, Cardinality]], ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for lbl, _ in self.link_props:
            if not is_link_prop(lbl):
                raise ValueError(f"link property label expected, got {lbl}")
            if lbl in seen:
                raise ValueError(f"duplicate link property {lbl}")
            seen.add(lbl)


StoredType = ScalarType | StoredRefType


@dataclass
class StoredRef:
    """Stored reference value: an entity id plus link-property scalar sequences."""

    id: EntityId
    link_props: dict[Label, list[ScalarValue]] = field(default_factory=dict)


StoredValue = ScalarValue | StoredRef
StoredValueSeq = list[StoredValue]


# ---------------------------------------------------------------------------
# Computed types and values (query results)

@dataclass
class ObjType:
    """Computed reference type: target name plus carried entries."""

    target: TypeName
    entries: dict[Label, tuple[ComputedType, Cardinality]] = field(default_factory=dict)

    def __str__(self) -> str:
        if not self.entries:
            return f"{self.target} {{ }}"
        inner = ", ".join(
            f"{lbl}: {ty} # {m}" for lbl, (ty, m) in self.entries.items()
        )
        return f"{self.target} {{ {inner} }}"


ComputedType = ScalarType | ObjType


@dataclass
class ShapeEntry:
    """One shape-record entry: a visibility mark plus a value sequence.
    Invisible entries are skipped by serialization, nothing else."""

    visible: bool
    values: ValueSeq


@dataclass
class ObjVal:
    """Computed reference value: entity id plus a shape record of carried entries."""

    id: EntityId
    shape: dict[Label, ShapeEntry] = field(default_factory=dict)


ComputedValue = ScalarValue | ObjVal
ValueSeq = list[ComputedValue]


def vis(values: ValueSeq) -> ShapeEntry:
    return ShapeEntry(True, values)


def invis(values: ValueSeq) -> ShapeEntry:
    return ShapeEntry(False, values)


def seq_perm_eq(a: ValueSeq, b: ValueSeq) -> bool:
    """True iff a is a permutation of b under structural value equality (for
    references, ids and shape records agree entry-for-entry, visibility
    marks included)."""
    if len(a) != len(b):
        return False
    remaining = list(b)
    for x in a:
        for i, y in enumerate(remaining):
            if x == y:
                del remaining[i]
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Schemas and stores

@dataclass
class ObjectTypeDecl:
    """Object type: ordered map from object labels to stored types and modes."""

    labels: dict[Label, tuple[StoredType, Cardinality]] = field(default_factory=dict)


@dataclass
class Schema:
    """Ordered map from type names to object type declarations."""

    types: dict[TypeName, ObjectTypeDecl] = field(default_factory=dict)

    def decl(self, name: TypeName) -> ObjectTypeDecl | None:
        return self.types.get(name)


@dataclass
class StoreTuple:
    type_name: TypeName
    record: dict[Label, StoredValueSeq]


# target id -> (source id, stored reference) pairs, in store scan order
BacklinkIndex = dict[EntityId, list[tuple[EntityId, StoredRef]]]
# scalar value -> the ids that hold it, in store scan order
ValueIndex = dict[ScalarValue, list[EntityId]]


# One tuple's part of each index, as a commit's patch reads it. `lookup` and
# `backlinks` apply the same rules inline, which builds a whole index about
# twice as fast.
def _value_entries(id: EntityId, values: StoredValueSeq) -> dict[ScalarValue, list[EntityId]]:
    """One tuple's part of a value index: each value it holds, once."""
    return {v: [id] for v in values}


def _link_entries(id: EntityId, values: StoredValueSeq
                  ) -> dict[EntityId, list[tuple[EntityId, StoredRef]]]:
    """One tuple's part of a reverse-link index: each target with the
    tuple's references to it, in sequence order."""
    out: dict[EntityId, list[tuple[EntityId, StoredRef]]] = {}
    for v in values:
        if isinstance(v, StoredRef):
            out.setdefault(v.id, []).append((id, v))
    return out


def _source(item) -> EntityId:
    """The id whose tuple put an item into an index: a value index's item is
    that id, a reverse-link index's a (source id, reference) pair."""
    return item if isinstance(item, str) else item[0]


@dataclass
class Store:
    """The world state, threaded functionally: a map from entity ids
    to tuples, iterated in id-allocation order.

    `locked` holds the edit marks: the ids inserted or updated during the
    current evaluation. Only `with_tuple` adds to it; a store at rest (a
    loaded snapshot, a session between queries, a saved file) has none.
    A store is persistent: its `tuples` dict is never mutated once handed out.

    Three read caches are built lazily, at most once per store object: the
    per-type extents (`extent`) and, per (type, label) pair, the reverse-link
    index (`backlinks`) and the value index (`lookup`). A store that
    `with_tuple` made remembers the store at rest it came from (`_origin`);
    `unlock_all` gives the written store every cache its origin built,
    patched for the marked ids alone, and leaves the origin's caches as they
    were. The caches take no part in construction, `repr` or equality.
    """

    tuples: dict[EntityId, StoreTuple] = field(default_factory=dict)
    locked: frozenset[EntityId] = frozenset()
    _extents: dict[TypeName, list[EntityId]] | None = field(
        default=None, init=False, repr=False, compare=False)
    _backlinks: dict[tuple[TypeName, Label], BacklinkIndex] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _lookups: dict[tuple[TypeName, Label], ValueIndex] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # id -> position in `tuples`, built when a patch must place an updated id
    # among others; a store's descendants share it, each reading only the
    # entries of its own ids (see `_patch_caches`)
    _ordinals: dict[EntityId, int] | None = field(
        default=None, init=False, repr=False, compare=False)
    _origin: Store | None = field(default=None, init=False, repr=False, compare=False)

    def get(self, id: EntityId) -> StoreTuple | None:
        return self.tuples.get(id)

    def extent(self, type_name: TypeName) -> list[EntityId]:
        """The ids of one type, in id-allocation order (callers must not
        mutate the list)."""
        if self._extents is None:
            extents: dict[TypeName, list[EntityId]] = {}
            for id, tup in self.tuples.items():
                extents.setdefault(tup.type_name, []).append(id)
            self._extents = extents
        return self._extents.get(type_name, [])

    def backlinks(self, type_name: TypeName, label: Label) -> BacklinkIndex:
        """For sources of `type_name`, each target id of a `label` link mapped
        to its (source id, reference) pairs, sources in id-allocation order
        and each source's references in sequence order."""
        index = self._backlinks.get((type_name, label))
        if index is None:
            index = {}
            for src_id in self.extent(type_name):
                for v in self.tuples[src_id].record.get(label, ()):
                    if isinstance(v, StoredRef):
                        index.setdefault(v.id, []).append((src_id, v))
            self._backlinks[(type_name, label)] = index
        return index

    def lookup(self, type_name: TypeName, label: Label) -> ValueIndex:
        """For a scalar label of `type_name`, each value it holds mapped to
        the ids that hold it, in id-allocation order and each id once
        (callers must not mutate the index)."""
        index = self._lookups.get((type_name, label))
        if index is None:
            index = {}
            for id in self.extent(type_name):
                for v in self.tuples[id].record.get(label, ()):
                    ids = index.setdefault(v, [])
                    if not ids or ids[-1] != id:
                        ids.append(id)
            self._lookups[(type_name, label)] = index
        return index

    def with_tuple(self, id: EntityId, tup: StoreTuple) -> Store:
        """Functional update: a new store with `id` bound to `tup` and marked."""
        store = Store({**self.tuples, id: tup}, self.locked | {id})
        store._origin = self._origin or self
        return store

    def unlock_all(self) -> Store:
        """The same tuples with every edit mark cleared; the store itself,
        with its caches, when it holds no marks. The store returned is at
        rest and has no origin, and holds its origin's caches, patched."""
        if not self.locked:
            return self
        store = Store(self.tuples)
        if self._origin is not None:
            store._patch_caches(self._origin, self.locked)
        return store

    def _patch_caches(self, origin: Store, written: frozenset[EntityId]) -> None:
        """Give this store each cache `origin` built, patched for the
        `written` ids: origin's ids whose tuple changed, and the ids past
        origin's, which `with_tuple` added last and in allocation order.
        Every other tuple is origin's own, so each patch reads only written
        tuples; a changed list or dict is a copy, so origin's stay as they
        were."""
        old, new = origin.tuples, self.tuples
        inserted = list(islice(reversed(new), len(new) - len(old)))[::-1]
        updated = [id for id in written if id in old and old[id] is not new[id]]
        if origin._extents is not None:
            gained: dict[TypeName, list[EntityId]] = {}
            for id in inserted:
                gained.setdefault(new[id].type_name, []).append(id)
            self._extents = {**origin._extents, **{
                type_name: [*origin._extents.get(type_name, ()), *ids]
                for type_name, ids in gained.items()}}
        for cache, built, entries in ((self._lookups, origin._lookups, _value_entries),
                                      (self._backlinks, origin._backlinks, _link_entries)):
            for (type_name, label), index in built.items():
                def part(tuples, id):
                    tup = tuples[id]
                    values = tup.record.get(label, ()) if tup.type_name == type_name else ()
                    return entries(id, values)
                moved = [(id, part(old, id), part(new, id)) for id in updated]
                added = [part(new, id) for id in inserted]
                cache[(type_name, label)] = _patched(index, moved, added, origin._ordinal_map)
        ordinals = origin._ordinals
        if ordinals is not None and len(ordinals) == len(old):
            # appending this store's ids changes no entry an older sharer
            # reads; a sibling that appended first leaves the length longer
            ordinals.update(zip(inserted, range(len(old), len(new))))
            self._ordinals = ordinals

    def _ordinal_map(self) -> dict[EntityId, int]:
        if self._ordinals is None:
            self._ordinals = {id: i for i, id in enumerate(self.tuples)}
        return self._ordinals

    def max_numeric_id(self) -> int:
        best = 0
        for i in self.tuples:
            try:
                best = max(best, int(i))
            except ValueError:
                continue
        return best


def _patched(index: dict, moved, added, ordinal_map) -> dict:
    """A copy of `index`, whose lists hold items in source order with each
    source's items together, where each `moved` source (id, old part, new
    part) has its items replaced in place, found by the ordinal map, and
    each `added` part is appended. A list is copied when first changed and
    dropped when it ends empty; `index` itself is unchanged."""
    out = dict(index)
    copied: set = set()

    def own(key) -> list:
        if key not in copied:
            copied.add(key)
            out[key] = list(out.get(key, ()))
        return out[key]

    for id, before, after in moved:
        for key in {**before, **after}:
            if before.get(key) == after.get(key):
                continue
            ordinals = ordinal_map()
            items = own(key)
            at = bisect_left(items, ordinals[id], key=lambda item: ordinals[_source(item)])
            items[at:at + len(before.get(key, ()))] = after.get(key, ())
    for part in added:
        for key, items in part.items():
            own(key).extend(items)
    for key in copied:
        if not out[key]:
            del out[key]
    return out


def stored_to_computed_type(ty: StoredType) -> ComputedType:
    """Lift a stored type into a computed type (link properties become
    scalar-typed entries)."""
    if isinstance(ty, StoredRefType):
        return ObjType(ty.target, {lbl: (st, m) for lbl, (st, m) in ty.link_props})
    return ty
