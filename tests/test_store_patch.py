"""A committed store keeps its origin's read caches, patched for the tuples
the query wrote.

The property commits generated sequences of inserts and updates (scalar
values, link targets, link properties, no-op rewrites and rewrites of an id
already written) to generated stores, sometimes branching from an older
store. After every commit each cache the new store holds must equal what a
fresh `Store` over the same tuples builds, lists in order and with
duplicates, and the origin's caches must be as they were; two deliberately
broken patches fail it. A work counter, never a time, checks that a patch
reads only the written tuples."""

import importlib
import random
from pathlib import Path

import pytest

from grql import model
from grql.cli import Session, typed_query
from grql.evaluator import EvalConfig, evaluate
from grql.harness import GenConfig, gen_instance
from grql.model import ScalarType, Store, StoredRef, StoreTuple
from grql.simplify import simplify
from grql.store_io import load_seed, load_snapshot

BENCH_DIR = Path(__file__).parent.parent / "bench"


def caches(store: Store) -> dict:
    """Every read cache the store holds, copied into plain data."""
    out = {("extent", t): list(ids) for t, ids in (store._extents or {}).items()}
    for kind, built in (("lookup", store._lookups), ("backlinks", store._backlinks)):
        for key, index in built.items():
            out[(kind, *key)] = {k: list(items) for k, items in index.items()}
    return out


def fresh_caches(store: Store, kinds) -> dict:
    """The caches a fresh store over the same tuples builds, for each kind
    and key in `kinds`."""
    fresh = Store(dict(store.tuples))
    build = {"extent": fresh.extent, "lookup": fresh.lookup, "backlinks": fresh.backlinks}
    out = {}
    for kind, *key in kinds:
        out[(kind, *key)] = (list(build[kind](*key)) if kind == "extent" else
                             {k: list(items) for k, items in build[kind](*key).items()})
    return out


def commit_failure(origin: Store, before: dict, after: Store) -> str | None:
    """Why a commit's caches are wrong, or None: `before` is what the origin
    held before the commit (the query's reads may have built more since)."""
    now = caches(origin)
    if any(now[key] != cache for key, cache in before.items()):
        return "the origin's caches changed"
    held = caches(after)
    if held.keys() != now.keys():
        return f"caches {sorted(now.keys() - held.keys())} were dropped"
    if held != fresh_caches(after, held):
        return "a patched cache differs from a fresh build"
    return None


def build_some_caches(rng: random.Random, schema, store: Store) -> None:
    for type_name, decl in schema.types.items():
        if rng.random() < 0.7:
            store.extent(type_name)
        for label, (sty, _) in decl.labels.items():
            if rng.random() < 0.6:
                (store.lookup if isinstance(sty, ScalarType) else store.backlinks)(
                    type_name, label)


def rewrite(rng: random.Random, store: Store, tup: StoreTuple) -> StoreTuple:
    """`tup` with some labels' values replaced: another tuple's values of the
    label (other scalars, other link targets), the same links with other
    link properties, or the same values in reverse order."""
    peers = [t for t in store.tuples.values() if t.type_name == tup.type_name]
    record = dict(tup.record)
    for label, values in record.items():
        roll = rng.random()
        if roll < 0.4:
            record[label] = list(rng.choice(peers).record[label])
        elif roll < 0.6:
            donors = [v for t in peers for v in t.record[label] if isinstance(v, StoredRef)]
            record[label] = [StoredRef(v.id, dict(rng.choice(donors).link_props))
                             if isinstance(v, StoredRef) else v for v in values]
        elif roll < 0.7:
            record[label] = values[::-1]
    return StoreTuple(tup.type_name, record)


def random_commit(rng: random.Random, store: Store) -> Store:
    """Commit a few generated writes to `store` through `with_tuple`; the
    first new id may skip some, so that two commits to one store can give
    one id different places."""
    next_id = store.max_numeric_id() + 1 + rng.randrange(3)
    written = store
    for _ in range(rng.randrange(1, 5)):
        ids = list(written.tuples)
        if not ids:
            break
        roll = rng.random()
        id = rng.choice(ids)
        if roll < 0.3:
            written = written.with_tuple(str(next_id), rewrite(rng, written, written.tuples[id]))
            next_id += 1
        elif roll < 0.4:
            written = written.with_tuple(id, written.tuples[id])
        else:
            written = written.with_tuple(id, rewrite(rng, written, written.tuples[id]))
    return written.unlock_all()


def _bench_store(n: int):
    gen = importlib.import_module("gen")
    model_, _, _ = gen.generate(1, n)
    snap = load_snapshot(model_.snapshot_text())
    return snap.schema, snap.store


def _stores():
    for seed in range(150):
        inst = gen_instance(GenConfig(seed=seed, max_store_size=12))
        yield seed, inst.schema, inst.store
    for seed in range(3):
        yield seed, *_bench_store(40)


def patch_failure(steps: int = 6) -> str | None:
    """The first commit whose caches are wrong, over every generated store."""
    for seed, schema, store in _stores():
        rng = random.Random(seed)
        history = [store]
        for step in range(steps):
            origin = history[-1] if rng.random() < 0.8 else rng.choice(history)
            build_some_caches(rng, schema, origin)
            before = caches(origin)
            after = random_commit(rng, origin)
            problem = commit_failure(origin, before, after)
            if problem is not None:
                return f"seed {seed}, step {step}: {problem}"
            history.append(after)
    return None


@pytest.fixture()
def bench_gen(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))


def test_a_commit_patches_every_cache_its_origin_built(bench_gen):
    assert patch_failure() is None


real_patched = model._patched


def _append_moved(index, moved, added, ordinal_map):
    """A deliberately broken patch: an updated id leaves its old lists but
    goes to the end of its new ones."""
    out = real_patched(index, [(id, before, {}) for id, before, _ in moved], [], ordinal_map)
    return real_patched(out, [], [after for _, _, after in moved] + added, ordinal_map)


def _keep_old(index, moved, added, ordinal_map):
    """A deliberately broken patch: an updated id joins its new lists but
    stays in its old ones."""
    joined = [(id, {}, {k: v for k, v in after.items() if k not in before})
              for id, before, after in moved]
    return real_patched(index, joined, added, ordinal_map)


@pytest.mark.parametrize("broken", [_append_moved, _keep_old])
def test_a_broken_patch_fails_the_property(bench_gen, monkeypatch, broken):
    monkeypatch.setattr(model, "_patched", broken)
    assert patch_failure() is not None


def test_two_commits_to_one_store_each_place_their_own_ids():
    # the second commit inserts id 4 where the first inserted id 3, so the
    # two cannot share one ordinal map
    def person(age):
        return StoreTuple("Person", {"age": [model.IntVal(age)]})

    origin = Store({"1": person(1), "2": person(1)})
    origin.lookup("Person", "age")
    first = (origin.with_tuple("1", person(5)).with_tuple("3", person(7))
             .with_tuple("4", person(7)).unlock_all())
    second = origin.with_tuple("2", person(9)).with_tuple("4", person(7)).unlock_all()
    later = first.with_tuple("4", person(8)).unlock_all()
    for store in (first, second, later):
        assert caches(store) == fresh_caches(store, caches(store))


# -- through a session ---------------------------------------------------------

READS = [
    "count(Person)",
    'Person filter .name = "{name}"',
    "Person filter .age = {age}",
    'Movie filter .title = "{title}"',
    "Person.<directors[is Movie]",
    "Person.<actors[is Movie] {{ title, @character }}",
]
WRITES = [
    'insert Person {{ name := "{name}", age := {age}, born := <str>{{}} }}',
    'insert Movie {{ title := "{word}", year := 2000, '
    'directors := (insert Person {{ name := "{word}", age := {age}, born := <str>{{}} }}), '
    'actors := (Person filter .age = {age}) {{ @character := "{word}" }} }}',
    'update (Person filter .name = "{name}") set {{ age := {age} }}',
    'update (Person filter .name = "{name}") set {{ name := "{word}" }}',
    "update (Person filter .age = {age}) set {{ age := .age + 1 }}",
    'update (Movie filter .title = "{title}") set '
    '{{ directors := (Person filter .name = "{name}") union .directors }}',
    'update (Movie filter .title = "{title}") set {{ directors := '
    '(insert Person {{ name := "{word}", age := {age}, born := <str>{{}} }}) }}',
    'update (Movie filter .title = "{title}") set '
    '{{ actors := .actors {{ @character := "{word}" }} }}',
]


def test_every_session_commit_keeps_its_caches_right(bench_gen):
    schema, store = _bench_store(40)
    session = Session(schema, store, "", store.max_numeric_id() + 1)
    rng = random.Random(7)
    for step in range(60):
        persons = [t.record["name"][0].value for t in store.tuples.values()
                   if t.type_name == "Person"]
        ages = [t.record["age"][0].value for t in store.tuples.values()
                if t.type_name == "Person"]
        titles = [t.record["title"][0].value for t in store.tuples.values()
                  if t.type_name == "Movie"]
        fill = {"name": rng.choice(persons), "age": rng.choice(ages),
                "title": rng.choice(titles), "word": rng.choice(("Ann", "Bo", "Cy"))}
        for _ in range(2):
            session.run_query(rng.choice(READS).format(**fill))
        origin, before = session.store, caches(session.store)
        session.run_query(rng.choice(WRITES).format(**fill))
        store = session.store
        if store is not origin:
            assert commit_failure(origin, before, store) is None, step


def test_a_patch_reads_only_the_written_tuples():
    """After a committed insert and update, probing an index the parent had
    built reads no tuple the query did not write."""
    snap = load_seed()
    reads: list[str] = []

    class Counted(dict):
        def get(self, key, default=None):
            reads.append(self.id)
            return super().get(key, default)

    tuples = {}
    for id, tup in snap.store.tuples.items():
        record = Counted(tup.record)
        record.id = id
        tuples[id] = StoreTuple(tup.type_name, record)
    parent = Store(tuples)
    parent.lookup("Person", "name")
    parent.lookup("Person", "age")
    parent.backlinks("Movie", "actors")
    query = ('{count(insert Person { name := "Z", age := 3, born := <str>{} }), '
             'count(update (Person filter .name = "Megan Wolf") set { age := 39 })}')
    e, _, _ = typed_query(snap.schema, query)
    out = evaluate(snap.schema, EvalConfig(next_id=snap.next_id), {}, parent,
                   simplify(snap.schema, e))
    written = out.store_after.locked
    assert len(written) == 2
    reads.clear()
    store = out.store_after.unlock_all()
    assert "2" in store.lookup("Person", "age")[model.IntVal(39)]
    assert str(snap.next_id) in store.lookup("Person", "name")[model.StrVal("Z")]
    store.backlinks("Movie", "actors")
    assert reads and set(reads) <= written
    # a fresh build over the same tuples reads every person
    reads.clear()
    Store(store.tuples).lookup("Person", "name")
    assert len(set(reads)) > len(written)
