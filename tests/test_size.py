"""`Size`, which `simplify` makes of a count of a stored chain, gives the
count of the values the chain gives, and builds none of them.

A differential gate takes every chain of up to three steps over a schema,
from a type name and from a probe of it on one key and on three keys, and
evaluates it as a `Size` and as the chain itself, on the seed store, a
benchmark store and generated stores, canonically, under three seeds and
under --dedup; two deliberately broken Sizes fail it. Work counters, never
times, gate what a count no longer builds."""

import dataclasses
import importlib
from collections import Counter

import pytest

from grql import core, evaluator
from grql.cli import Session, typed_query
from grql.evaluator import EvalConfig, EvalFault, Evaluator, evaluate
from grql.harness import GenConfig, gen_instance
from grql.model import (
    BoolVal, IntVal, ObjVal, ScalarType, Store, StoreTuple, StoredRefType, StrVal, olabel,
)
from grql.simplify import simplify
from grql.store_io import load_seed
from test_lookup import _bench_snapshot

MAX_STEPS = 3
CONFIGS = (EvalConfig(), *(EvalConfig(permutation_seed=seed) for seed in (1, 2, 3)),
           EvalConfig(dedup_projections=True))
# a key no generated store holds; a bool has none, so it stands for one
MISSES = {ScalarType.INT: IntVal(10**6), ScalarType.STR: StrVal("zz"),
          ScalarType.BOOL: BoolVal(True)}


def _union(values) -> core.Expr:
    out = core.Prim(values[0])
    for v in values[1:]:
        out = core.Union(out, core.Prim(v))
    return out


def key_sets(store, type_name, label, sty) -> list[list]:
    """One key, and three keys of which one id holds the first two: two of
    its values when some id holds two, else one value twice."""
    held = [tup.record[label] for tup in store.tuples.values()
            if tup.type_name == type_name and tup.record[label]]
    if not held:
        return [[MISSES[sty]], [MISSES[sty]] * 3]
    two = next(([seq[0], v] for seq in held for v in seq if v != seq[0]), [held[0][0]] * 2)
    return [[held[-1][-1]], [*two, held[-1][-1]]]


def chains(schema, store) -> list[core.Expr]:
    """Every stored chain of up to MAX_STEPS projections over `schema`: a type
    name or a probe of one, then links, and at most one scalar label last."""
    bases = []
    for type_name, decl in schema.types.items():
        bases.append((core.Name(type_name), type_name))
        for label, (sty, _) in decl.labels.items():
            if isinstance(sty, ScalarType):
                for keys in key_sets(store, type_name, label, sty):
                    probe = core.Lookup(core.Name(type_name), label, _union(keys))
                    bases.append((probe, type_name))
    out = []

    def extend(e, type_name, steps):
        out.append(e)
        if steps == MAX_STEPS:
            return
        for label, (sty, _) in schema.types[type_name].labels.items():
            if isinstance(sty, StoredRefType):
                extend(core.Proj(e, label), sty.target, steps + 1)
            else:
                out.append(core.Proj(e, label))

    for base, type_name in bases:
        extend(base, type_name, 0)
    return out


def size_failures(schema, store) -> list[str]:
    """Each chain and configuration where `Size(chain)` is not the number of
    values the chain gives; every chain is one `simplify` counts by Size."""
    failures = []
    for chain in chains(schema, store):
        assert isinstance(simplify(schema, core.Call("count", [chain])), core.Size)
        for config in CONFIGS:
            got, _ = Evaluator(schema, config, store).run({}, store, core.Size(chain))
            values, _ = Evaluator(schema, config, store).run({}, store, chain)
            if got != [IntVal(len(values))]:
                failures.append(f"{core.to_text(chain)} under {config}: {got} for {len(values)}")
    return failures


@pytest.fixture()
def stores(monkeypatch):
    """(schema, store) pairs: the seed, the benchmark store for n = 60 and
    generated instances, some with multi scalar labels and cyclic links."""
    seed = load_seed()
    _, bench = _bench_snapshot(monkeypatch, 60)
    out = [(seed.schema, seed.store), (bench.schema, bench.store)]
    for case in range(30):
        inst = gen_instance(GenConfig(seed=case))
        out.append((inst.schema, inst.store))
    return out


def test_a_size_counts_what_its_chain_gives(stores):
    checked = Counter()
    for schema, store in stores:
        assert size_failures(schema, store) == []
        for chain in chains(schema, store):
            steps = sum(isinstance(n, core.Proj) for n in core.walk(chain))
            checked[steps, any(isinstance(n, core.Lookup) for n in core.walk(chain))] += 1
    # bases and probes, at every length
    assert all(checked[steps, probe] > 0 for steps in range(MAX_STEPS + 1)
               for probe in (False, True))


def _size_ignoring_dedup(self, env, store, e):
    """A deliberately broken Size: it counts the duplicates --dedup drops."""
    config = self.config
    self.config = dataclasses.replace(config, dedup_projections=False)
    try:
        return Evaluator._size(self, env, store, e)
    finally:
        self.config = config


def _size_summing_keys(self, env, store, e):
    """A deliberately broken Size: a probe of several keys takes each key's
    ids in turn, so an id that holds two keys counts twice."""
    def probe(type_name, label, keys):
        index = self.init.lookup(type_name, label)
        return [id for k in keys for id in index.get(k, ())]

    self._probe = probe
    try:
        return Evaluator._size(self, env, store, e)
    finally:
        del self._probe


@pytest.mark.parametrize("broken", [_size_ignoring_dedup, _size_summing_keys],
                         ids=["ignoring_dedup", "summing_keys"])
def test_a_broken_size_fails_the_gate(monkeypatch, stores, broken):
    monkeypatch.setitem(evaluator._DISPATCH, core.Size, broken)
    assert any(size_failures(schema, store) for schema, store in stores), \
        "broken Size evaded the gate"


@pytest.mark.parametrize("query", [
    # a link property, a backlink and a variable are not stored chains
    "count(Movie.actors.@character)",
    "count(Person.<directors[is Movie])",
    "for p in Person union count(p.name)",
    # nor is a probe of anything but a type name
    "count(Movie.directors filter .age = 38)",
])
def test_a_count_of_anything_else_stays_a_call(query):
    schema = load_seed().schema
    e, _, _ = typed_query(schema, query)
    assert not any(isinstance(n, core.Size) for n in core.walk(simplify(schema, e)))


def test_a_size_faults_as_the_chain_does():
    seed = load_seed()
    schema = seed.schema
    # a movie that has lost its actors label (an ill-formed store)
    tuples = dict(seed.store.tuples)
    movie = next(id for id, tup in tuples.items() if tup.type_name == "Movie")
    record = {k: v for k, v in tuples[movie].record.items() if k != olabel("actors")}
    tuples[movie] = StoreTuple("Movie", record)
    store = Store(tuples)
    actors = core.Proj(core.Name("Movie"), olabel("actors"))
    for chain in (actors, core.Proj(actors, olabel("name"))):
        faults = []
        for e in (core.Size(chain), chain):
            with pytest.raises(EvalFault) as info:
                Evaluator(schema, EvalConfig(), store).run({}, store, e)
            faults.append((info.value.code, str(info.value)))
        assert faults[0] == faults[1]
        assert faults[0][0] == "MissingLabel"


# -- work counters -------------------------------------------------------------

@pytest.mark.parametrize("n", [300, 600])
def test_a_count_of_a_chain_builds_no_value(monkeypatch, n):
    model, snap = _bench_snapshot(monkeypatch, n)
    gen = importlib.import_module("gen")
    age = gen.full_buckets(n)[0]
    counts = {
        "count(Person)": len(model.persons),
        "count(Movie.actors)": 3 * len(model.movies),
        f"count(Person filter .age = {age})": len(model.age_names_op(age).expected),
    }
    assert counts[f"count(Person filter .age = {age})"] == gen.AGE_BUCKET
    built = Counter()
    init, project = ObjVal.__init__, evaluator.project

    def counting_init(self, *args, **kw):
        built["ObjVal"] += 1
        init(self, *args, **kw)

    def counting_project(*args):
        built["project"] += 1
        return project(*args)

    monkeypatch.setattr(ObjVal, "__init__", counting_init)
    monkeypatch.setattr(evaluator, "project", counting_project)
    session = Session.from_snapshot(snap)
    for query, count in counts.items():
        e, _, _ = typed_query(snap.schema, query)
        nodes = Counter(type(node).__name__ for node in core.walk(simplify(snap.schema, e)))
        assert nodes["Size"] == 1 and nodes["Call"] == 0
        built.clear()
        result, _, _ = session.run_query(query)
        assert result == [IntVal(count)] and built == Counter()
        # the spies see every value the unsimplified term builds to count
        evaluate(snap.schema, EvalConfig(), {}, snap.store, e)
        assert built["ObjVal"] >= count
