"""`Lookup`, which `simplify` makes of a filter on a property, keeps the
filter's meaning and does work that does not grow with the store: over a
type name it probes the value index, over any other source it is a hash
semi-join of the source's elements with the key's values.

The property runs each filter query twice on generated stores, as the
desugarer wrote it (a scan) and simplified (a lookup), and asks for the same
type, canonical bytes, store and next id, and under seeds the same results up
to permutation; a deliberately broken probe and two broken hash paths fail
it. Work counters, never times, gate what the lookups save."""

import importlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from grql import core, evaluator
from grql.cli import Session, typed_query
from grql.evaluator import EvalConfig, EvalFault, evaluate
from grql.harness import GenConfig, Instance, gen_instance
from grql.model import (
    AT_MOST_ONE, INF, BoolVal, Cardinality, IntVal, ObjType, ScalarType, Store, StoreTuple,
    StoredRef, StoredRefType, StrVal, llabel, olabel,
)
from grql.parser import parse_schema
from grql.serialize import serialize, to_json_text
from grql.simplify import simplify
from grql.store_io import load_seed, load_snapshot
from grql.typecheck import TypeCheckError, synth
from grql.wellformed import check_store
from test_read_path import CountingDict
from test_simplify import _Counting, equivalence_failure, simplify_visits

BENCH_DIR = Path(__file__).parent.parent / "bench"

# one [1, 1], one [0, 1] and one multi scalar label, and a link to items
# with a link property
SCHEMA_TEXT = """
type Item {
  required code: int64;
  tag: str;
  multi words: str;
};
type Box {
  required size: int64;
  multi items: Item { note: str; };
};
"""
WORDS = ("a", "b", "c", "d")

# keys with no value, one value, several values (one repeated), and values
# no item holds
INT_KEYS = ("1", "99", "<int64>{}", "{3, 1, 1}", "{99, 2}", "{4, 0}")
STR_KEYS = ('"a"', '"zz"', "<str>{}", '{"c", "a", "c"}', '{"zz", "b"}', '{"d", "b"}')
QUERIES = (
    [f"Item filter .code = {k}" for k in INT_KEYS]
    + [f"Item filter {k} = .code" for k in INT_KEYS]
    + [f"Item filter any(eq(.code, {k}))" for k in INT_KEYS]
    + [f"Item filter .tag = {k}" for k in STR_KEYS]
    + [f"Item filter .words = {k}" for k in STR_KEYS]
    + [f"Item filter any(eq(.words, {k}))" for k in STR_KEYS]
    + [
        # keys that read an outer binder, one of them many-valued
        "for p in Item union (Item filter .code = p.code)",
        "for p in Item union (Item filter .words = p.words)",
        "for p in Item union (Item filter .tag = p.words) { code }",
        # a key that is itself a probe, and a probe under a shape
        '(Item filter .tag = (Item filter .words = "a").tag) { code, words }',
        # writes beside probes: the store and the next id must agree too
        'update (Item filter .words = {"b", "a"}) set { code := .code + 1 }',
        'insert Item { code := count(Item filter .tag = "a"), tag := <str>{}, '
        'words := (Item filter .code = 2).tag }',
    ]
)
# filters whose source is not a type name: the lookup is a hash semi-join
SOURCE_QUERIES = (
    # a path, on the target's own labels and on the link property
    [f"Box.items filter .code = {k}" for k in INT_KEYS]
    + [f"Box.items filter .words = {k}" for k in STR_KEYS]
    + [f"Box.items filter .@note = {k}" for k in STR_KEYS]
    + [f"Box.items filter any(eq(.@note, {k}))" for k in STR_KEYS]
    # a source with duplicates
    + [f"(Item union Item) filter .code = {k}" for k in INT_KEYS]
    + [
        # chained filters, the inner one a probe, a scan or a semi-join
        '(Item filter .tag = "a") filter .code = {3, 1, 1}',
        '(Item filter .code < 3) filter .words = {"c", "a", "c"}',
        '((Box.items filter .@note = {"a", "b"}) filter .tag = "b") filter .code = {1, 2}',
        # a carried entry that shadows the stored label
        'Item { tag := "z" } filter .tag = "z"',
        'Item { tag := "z" } filter .tag = {"a", "z"}',
        'Item { tag := .words } filter .tag = "a"',
        # backlinks, which carry the link property
        'Item.<items[is Box] filter .@note = {"a", "b"}',
        "Item.<items[is Box] filter .size = {1, 2}",
        # an empty source
        "<Item>{} filter .code = 1",
        '(Box.items filter .code = 99) filter .@note = "a"',
        # correlated keys, one or many values per outer binder
        "for b in Box union (b.items filter .code = b.size)",
        "for b in Box union (b.items filter .words = b.items.@note)",
        "for i in Item union (Box.items filter .@note = i.words) { code }",
        "for i in Item union (i filter .words = i.tag)",
        # inserts beside a semi-join: the store and the next id must agree too
        '(insert Item { code := 1, tag := "a", words := {"a", "b"} }) filter .words = "b"',
        '(insert Box { size := count(Box.items filter .@note = "a"), '
        'items := Box.items filter .code = {1, 2} }).items filter .@note = {"a", "c"}',
        'update (Box.items filter .@note = "b") set { tag := "b" }',
    ]
)


def _item_store(seed: int) -> Store:
    """A store of up to 12 items over a few values, so keys collide, and up
    to 3 boxes; ids are not allocated in extent order, a multi label may
    repeat a value and a box may link one item twice."""
    rng = random.Random(seed)
    ids = [str(i) for i in range(1, rng.randrange(13) + 1)]
    box_ids = [str(len(ids) + i) for i in range(1, rng.randrange(4) + 1)]
    tuples = {id: StoreTuple("Item", {
        "code": [IntVal(rng.randrange(5))],
        "tag": [StrVal(rng.choice(WORDS))] if rng.random() < 0.6 else [],
        "words": [StrVal(rng.choice(WORDS)) for _ in range(rng.randrange(4))],
    }) for id in ids}
    for id in box_ids:
        links = [StoredRef(rng.choice(ids), {llabel("note"): [StrVal(rng.choice(WORDS))]
                                             if rng.random() < 0.7 else []})
                 for _ in range(rng.randrange(5) if ids else 0)]
        tuples[id] = StoreTuple("Box", {"size": [IntVal(rng.randrange(3))], "items": links})
    order = list(tuples)
    rng.shuffle(order)
    return Store({id: tuples[id] for id in order})


def _bytes(schema, store, e, ty, card):
    try:
        out = evaluate(schema, EvalConfig(), {}, store, e)
    except EvalFault as exc:
        return exc.code
    return to_json_text(serialize(out.result, ty, card), pretty=True)


def lookup_failure(schema, store, query: str, seed: int) -> str | None:
    """Why the probe differs from the scan for this query and store, or None."""
    e, ty, card = typed_query(schema, query)
    simplified = simplify(schema, e)
    if not any(isinstance(n, core.Lookup) for n in core.walk(simplified)):
        return "no lookup"
    if _bytes(schema, store, simplified, ty, card) != _bytes(schema, store, e, ty, card):
        return "the canonical bytes differ"
    return equivalence_failure(Instance(schema, store, e, ty, card, GenConfig(seed=seed)))


def _cases(queries=QUERIES + SOURCE_QUERIES, seeds=range(40)):
    schema, diags = parse_schema(SCHEMA_TEXT)
    assert not diags
    for seed in seeds:
        store = _item_store(seed)
        assert check_store(schema, store) == []
        for query in queries:
            yield schema, store, query, seed


def test_a_lookup_gives_what_the_scan_gives():
    for schema, store, query, seed in _cases():
        assert lookup_failure(schema, store, query, seed) is None, (seed, query)


def _literal(v) -> str:
    if isinstance(v, BoolVal):
        return "true" if v.value else "false"
    return json.dumps(v.value)


def _misses(t: ScalarType) -> list:
    """Keys no generated store holds; a bool has none, so both bools serve."""
    return {ScalarType.INT: [IntVal(10**6)], ScalarType.STR: [StrVal("zz")],
            ScalarType.BOOL: [BoolVal(True), BoolVal(False)]}[t]


def generated_filters(inst, rng: random.Random):
    """`S filter .l = k` and `S filter k = .l` over a generated instance's
    schema, for S a type name, a path through a link and a filter of either,
    l a scalar label or a link property of S's elements and k a value the
    store holds there or a miss."""
    schema, tuples = inst.schema, list(inst.store.tuples.values())
    # (source text, element type, the links a path follows)
    sources = []
    for type_name, decl in schema.types.items():
        sources.append((type_name, type_name, None))
        for label, (sty, _) in decl.labels.items():
            if isinstance(sty, StoredRefType):
                refs = [r for t in tuples if t.type_name == type_name for r in t.record[label]]
                sources.append((f"{type_name}.{label}", sty.target, (sty, refs)))

    def tests(target, links):
        """(label, its type, the values the elements hold) for every scalar
        label and link property of the elements."""
        for label, (sty, _) in schema.types[target].labels.items():
            if isinstance(sty, ScalarType):
                yield label, sty, [v for t in tuples if t.type_name == target
                                   for v in t.record[label]]
        if links is not None:
            ref_type, refs = links
            for prop, (sty, _) in ref_type.link_props:
                yield prop, sty, [v for r in refs for v in r.link_props[prop]]

    def key(sty, held):
        return _literal(rng.choice(held) if held else _misses(sty)[0])

    for text, target, links in sources:
        for label, sty, held in tests(target, links):
            for k in [key(sty, held), *map(_literal, _misses(sty))]:
                yield f"{text} filter .{label} = {k}"
                yield f"{text} filter {k} = .{label}"
                for other, osty, oheld in tests(target, links):
                    yield f"({text} filter .{label} = {k}) filter {key(osty, oheld)} = .{other}"


def test_a_lookup_keeps_the_meaning_of_filters_on_generated_stores():
    checked = Counter()
    for seed in range(100):
        inst = gen_instance(GenConfig(seed=seed))
        rng = random.Random(seed)
        for query in generated_filters(inst, rng):
            verdict = lookup_failure(inst.schema, inst.store, query, seed)
            assert verdict is None, (seed, query, verdict)
            checked[query.split(" filter ")[0].count(".") > 0] += 1
    # paths as well as type names, over some thousands of filters
    assert checked[True] > 500 and checked[False] > 500


def test_simplify_keeps_the_meaning_of_its_own_output():
    # lookups go through simplify's scan and rebuild like every other node
    for schema, store, query, seed in _cases(seeds=range(10)):
        e, ty, card = typed_query(schema, query)
        once = simplify(schema, e)
        inst = Instance(schema, store, once, ty, card, GenConfig(seed=seed))
        assert equivalence_failure(inst) is None, (seed, query)
        assert simplify(schema, once) == once, query


def _verdicts(cases) -> Counter:
    """The property's verdict on each case, counted; a crash of a broken
    lookup counts as its exception's name."""
    out: Counter = Counter()
    for case in cases:
        try:
            out[lookup_failure(*case)] += 1
        except (KeyError, AttributeError) as exc:
            out[type(exc).__name__] += 1
    return out


def _key_order_lookup(self, env, store, e):
    """A deliberately broken probe: the ids of each key in turn, so several
    keys give their ids in key order, not extent order."""
    if not isinstance(e.source, core.Name):
        return evaluator.Evaluator._lookup(self, env, store, e)
    keys, store = self.run(env, store, e.key)
    index = self.init.lookup(e.source.type_name, e.label)
    ids = list(dict.fromkeys(id for k in keys for id in index.get(k, ())))
    return self.permute([evaluator.ObjVal(id, {}) for id in ids]), store


def _stored_record_lookup(self, env, store, e):
    """A deliberately broken hash path: it reads each element's stored
    record in place of `project`, so it misses carried entries."""
    if isinstance(e.source, core.Name):
        return evaluator.Evaluator._lookup(self, env, store, e)
    ws, store = self.run(env, store, e.source)
    keys, store = self.run(env, store, e.key)
    wanted = set(keys)
    out = [w for w in ws if not wanted.isdisjoint(self.init.get(w.id).record[e.label])]
    return self.permute(out), store


def _deduplicating_lookup(self, env, store, e):
    """A deliberately broken hash path: it keeps each source element once."""
    if isinstance(e.source, core.Name):
        return evaluator.Evaluator._lookup(self, env, store, e)
    ws, store = self.run(env, store, e.source)
    keys, store = self.run(env, store, e.key)
    wanted, seen, out = set(keys), set(), []
    for w in ws:
        if w.id not in seen and not wanted.isdisjoint(evaluator.project(self.init, e.label, w)):
            seen.add(w.id)
            out.append(w)
    return self.permute(out), store


def test_a_lookup_in_key_order_fails_the_property(monkeypatch):
    monkeypatch.setitem(evaluator._DISPATCH, core.Lookup, _key_order_lookup)
    failures = _verdicts(_cases(QUERIES))
    assert failures["the canonical bytes differ"] > 0, "broken lookup evaded the check"


@pytest.mark.parametrize("broken", [_stored_record_lookup, _deduplicating_lookup],
                         ids=["stored_record", "deduplicating"])
def test_a_broken_hash_path_fails_the_property(monkeypatch, broken):
    monkeypatch.setitem(evaluator._DISPATCH, core.Lookup, broken)
    failures = _verdicts(_cases(SOURCE_QUERIES))
    assert failures["the canonical bytes differ"] > 0, "broken lookup evaded the check"


def test_the_value_index_matches_a_brute_force_scan():
    compared = 0
    for seed in range(300):
        inst = gen_instance(GenConfig(seed=seed))
        for type_name, decl in inst.schema.types.items():
            for label, (sty, _) in decl.labels.items():
                if not isinstance(sty, ScalarType):
                    continue
                expected: dict = {}
                for id, tup in inst.store.tuples.items():
                    if tup.type_name == type_name:
                        for v in tup.record[label]:
                            if id not in expected.setdefault(v, []):
                                expected[v].append(id)
                assert inst.store.lookup(type_name, label) == expected
                compared += len(expected)
    assert compared > 500


def test_synth_types_a_lookup_and_checks_its_key():
    schema = load_seed().schema
    person = ObjType("Person", {})
    ctx = {"p": (person, Cardinality(1, 1))}
    age, thirty = olabel("age"), core.Prim(IntVal(30))
    directors = core.Proj(core.Name("Movie"), olabel("directors"))
    actors = core.Proj(core.Name("Movie"), olabel("actors"))
    character = llabel("character")
    # the source's type, at most one element per source element
    typed = [
        (core.Lookup(core.Name("Person"), age, thirty), person, Cardinality(0, INF)),
        (core.Lookup(directors, age, thirty), person, Cardinality(0, INF)),
        (core.Lookup(core.Var("p"), age, thirty), person, AT_MOST_ONE),
        # a link property is a carried entry of the link's targets
        (core.Lookup(actors, character, core.Prim(StrVal("Neo"))),
         ObjType("Person", {character: (ScalarType.STR, AT_MOST_ONE)}), Cardinality(0, INF)),
    ]
    for e, ty, card in typed:
        assert synth(schema, ctx, e) == (ty, card)
    bad = [
        (core.Lookup(core.Name("Person"), age, core.Prim(StrVal("30"))), "StoreTypeMismatch"),
        (core.Lookup(core.Name("Movie"), olabel("directors"), core.Var("p")), "NoSuchLabel"),
        (core.Lookup(core.Name("Nobody"), age, thirty), "UnknownName"),
        (core.Lookup(thirty, age, thirty), "NotAnObject"),
        (core.Lookup(directors, character, core.Prim(StrVal("Neo"))), "NoSuchLabel"),
        (core.Lookup(actors, character, thirty), "StoreTypeMismatch"),
    ]
    for e, code in bad:
        with pytest.raises(TypeCheckError) as info:
            synth(schema, ctx, e)
        assert info.value.code == code


def test_a_key_that_takes_its_type_from_the_filtered_object_stays_a_scan():
    # count!(empty[type-of x]) names x without using it; a lookup would
    # leave it unbound
    schema, store = load_seed().schema, load_seed().store
    x, y, z, b = "x", "y", "z", "b"
    key = core.Call("count", [core.Empty(of_var=x)])
    test = core.For(core.Proj(core.Var(x), olabel("age")), y,
                    core.For(key, z, core.Call("eq", [core.Var(y), core.Var(z)])))
    e = core.For(core.Name("Person"), x, core.For(
        core.Call("any", [test]), b, core.If(core.Var(b), core.Var(x), core.Empty(of_var=x))))
    ty, card = synth(schema, {}, e)
    assert not any(isinstance(n, core.Lookup) for n in core.walk(simplify(schema, e)))
    assert equivalence_failure(Instance(schema, store, e, ty, card, GenConfig())) is None


# -- work counters -------------------------------------------------------------

def _bench_snapshot(monkeypatch, n: int):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    gen = importlib.import_module("gen")
    model, _, _ = gen.generate(1, n)
    return model, load_snapshot(model.snapshot_text())


def test_a_filter_on_a_name_evaluates_the_same_nodes_at_any_store_size(monkeypatch):
    counts = []
    for n in (300, 600):
        model, snap = _bench_snapshot(monkeypatch, n)
        name = next(iter(model.persons.values())).name
        e, _, _ = typed_query(snap.schema, f'Person filter .name = "{name}"')
        ev = _Counting(snap.schema, EvalConfig(), snap.store)
        result, _ = ev.run({}, snap.store, simplify(snap.schema, e))
        assert len(result) == 1
        counts.append(dict(ev.nodes))
    assert counts[0] == counts[1] == {"Lookup": 1, "Prim": 1}


def test_an_in_list_filter_evaluates_the_same_nodes_at_any_store_size(monkeypatch):
    # the benchmark's inlist op: a semi-join of one age bucket with 200 names
    counts = []
    for n in (300, 600):
        model, snap = _bench_snapshot(monkeypatch, n)
        persons = list(model.persons.values())
        op = model.inlist_op(persons[0].age, [p.name for p in persons[:200]])
        e, _, _ = typed_query(snap.schema, op.query)
        ev = _Counting(snap.schema, EvalConfig(), snap.store)
        result, _ = ev.run({}, snap.store, simplify(snap.schema, e))
        assert [v.value for v in result] == op.expected
        counts.append(dict(ev.nodes))
    assert not counts[0].keys() & {"Call", "For", "If"}
    assert counts[0] == counts[1]
    assert counts[0]["Lookup"] == 2 and counts[0]["Prim"] == 201


def test_the_value_index_is_built_once_per_store():
    tuples = CountingDict(load_seed().store.tuples)
    store = Store(tuples)
    index = store.lookup("Person", olabel("name"))
    counts = (tuples.walks, tuples.lookups)
    assert store.lookup("Person", olabel("name")) is index
    assert (tuples.walks, tuples.lookups) == counts


def test_read_only_queries_keep_the_value_index():
    snap = load_seed()
    tuples = CountingDict(snap.store.tuples)
    session = Session(snap.schema, Store(tuples), snap.schema_text, snap.next_id)
    store = session.store
    query = 'Person filter .name = "Megan Wolf"'
    assert len(session.run_query(query)[0]) == 1
    index = store.lookup("Person", olabel("name"))
    counts = (tuples.walks, tuples.lookups)
    session.run_query("count(Person)")
    assert len(session.run_query(query)[0]) == 1
    assert session.store is store and store.lookup("Person", olabel("name")) is index
    assert (tuples.walks, tuples.lookups) == counts


def test_simplify_visits_each_node_of_nested_filters_a_bounded_number_of_times(monkeypatch):
    nested = [f"(Person filter .name = (Person filter .born = "
              f"(Person filter .age = {i}).name).born)" for i in range(300)]
    query = "{" + ", ".join(nested) + "} union (for p in Person union (Person filter .age = p.age))"
    snap = load_seed()
    e, _, _ = typed_query(snap.schema, query)
    size = sum(1 for _ in core.walk(e))
    out, visits = simplify_visits(monkeypatch, snap.schema, e)
    assert size > 10_000 and visits["scan"] == size
    assert sum(visits.values()) <= 4 * size
    assert sum(isinstance(n, core.Lookup) for n in core.walk(out)) == 3 * 300 + 1
