"""`simplify` keeps a query's meaning and makes the evaluator do less.

Over generated instances, the simplified term types at the same type and
cardinality, gives the same canonical result, store and next id, with and
without --dedup, and under the harness's evaluation seeds the same results
and inserted tuples up to permutation; a deliberately broken `simplify` fails
the same check. Each rule and each refusal is pinned on a query, and
deterministic work counters (nodes evaluated, visits made by the pass) gate
what the rules save."""

import importlib
from collections import Counter
from pathlib import Path

import pytest

import grql.simplify
from grql import core, typecheck
from grql.cli import main, typed_query
from grql.evaluator import EvalConfig, EvalFault, Evaluator, evaluate
from grql.harness import (
    GenConfig,
    Instance,
    _derive_eval_seeds,
    gen_instance,
    inserted_fingerprints,
    result_fingerprint,
)
from grql.model import ONE, StrVal
from grql.simplify import simplify
from grql.store_io import load_seed, load_snapshot, seed_snapshot_text
from grql.typecheck import TypeCheckError, synth

SEEDS = range(1000)
BENCH_DIR = Path(__file__).parent.parent / "bench"


@pytest.fixture()
def store_file(tmp_path):
    path = tmp_path / "movies.grdb.json"
    path.write_text(seed_snapshot_text(), encoding="utf-8")
    return path


def _canonical(schema, store, e, dedup=False):
    """All a canonical run shows: the result (in order, with each record's
    entry order), the final tuples in order, the edit marks and the next id;
    or the fault's code."""
    try:
        out = evaluate(schema, EvalConfig(dedup_projections=dedup), {}, store, e)
    except EvalFault as exc:
        return exc.code
    after = out.store_after
    return repr(out.result), repr(list(after.tuples.items())), after.locked, out.next_id


def _seeded(schema, store, e, seed):
    """The result and inserted-tuple fingerprints under a permutation seed
    (equal up to permutation), or the fault's code."""
    base = set(store.tuples)
    try:
        result, after = Evaluator(schema, EvalConfig(permutation_seed=seed), store).run({}, store, e)
    except EvalFault as exc:
        return exc.code
    return result_fingerprint(result, after, base), inserted_fingerprints(after, base)


def equivalence_failure(inst: Instance) -> str | None:
    """Why simplifying `inst.expr` changes its type or meaning, or None."""
    try:
        e = simplify(inst.schema, inst.expr)
        typed = synth(inst.schema, {}, e)
    except TypeCheckError as exc:
        return f"the simplified term does not type: {exc}"
    if typed != (inst.ty, inst.card):
        return f"simplified to {typed[0]} # {typed[1]}, not {inst.ty} # {inst.card}"
    if _canonical(inst.schema, inst.store, e) != _canonical(inst.schema, inst.store, inst.expr):
        return "the canonical evaluations differ"
    if (_canonical(inst.schema, inst.store, e, dedup=True)
            != _canonical(inst.schema, inst.store, inst.expr, dedup=True)):
        return "the canonical --dedup evaluations differ"
    for seed in _derive_eval_seeds(0, inst.config.seed):
        if _seeded(inst.schema, inst.store, e, seed) != _seeded(inst.schema, inst.store,
                                                               inst.expr, seed):
            return f"seed {seed}: results or inserted tuples differ up to permutation"
    return None


def test_simplify_keeps_the_meaning_of_generated_terms():
    changed = 0
    for seed in SEEDS:
        inst = gen_instance(GenConfig(seed=seed))
        assert equivalence_failure(inst) is None, f"seed {seed}: {equivalence_failure(inst)}"
        changed += simplify(inst.schema, inst.expr) != inst.expr
    assert changed > len(SEEDS) // 4  # the property is not checked on unchanged terms only


class _EveryForIsASingleton(grql.simplify._Simplifier):
    """A deliberately broken simplify: it takes every `for` source for a
    singleton, so it drops the iteration over a source of two or more."""

    def singleton_for(self, e, s, x, card):
        super().singleton_for(e, s, x, ONE)


def _query_instance(query: str) -> Instance:
    snap = load_seed()
    e, ty, card = typed_query(snap.schema, query)
    return Instance(snap.schema, snap.store, e, ty, card, GenConfig())


def test_a_broken_simplify_fails_the_equivalence_check(monkeypatch):
    inst = _query_instance('for x in {"a", "b"} union append(x, "!")')
    assert equivalence_failure(inst) is None
    monkeypatch.setattr(grql.simplify, "_Simplifier", _EveryForIsASingleton)
    # the for over two strings is gone
    assert core.to_text(simplify(inst.schema, inst.expr)) == "append!(('a' union 'b'), '!')"
    assert equivalence_failure(inst).startswith("the simplified term does not type")
    assert any(equivalence_failure(gen_instance(GenConfig(seed=seed))) is not None
               for seed in SEEDS), "broken simplify evaded the check"


def _simplified(query: str) -> str:
    snap = load_seed()
    e, _, _ = typed_query(snap.schema, query)
    return core.to_text(simplify(snap.schema, e))


@pytest.mark.parametrize("query, text", [
    # a literal source replaces every use of its binder; so does a [1, 1]
    # projection used once, outside iterating bodies (a filter on a test
    # other than equality, which rule 3 leaves a scan)
    ("Movie.directors filter .age < 30",
     "for $0 in Movie.directors union if!(lt!($0.age, 30); $0; empty[type-of $0])"),
    ("for m in count(Person) union m + 1", "add!(count!(Person), 1)"),
    # empty[type-of x] of a removed binder x takes the type of x's source
    ('"a" filter true', "if!(any!(tt); 'a'; empty[str])"),
    # a variable source replaces every use, whatever their number
    ("for x in count(Person) union x + x",
     "for $1 in count!(Person) union add!($1, $1)"),
    # a with binder used once, outside iterating bodies, whatever the
    # cardinality of its bound
    ("with s := {1, 2} select count(s)", "count!((1 union 2))"),
])
def test_a_singleton_for_becomes_a_substitution(query, text):
    assert _simplified(query) == text


@pytest.mark.parametrize("query, text", [
    # the one use is under an iterating body: count(Person) would run once
    # per movie year
    ("for m in count(Person) union (for y in Movie.year union y + m)",
     "for $1 in count!(Person) union for $2 in Movie.year union add!($2, $1)"),
    # the source is not a variable or literal and is used twice
    ("for m in count(Person) union {m, m}",
     "for $1 in count!(Person) union ($1 union $1)"),
    # ... also when the uses come from substituting a variable source
    ("for m in count(Person) union (for k in m union {k, k})",
     "for $1 in count!(Person) union ($1 union $1)"),
    # ... also for a with binder
    ("with n := count(Movie) select n + n", "with $1 := count!(Movie) select add!($1, $1)"),
    # the source can fault (add) or writes (insert)
    ("for x in 1 + 2 union x", "for $2 in add!(1, 2) union $2"),
    ('for p in (insert Person { name := "N", age := 1, born := <str>{} }) union p.name',
     "for $0 in insert Person { name := 'N', age := 1, born := empty[str] } union $0.name"),
    # the source may hold more than one value
    ("for x in {1, 2} union x + 1", "for $0 in (1 union 2) union add!($0, 1)"),
])
def test_a_for_stays_when_substitution_could_cost_or_change_more(query, text):
    assert _simplified(query) == text


@pytest.mark.parametrize("query, text", [
    ("Person { n := count(Movie) }",
     "with $c0 := count!(Movie) select Person {$0| n := $c0 }"),
    # a filter on equality is one lookup (rule 3), so its key needs no
    # binding; in a filter that stays a scan the in-list literal is bound once
    ('(Person filter any(eq(.name, {"a", "b", "c"}))).name',
     "lookup!(Person.name, (('a' union 'b') union 'c')).name"),
    ('((Person filter .born = "Ottawa") filter any(lt(.age, {20, 40, 60}))).name',
     "with $c0 := ((20 union 40) union 60) select for $4 in lookup!(Person.born, 'Ottawa') union "
     "if!(any!(for $5 in $4.age union for $6 in $c0 union lt!($5, $6)); $4; "
     "empty[type-of $4]).name"),
    # outside iterating bodies nothing is bound
    ("count(Movie)", "count!(Movie)"),
    # a subterm that can fault is evaluated where it stands
    ("Person { n := 1 + 2 }", "Person {$0| n := add!(1, 2) }"),
])
def test_a_loop_invariant_subterm_is_bound_once(query, text):
    assert _simplified(query) == text


@pytest.mark.parametrize("query, text", [
    ("Person filter .age = 38", "lookup!(Person.age, 38)"),
    ("Person filter 38 = .age", "lookup!(Person.age, 38)"),
    # a [0, 1] label, and a key of several values
    ('Person filter .born = "Ottawa"', "lookup!(Person.born, 'Ottawa')"),
    ('Person filter any(eq(.name, {"a", "b"}))', "lookup!(Person.name, ('a' union 'b'))"),
    # a key that reads an outer binder: one probe per person, not a scan
    ("for p in Person union (Person filter .age = p.age)",
     "for $0 in Person union lookup!(Person.age, $0.age)"),
    ("for m in count(Person) union (Movie filter .year = m)",
     "for $1 in count!(Person) union lookup!(Movie.year, $1)"),
    # the same test written as an if whose then-branch is the binder
    ("for x in Person union (if x.age = 38 then x else <Person>{})", "lookup!(Person.age, 38)"),
    # a source that is not a type name: a hash semi-join of its elements
    # with the key's values, whose own filters are lookups too
    ("Movie.directors filter .age = 38", "lookup!(Movie.directors.age, 38)"),
    ('((Person filter .age = 30) filter any(eq(.name, {"a", "b", "c"}))).name',
     "lookup!(lookup!(Person.age, 30).name, (('a' union 'b') union 'c')).name"),
    # a link property, and a carried entry that shadows the stored label
    ('Movie.actors filter .@character = "Neo"', "lookup!(Movie.actors.@character, 'Neo')"),
    ('Person { name := "Z" } filter .name = "Z"',
     "lookup!(Person {$0| name := 'Z' }.name, 'Z')"),
    # a source of one value
    ("for p in Person union (p filter .age = 38)", "for $0 in Person union lookup!($0.age, 38)"),
])
def test_a_filter_on_a_property_becomes_a_lookup(query, text):
    assert _simplified(query) == text
    assert equivalence_failure(_query_instance(query)) is None


@pytest.mark.parametrize("query", [
    # a link label
    "for p in Person union (Movie filter .directors = p)",
    # a key that mentions the filter's binder
    "Person filter .age = .age",
    # a key that writes
    'Person filter .name = (insert Person { name := "N", age := 1, born := <str>{} }).name',
    # a key that can fault
    "Person filter .age = 1 + 2",
    # a then-branch other than the binder
    "for x in Person union (if x.age = 38 then x.name else <str>{})",
    # an if over two bools keeps each person twice
    "for x in Person union (if x.age = {38, 38} then x else <Person>{})",
])
def test_a_filter_stays_a_scan_when_a_lookup_could_differ(query):
    assert "lookup!" not in _simplified(query)
    assert equivalence_failure(_query_instance(query)) is None


@pytest.mark.parametrize("query, text", [
    ("Person filter .age < 38", "for $0 in Person union if!(lt!($0.age, 38); $0; empty[type-of $0])"),
    ("any(not(true))", "not!(tt)"),
    # any over a many-valued argument stays
    ("any({true, false})", "any!((tt union ff))"),
    ("not(any(Person.age = 3))", "not!(any!(for $0 in Person.age union eq!($0, 3)))"),
])
def test_an_any_of_one_bool_is_that_bool(query, text):
    assert _simplified(query) == text


def test_a_query_binds_at_most_max_hoists_subterms(store_file):
    entries = ", ".join(f"n{i} := count(Movie)" for i in range(2 * grql.simplify.MAX_HOISTS))
    query = f"Person {{ {entries} }}"
    snap = load_seed()
    e, _, _ = typed_query(snap.schema, query)
    hoisted = [n for n in core.walk(simplify(snap.schema, e))
               if isinstance(n, core.With) and n.binder.startswith("$c")]
    assert len(hoisted) == grql.simplify.MAX_HOISTS
    assert main(["run", str(store_file), query]) == 0


# -- work counters -------------------------------------------------------------

class _Counting(Evaluator):
    """Counts the nodes it evaluates, by constructor, and the string
    literals among them."""

    def __init__(self, *args):
        super().__init__(*args)
        self.nodes: Counter[str] = Counter()
        self.strings = 0

    def run(self, env, store, e):
        self.nodes[type(e).__name__] += 1
        if isinstance(e, core.Prim) and isinstance(e.value, StrVal):
            self.strings += 1
        return super().run(env, store, e)


@pytest.fixture()
def scaled(monkeypatch):
    """The benchmark generator's store for seed 1 and 300 persons."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    gen = importlib.import_module("gen")
    model, _, _ = gen.generate(1, 300)
    return model, load_snapshot(model.snapshot_text())


def _count(snap, query: str) -> _Counting:
    e, _, _ = typed_query(snap.schema, query)
    ev = _Counting(snap.schema, EvalConfig(), snap.store)
    ev.run({}, snap.store, simplify(snap.schema, e))
    return ev


def test_a_filter_evaluates_no_for_and_a_fixed_number_of_nodes_per_person(scaled):
    model, snap = scaled
    persons = len(model.persons)
    # a condition rule 3 does not rewrite: the filter stays a scan
    ev = _count(snap, "Person filter .age < 30")
    assert ev.nodes["For"] == 1
    # for, Person; per person: if, lt, .age, its subject, 30, and the kept
    # person or the empty set (rule 4 took lt out of its any)
    assert sum(ev.nodes.values()) == 2 + 6 * persons


def test_an_in_list_literal_is_evaluated_once_per_query(scaled):
    model, snap = scaled
    names = [p.name for p in model.persons.values()][:200]
    listed = ", ".join(f'"{n}"' for n in names)
    ev = _count(snap, f"((Person filter .age = 30) filter any(eq(.name, {{{listed}}}))).name")
    assert len(model.persons) > 200 and ev.strings == 200


def simplify_visits(monkeypatch, schema, e):
    """`simplify(schema, e)` and the visits it made, by walk: `synth`, `scan`,
    `rebuild` and rule 3's check."""
    visits = Counter()

    def counted(name, fn):
        def wrapper(*args):
            visits[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(typecheck, "synth", counted("synth", typecheck.synth))
    for name in ("scan", "rebuild", "lookup"):
        method = getattr(grql.simplify._Simplifier, name)
        monkeypatch.setattr(grql.simplify._Simplifier, name, counted(name, method))
    out = simplify(schema, e)
    monkeypatch.undo()
    return out, visits


def test_simplify_visits_each_node_a_bounded_number_of_times(monkeypatch, store_file):
    query = "1 ?? (" * 11 + "1" + ")" * 11
    snap = load_seed()
    e, _, _ = typed_query(snap.schema, query)
    size = sum(1 for _ in core.walk(e))
    _, visits = simplify_visits(monkeypatch, snap.schema, e)
    assert size > 40_000 and visits["scan"] == size
    assert sum(visits.values()) <= 4 * size
    assert main(["run", str(store_file), query]) == 0
