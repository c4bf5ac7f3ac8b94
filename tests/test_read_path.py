"""The indexed read path: per-type extents and the reverse-link index agree
with a brute-force scan, a backlink walks the store once per query, the
session keeps a store's indexes across read-only queries, and `Evaluator.run`
dispatches every core constructor."""

from grql import core
from grql.cli import Session
from grql.evaluator import _DISPATCH, EvalConfig, Evaluator, seek
from grql.harness import GenConfig, gen_instance
from grql.model import ObjVal, Store, StoredRef, invis, olabel
from grql.store_io import load_seed, load_snapshot, save_snapshot


def scan_seek(store, type_name, label, target):
    """`seek` by walking every tuple, as it was before the index existed."""
    out = []
    for src_id, tup in store.tuples.items():
        if tup.type_name != type_name:
            continue
        seen = []
        for v in tup.record.get(label, []):
            if isinstance(v, StoredRef) and v.id == target:
                if any(v.link_props == prev for prev in seen):
                    continue
                seen.append(v.link_props)
                out.append(ObjVal(src_id, {lbl: invis(list(s)) for lbl, s in v.link_props.items()}))
    return out


def _oracle_cases():
    yield load_seed()
    for seed in range(500):
        yield gen_instance(GenConfig(seed=seed))


def test_indexes_match_a_brute_force_scan():
    compared = 0
    for inst in _oracle_cases():
        schema, store = inst.schema, inst.store
        ev = Evaluator(schema, EvalConfig(), store)
        targets = [*store.tuples, "no-such-id"]
        for type_name, decl in schema.types.items():
            names, _ = ev.run({}, store, core.Name(type_name))
            assert names == [ObjVal(id, {}) for id, tup in store.tuples.items()
                             if tup.type_name == type_name]
            for label in decl.labels:
                for target in targets:
                    expected = scan_seek(store, type_name, label, target)
                    assert seek(store, type_name, label, target) == expected
                    compared += len(expected)
    assert compared > 1000


class CountingDict(dict):
    """A tuple dict that counts whole walks and single-tuple lookups."""

    walks = 0
    lookups = 0

    def _walked(self):
        self.walks += 1

    def __iter__(self):
        self._walked()
        return super().__iter__()

    def items(self):
        self._walked()
        return super().items()

    def keys(self):
        self._walked()
        return super().keys()

    def values(self):
        self._walked()
        return super().values()

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


BACKLINK_QUERY = "Person.<directors[is Movie]"


def _counting_session():
    snap = load_seed()
    tuples = CountingDict(snap.store.tuples)
    return Session(snap.schema, Store(tuples), snap.schema_text, snap.next_id), tuples


def test_a_backlink_walks_the_store_once_per_query():
    session, tuples = _counting_session()
    subjects = len(session.run_query("Person")[0])
    assert subjects > 1 and tuples.walks == 1 and tuples.lookups == 0
    session, tuples = _counting_session()
    session.run_query(BACKLINK_QUERY)
    # one walk builds the extents; the index reads each Movie tuple once
    assert tuples.walks == 1
    assert tuples.lookups == len(session.store.extent("Movie")) < len(tuples)
    # a scan per subject walks the store once for each of them
    for id in session.store.extent("Person"):
        scan_seek(session.store, "Movie", olabel("directors"), id)
    assert tuples.walks == 1 + subjects


def test_read_only_queries_keep_the_store_and_its_indexes():
    session, tuples = _counting_session()
    store = session.store
    session.run_query(BACKLINK_QUERY)
    counts = (tuples.walks, tuples.lookups)
    session.run_query("count(Person)")
    session.run_query(BACKLINK_QUERY)
    assert session.store is store
    assert (tuples.walks, tuples.lookups) == counts


def test_a_backlink_after_an_insert_sees_the_new_link():
    session = Session.from_snapshot(load_seed())
    query = 'count((select Person filter .name = "Megan Wolf").<actors[is Movie])'
    (before,), _, _ = session.run_query(query)
    session.run_query('insert Movie { title := "New", year := 2024, directors := '
                      '(insert Person { name := "D", age := 1, born := <str>{} }), '
                      'actors := (select Person filter .name = "Megan Wolf") '
                      '{ @character := "Lead" } }')
    (after,), _, _ = session.run_query(query)
    assert after.value == before.value + 1
    # each write patches the reverse-link indexes the last backlinks built
    backlinks = ('for p in Person union p { name, directed := p.<directors[is Movie].title, '
                 'roles := p.<actors[is Movie] { title, @character } }')
    updates = [
        'update (Movie filter .title = "Interception") set { directors := '
        '(insert Person { name := "E", age := 2, born := <str>{} }) }',
        'update (Movie filter .title = "Interception") set '
        '{ actors := .actors { @character := "Cameo" } }',
    ]
    session.run_query(backlinks)
    for update in updates:
        assert len(session.run_query(update)[0]) == 1
        text = save_snapshot(session.schema_text, session.store, session.next_id)
        fresh = Session.from_snapshot(load_snapshot(text))
        assert (session.render(*session.run_query(backlinks), pretty=False)
                == fresh.render(*fresh.run_query(backlinks), pretty=False))


def _concrete_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _concrete_subclasses(sub)


def test_dispatch_covers_every_core_constructor():
    assert set(_DISPATCH) == set(_concrete_subclasses(core.Expr))
