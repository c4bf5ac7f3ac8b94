"""The metatheory harness: generator guarantees, soundness checking, mutation
testing of the checker itself, shrinking, and replay."""

import hashlib
import json

import pytest

from grql import core
from grql.evaluator import Evaluator
from grql.harness import (
    CONSTRUCTORS,
    CounterExample,
    GenConfig,
    check_soundness,
    constructor_counts,
    counterexample_to_json,
    gen_instance,
    replay_counterexample,
    run_case,
    run_fuzz,
    shrink,
)
from grql.parser import parse_schema, schema_to_source
from grql.store_io import load_snapshot
from grql.typecheck import synth
from grql.wellformed import check_schema, check_store


def test_generated_instances_are_well_formed_and_typed():
    for seed in range(60):
        inst = gen_instance(GenConfig(seed=seed))
        assert check_schema(inst.schema) == []
        assert check_store(inst.schema, inst.store) == []
        assert synth(inst.schema, {}, inst.expr) == (inst.ty, inst.card)


def test_generation_is_deterministic():
    a = gen_instance(GenConfig(seed=42))
    b = gen_instance(GenConfig(seed=42))
    assert a.expr == b.expr
    assert a.store == b.store
    assert a.schema == b.schema


# sha256 over repr((schema, store, expr, ty, card)) of the default-config
# instances for seeds 0..499; a change to the generator that draws from the
# rng differently, or builds a different term, changes it
GENERATION_DIGEST = "8a3eb07fbd4a41f943c27cbf796c60d3298712c5c3a9e01dfff042a1dba970dd"


def test_generation_matches_golden_digest():
    h = hashlib.sha256()
    for seed in range(500):
        i = gen_instance(GenConfig(seed=seed))
        h.update(repr((i.schema, i.store, i.expr, i.ty, i.card)).encode())
    assert h.hexdigest() == GENERATION_DIGEST


def test_generated_schemas_round_trip_through_source():
    for seed in range(500):
        schema = gen_instance(GenConfig(seed=seed)).schema
        assert parse_schema(schema_to_source(schema)) == (schema, [])


def test_depth_one_yields_leaves_only():
    kinds = set()
    for seed in range(40):
        inst = gen_instance(GenConfig(seed=seed, max_expr_depth=1))
        kinds.update(type(n).__name__ for n in core.walk(inst.expr))
    assert kinds <= {"Prim", "Empty", "Name"}
    assert kinds == {"Prim", "Empty", "Name"}


def test_zero_mutation_probability_means_no_mutations():
    for seed in range(40):
        inst = gen_instance(GenConfig(seed=seed, mutation_probability=0.0))
        assert not any(isinstance(n, (core.Insert, core.Update))
                       for n in core.walk(inst.expr))


def test_config_bounds_validated():
    with pytest.raises(ValueError):
        GenConfig(max_types=0)
    with pytest.raises(ValueError):
        GenConfig(mutation_probability=1.5)


def test_small_soundness_run_is_clean():
    failures, coverage = run_fuzz(400, master_seed=11)
    assert failures == []
    assert sum(coverage.values()) > 0


def test_read_only_instances_leave_store_identical():
    checked = 0
    for seed in range(40):
        inst = gen_instance(GenConfig(seed=seed, mutation_probability=0.0))
        assert check_soundness(inst, [1, 2]) is None
        checked += 1
    assert checked == 40


class _UnionDropsElement(Evaluator):
    """A deliberately broken evaluator: union loses its last element."""

    def run(self, env, store, e):
        result, store = super().run(env, store, e)
        if isinstance(e, core.Union) and result:
            result = result[:-1]
        return result, store


class _InsertForgetsLock(Evaluator):
    """A deliberately broken evaluator: inserted tuples stay unlocked."""

    def run(self, env, store, e):
        result, store = super().run(env, store, e)
        if isinstance(e, core.Insert):
            from grql.model import Store

            store = Store(store.tuples, store.locked - {result[0].id})
        return result, store


def _failures(evaluator_cls, seeds=range(600)):
    out = []
    for seed in seeds:
        inst = gen_instance(GenConfig(seed=seed))
        ce = check_soundness(inst, [5, 6, 7], evaluator_cls=evaluator_cls)
        if ce is not None:
            out.append(ce)
    return out


def test_harness_catches_dropped_union_element():
    found = _failures(_UnionDropsElement)
    assert found, "broken evaluator evaded the harness"
    properties = {ce.property_name for ce in found}
    # a dropped element shows up as a cardinality-preservation violation on
    # instances with lower-bounded unions, and as seed disagreement elsewhere
    assert "preservation" in properties
    assert properties <= {"preservation", "permutation-insensitivity",
                          "store-wellformed", "read-isolation", "totality"}


def test_harness_catches_missing_lock():
    found = _failures(_InsertForgetsLock)
    assert found, "broken evaluator evaded the harness"
    properties = {ce.property_name for ce in found}
    # unlocked fresh tuples break extension, and the new-ref typing rule
    assert properties & {"extension", "preservation"}


class _NameLocksATuple(Evaluator):
    """A deliberately broken evaluator: reading a type name flips an edit
    mark, so read-only queries no longer leave the store untouched."""

    def run(self, env, store, e):
        result, store = super().run(env, store, e)
        if isinstance(e, core.Name) and store.tuples:
            id, tup = next(iter(store.tuples.items()))
            if id not in store.locked:
                store = store.with_tuple(id, tup)
        return result, store


def test_harness_catches_read_side_effects():
    found = _failures(_NameLocksATuple)
    assert found, "broken evaluator evaded the harness"
    properties = {ce.property_name for ce in found}
    assert "read-isolation" in properties


class _InsertAddsBogusLabel(Evaluator):
    """A deliberately broken evaluator: inserted records grow an undeclared
    label, leaving the store ill-formed."""

    def run(self, env, store, e):
        result, store = super().run(env, store, e)
        if isinstance(e, core.Insert):
            from grql.model import StoreTuple, olabel

            id = result[0].id
            tup = store.get(id)
            record = dict(tup.record)
            record[olabel("bogus")] = []
            store = store.with_tuple(id, StoreTuple(tup.type_name, record))
        return result, store


def test_harness_catches_ill_formed_store():
    found = _failures(_InsertAddsBogusLabel)
    assert found, "broken evaluator evaded the harness"
    assert {ce.property_name for ce in found} == {"store-wellformed"}


def test_shrink_non_reproducing_returns_unchanged():
    inst = gen_instance(GenConfig(seed=1))
    ce = CounterExample(inst, [1, 2, 3], "preservation", "fabricated")
    assert shrink(ce) is ce


def test_shrink_reduces_size():
    ce = _failures(_UnionDropsElement)[0]
    before_nodes = sum(constructor_counts(ce.instance.expr).values())
    before_store = len(ce.instance.store.tuples)
    small = shrink(ce, evaluator_cls=_UnionDropsElement)
    after_nodes = sum(constructor_counts(small.instance.expr).values())
    assert small.property_name == ce.property_name
    assert after_nodes <= before_nodes
    assert len(small.instance.store.tuples) <= before_store
    # the shrunk witness still reproduces under the same predicate
    assert check_soundness(small.instance, ce.eval_seeds,
                           evaluator_cls=_UnionDropsElement) is not None


def test_counterexample_files_replay(tmp_path):
    ce, _ = run_case(99, 0, GenConfig())
    assert ce is None  # the shipped evaluator is clean
    # fabricate a counterexample file from a clean case: replay must not fail
    inst = gen_instance(GenConfig(seed=7))
    fake = CounterExample(inst, [1, 2, 3], "preservation", "w")
    text = counterexample_to_json(fake)
    doc = json.loads(text)
    # the text is the stdlib's indented text of its document, float included
    assert text == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    assert doc["seed"] == 7 and doc["property"] == "preservation"
    assert doc["expr"] == core.to_text(inst.expr)
    # the snapshot carries the schema source; there is no separate key for it
    assert "schema" not in doc
    assert load_snapshot(doc["snapshot"]).store == inst.store
    assert replay_counterexample(text) is None


def test_replay_is_deterministic():
    fake = CounterExample(gen_instance(GenConfig(seed=13)), [4, 5, 6], "totality", "w")
    text = counterexample_to_json(fake)
    assert counterexample_to_json(fake) == text
    assert replay_counterexample(text) is None


def test_workers_parallel_run_matches_sequential():
    seq_failures, seq_cov = run_fuzz(120, master_seed=5, workers=1)
    par_failures, par_cov = run_fuzz(120, master_seed=5, workers=2)
    assert seq_failures == [] and par_failures == []
    assert seq_cov == par_cov


def test_constructor_counts():
    inst = gen_instance(GenConfig(seed=3))
    counts = constructor_counts(inst.expr)
    assert sum(counts.values()) == len(list(core.walk(inst.expr)))
    assert set(counts) <= set(CONSTRUCTORS)


def test_serialization_total_on_generated_outputs():
    # every typed evaluation result serializes to well-formed JSON
    from grql.evaluator import EvalConfig, evaluate
    from grql.serialize import serialize, to_json_text

    for seed in range(150):
        inst = gen_instance(GenConfig(seed=seed))
        cfg = EvalConfig(next_id=inst.store.max_numeric_id() + 1)
        out = evaluate(inst.schema, cfg, {}, inst.store, inst.expr)
        json.loads(to_json_text(serialize(out.result, inst.ty, inst.card)))
