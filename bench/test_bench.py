"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_grql()

import gen  # noqa: E402
import pytest  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

import grql.cli  # noqa: E402
import grql.evaluator  # noqa: E402
import grql.harness  # noqa: E402
import grql.model  # noqa: E402
import grql.store_io  # noqa: E402

TINY = 60


def test_generator_is_deterministic():
    a, _, rng_a = gen.generate(7, TINY)
    b, _, rng_b = gen.generate(7, TINY)
    assert a.snapshot_text() == b.snapshot_text()
    assert rng_a.random() == rng_b.random()
    assert gen.generate(8, TINY)[0].snapshot_text() != a.snapshot_text()


def test_generated_store_has_the_stated_shape():
    model, _, _ = gen.generate(3, 2000)
    assert (len(model.persons), len(model.movies)) == (2000, 1000)
    assert sum(p.born is None for p in model.persons.values()) == 600
    assert all(len(m.actors) == 3 for m in model.movies.values())
    for age in gen.full_buckets(2000):
        assert len(model._age_ids(age)) == 30


def test_snapshot_round_trips_through_grql():
    model, _, _ = gen.generate(5, TINY)
    text = model.snapshot_text()
    snap = grql.store_io.load_snapshot(text)
    assert grql.store_io.save_snapshot(snap.schema_text, snap.store, snap.next_id) == text


def _session_output(model: gen.Model, op: gen.Op) -> str:
    session = grql.cli.Session.from_snapshot(grql.store_io.load_snapshot(model.snapshot_text()))
    session.seed = op.seed
    result, ty, card = session.run_query(op.query)
    return session.render(result, ty, card, pretty=True)


def test_oracle_accepts_grql_and_rejects_a_corrupted_result():
    model, _, _ = gen.generate(11, TINY)
    op = model.backlink_op(gen.full_buckets(TINY)[0])
    out = _session_output(model, op)
    assert workloads.mismatch(op, out, pretty=True) is None
    corrupted = json.loads(out)
    corrupted[0]["films"].append({"title": "Not A Film"})
    assert workloads.mismatch(op, json.dumps(corrupted, indent=2), pretty=True)
    # canonical runs must match byte for byte, so a reordering is a mismatch too
    order = model.order_op()
    reordered = json.dumps(list(reversed(order.expected)), indent=2, ensure_ascii=False)
    assert workloads.mismatch(order, reordered, pretty=True)


def test_oracle_compares_seeded_runs_up_to_permutation():
    model, _, _ = gen.generate(12, TINY)
    op = model.backlink_op(gen.full_buckets(TINY)[0])
    op.seed = 4
    assert workloads.mismatch(op, _session_output(model, op), pretty=True) is None
    shuffled = list(reversed(op.expected))
    assert workloads.mismatch(op, json.dumps(shuffled), pretty=True) is None
    assert workloads.mismatch(op, json.dumps(shuffled[1:]), pretty=True)


def test_final_state_check_catches_a_wrong_age():
    model, _, _ = gen.generate(13, TINY)
    after = model.copy()
    after.update_age_op(gen.full_buckets(TINY)[0])
    assert workloads.final_state_problems(after.snapshot_text(), after) == []
    problems = workloads.final_state_problems(model.snapshot_text(), after)
    assert any("ages" in p for p in problems)


def test_scaling_divides_by_the_reference_loops_slowdown():
    meter = speed.Meter()
    meter.samples = [2 * speed.REFERENCE_S] * 6
    assert meter.scales([0, 3]) == [0.5, 0.5]


def test_tracer_restores_the_originals(tmp_path):
    import grql.typecheck
    from tracer import Tracer

    before = (grql.evaluator.seek, grql.evaluator.Evaluator.__dict__["run"],
              grql.model.Store.__dict__["with_tuple"], grql.cli.synth, grql.harness.synth,
              grql.store_io.check_store, grql.harness.check_store, grql.cli.main)
    with Tracer() as tracer:
        assert grql.evaluator.seek is not before[0]
        assert grql.cli.synth is not grql.typecheck.synth
        tracer.begin_op("case")
        grql.harness.run_case(1, 0, grql.harness.GenConfig())
        tracer.end_op()
    after = (grql.evaluator.seek, grql.evaluator.Evaluator.__dict__["run"],
             grql.model.Store.__dict__["with_tuple"], grql.cli.synth, grql.harness.synth,
             grql.store_io.check_store, grql.harness.check_store, grql.cli.main)
    assert all(a is b for a, b in zip(after, before))
    assert tracer.per_op()["harness.gen_instance.calls"] == 1


# Per-layer metrics each workload must exercise (non-zero) in a traced run.
EXERCISED = {
    "repl_read": ["evaluator.seek.calls", "evaluator.node.Name.count", "evaluator.project.calls",
                  "evaluator.run_builtin.calls", "evaluator.order_by_keys.self_ms",
                  "model.unlock_all.calls", "cli.run_query.self_ms",
                  "serialize.serialize.self_ms", "serialize.to_json_text.self_ms",
                  "parser.parse_query.ms", "op.inlist.ms_p50"],
    "repl_write": ["model.with_tuple.calls", "evaluator.strip_for_storage.calls",
                   "evaluator.node.Insert.count", "evaluator.node.Update.count",
                   "store_io.save_snapshot.bytes", "cli.write_snapshot.ms", "op.save.ms_p50"],
    "cli_oneshot": ["store_io.load_snapshot.self_ms", "parser.parse_schema.ms",
                    "wellformed.check_schema.ms", "wellformed.check_store.ms",
                    "store_io.save_snapshot.self_ms", "cli.write_snapshot.ms", "cli.main.self_ms"],
    "fuzz": ["harness.gen_instance.self_ms", "harness.check_soundness.self_ms",
             "harness.result_fingerprint.ms", "wellformed.type_computed_seq.ms",
             "wellformed.store_extends.ms", "typecheck.synth.ms", "op.case.ms_p50"],
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric_without_errors(name, tmp_path):
    plain = run.run(name, 1, 0.05, trace=False, n=TINY)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= run.MIN_OPS
    assert list(plain["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run.run(name, 1, 0.05, trace=True, n=TINY, out_dir=tmp_path)
    assert traced["correct"] and traced["failed"] == 0
    layers = {k: m["value"] for k, m in traced["metrics"].items()}
    assert list(layers) == list(run.PER_LAYER)
    assert all(layers[k] > 0 for k in EXERCISED[name]), \
        [k for k in EXERCISED[name] if not layers[k] > 0]
    if name == "repl_read":
        assert layers["model.with_tuple.calls"] == 0
    assert (tmp_path / f"{name}-seed1.spans.jsonl").stat().st_size > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
