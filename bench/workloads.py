"""The four benchmark workloads.

Each workload is one client in a closed loop: it sends the next operation only
when the previous one has returned. `setup` builds the store and the fixed,
seeded operation sequence of one round; `run_round` replays that sequence from
the same starting store, so every round does the same work and a run is a
whole number of rounds. Outputs are compared with the oracle after the round,
outside the timed loop.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import gen
import speed
from gen import Op

import grql.cli
import grql.harness
import grql.store_io
from grql.model import olabel


@dataclass
class Round:
    """The timed operations of one round: class and scaled latency of each,
    the failures the oracle found, the wall-clock time of the timed loop and
    the unscaled time of its operations."""

    classes: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0
    raw_op_seconds: float = 0.0


def canonical(value):
    """The JSON value with every array sorted, for comparison up to
    permutation."""
    if isinstance(value, list):
        return sorted((canonical(v) for v in value), key=lambda v: json.dumps(v, sort_keys=True))
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    return value


def mismatch(op: Op, output: str, pretty: bool) -> str | None:
    """None if `output` is what the oracle expects for `op`: byte for byte in
    canonical order, up to permutation under a seed."""
    if op.seed is None:
        indent, seps = (2, None) if pretty else (None, (",", ":"))
        want = json.dumps(op.expected, indent=indent, separators=seps, ensure_ascii=False)
        if output == want:
            return None
    else:
        try:
            if canonical(json.loads(output)) == canonical(op.expected):
                return None
        except json.JSONDecodeError:
            pass
    return f"{op.cls}: output differs from the oracle for {op.query[:80]!r}: {output[:120]!r}"


def final_state_problems(text: str, model: gen.Model) -> list[str]:
    """Compare a saved snapshot with the oracle's final store: the snapshot
    bytes, and after `load_snapshot` the tuple counts, nextId and ages."""
    problems = []
    if text != model.snapshot_text():
        problems.append("saved snapshot text differs from the oracle's")
    snap = grql.store_io.load_snapshot(text)
    counts = Counter(t.type_name for t in snap.store.tuples.values())
    want = {"Person": len(model.persons), "Movie": len(model.movies)}
    if dict(counts) != want:
        problems.append(f"tuple counts {dict(counts)} != {want}")
    if snap.next_id != model.next_id:
        problems.append(f"nextId {snap.next_id} != {model.next_id}")
    age = olabel("age")
    ages = {i: t.record[age][0].value for i, t in snap.store.tuples.items()
            if t.type_name == "Person"}
    if ages != model.ages():
        problems.append("ages after updates differ from the oracle's")
    return problems


def timed_loop(ops: list, execute, tracer, rnd: Round) -> list:
    """Run `ops` back to back; returns each op's output or exception. Op
    times go to `rnd` scaled to the reference speed (see speed.py)."""
    outputs, raw, indices = [], [], []
    meter = speed.Meter()
    last = 0.0
    start = perf_counter()
    for op in ops:
        indices.append(meter.before_op(last))
        if tracer is not None:
            tracer.begin_op(op.cls if isinstance(op, Op) else "case")
        t0 = perf_counter()
        try:
            out = execute(op)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            out = exc
        last = perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        raw.append(last)
        outputs.append(out)
    rnd.seconds += perf_counter() - start
    rnd.raw_op_seconds += sum(raw)
    rnd.latencies += [t * scale for t, scale in zip(raw, meter.scales(indices))]
    return outputs


def check_outputs(ops: list[Op], outputs: list, rnd: Round, pretty: bool) -> None:
    for op, out in zip(ops, outputs):
        rnd.classes.append(op.cls)
        if isinstance(out, Exception):
            rnd.failures.append(f"{op.cls}: {type(out).__name__}: {out}")
        elif out is None:  # `save` prints nothing; the final-state check covers it
            continue
        elif isinstance(out, int):
            if out != 0:
                rnd.failures.append(f"{op.cls}: exit code {out}")
        else:
            problem = mismatch(op, out, pretty)
            if problem:
                rnd.failures.append(problem)


class Workload:
    name = ""
    default_n = 0

    def __init__(self, seed: int, n: int | None, tmp: str):
        self.seed = seed
        self.n = self.default_n if n is None else n
        self.tmp = tmp

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, tracer=None) -> Round:
        raise NotImplementedError

    def _store(self):
        """Generate the store, write its snapshot, and load it back."""
        model, names, rng = gen.generate(self.seed, self.n)
        path = os.path.join(self.tmp, f"{self.name}.grdb.json")
        text = model.snapshot_text()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(path, encoding="utf-8") as fh:
            snap = grql.store_io.load_snapshot(fh.read())
        return model, names, rng, path, text, snap


class ReplWorkload(Workload):
    """Session.run_query + render, as the REPL runs a query."""

    def _run(self, ops: list[Op], tracer, rnd: Round) -> None:
        session = grql.cli.Session.from_snapshot(self.snap)

        def execute(op: Op):
            if op.cls == "save":
                text = grql.store_io.save_snapshot(session.schema_text, session.store,
                                                   session.next_id)
                grql.cli._write_snapshot(self.path, text)
                return None
            session.seed = op.seed
            result, ty, card = session.run_query(op.query)
            return session.render(result, ty, card, pretty=True)

        outputs = timed_loop(ops, execute, tracer, rnd)
        check_outputs(ops, outputs, rnd, pretty=True)

    def _warm_up(self) -> None:
        grql.cli.Session.from_snapshot(self.snap).run_query("count(Person)")


# Ops per round of repl_read, by class: (unseeded, seeded). Latencies at
# n = 2000 order the classes count < order, proj < filter < backlink < inlist
# < shape, so p50 falls in the middle of the filter band (positions 18-25 of
# 40) and p90 in the middle of the inlist band (33-39), not between bands.
READ_MIX = {
    "count": (4, 2), "order": (3, 2), "proj": (4, 2), "filter": (6, 2),
    "backlink": (5, 2), "inlist": (7, 0), "shape": (1, 0),
}
INLIST_SIZE = 200
INLIST_HITS = 15


class ReplRead(ReplWorkload):
    name = "repl_read"
    default_n = 2000

    def setup(self) -> None:
        model, names, rng, self.path, _, self.snap = self._store()
        persons = list(model.persons.values())
        buckets = gen.full_buckets(self.n)
        make = {
            "count": lambda: model.count_op(rng.choice(("Person", "Movie"))),
            "order": model.order_op,
            "proj": model.proj_op,
            "filter": lambda: model.filter_op(rng.choice(gen.CITIES)),
            "backlink": lambda: model.backlink_op(rng.choice(buckets)),
            "shape": model.shape_op,
        }

        def inlist() -> Op:
            age = rng.choice(buckets)
            bucket = [p.name for p in persons if p.age == age]
            others = [p.name for p in persons if p.age != age]
            hits = rng.sample(bucket, min(INLIST_HITS, len(bucket)))
            near = rng.sample(others, min(len(others), (INLIST_SIZE - len(hits)) // 2))
            misses = [names.fresh() for _ in range(INLIST_SIZE - len(hits) - len(near))]
            listed = hits + near + misses
            rng.shuffle(listed)
            return model.inlist_op(age, listed)

        make["inlist"] = inlist
        self.ops = []
        for cls, (plain, seeded) in READ_MIX.items():
            for k in range(plain + seeded):
                op = make[cls]()
                if k >= plain:
                    op.seed = rng.randrange(2**31)
                self.ops.append(op)
        rng.shuffle(self.ops)
        self._warm_up()

    def run_round(self, tracer=None) -> Round:
        rnd = Round()
        self._run(self.ops, tracer, rnd)
        return rnd


WRITE_STANZAS = 5
BULK_SIZE = 10
NEW_AGE = 19  # below every generated age, so inserts join no queried bucket


def _lifted_ages(n: int, rng: random.Random, k: int) -> list[int]:
    """k ages for lifted updates: full buckets, even, so that no update moves
    persons into another chosen bucket."""
    even = [a for a in gen.full_buckets(n) if a % 2 == 0] or gen.full_buckets(n)
    return [rng.choice(even) for _ in range(k)] if len(even) < k else rng.sample(even, k)


class ReplWrite(ReplWorkload):
    name = "repl_write"
    default_n = 2000

    def setup(self) -> None:
        model, names, rng, self.path, _, self.snap = self._store()
        m = model.copy()
        originals = list(m.persons.values())
        targets = rng.sample(originals, WRITE_STANZAS)
        self.ops = []
        for target, age in zip(targets, _lifted_ages(self.n, rng, WRITE_STANZAS)):
            name = names.fresh()
            bulk = [names.fresh() for _ in range(BULK_SIZE)]
            self.ops += [
                m.insert_op(name, NEW_AGE, rng.choice(gen.CITIES)),
                m.person_op(name),
                m.bulk_insert_op(bulk, NEW_AGE),
                m.person_op(rng.choice(bulk)),
                m.update_name_op(target.name),
                m.person_op(target.name),
                m.update_age_op(age),
                m.age_names_op(age + 1),
                m.count_op("Person"),
            ]
        self.ops.append(Op("save", "", None))
        self.final = m
        self._warm_up()

    def run_round(self, tracer=None) -> Round:
        rnd = Round()
        self._run(self.ops, tracer, rnd)
        with open(self.path, encoding="utf-8") as fh:
            problems = final_state_problems(fh.read(), self.final)
        rnd.failures += [f"final state: {p}" for p in problems]
        return rnd


CLI_STANZAS = 2


class CliOneshot(Workload):
    name = "cli_oneshot"
    default_n = 1000

    def setup(self) -> None:
        model, names, rng, self.path, self.text, _ = self._store()
        m = model.copy()
        originals = list(m.persons.values())
        targets = rng.sample(originals, CLI_STANZAS)
        self.ops = []
        for target, age in zip(targets, _lifted_ages(self.n, rng, CLI_STANZAS)):
            name = names.fresh()
            stanza = [
                m.insert_op(name, NEW_AGE, rng.choice(gen.CITIES)),
                m.person_op(name),
                m.update_name_op(target.name),
                m.person_op(target.name),
                m.age_names_op(age),
                m.count_op("Person"),
                m.filter_op(rng.choice(gen.CITIES)),
                m.order_op(),
                m.update_age_op(age),
                m.age_names_op(age + 1),
            ]
            for op in stanza:
                op.commit = op.cls in ("insert", "update_one", "update_lifted")
            self.ops += stanza
        self.final = m
        self._main(Op("count", "count(Person)", None))  # warm-up

    def _main(self, op: Op):
        """One `grql run` invocation; returns stdout, or the exit code if it
        is not 0."""
        argv = ["run", self.path, op.query] + (["--commit"] if op.commit else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = grql.cli.main(argv)
        if code != 0:
            return code
        return out.getvalue().removesuffix("\n")

    def run_round(self, tracer=None) -> Round:
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(self.text)
        rnd = Round()
        outputs = timed_loop(self.ops, self._main, tracer, rnd)
        check_outputs(self.ops, outputs, rnd, pretty=False)
        with open(self.path, encoding="utf-8") as fh:
            problems = final_state_problems(fh.read(), self.final)
        rnd.failures += [f"final state: {p}" for p in problems]
        return rnd


FUZZ_CASES = 4000
FUZZ_WARM_UP = 50


class Fuzz(Workload):
    name = "fuzz"

    def setup(self) -> None:
        self.config = grql.harness.GenConfig()
        for i in range(FUZZ_CASES, FUZZ_CASES + FUZZ_WARM_UP):
            grql.harness.run_case(self.seed, i, self.config)

    def run_round(self, tracer=None) -> Round:
        rnd = Round()
        cases = range(FUZZ_CASES)
        outputs = timed_loop(cases, lambda i: grql.harness.run_case(self.seed, i, self.config)[0],
                             tracer, rnd)
        for i, out in zip(cases, outputs):
            rnd.classes.append("case")
            if isinstance(out, Exception):
                rnd.failures.append(f"case {i}: {type(out).__name__}: {out}")
            elif out is not None:
                rnd.failures.append(f"case {i}: counterexample {out.property_name}: {out.witness}")
        return rnd


WORKLOADS = {w.name: w for w in (ReplRead, ReplWrite, CliOneshot, Fuzz)}
