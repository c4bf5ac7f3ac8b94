"""grql benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload repl_read --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports grql from its `src/`.
Set-up (store generation, snapshot write, `load_snapshot`, warm-up) is
repeated SETUP_REPEATS times and reported as the median. The timed phase then
runs whole rounds of the workload's fixed operation sequence until --seconds
of timed work and at least MIN_OPS operations are done; every output is
checked against the oracle. Times are scaled to a reference speed (speed.py).
The last line of stdout is one JSON object: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run (README.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 5
MIN_OPS = 100
WORKLOAD_NAMES = ("repl_read", "repl_write", "cli_oneshot", "fuzz")

END_TO_END = {  # name -> unit
    "ops_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

NODES = ("Var", "Prim", "Empty", "Union", "Name", "Proj", "Backlink", "Shaping",
         "Call", "If", "With", "For", "OrderBy", "Insert", "Update")
OP_CLASSES = ("count", "proj", "filter", "order", "shape", "backlink", "inlist",
              "insert", "bulk_insert", "update_one", "update_lifted", "read_person",
              "read_age", "save", "case")
PER_LAYER = (
    ["evaluator.seek.calls", "evaluator.seek.results", "evaluator.seek.self_ms"]
    + [f"evaluator.node.{c}.{m}" for c in NODES for m in ("count", "self_ms")]
    + ["evaluator.project.calls", "evaluator.project.self_ms",
       "evaluator.run_builtin.calls", "evaluator.run_builtin.self_ms",
       "evaluator.order_by_keys.self_ms", "evaluator.record_extend.calls",
       "evaluator.strip_for_storage.calls", "evaluator.evaluate.ms",
       "model.with_tuple.calls", "model.with_tuple.self_ms",
       "model.unlock_all.calls", "model.unlock_all.self_ms",
       "model.max_numeric_id.self_ms", "cli.run_query.self_ms",
       "serialize.serialize.self_ms", "serialize.to_json_text.self_ms",
       "store_io.load_snapshot.self_ms", "parser.parse_schema.ms",
       "wellformed.check_schema.ms", "wellformed.check_store.ms",
       "store_io.save_snapshot.self_ms", "store_io.save_snapshot.bytes",
       "cli.write_snapshot.ms", "cli.main.self_ms",
       "parser.parse_query.ms", "desugar.desugar.ms", "typecheck.synth.ms",
       "harness.gen_instance.self_ms", "harness.check_soundness.self_ms",
       "harness.result_fingerprint.ms", "wellformed.type_computed_seq.ms",
       "wellformed.store_extends.ms"]
    + [f"op.{c}.ms_p50" for c in OP_CLASSES]
    + ["trace.ops_per_s.untraced", "trace.ops_per_s.traced"]
)


def import_grql():
    """Import grql from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "grql" / "__init__.py").is_file():
        raise SystemExit(f"error: no grql sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import grql

    if Path(grql.__file__).resolve().parent != (SRC / "grql").resolve():
        raise SystemExit(f"error: imported grql from {grql.__file__}, not {SRC}")
    return grql


class Phase:
    """The rounds of one timed phase."""

    def __init__(self):
        self.rounds = []

    def run(self, workload, seconds: float, tracer=None) -> Phase:
        while sum(r.seconds for r in self.rounds) < seconds or self.attempted() < MIN_OPS:
            gc.collect()  # every round starts from the same collector state
            self.rounds.append(workload.run_round(tracer))
        return self

    def latencies(self) -> list[float]:
        return [lat for r in self.rounds for lat in r.latencies]

    def attempted(self) -> int:
        return sum(len(r.latencies) for r in self.rounds)

    def failures(self) -> list[str]:
        return [f for r in self.rounds for f in r.failures]

    def ops_per_s(self) -> float:
        return self.attempted() / sum(self.latencies())

    def raw_ops_per_s(self) -> float:
        return self.attempted() / sum(r.raw_op_seconds for r in self.rounds)

    def class_latencies(self) -> dict[str, list[float]]:
        by_class: dict[str, list[float]] = {}
        for r in self.rounds:
            for cls, lat in zip(r.classes, r.latencies):
                by_class.setdefault(cls, []).append(lat)
        return by_class


def run(workload_name: str, seed: int, seconds: float, trace: bool, n: int | None = None,
        out_dir: Path | None = None) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    import speed
    from tracer import Tracer
    from workloads import WORKLOADS

    tmp = tempfile.mkdtemp(prefix=f".bench_tmp-{workload_name}-", dir=ROOT)
    try:
        workload = WORKLOADS[workload_name](seed, n, tmp)
        setups = [speed.scaled_call(workload.setup) for _ in range(SETUP_REPEATS)]

        if not trace:
            phase = Phase().run(workload, seconds)
            lat = phase.latencies()
            metrics = {
                "ops_per_s": phase.ops_per_s(),
                "latency_ms.p50": statistics.median(lat) * 1000,
                "latency_ms.p90": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1000,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            phases = [phase]
        else:
            plain = Phase().run(workload, seconds / 2)
            with Tracer() as tracer:
                traced = Phase().run(workload, seconds / 2, tracer)
            layers = tracer.per_op()
            layers.update({f"op.{c}.ms_p50": statistics.median(v) * 1000
                           for c, v in plain.class_latencies().items()})
            layers["trace.ops_per_s.untraced"] = plain.ops_per_s()
            layers["trace.ops_per_s.traced"] = traced.ops_per_s()
            metrics = {name: layers.get(name, 0.0) for name in PER_LAYER}
            units = {name: layer_unit(name) for name in PER_LAYER}
            phases = [plain, traced]
            out_dir = out_dir or OUT_DIR
            out_dir.mkdir(exist_ok=True)
            stem = out_dir / f"{workload_name}-seed{seed}"
            tracer.write_spans(f"{stem}.spans.jsonl")
            with open(f"{stem}.layers.json", "w", encoding="utf-8") as fh:
                json.dump(dict(sorted(layers.items())), fh, indent=1)
            print(f"tracing overhead: {layers['trace.ops_per_s.traced']:.4g} ops/s traced vs "
                  f"{layers['trace.ops_per_s.untraced']:.4g} ops/s untraced; "
                  f"{len(tracer.spans)} of {sum(t[0] for t in tracer.totals.values())} spans "
                  f"kept in {stem}.spans.jsonl")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(p.attempted() for p in phases)
    failures = [f for p in phases for f in p.failures()]
    for line in failures[:10]:
        print(f"FAIL {line}", file=sys.stderr)
    first = phases[0]
    print(f"{workload_name} seed {seed}: {first.attempted()} ops in {len(first.rounds)} rounds, "
          f"{sum(r.seconds for r in first.rounds):.2f} s timed, {first.raw_ops_per_s():.4g} ops/s "
          f"unscaled; error_rate {len(failures) / attempted:.4g} ({len(failures)}/{attempted})")
    for cls, lats in sorted(first.class_latencies().items(), key=lambda kv: statistics.median(kv[1])):
        print(f"  op {cls:33} {statistics.median(lats) * 1000:12.4f} ms p50 over {len(lats)} ops")
    for name, value in metrics.items():
        print(f"  {name:36} {value:12.4f} {units[name]}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def layer_unit(name: str) -> str:
    if name.endswith("ms") or name.endswith("ms_p50"):
        return "ms"
    if name.endswith(".bytes"):
        return "bytes"
    if name.startswith("trace.ops_per_s"):
        return "1/s"
    return "count"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                   help="one workload, or all of them, each in its own process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOAD_NAMES]
        return max(codes)
    import_grql()
    os.environ.pop("GRQL_SEED", None)  # the CLI would otherwise permute canonical runs
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
