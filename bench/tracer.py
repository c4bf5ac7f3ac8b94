"""Outside-in tracer: wraps grql's public layer functions from the benchmark's
own code, so nothing under `src/` changes.

While installed, each wrapped call inside an operation records a span (name,
start, end, parent span, operation id) and adds to per-name totals of calls,
inclusive time and self time (inclusive time minus the time of wrapped
children). Calls outside an operation, such as set-up and the oracle's
checks, go straight to the original. `restore` (or leaving the `with` block)
puts every original back; untraced runs never see a wrapper.

A function imported by name is wrapped in every module that imports it, since
each such module holds its own reference. Methods are wrapped on their class.
`Evaluator.run` is named per core constructor, `evaluator.node.<Ctor>`.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

# (layer, module, attribute) for every wrapped name; several rows share a
# layer when a function is imported by name elsewhere.
WRAPPED = (
    ("evaluator.seek", "grql.evaluator", "seek"),
    ("evaluator.project", "grql.evaluator", "project"),
    ("evaluator.run_builtin", "grql.evaluator", "run_builtin"),
    ("evaluator.order_by_keys", "grql.evaluator", "order_by_keys"),
    ("evaluator.record_extend", "grql.evaluator", "record_extend"),
    ("evaluator.strip_for_storage", "grql.evaluator", "strip_for_storage"),
    ("evaluator.evaluate", "grql.evaluator", "evaluate"),
    ("evaluator.evaluate", "grql.cli", "evaluate"),
    ("evaluator.node", "grql.evaluator", "Evaluator.run"),
    ("model.with_tuple", "grql.model", "Store.with_tuple"),
    ("model.unlock_all", "grql.model", "Store.unlock_all"),
    ("model.max_numeric_id", "grql.model", "Store.max_numeric_id"),
    ("cli.run_query", "grql.cli", "Session.run_query"),
    ("cli.main", "grql.cli", "main"),
    ("cli.write_snapshot", "grql.cli", "_write_snapshot"),
    ("serialize.serialize", "grql.serialize", "serialize"),
    ("serialize.serialize", "grql.cli", "serialize"),
    ("serialize.to_json_text", "grql.serialize", "to_json_text"),
    ("serialize.to_json_text", "grql.cli", "to_json_text"),
    ("store_io.load_snapshot", "grql.store_io", "load_snapshot"),
    ("store_io.load_snapshot", "grql.cli", "load_snapshot"),
    ("store_io.save_snapshot", "grql.store_io", "save_snapshot"),
    ("store_io.save_snapshot", "grql.cli", "save_snapshot"),
    ("store_io.save_snapshot", "grql.harness", "save_snapshot"),
    ("parser.parse_schema", "grql.parser", "parse_schema"),
    ("parser.parse_schema", "grql.store_io", "parse_schema"),
    ("parser.parse_schema", "grql.cli", "parse_schema"),
    ("parser.parse_query", "grql.parser", "parse_query"),
    ("parser.parse_query", "grql.cli", "parse_query"),
    ("desugar.desugar", "grql.desugar", "desugar"),
    ("desugar.desugar", "grql.cli", "desugar"),
    ("typecheck.synth", "grql.cli", "synth"),
    ("typecheck.synth", "grql.harness", "synth"),
    ("wellformed.check_schema", "grql.wellformed", "check_schema"),
    ("wellformed.check_schema", "grql.store_io", "check_schema"),
    ("wellformed.check_schema", "grql.cli", "check_schema"),
    ("wellformed.check_schema", "grql.harness", "check_schema"),
    ("wellformed.check_store", "grql.wellformed", "check_store"),
    ("wellformed.check_store", "grql.store_io", "check_store"),
    ("wellformed.check_store", "grql.harness", "check_store"),
    ("wellformed.type_computed_seq", "grql.wellformed", "type_computed_seq"),
    ("wellformed.type_computed_seq", "grql.harness", "type_computed_seq"),
    ("wellformed.store_extends", "grql.wellformed", "store_extends"),
    ("wellformed.store_extends", "grql.harness", "store_extends"),
    ("harness.gen_instance", "grql.harness", "gen_instance"),
    ("harness.check_soundness", "grql.harness", "check_soundness"),
    ("harness.result_fingerprint", "grql.harness", "result_fingerprint"),
)

# Layers that also count the size of what they return, under this name.
SIZES = {
    "evaluator.seek": ("evaluator.seek.results", len),
    "store_io.save_snapshot": ("store_io.save_snapshot.bytes", lambda text: len(text.encode())),
}

MAX_SPANS = 100_000  # about 15 MB of span file; enough to see one op's call tree


class Tracer:
    """Install with `with Tracer() as t:`; bracket each operation with
    `begin_op`/`end_op`. At most MAX_SPANS spans are kept in memory; the
    totals count every call."""

    def __init__(self):
        self.spans: list[tuple] = []  # (span id, name, start, end, parent id, op id)
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.sizes: dict[str, int] = {}
        self.ops = 0
        self.op: int | None = None
        self.op_classes: list[str] = []
        self._stack: list[list] = []  # [child seconds, span id] per open call
        self._next_span = 0
        self._saved: list[tuple] = []

    # -- operations ----------------------------------------------------------

    def begin_op(self, cls: str) -> None:
        self.op = self.ops
        self.op_classes.append(cls)

    def end_op(self) -> None:
        self.op = None
        self.ops += 1

    # -- wrapping ------------------------------------------------------------

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        try:
            for layer, module, attr in WRAPPED:
                owner = importlib.import_module(module)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[attr]
                else:
                    original = getattr(owner, attr)
                if layer == "evaluator.node":
                    wrapper = self._wrap(original, None, node=True)
                else:
                    wrapper = self._wrap(original, layer, size=SIZES.get(layer))
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, layer: str | None, size=None, node: bool = False):
        tracer = self
        totals = self.totals
        node_names: dict[type, str] = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if node:
                kind = type(args[3])
                name = node_names.get(kind)
                if name is None:
                    name = node_names[kind] = f"evaluator.node.{kind.__name__}"
            else:
                name = layer
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_span
            tracer._next_span += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                total = totals.get(name)
                if total is None:
                    total = totals[name] = [0, 0.0, 0.0]
                total[0] += 1
                total[1] += elapsed
                total[2] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if span_id < MAX_SPANS:
                    tracer.spans.append((span_id, name, start, end,
                                         -1 if parent is None else parent[1], tracer.op))
            if size is not None:
                key, measure = size
                tracer.sizes[key] = tracer.sizes.get(key, 0) + measure(result)
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def per_op(self) -> dict[str, float]:
        """`<layer>.calls`, `.ms` (inclusive) and `.self_ms` per operation for
        every layer seen, `evaluator.node.<Ctor>.count` for the evaluator,
        plus the size counters."""
        ops = max(self.ops, 1)
        out: dict[str, float] = {}
        for name, (calls, inclusive, own) in self.totals.items():
            out[f"{name}.count" if name.startswith("evaluator.node.") else f"{name}.calls"] = calls / ops
            out[f"{name}.ms"] = inclusive * 1000 / ops
            out[f"{name}.self_ms"] = own * 1000 / ops
        for key, value in self.sizes.items():
            out[key] = value / ops
        return out

    def write_spans(self, path: str) -> None:
        """One JSON object per line; times in seconds from the first span."""
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start - base,
                                     "end": end - base, "parent": parent, "op": op,
                                     "class": self.op_classes[op]}) + "\n")
