"""The benchmark's tracer wraps grql functions by module and name; every name
it lists must exist, or each traced benchmark run fails on install."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(module: str, attr: str):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, attr)


def test_tracer_wraps_every_listed_name_and_restores_it():
    tracer = _load_tracer()
    names = [(module, attr) for _, module, attr in tracer.WRAPPED]
    before = [_current(module, attr) for module, attr in names]
    with tracer.Tracer():
        during = [_current(module, attr) for module, attr in names]
    after = [_current(module, attr) for module, attr in names]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_benchmark_workloads_import_and_check_a_saved_store(monkeypatch):
    # workloads.py imports grql.model.olabel and indexes loaded records with
    # it; a label change that breaks the benchmark must fail here too
    monkeypatch.syspath_prepend(str(TRACER_PATH.parent))
    gen = importlib.import_module("gen")
    workloads = importlib.import_module("workloads")
    model = gen.generate(1, 60)[0]
    assert workloads.final_state_problems(model.snapshot_text(), model) == []
