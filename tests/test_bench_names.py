"""The benchmark finds the program's functions by name; these must resolve.

``bench/spans.py`` wraps functions and methods by module and attribute
name, and ``bench/rep.py`` imports ``worker_count``.  Renaming one of them
would otherwise break only traced benchmark runs.
"""

import importlib.util
import os
import sys

import bbgc.cli  # noqa: F401  (loads every bbgc module but one)
import bbgc.parallel  # noqa: F401  (the benchmark's alone; the tracer imports it)

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _bindings() -> dict:
    """Every attribute of every bbgc module, and of every class they define."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "bbgc" or name.startswith("bbgc.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    out[(name, attr, member)] = inner
    return out


def test_tracer_wraps_every_target_and_restores_every_binding():
    spans = _load_spans()
    before = _bindings()
    tracer = spans.Tracer("names")
    try:
        wrapped = tracer.install()
        # every target resolved: each one wraps at least its defining binding
        assert len(wrapped) >= len(spans.TARGETS)
        assert ("bbgc", "read_store") in {(o.__name__, a) for o, a in wrapped}
        assert all(hasattr(getattr(owner, attr), "__wrapped__") for owner, attr in wrapped)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_tracer_wraps_neighbor_counts_where_the_smoke_run_asserts_it():
    # bench/smoke.py asserts these bindings; a module that stops importing
    # neighbor_counts by name fails here too, not only in the smoke run
    tracer = _load_spans().Tracer("names")
    try:
        wrapped = {(owner.__name__, attr) for owner, attr in tracer.install()}
    finally:
        tracer.uninstall()
    for module in ("bbgc.embedding", "bbgc.diagnosis", "bbgc.gmm", "bbgc.importance",
                   "bbgc.cli"):
        assert (module, "neighbor_counts") in wrapped, module


def test_bench_imports_resolve():
    # as bench/rep.py and bench/workloads.py import them
    from bbgc.cli import main  # noqa: F401
    from bbgc.embedding import cosine_distance  # noqa: F401
    from bbgc.parallel import worker_count
    from bbgc.source import (  # noqa: F401
        build_synthetic_model, generate, load_source_spec, open_source, sample_latents)
    from bbgc.store import read_store  # noqa: F401
    assert worker_count() >= 1
