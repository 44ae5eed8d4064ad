"""Span tracing from outside the program.

The tracer wraps public bbgc functions and methods wherever a module
binds them by name (``neighbor_counts`` is bound in ``embedding``,
``diagnosis``, ``gmm``, ``importance``, ``cli`` and the package), records
one span per call and restores every binding on ``uninstall``.  Spans
stay in memory until the run writes them out.  Probes read counts off
a call's arguments and result, so work is counted where it happens, and
each count is also kept per CLI command.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

Probe = Callable[["Tracer", tuple, Any], None]

# Layers with spans; parallel is measured by counts and times only.
LAYERS = ("source", "rng", "store", "embedding", "diagnosis", "gmm", "importance",
          "jsonutil", "cli")


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    failed: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


# -- probes: counts read off one call's arguments and result --------------------

def _rows(x) -> int:
    return int(x.shape[0])


def _embed_probe(tr: "Tracer", args: tuple, result) -> None:
    source, latents = args[0], args[1]
    n = _rows(latents)
    tr.add("source.rows", n)
    batch = getattr(source, "batch_size", None)
    if batch:
        # Both directions of the wire: a 32-byte header per batch frame,
        # then per row an f32 vector and a u32 ref length.
        frames = -(-n // batch)
        record = 4 * source.latent_dim + 4 + 4 * source.embed_dim + 4
        tr.add("source.wire_bytes", 2 * 32 * frames + n * record)


def _scan_probe(tr: "Tracer", args: tuple, result) -> None:
    anchors, pool = args[0], args[1]
    pairs = _rows(anchors) * _rows(pool)
    tr.add("embedding.pairs", pairs)
    tr.add("embedding.flops", 2 * pairs * int(anchors.shape[1]))


def _count(name: str) -> Probe:
    return lambda tr, args, result: tr.add(name, 1)


TARGETS: list[tuple[str, str, str, Probe | None, bool]] = [
    # (span name, module, attribute path, probe, records a span)
    ("source.generate", "bbgc.source", "generate", None, True),
    ("source.embed", "bbgc.source", "SyntheticSource.embed", _embed_probe, True),
    ("source.embed", "bbgc.source", "_BatchedSource.embed", _embed_probe, True),
    ("rng.normal_rows", "bbgc.rng", "CounterStream.normal_rows", None, True),
    ("rng.uniforms", "bbgc.rng", "CounterStream.uniforms", None, True),
    ("rng.raw64", "bbgc.rng", "CounterStream.raw64",
     lambda tr, args, result: tr.add("rng.words", int(args[2])), False),
    ("rng.hash_latents", "bbgc.rng", "hash_latents", None, True),
    ("store.write", "bbgc.store", "StoreWriter.append", None, True),
    ("store.write", "bbgc.store", "StoreWriter.close",
     lambda tr, args, result: tr.add("store.write_bytes", os.path.getsize(args[0].path)),
     True),
    ("store.read", "bbgc.store", "read_store",
     lambda tr, args, result: tr.add("store.read_bytes", os.path.getsize(args[0])), True),
    ("store.latents_disjoint", "bbgc.store", "latents_disjoint", None, True),
    ("embedding.neighbor_counts", "bbgc.embedding", "neighbor_counts", _scan_probe, True),
    ("embedding.mean_similarities", "bbgc.embedding", "mean_similarities",
     _scan_probe, True),
    ("parallel.run_chunks", "bbgc.parallel", "run_chunks", None, False),
    ("diagnosis.build_report", "bbgc.diagnosis", "build_report", None, True),
    ("diagnosis.population_stats", "bbgc.diagnosis", "population_stats", None, True),
    ("diagnosis.find_worst_mode", "bbgc.diagnosis", "find_worst_mode", None, True),
    ("diagnosis.top_k_modes", "bbgc.diagnosis", "top_k_modes", None, True),
    ("diagnosis.convergence_curve", "bbgc.diagnosis", "convergence_curve", None, True),
    ("diagnosis.mode_consistency_check", "bbgc.diagnosis", "mode_consistency_check",
     None, True),
    ("diagnosis.check_disjoint", "bbgc.diagnosis", "check_disjoint", None, True),
    ("gmm.calibrate_gmm", "bbgc.gmm", "calibrate_gmm", None, True),
    ("gmm.kmeans_fit", "bbgc.gmm", "kmeans_fit",
     lambda tr, args, result: tr.add("gmm.kmeans_inertia", float(result[1].inertia)),
     True),
    # private, counted only: each call is one assignment pass over the fit set
    ("gmm.assign", "bbgc.gmm", "_assign", _count("gmm.kmeans_assign_calls"), False),
    ("gmm.compute_cluster_weights", "bbgc.gmm", "compute_cluster_weights", None, True),
    ("gmm.estimate_covariance", "bbgc.gmm", "estimate_covariance", None, True),
    ("gmm.sample_calibrated", "bbgc.gmm", "sample_calibrated", None, True),
    ("importance.build_plan", "bbgc.importance", "build_plan", None, True),
    ("importance.sample_calibrated_is", "bbgc.importance", "sample_calibrated_is",
     lambda tr, args, result: (tr.add("importance.proposals", result[1].proposals),
                               tr.add("importance.accepted", result[1].accepted)),
     True),
    ("importance.hull_membership", "bbgc.importance", "hull_membership",
     _count("importance.hull_membership_calls"), True),
    ("jsonutil.write_json", "bbgc.jsonutil", "write_json",
     lambda tr, args, result: tr.add("jsonutil.bytes", os.path.getsize(args[0])), True),
]


class Tracer:
    """In-memory span recorder that patches bbgc bindings while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.by_command: dict[str, dict[str, float]] = {}
        self.chunk_busy: list[float] = []
        self.chunk_wall: list[float] = []
        self._command = ""
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
        per = self.by_command.setdefault(self._command, {})
        per[name] = per.get(name, 0) + value

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        failed = True
        start = time.perf_counter()
        try:
            yield
            failed = False
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run_id, failed))

    @contextmanager
    def command(self, name: str):
        """Root span of one CLI command; later counts are filed under it."""
        self._command = name
        try:
            with self.span("cli." + name):
                yield
        finally:
            self._command = ""

    # -- patching ---------------------------------------------------------------

    def _wrap(self, fn, name: str, probe: Probe | None, record: bool):
        if name == "parallel.run_chunks":
            return self._wrap_run_chunks(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if record:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            if probe is not None:
                probe(tracer, args, result)
            return result

        return traced

    def _wrap_run_chunks(self, fn):
        """Count chunks, their busy time and the pool's wall time.

        No span: the chunks run the caller's code (the GEMM of a scan,
        the assignment step of k-means), so their time stays in the
        calling layer's self time.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(chunk_fn, total, chunk):
            def timed(lo, hi):
                start = time.perf_counter()
                try:
                    return chunk_fn(lo, hi)
                finally:
                    # list.append is atomic, so worker threads may share it
                    tracer.chunk_busy.append(time.perf_counter() - start)

            start = time.perf_counter()
            try:
                return fn(timed, total, chunk)
            finally:
                tracer.chunk_wall.append(time.perf_counter() - start)

        return traced

    def install(self) -> list[tuple[object, str]]:
        """Wrap every target in every bbgc module or class that binds it;
        returns the (module or class, attribute) pairs wrapped."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "bbgc" or name.startswith("bbgc."))]
        for name, module_name, path, probe, record in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, attr, self._wrap(vars(cls)[attr], name, probe, record))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(original, name, probe, record)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        return [(owner, attr) for owner, attr, _ in self._patches]

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> list[tuple[object, str, object]]:
        """Restore every binding; returns what was restored."""
        restored = list(reversed(self._patches))
        for owner, attr, original in restored:
            setattr(owner, attr, original)
        self._patches.clear()
        return restored

    # -- analysis ---------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
        return {s.span_id: max(0.0, s.duration - covered.get(s.span_id, 0.0))
                for s in self.spans}

    def dump(self) -> list[dict]:
        """Spans as JSON-ready records, self time included."""
        own = self.self_times()
        return [{"id": s.span_id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run_id": s.run_id, "failed": s.failed,
                 "self_s": own[s.span_id]} for s in self.spans]

    def layer_metrics(self, diagnosis_base: int) -> dict[str, float]:
        """Per-layer numbers from the recorded spans and counts.

        ``diagnosis_base`` is m*n of the workload's ``diagnose`` command,
        the base of ``embedding.pairs_per_diagnosis``.
        """
        by_id = {s.span_id: s for s in self.spans}
        own = self.self_times()

        def total(name: str) -> float:
            # outermost spans only, so a function that re-enters is not
            # counted twice
            return sum(s.duration for s in self.spans if s.name == name and
                       (s.parent is None or by_id[s.parent].name != name))

        def calls(name: str, failed: bool = False) -> int:
            return sum(1 for s in self.spans if s.name == name and (s.failed or not failed))

        def root(s: Span) -> Span:
            while s.parent is not None:
                s = by_id[s.parent]
            return s

        layer_self = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            layer_self[s.name.split(".", 1)[0]] += own[s.span_id]

        c = self.counters.get
        diagnose_s = total("cli.diagnose")
        embedding_in_diagnose = sum(
            s.duration for s in self.spans
            if s.name in ("embedding.neighbor_counts", "embedding.mean_similarities")
            and root(s).name == "cli.diagnose")
        diagnoses = calls("cli.diagnose")
        diagnose_pairs = self.by_command.get("diagnose", {}).get("embedding.pairs", 0)
        proposals = c("importance.proposals", 0)
        wall = sum(self.chunk_wall)
        busy = sum(self.chunk_busy)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {
            "source.embed_s": total("source.embed"),
            "source.rows": c("source.rows", 0),
            "source.calls": calls("source.embed"),
            "source.failed": calls("source.embed", failed=True),
            "source.wire_bytes": c("source.wire_bytes", 0),
            "rng.normal_rows_s": total("rng.normal_rows"),
            "rng.words": c("rng.words", 0),
            "store.write_s": total("store.write"),
            "store.write_bytes": c("store.write_bytes", 0),
            "store.read_s": total("store.read"),
            "store.read_bytes": c("store.read_bytes", 0),
            "embedding.neighbor_counts_s": total("embedding.neighbor_counts"),
            "embedding.mean_similarities_s": total("embedding.mean_similarities"),
            "embedding.pairs": c("embedding.pairs", 0),
            "embedding.pairs_per_diagnosis": ratio(diagnose_pairs,
                                                   diagnoses * diagnosis_base),
            "embedding.pairs_per_diagnosis_base": diagnosis_base,
            "embedding.flops": c("embedding.flops", 0),
            "embedding.share_of_diagnose": ratio(embedding_in_diagnose, diagnose_s),
            "parallel.chunks": len(self.chunk_busy),
            "parallel.wall_s": wall,
            "parallel.busy_s": busy,
            "parallel.concurrency": ratio(busy, wall),
            "diagnosis.build_report_s": total("diagnosis.build_report"),
            "diagnosis.convergence_curve_s": total("diagnosis.convergence_curve"),
            "diagnosis.check_disjoint_s": total("diagnosis.check_disjoint"),
            "diagnosis.top_k_modes_s": total("diagnosis.top_k_modes"),
            "gmm.calibrate_gmm_s": total("gmm.calibrate_gmm"),
            "gmm.kmeans_fit_s": total("gmm.kmeans_fit"),
            "gmm.kmeans_inertia": c("gmm.kmeans_inertia", 0.0),
            "gmm.kmeans_assign_calls": c("gmm.kmeans_assign_calls", 0),
            "gmm.compute_cluster_weights_s": total("gmm.compute_cluster_weights"),
            "gmm.sample_calibrated_s": total("gmm.sample_calibrated"),
            "importance.build_plan_s": total("importance.build_plan"),
            "importance.sample_calibrated_is_s": total("importance.sample_calibrated_is"),
            "importance.hull_membership_s": total("importance.hull_membership"),
            "importance.hull_membership_calls": c("importance.hull_membership_calls", 0),
            "importance.proposals": proposals,
            "importance.hull_calls_per_proposal": ratio(
                c("importance.hull_membership_calls", 0), proposals),
            "importance.accept_ratio": ratio(c("importance.accepted", 0), proposals),
            "jsonutil.write_json_s": total("jsonutil.write_json"),
            "jsonutil.bytes": c("jsonutil.bytes", 0),
            "trace.spans": len(self.spans),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        return out
