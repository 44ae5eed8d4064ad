"""Smoke test of the benchmark itself; run from the checkout root:

    python3 bench/smoke.py

It runs every workload once at tiny sizes with tracing, then checks
that the last output line has the contract's shape, that every output
check passed, that spans nest, that the tracer wraps every binding and
restores all of them, and that the benchmark refuses to run without the
program's sources.  Exits 0 when all hold.  Not a pytest module on
purpose: it starts the benchmark's own processes and takes about a
minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import workloads
from run import BENCH, ROOT, SRC, WORK

SEED = 3


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}")


def tracer_restores_bindings() -> None:
    sys.path.insert(0, SRC)
    import bbgc.cli  # noqa: F401  (loads every bbgc module)
    from spans import Tracer

    modules = {n: m for n, m in sys.modules.items() if n == "bbgc" or n.startswith("bbgc.")}
    before = {n: dict(vars(m)) for n, m in modules.items()}
    tracer = Tracer("smoke")
    wrapped = {(o.__name__, a) for o, a in tracer.install()}
    for module in ("bbgc.embedding", "bbgc.diagnosis", "bbgc.gmm", "bbgc.importance",
                   "bbgc.cli"):
        check((module, "neighbor_counts") in wrapped, f"neighbor_counts wrapped in {module}")
    check(("bbgc", "read_store") in wrapped, "package re-exports wrapped too")
    check(bbgc.cli.neighbor_counts is not before["bbgc.cli"]["neighbor_counts"],
          "cli sees the wrapped neighbor_counts")
    tracer.uninstall()
    after = {n: dict(vars(m)) for n, m in modules.items()}
    changed = [(n, k) for n in before for k in before[n]
               if after[n].get(k) is not before[n][k]]
    check(not changed, f"every module binding restored (changed: {changed})")
    from bbgc.source import SubprocessSource, SyntheticSource, _BatchedSource
    from bbgc.store import StoreWriter
    check(all(not hasattr(vars(c).get(a), "__wrapped__") for c, a in (
        (SyntheticSource, "embed"), (_BatchedSource, "embed"), (StoreWriter, "append"),
        (StoreWriter, "close"))) and SubprocessSource.embed is _BatchedSource.embed,
        "every method binding restored")


def spans_nest(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    by_key = {(s["run_id"], s["id"]): s for s in spans}
    bad = []
    for s in spans:
        if s["parent"] is None:
            if not s["name"].startswith("cli."):
                bad.append(("orphan", s["name"]))
            continue
        p = by_key.get((s["run_id"], s["parent"]))
        if p is None or not (p["start"] <= s["start"] <= s["end"] <= p["end"]):
            bad.append(("outside parent", s["name"]))
    check(spans and not bad, f"{len(spans)} spans in {os.path.basename(path)} nest "
          f"(bad: {bad[:3]})")


def full_run() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json lists the benchmark's workloads")
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "all",
         "--scale", "tiny", "--seconds", "0", "--trace", "1", "--seed", str(SEED)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    check(out.returncode == 0, f"benchmark exits 0 (stderr tail: {out.stderr[-400:]})")
    last = json.loads(out.stdout.strip().splitlines()[-1])
    check(sorted(last) == ["attempted", "correct", "failed", "metrics"], "last line keys")
    check(last["correct"] and last["failed"] == 0 and last["attempted"] > 0,
          f"every command and check passed ({last['failed']}/{last['attempted']} failed)")
    want = {f"{w}.{m['name']}" for w in workloads.WORKLOADS for m in spec["per_layer"]}
    check(set(last["metrics"]) == want, "every per-layer metric reported")
    for name in workloads.WORKLOADS:
        stem = os.path.join(WORK, "results", f"{name}-seed{SEED}-trace1")
        with open(stem + ".json", encoding="utf-8") as fh:
            res = json.load(fh)
        missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in res["end_to_end"]]
        check(not missing, f"{name}: every end-to-end metric measured (missing {missing})")
        spans_nest(stem + ".spans.jsonl")


def refuses_without_sources() -> None:
    bare = os.path.join(WORK, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        out = subprocess.run([sys.executable, "bench/run.py", "--workload", "gmm-d2",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(out.returncode != 0 and not out.stdout.strip(),
          "refuses to run without the program's sources")


if __name__ == "__main__":
    tracer_restores_bindings()
    refuses_without_sources()
    full_run()
    print("smoke: all checks passed")
