"""bbgc benchmark: the CLI pipelines of three workloads, timed end to end.

Usage, from the root of a checkout:

    python3 bench/run.py --workload diagnose-d128 --seed 7 --seconds 40 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

One harness process runs the chosen workloads one at a time.  Each
repetition of a workload is a fresh interpreter (``bench/rep.py``) that
sets up, runs the workload's commands in order through
``bbgc.cli.main`` (a closed loop with one client) and checks the
outputs.  Repetitions continue until the next one would overrun
``--seconds``; medians over them are reported.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics from
the traced ones, plus the tracing overhead.

Human-readable tables go to stdout first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Full
results, span dumps included, are kept under ``.bench_work/results``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REP = os.path.join(BENCH, "rep.py")

# One workload's run must end within 180 s: no repetition starts that
# could end past this point of the run, and none may run longer.
HARD_LIMIT_S = 160.0
THREAD_VARIABLES = ("BBGC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# End-to-end timings reported beyond BENCHMARK.json's gated set: a
# workload only has the commands it runs.
COMMAND_METRICS = {"sample": "sample_s", "diagnose": "diagnose_s",
                   "find-modes": "find_modes_s", "calibrate": "calibrate_s",
                   "evaluate": "evaluate_s"}


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _child_env(tmp: str) -> dict:
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = tmp   # the subprocess source keeps child stderr in a temp file
    return env


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) == 8 else 0), sum(fields)


def run_rep(name: str, seed: int, scale: str, traced: bool, run_dir: str, index: int,
            timeout: float) -> dict:
    """Start one repetition and wait for it; returns its result or a failure."""
    rep_dir = os.path.join(run_dir, f"rep{index}")
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(rep_dir)
    os.makedirs(tmp, exist_ok=True)
    workloads.write_inputs(workloads.WORKLOADS[name], seed, rep_dir)
    out = os.path.join(run_dir, f"rep{index}.json")
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, REP, "--workload", name, "--seed", str(seed), "--scale", scale,
         "--trace", str(int(traced)), "--t0", repr(t0), "--root", ROOT, "--out", out],
        cwd=rep_dir, env=_child_env(tmp), stdout=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        rc = "timeout"
    finally:
        # the repetition's session holds the source's worker child too
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    wall = time.monotonic() - t0
    shutil.rmtree(rep_dir, ignore_errors=True)
    if rc != 0 or not os.path.isfile(out):
        return {"ok": False, "traced": traced, "wall_s": wall, "error": f"exit {rc}"}
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    result.update(ok=True, wall_s=wall)
    return result


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """(percentile, value): the highest nearest-rank percentile that still
    has at least ten samples above it, or (None, None) below 11 samples."""
    n = len(values)
    if n < 11:
        return None, None
    i = n - 11
    return math.floor(100.0 * (i + 1) / n), sorted(values)[i]


def summarize(values: list[float]) -> dict:
    pct, val = tail(values)
    return {"median": statistics.median(values) if values else None,
            "tail_percentile": pct, "tail_value": val, "n": len(values)}


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    wl = workloads.WORKLOADS[name]
    expected_commands = len(wl.commands(seed, workloads.SIZES[scale]))
    run_dir = os.path.join(WORK, f"{name}-seed{seed}-pid{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    ticks = _cpu_ticks()
    start = time.monotonic()
    min_reps = 4 if trace else 3
    reps: list[dict] = []
    try:
        while True:
            elapsed = time.monotonic() - start
            rep = run_rep(name, seed, scale, trace and len(reps) % 2 == 1, run_dir,
                          len(reps), timeout=max(1.0, HARD_LIMIT_S - elapsed))
            reps.append(rep)
            if not rep["ok"]:
                break
            longest = max(r["wall_s"] for r in reps)
            elapsed = time.monotonic() - start
            if elapsed + longest > HARD_LIMIT_S:
                break
            if len(reps) >= min_reps and elapsed + longest > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    measured = time.monotonic() - start
    # Time the hypervisor gave this VM's CPUs to others while we ran: on a
    # shared host it, not the program, explains most run-to-run drift.
    ticks_end = _cpu_ticks()
    steal = None
    if ticks and ticks_end and ticks_end[1] > ticks[1]:
        steal = (ticks_end[0] - ticks[0]) / (ticks_end[1] - ticks[1])

    # -- correctness: commands, workload checks, byte identity across reps
    attempted = failed = 0
    checks: dict[str, dict] = {}
    reference = next((r["digests"] for r in reps if r["ok"]), None)
    for i, rep in enumerate(reps):
        if not rep["ok"]:
            attempted += expected_commands
            failed += expected_commands
            checks.setdefault(f"rep{i}_completed", {"ok": False, "detail": rep["error"]})
            continue
        attempted += len(rep["commands"])
        bad = [f"{c['name']} exit {c['rc']}" for c in rep["commands"] if c["rc"] != 0]
        failed += len(bad)
        if bad or "commands_exit_0" not in checks:
            checks["commands_exit_0"] = {"ok": not bad, "detail": ", ".join(bad) or
                                         f"{len(rep['commands'])} commands"}
        for c in rep["checks"]:
            attempted += 1
            failed += not c["ok"]
            if c["name"] not in checks or not c["ok"]:
                checks[c["name"]] = {"ok": c["ok"], "detail": c["detail"]}
        if i:
            same = rep["digests"] == reference
            attempted += 1
            failed += not same
            if not same or "outputs_identical_across_reps" not in checks:
                checks["outputs_identical_across_reps"] = {
                    "ok": same, "detail": f"rep{i} vs rep0 sha256 of every file written"}

    plain = [r for r in reps if r["ok"] and not r["traced"]]
    traced = [r for r in reps if r["ok"] and r["traced"]]
    timings: dict[str, list[float]] = {"setup_s": [r["setup_s"] for r in plain],
                                       "pipeline_s": [r["pipeline_s"] for r in plain]}
    for command, metric in COMMAND_METRICS.items():
        per_rep = [sum(c["seconds"] for c in r["commands"] if c["name"] == command)
                   for r in plain if any(c["name"] == command for c in r["commands"])]
        if per_rep:
            timings[metric] = per_rep
    end_to_end = {metric: dict(summarize(v), unit="s") for metric, v in timings.items()}
    end_to_end["peak_rss_mb"] = dict(summarize([r["peak_rss_mb"] for r in plain]), unit="MB")
    ratios = [r["worst_count_ratio"] for r in plain if r["worst_count_ratio"] is not None]
    if ratios:
        end_to_end["worst_count_ratio"] = dict(summarize(ratios), unit="ratio")
    end_to_end["fail_ratio"] = {"median": failed / attempted if attempted else 1.0,
                                "tail_percentile": None, "tail_value": None,
                                "n": attempted, "unit": "ratio"}

    layers: dict[str, float] = {}
    spans: list[dict] = []
    if traced:
        for key in traced[0]["layers"]:
            layers[key] = statistics.median(r["layers"][key] for r in traced)
        overhead = (statistics.median(r["pipeline_s"] for r in traced)
                    - statistics.median(timings["pipeline_s"])) if plain else 0.0
        layers["trace.overhead_s"] = overhead
        spans = [s for r in traced for s in r["spans"]]

    return {
        "workload": name, "why": wl.why, "seed": seed, "scale": scale, "trace": trace,
        "seconds_requested": seconds, "seconds_measured": measured,
        "host_steal_share": steal,
        "reps": len(reps), "reps_untraced": len(plain), "reps_traced": len(traced),
        "attempted": attempted, "failed": failed,
        "correct": failed == 0 and bool(plain),
        "checks": checks, "end_to_end": end_to_end, "layers": layers,
        "digests": reference or {},
        "environment": next((r["environment"] for r in reps if r["ok"]), {}),
        "rep_timings": [{"traced": r["traced"], "wall_s": r["wall_s"],
                         "setup_s": r.get("setup_s"), "pipeline_s": r.get("pipeline_s"),
                         "commands": [(c["name"], c["seconds"]) for c in r.get("commands", ())]}
                        for r in reps],
        "_spans": spans,
    }


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(res: dict, units: dict[str, str]) -> None:
    env = res["environment"]
    print(f"== {res['workload']}  seed {res['seed']}  scale {res['scale']}  "
          f"trace {int(res['trace'])}  reps {res['reps']} "
          f"({res['reps_untraced']} untraced, {res['reps_traced']} traced)  "
          f"measured {res['seconds_measured']:.1f} s  host steal {_fmt(res['host_steal_share'])}")
    print(f"   why: {res['why']}")
    if env:
        threads = env["threads"]
        print(f"   env: nproc {env['nproc']} | blas {env['blas']['name']} "
              f"{env['blas']['version']} | bbgc workers {threads['bbgc_workers']}, "
              f"blas threads {threads['blas']} (set: {threads['variables']}) | "
              f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']} | "
              f"commit {env['commit']}")
    print(f"   {'metric':<22}{'median':>14}  {'unit':<6}{'tail':>22}  n")
    for metric, s in res["end_to_end"].items():
        tail_text = (f"p{s['tail_percentile']} {_fmt(s['tail_value'])}"
                     if s["tail_percentile"] is not None else "none (n < 11)")
        print(f"   {metric:<22}{_fmt(s['median']):>14}  {s['unit']:<6}{tail_text:>22}  {s['n']}")
    for name, c in res["checks"].items():
        print(f"   check {name}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    for name, digest in res["digests"].items():
        print(f"   sha256 {digest}  {name}")
    if res["layers"]:
        print(f"   {'per-layer metric':<40}{'median':>16}  unit")
        for key, value in res["layers"].items():
            print(f"   {key:<40}{_fmt(value):>16}  {units.get(key, '')}")
        own: dict[str, float] = {}
        traced_reps = max(1, res["reps_traced"])
        for s in res["_spans"]:
            own[s["name"]] = own.get(s["name"], 0.0) + s["self_s"] / traced_reps
        print("   largest self times per span name (mean over traced reps):")
        for span_name, value in sorted(own.items(), key=lambda kv: -kv[1])[:8]:
            print(f"     {span_name:<38}{value:>12.4f} s")


def _save(res: dict) -> None:
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{res['workload']}-seed{res['seed']}-trace{int(res['trace'])}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({k: v for k, v in res.items() if k != "_spans"}, fh, indent=1)
    if res["_spans"]:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for span in res["_spans"]:
                fh.write(json.dumps(span) + "\n")


def final_line(results: list[dict], spec: dict, trace: bool) -> dict:
    """The last output line: every end-to-end metric, or with --trace 1 every
    per-layer metric, under the workload's name when several ran."""
    chosen = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for res in results:
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        for m in chosen:
            if trace:
                value = res["layers"].get(m["name"], 0.0)
            else:
                value = res["end_to_end"].get(m["name"], {}).get("median")
            metrics[prefix + m["name"]] = {"value": value if value is not None else 0.0,
                                           "unit": m["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                        help="'tiny' is for the smoke test only")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in u64")
    if not os.path.isfile(os.path.join(SRC, "bbgc", "cli.py")):
        print(f"error: no bbgc sources under {SRC}", file=sys.stderr)
        return 2
    spec = _load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    results = []
    for name in names:
        res = run_workload(name, args.seed, seconds, bool(args.trace), args.scale)
        _save(res)
        print_report(res, units)
        results.append(res)
    print(json.dumps(final_line(results, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
