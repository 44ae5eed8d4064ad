"""One repetition of one workload, in a fresh interpreter.

``bench/run.py`` starts this script with the repetition's directory as
the working directory and the workload's spec files already written
there.  It sets up (imports the CLI, opens the source, embeds one row),
runs the workload's commands in order through ``bbgc.cli.main``, checks
the outputs and writes one JSON result to ``--out``.  With ``--trace 1``
the commands run under the span tracer.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

import workloads
from run import THREAD_VARIABLES

# numpy's self-reported thread settings are not exposed without extra
# packages, so the loaded OpenBLAS is asked directly.
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads")


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS mapped into this process."""
    libs = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower() and ".so" in path:
                    libs.add(path)
    except OSError:
        return {}
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def _git_commit(root: str) -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    import numpy
    import scipy
    from bbgc.parallel import worker_count

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name", "unknown"),
                 "version": blas.get("version", "unknown")},
        "threads": {
            "variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
            "bbgc_workers": worker_count(),
            "blas": _blas_threads(),
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(root),
    }


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--root", required=True, help="checkout root")
    parser.add_argument("--out", required=True, help="result JSON path")
    args = parser.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.scale]

    # -- set-up: interpreter start, CLI import, source open, one-row embed
    import bbgc.cli
    from bbgc import source as sources

    spec = sources.load_source_spec(workloads.SOURCE)
    src = sources.open_source(spec)
    try:
        sources.generate(src, sources.sample_latents(1, spec.latent_dim, args.seed))
    finally:
        src.close()
    setup_s = time.monotonic() - args.t0

    # -- pipeline
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracer.install()
    commands = []
    sink = io.StringIO()
    pipeline_start = time.perf_counter()
    for argv in wl.commands(args.seed, size):
        scope = tracer.command(argv[0]) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), scope:
                rc = bbgc.cli.main(argv)
        except SystemExit as exc:   # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:   # a crash is a failed command, not a failed run
            traceback.print_exc()
            rc = -1
        commands.append({"name": argv[0], "argv": argv, "rc": rc,
                         "seconds": time.perf_counter() - start})
        sink.seek(0)
        sink.truncate()
    pipeline_s = time.perf_counter() - pipeline_start
    restored = tracer.uninstall() if tracer else []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- correctness and outputs, outside the timed region
    checks = []
    if all(c["rc"] == 0 for c in commands):
        try:
            checks = wl.check(args.seed, size)
        except Exception as exc:
            traceback.print_exc()
            checks = [("outputs_readable", False, repr(exc))]
    outputs = {name: _sha256(name) for name in sorted(os.listdir(".")) if os.path.isfile(name)}
    worst_count_ratio = None
    if os.path.isfile("eval.json"):
        with open("eval.json", encoding="utf-8") as fh:
            worst_count_ratio = json.load(fh)["deltas"]["worst_count_ratio"]

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "pipeline_s": pipeline_s,
        "peak_rss_mb": peak_rss_mb,
        "commands": commands,
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "worst_count_ratio": worst_count_ratio,
        "digests": outputs,
        "environment": environment(args.root),
    }
    if tracer:
        result["layers"] = tracer.layer_metrics(
            diagnosis_base=size["anchors"] * size[wl.pool_key])
        result["spans"] = tracer.dump()
        result["restored_bindings"] = len(restored)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
