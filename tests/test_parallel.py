"""The one thread layer: chunks run in order on the calling thread, and
BLAS is the only code that may start threads."""

import json
import os
import subprocess
import sys
import threading

import bbgc
from bbgc.cli import main
from bbgc.embedding import TILE_COLS, _screen_shape
from bbgc.parallel import run_chunks, worker_count

from configs import NEAR_CUTOFFS, spec_dict


def test_run_chunks_in_order_on_calling_thread():
    calls = []

    def fn(lo, hi):
        calls.append((lo, hi, threading.get_ident()))
        return hi - lo

    assert run_chunks(fn, 100, 7) == [7] * 14 + [2]
    assert [(lo, hi) for lo, hi, _ in calls] == [(a, min(a + 7, 100)) for a in range(0, 100, 7)]
    assert {ident for _, _, ident in calls} == {threading.get_ident()}
    assert run_chunks(fn, 0, 7) == []
    assert worker_count() == 1


def test_diagnose_bytes_do_not_depend_on_blas_threads(tmp_path):
    # each float32 screen GEMM of the scan (300 x 128 x 873: the 300 anchors
    # against a screen block of pool rows) is above the size at which
    # OpenBLAS splits a call across its threads
    assert NEAR_CUTOFFS["embed_dim"] == 128
    assert _screen_shape(300, 128, TILE_COLS) == (300, 873)
    spec = tmp_path / "source.json"
    spec.write_text(json.dumps(spec_dict(NEAR_CUTOFFS, 3)))
    anchors, pool = tmp_path / "a.bbgc", tmp_path / "c.bbgc"
    assert main(["sample", "--source", str(spec), "--n", "300", "--role", "anchors",
                 "--seed", "3", "--out", str(anchors)]) == 0
    assert main(["sample", "--source", str(spec), "--n", "20000", "--role", "pool",
                 "--seed", "3", "--out", str(pool)]) == 0
    src_root = os.path.dirname(os.path.dirname(bbgc.__file__))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report-{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src_root, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "bbgc", "diagnose", "--anchors", str(anchors),
                        "--pool", str(pool), "--curve-sizes", "100,1000,20000",
                        "--seed", "3", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
