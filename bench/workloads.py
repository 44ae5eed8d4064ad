"""The three benchmark workloads: generated inputs, commands and checks.

Each workload is a fixed sequence of ``bbgc`` CLI commands over source
specs that the benchmark writes itself.  The geometries mirror the
synthetic configurations in ``tests/configs.py``; the workload seed is
the only free input and reaches the program as ``--seed`` and as the
synthetic model seed in the generated spec.

Importing this module loads neither numpy nor bbgc: the harness uses it
to write inputs before it starts a workload process.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from typing import Callable

# Geometries copied from tests/configs.py (DETECTION, GMM_CALIBRATION,
# IS_CALIBRATION) so the benchmark runs the regimes the tests pin down.
DETECTION = dict(
    latent_dim=8,
    embed_dim=128,
    parameters={
        "background": [{"weight": 1.0, "spread": 10.0}],
        "planted": [{"mass": 0.01, "spread": 0.0}],
    },
)
GMM_CALIBRATION = dict(
    latent_dim=2,
    embed_dim=32,
    parameters={
        "background": [{"weight": 1.0, "spread": 10.0}],
        "planted": [{"mass": 0.01, "spread": 0.0, "latent_norm": 3.0}],
    },
)
IS_CALIBRATION = dict(
    latent_dim=2,
    embed_dim=32,
    parameters={
        "background": [{"weight": 1.0, "spread": 10.0}],
        "planted": [
            {"mass": 0.05, "spread": 0.0, "latent_norm": 0.0},
            {"mass": 0.02, "spread": 0.0, "latent_norm": 2.2},
        ],
    },
)

# Sizes per scale.  "full" is the measured benchmark; "tiny" only feeds
# the smoke test and is never used for a reported number.
SIZES = {
    "full": {"anchors": 1000, "d128_pool": 100_000, "d2_pool": 50_000,
             "d128_curves": "100,1000,10000,100000", "d2_curves": "100,1000,10000",
             "n_fit": 100_000, "eval_pool": 50_000},
    "tiny": {"anchors": 1000, "d128_pool": 5000, "d2_pool": 10_000,
             "d128_curves": "100,1000", "d2_curves": "100,1000",
             "n_fit": 10_000, "eval_pool": 10_000},
}

SOURCE = "source.json"        # the spec every command is given
SYNTHETIC = "synthetic.json"  # the worker's own spec (diagnose-d128 only)

# Worst-mode anchor distance to the planted center (the radius) and
# criterion 7's bar on the after/before worst-mode count.
MODE_DISTANCE_BAR = 0.25
WORST_COUNT_RATIO_BAR = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    geometry: dict
    via_worker: bool
    pool_key: str   # the SIZES entry giving the pool store's size
    commands: Callable[[int, dict], list[list[str]]]
    check: Callable[[int, dict], list[tuple[str, bool, str]]]


def synthetic_spec(geometry: dict, seed: int) -> dict:
    return {"kind": "synthetic", "latent_dim": geometry["latent_dim"],
            "embed_dim": geometry["embed_dim"], "seed": seed,
            "parameters": geometry["parameters"]}


def write_inputs(workload: Workload, seed: int, directory: str) -> None:
    """Write the workload's spec files into ``directory``."""
    spec = synthetic_spec(workload.geometry, seed)
    if workload.via_worker:
        _write(os.path.join(directory, SYNTHETIC), spec)
        spec = {"kind": "subprocess", "latent_dim": spec["latent_dim"],
                "embed_dim": spec["embed_dim"], "seed": seed,
                "parameters": {"argv": [sys.executable, "-m", "bbgc", "worker",
                                        "--source", SYNTHETIC],
                               "connections": 1}}
    _write(os.path.join(directory, SOURCE), spec)


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _sample(seed: int, n: int, role: str, out: str) -> list[str]:
    return ["sample", "--source", SOURCE, "--n", str(n), "--role", role,
            "--seed", str(seed), "--out", out]


def _diagnose(seed: int, curves: str) -> list[str]:
    return ["diagnose", "--anchors", "anchors.bbgc", "--pool", "pool.bbgc",
            "--curve-sizes", curves, "--seed", str(seed), "--out", "report.json"]


def _d128_commands(seed: int, size: dict) -> list[list[str]]:
    return [
        _sample(seed, size["anchors"], "anchors", "anchors.bbgc"),
        _sample(seed, size["d128_pool"], "pool", "pool.bbgc"),
        _diagnose(seed, size["d128_curves"]),
        ["find-modes", "--anchors", "anchors.bbgc", "--pool", "pool.bbgc",
         "--k", "24", "--out", "modes.json"],
    ]


def _calibration_commands(calibrate: list[str]) -> Callable[[int, dict], list[list[str]]]:
    def commands(seed: int, size: dict) -> list[list[str]]:
        return [
            _sample(seed, size["anchors"], "anchors", "anchors.bbgc"),
            _sample(seed, size["d2_pool"], "pool", "pool.bbgc"),
            _diagnose(seed, size["d2_curves"]),
            ["calibrate", *calibrate(size), "--seed", str(seed), "--out", "model.json"],
            ["evaluate", "--source", SOURCE, "--model", "model.json",
             "--anchors", str(size["anchors"]), "--pool", str(size["eval_pool"]),
             "--seed", str(seed), "--out", "eval.json"],
        ]
    return commands


def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_worst_mode(seed: int, size: dict) -> list[tuple[str, bool, str]]:
    """The reported worst mode sits on the planted mode's center."""
    from bbgc.embedding import cosine_distance
    from bbgc.source import build_synthetic_model
    from bbgc.store import read_store

    model = build_synthetic_model(DETECTION["latent_dim"], DETECTION["embed_dim"], seed,
                                  **DETECTION["parameters"])
    worst = _read("report.json")["worst_mode"]
    anchors = read_store("anchors.bbgc")
    dist = cosine_distance(anchors.embeddings[worst["anchor_index"]],
                           model.planted[0].center)
    return [("worst_mode_on_planted_center", dist <= MODE_DISTANCE_BAR,
             f"distance {dist:.6f} (bar {MODE_DISTANCE_BAR}), "
             f"count {worst['neighbor_count']}")]


def _check_gmm(seed: int, size: dict) -> list[tuple[str, bool, str]]:
    ratio = _read("eval.json")["deltas"]["worst_count_ratio"]
    ok = ratio is not None and ratio <= WORST_COUNT_RATIO_BAR
    return [("worst_count_ratio_within_bar", ok,
             f"worst_count_ratio {ratio} (bar {WORST_COUNT_RATIO_BAR})")]


def _check_is(seed: int, size: dict) -> list[tuple[str, bool, str]]:
    acceptance = _read("eval.json")["acceptance"]
    out = []
    for phase in ("anchors", "pool"):
        a = acceptance[phase]
        out.append((f"outside_hull_always_accepted_{phase}",
                    a["outside_accepted"] == a["outside_hull"],
                    f"{a['outside_accepted']} of {a['outside_hull']} outside-hull "
                    f"proposals accepted"))
    return out


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="diagnose-d128",
            why="the paper's headline diagnosis at the baseline size (1e3 anchors x "
                "1e5 pool, embed 128) through a subprocess source: scan, store and "
                "wire framing dominate",
            geometry=DETECTION, via_worker=True, pool_key="d128_pool",
            commands=_d128_commands, check=_check_worst_mode),
        Workload(
            name="gmm-d2",
            why="mixture calibration in a 2-d latent: k-means, mixture sampling and "
                "2e5 in-process synthetic embeds, with a skinny neighbor_counts shape",
            geometry=GMM_CALIBRATION, via_worker=False, pool_key="d2_pool",
            commands=_calibration_commands(lambda size: [
                "gmm", "--source", SOURCE, "--anchors", "anchors.bbgc",
                "--report", "report.json", "--kmeans-k", "64",
                "--n-fit", str(size["n_fit"])]),
            check=_check_gmm),
        Workload(
            name="is-d2",
            why="hull-gated importance sampling: per-proposal hull membership "
                "dominates evaluate while the scan stays small",
            geometry=IS_CALIBRATION, via_worker=False, pool_key="d2_pool",
            commands=_calibration_commands(lambda size: [
                "is", "--anchors", "anchors.bbgc", "--pool", "pool.bbgc",
                "--report", "report.json", "--hull-size", "100"]),
            check=_check_is),
    )
}
