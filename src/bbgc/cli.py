"""Command-line front end.

Commands tie sampling, diagnosis, calibration, and before/after
evaluation into reproducible pipelines.  Every command is a pure
function of its flags: re-running produces byte-identical outputs, and
all randomness is addressed by the ``--seed`` value through per-purpose
streams.

Exit codes: 0 success, 1 a bug (any exception but a ``BbgcError`` or ``OSError``),
2 usage, 3 input-contract violation, 4 calibration precondition, 5 source failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import os
import stat
import sys

import numpy as np

from . import diagnosis, gmm, importance
from . import source as sources
from . import store as stores
from .embedding import TILE_COLS, check_radius, check_theta, neighbor_counts, row_dots
from .errors import (
    BbgcError,
    CalibrationError,
    InvalidConfigError,
    NonFiniteError,
    NonUnitEmbeddingError,
    SourceError,
)
from .jsonutil import CONTENT_ERRORS, format_float, json_field, read_json, write_json
from .rng import (
    STREAM_ANCHORS,
    STREAM_EVAL_ANCHORS,
    STREAM_EVAL_POOL,
    STREAM_POOL,
    STREAM_REFERENCE,
    CounterStream,
    derive_seed,
)

EXIT_INPUT = 3
EXIT_PRECONDITION = 4
EXIT_SOURCE = 5

_ROLE_STREAMS = {"anchors": STREAM_ANCHORS, "pool": STREAM_POOL}

# Evaluation draws its post-calibration anchor and pool sets from
# sub-seeds so the two sets can never collide with each other or with
# the pre-calibration draws.
_AFTER_ANCHORS_SALT = 0xA11C40125
_AFTER_POOL_SALT = 0xC011EC7104

_REFERENCE_PROBES = 256


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError(f"seed must fit in u64, got {value}")
    return value


def _size_list(text: str) -> list[int]:
    sizes = [int(part) for part in text.split(",") if part.strip()]
    if not sizes:
        raise ValueError(f"no size in {text!r}")
    return sizes


def _usage_check(check):
    """An argparse ``type`` from a value check: its ValueError is a usage error."""
    def parse(text: str):
        try:
            return check(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


def _provenance(seed: int, **paths: str) -> dict:
    """The seed and the sha256 of each input, taken before the command reads
    it.  A pipe could be hashed or read, not both, so each must be a regular file."""
    inputs = {}
    for name, path in paths.items():
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise InvalidConfigError(f"{path}: not a regular file; calibrate records its sha256")
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        inputs[name] = {"path": os.fspath(path), "sha256": digest.hexdigest()}
    return {"seed": int(seed), "inputs": inputs}


def _out_prefix(path: str) -> str:
    return path[:-5] if path.endswith(".json") else path


def _unit_store(path: str, rows: int | None = None) -> stores.StoreStream:
    """The store at ``path`` for analysis, read in blocks of ``rows`` records
    (one block when None) as they are asked for, so a pool on a pipe is read
    once.  Each block is checked as it is read, unit-norm embeddings as the
    scan assumes and finite latents, and keeps its squared norms for the scan."""
    st = stores.stream_store(path, rows)

    def blocks():
        start = 0
        for block in st:
            block.sq_norms = row_dots(block.embeddings)
            bad = sources.non_unit_row(block.embeddings, block.sq_norms)
            if bad is not None:
                raise NonUnitEmbeddingError(
                    f"{path}: embedding {start + bad[0]} has norm {bad[1]:.6f}, not 1")
            if not np.all(np.isfinite(block.latents)):
                raise NonFiniteError(f"{path}: latents must be finite")
            start += block.count
            yield block
            block = None   # else it lives on while the next one is read

    return stores.StoreStream(st.count, blocks())


def _read_unit_store(path: str) -> stores.SampleStore:
    """A whole store for analysis: :func:`_unit_store` in one block."""
    (st,) = _unit_store(path)
    return st


# -- sample ---------------------------------------------------------------------

def cmd_sample(args, parser) -> int:
    spec = sources.load_source_spec(args.source)
    stream = _ROLE_STREAMS[args.role]
    with (sources.open_source(spec) as src,
          stores.StoreWriter(args.out, spec.latent_dim, spec.embed_dim,
                             args.seed) as writer):
        for latents in sources.batches(spec, args.n, lambda rows, lo: sources.sample_latents(
                rows, spec.latent_dim, args.seed, stream, start=lo)):
            writer.append(latents, *sources.generate(src, latents))
    print(f"wrote {args.n} samples to {args.out}")
    return 0


# -- diagnose / find-modes --------------------------------------------------------

def cmd_diagnose(args, parser) -> int:
    anchors = _read_unit_store(args.anchors)
    pool = _unit_store(args.pool, TILE_COLS)
    report = diagnosis.build_report(
        anchors, pool, args.theta, args.radius, k=args.k,
        curve_sizes=args.curve_sizes, seed=args.seed)
    write_json(args.out, report)
    worst = report["worst_mode"]
    print(f"mu_mccs {format_float(report['mu_mccs'])}  "
          f"sigma_mccs {format_float(report['sigma_mccs'])}")
    print(f"worst mode: anchor {worst['anchor_index']} "
          f"count {worst['neighbor_count']} mccs {format_float(worst['mccs'])}")
    print(f"wrote {args.out}")
    return 0


def cmd_find_modes(args, parser) -> int:
    anchors = _read_unit_store(args.anchors)
    pool = _unit_store(args.pool, TILE_COLS)
    modes = diagnosis.top_k_modes(anchors, pool, radius=args.radius, k=args.k)
    doc = {
        "schema": 1,
        "radius": args.radius,
        "k": args.k,
        "modes": [{"anchor_index": m.anchor_index,
                   "neighbor_count": m.neighbor_count} for m in modes],
    }
    write_json(args.out, doc)
    for m in modes:
        print(f"anchor {m.anchor_index}: {m.neighbor_count} neighbors")
    print(f"wrote {args.out}")
    return 0


# -- calibrate --------------------------------------------------------------------

def _dense_modes_from_report(report_path: str, anchors: stores.SampleStore,
                             count: int) -> tuple[list[tuple[np.ndarray, int]], float]:
    """The ``count`` densest modes listed in a diagnosis report, and the
    radius the report ranked them at."""
    report = _read_report(report_path)
    if "top_k" not in report:
        raise InvalidConfigError(f"{report_path}: not a diagnosis report")
    out = []
    for idx in (mode["anchor_index"] for mode in report["top_k"][:count]):
        if not 0 <= idx < anchors.count:
            raise InvalidConfigError(
                f"{report_path}: mode anchor {idx} outside store of {anchors.count}")
        out.append((anchors.embeddings[idx], idx))
    return out, float(report["radius"])


def _pick_reference(pool: stores.SampleStore, radius: float, seed: int) -> int:
    """An off-mode pool position: the least-dense of a seeded probe set."""
    k = min(_REFERENCE_PROBES, pool.count)
    u = CounterStream(seed, STREAM_REFERENCE).uniforms(0, k)
    idx = np.unique((u * pool.count).astype(np.int64) % pool.count)
    counts = neighbor_counts(pool.embeddings[idx], pool.embeddings, radius)
    order = np.lexsort((idx, counts))
    return int(idx[order[0]])


def cmd_calibrate_gmm(args, parser) -> int:
    prov = _provenance(args.seed, source=args.source, anchors=args.anchors,
                       report=args.report)
    spec = sources.load_source_spec(args.source)
    anchors = _read_unit_store(args.anchors)
    dense, radius = _dense_modes_from_report(args.report, anchors, args.modes)
    mode_embs = np.asarray([emb for emb, _ in dense])
    with sources.open_source(spec) as src:
        model = gmm.calibrate_gmm(
            src, mode_embs, args.seed, k=args.kmeans_k, r0=radius,
            n_fit=args.n_fit, source_seed=spec.seed)
    prov["modes"] = [idx for _, idx in dense]
    gmm.save_mixture(args.out, model, provenance=prov)
    print(f"fit mixture of {model.k} components over {args.n_fit} samples")
    print(f"wrote {args.out}")
    return 0


def cmd_calibrate_is(args, parser) -> int:
    prov = _provenance(args.seed, anchors=args.anchors, pool=args.pool,
                       report=args.report)
    anchors = _read_unit_store(args.anchors)
    pool = _read_unit_store(args.pool)
    dense, radius = _dense_modes_from_report(args.report, anchors, args.modes)
    plan = importance.build_plan(pool, dense, _pick_reference(pool, radius, args.seed),
                                 radius, hull_size=args.hull_size)
    prov["modes"] = [idx for _, idx in dense]
    importance.save_plan(args.out, plan, provenance=prov)
    for entry in plan.entries:
        print(f"mode anchor {entry.mode_index}: count {entry.dense_count}, "
              f"p {format_float(entry.p)}")
    print(f"wrote {args.out}")
    return 0


# -- evaluate ---------------------------------------------------------------------

def cmd_evaluate(args, parser) -> int:
    if args.anchors < 2:
        parser.error("--anchors must be >= 2 for population statistics")
    spec = sources.load_source_spec(args.source)
    raw = read_json(args.model)
    try:
        kind = raw["kind"]
        from_doc = {"mixture": gmm.mixture_from_doc, "importance": importance.plan_from_doc}[kind]
    except CONTENT_ERRORS as exc:
        raise InvalidConfigError(f"{args.model}: unknown model kind: {exc!r}") from exc
    model = from_doc(raw, args.model)
    if model.latent_dim != spec.latent_dim:
        raise InvalidConfigError(f"model latent_dim {model.latent_dim}, source {spec.latent_dim}")

    seed_a = derive_seed(args.seed, _AFTER_ANCHORS_SALT)
    seed_c = derive_seed(args.seed, _AFTER_POOL_SALT)
    acceptance = {}

    def diagnose(anchor_lat, anchor_seed, pool_lat, pool_seed) -> dict:
        """One phase's report from its anchor latents, embedded whole, and its
        pool's latent blocks, each drawn and embedded as the scan asks for it,
        so the phase holds its anchors and one pool block."""
        def store(lat, seed):
            return stores.SampleStore(lat, sources.generate(src, lat)[0], seed=seed)
        # map holds no block once it has handed it on, as a loop variable would
        pool = stores.StoreStream(args.pool, map(lambda lat: store(lat, pool_seed), pool_lat))
        return diagnosis.build_report(store(anchor_lat, anchor_seed), pool, args.theta,
                                      args.radius, k=args.k, seed=args.seed)

    def accepted_blocks():
        stats = yield from importance.calibrated_is_blocks(model, args.pool, seed_c)
        acceptance["pool"] = dataclasses.asdict(stats)

    # the pools are generators, which draw their blocks once the source is open
    if kind == "mixture":
        after_a_lat = gmm.sample_calibrated(model, args.anchors, seed_a)
        after_c_lat = sources.batches(spec, args.pool, lambda rows, lo: gmm.sample_calibrated(
            model, rows, seed_c, start=lo))
    else:
        after_a_lat, stats_a = importance.sample_calibrated_is(model, args.anchors, seed_a)
        acceptance["anchors"] = dataclasses.asdict(stats_a)
        after_c_lat = accepted_blocks()

    with sources.open_source(spec) as src:
        before = diagnose(
            sources.sample_latents(args.anchors, spec.latent_dim, args.seed, STREAM_EVAL_ANCHORS),
            args.seed, sources.batches(spec, args.pool, lambda rows, lo: sources.sample_latents(
                rows, spec.latent_dim, args.seed, STREAM_EVAL_POOL, start=lo)), args.seed)
        after = diagnose(after_a_lat, seed_a, after_c_lat, seed_c)
    before_count = before["worst_mode"]["neighbor_count"]
    after_count = after["worst_mode"]["neighbor_count"]
    deltas = {
        "d_mu": after["mu_mccs"] - before["mu_mccs"],
        "d_sigma": after["sigma_mccs"] - before["sigma_mccs"],
        "d_worst_mccs": after["worst_mode"]["mccs"] - before["worst_mode"]["mccs"],
        "worst_count_ratio": (after_count / before_count) if before_count else None,
    }
    doc = {"schema": 1, "model_kind": kind, "before": before, "after": after,
           "deltas": deltas}
    if acceptance:
        doc["acceptance"] = acceptance
    write_json(args.out, doc)
    table_paths = _write_tables(doc, _out_prefix(args.out))
    print(f"d_mu {format_float(deltas['d_mu'])}  "
          f"d_sigma {format_float(deltas['d_sigma'])}  "
          f"d_worst_mccs {format_float(deltas['d_worst_mccs'])}")
    ratio = deltas["worst_count_ratio"]
    print("worst_count_ratio " + (format_float(ratio) if ratio is not None else "n/a"))
    for path in [args.out, *table_paths]:
        print(f"wrote {path}")
    return 0


# -- report / tables ----------------------------------------------------------------

def _phases(doc: dict) -> list[tuple[str, dict]]:
    if "top_k" in doc:
        return [("all", doc)]
    return [("before", doc["before"]), ("after", doc["after"])]


def _read_report(path: str) -> dict:
    """A diagnosis or evaluation report whose phases list modes, all fields typed."""
    doc = read_json(path)
    try:
        for _, rep in _phases(doc):
            check_radius(json_field(rep, "radius"))
            if not rep["top_k"]:
                raise InvalidConfigError(f"{path}: top_k lists no mode")
            for mode in rep["top_k"]:
                for key in ("anchor_index", "neighbor_count"):
                    json_field(mode, key, integer=True)
                json_field(mode, "mccs")
            for curve in rep.get("curves", ()):
                if curve["kind"] not in diagnosis.CURVE_KINDS:
                    raise InvalidConfigError(f"{path}: unknown curve kind {curve['kind']!r}")
                for point in curve["points"]:
                    point = dict(zip(("size", "value"), point, strict=True))
                    json_field(point, "size", integer=True), json_field(point, "value")
    except CONTENT_ERRORS as exc:
        raise InvalidConfigError(f"{path}: not a diagnosis or evaluation report: {exc!r}") from exc
    return doc


def _write_csv(path: str, header: list[str], rows: list[list]) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_tables(doc: dict, prefix: str) -> list[str]:
    """Plot-ready CSV projections of a diagnosis or evaluation report."""
    modes, curves = [], []
    for phase, rep in _phases(doc):
        for rank, mode in enumerate(rep["top_k"]):
            modes.append([phase, rank, mode["anchor_index"], mode["neighbor_count"],
                          format_float(mode["mccs"])])
        for curve in rep.get("curves", ()):
            for size, value in curve["points"]:
                curves.append([phase, curve["kind"], size, format_float(value)])
    paths = [_write_csv(prefix + ".modes.csv",
                        ["phase", "rank", "anchor_index", "neighbor_count", "mccs"], modes)]
    if curves:
        paths.append(_write_csv(prefix + ".curves.csv", ["phase", "kind", "size", "value"], curves))
    return paths


def cmd_report(args, parser) -> int:
    if args.store is not None:
        out = args.out or (_out_prefix(args.store) + "." + args.format)
        st = stores.read_store(args.store)
        rows = stores.export_table(st, out, fmt=args.format, fields=args.fields)
        print(f"wrote {rows} rows to {out}")
        return 0
    for path in _write_tables(_read_report(args.report), args.out or _out_prefix(args.report)):
        print(f"wrote {path}")
    return 0


# -- worker -------------------------------------------------------------------------

def cmd_worker(args, parser) -> int:
    spec = sources.load_source_spec(args.source)
    with sources.open_source(spec) as src:
        sources.run_worker(src, sys.stdin.buffer, sys.stdout.buffer)
    return 0


# -- parser ---------------------------------------------------------------------------

def _add_mode_flags(sub: argparse.ArgumentParser, k_help: str) -> None:
    sub.add_argument("--radius", type=_usage_check(check_radius), default=0.25,
                     help="neighborhood radius as a fraction of the max distance")
    sub.add_argument("--k", type=_positive_int, default=24, help=k_help)


def _add_stat_flags(sub: argparse.ArgumentParser, k_help: str) -> None:
    sub.add_argument("--theta", type=_usage_check(check_theta), default=0.3,
                     help="similarity cutoff as a fraction of the max distance")
    _add_mode_flags(sub, k_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbgc",
        description="Black-box collapse diagnosis and latent calibration.")
    commands = parser.add_subparsers(dest="command", required=True)

    sample = commands.add_parser(
        "sample", help="draw latents from a source and store (latent, embedding) pairs")
    sample.add_argument("--source", required=True, help="source spec JSON")
    sample.add_argument("--n", type=_positive_int, required=True,
                        help="number of samples")
    sample.add_argument("--seed", type=_seed_value, default=0)
    sample.add_argument("--role", choices=sorted(_ROLE_STREAMS), default="pool",
                        help="stream role; anchors and pool never overlap")
    sample.add_argument("--out", required=True, help="store path")
    sample.set_defaults(func=cmd_sample)

    diagnose = commands.add_parser(
        "diagnose", help="population statistics, worst mode, top-k, curves")
    diagnose.add_argument("--anchors", required=True, help="anchor store")
    diagnose.add_argument("--pool", required=True, help="comparison pool store")
    _add_stat_flags(diagnose, "dense modes listed in the report")
    diagnose.add_argument("--curve-sizes", type=_usage_check(_size_list), default=None,
                          help="comma-separated sizes for convergence curves")
    diagnose.add_argument("--seed", type=_seed_value, default=0,
                          help="shuffle seed for the curves")
    diagnose.add_argument("--out", required=True, help="report JSON path")
    diagnose.set_defaults(func=cmd_diagnose)

    find = commands.add_parser("find-modes", help="list the k densest anchors")
    find.add_argument("--anchors", required=True)
    find.add_argument("--pool", required=True)
    _add_mode_flags(find, "dense modes listed")
    find.add_argument("--out", required=True)
    find.set_defaults(func=cmd_find_modes)

    calibrate = commands.add_parser(
        "calibrate", help="fit a calibrated sampler for the dense modes")
    methods = calibrate.add_subparsers(dest="method", required=True)

    cal_gmm = methods.add_parser("gmm", help="reweighted Gaussian mixture")
    cal_gmm.add_argument("--source", required=True, help="source spec JSON")
    cal_gmm.add_argument("--anchors", required=True, help="anchor store")
    cal_gmm.add_argument("--report", required=True, help="diagnosis report JSON")
    cal_gmm.add_argument("--modes", type=_positive_int, default=1,
                         help="how many of the densest modes to calibrate away")
    cal_gmm.add_argument("--kmeans-k", type=_positive_int, default=64)
    cal_gmm.add_argument("--n-fit", type=_positive_int, default=100_000)
    cal_gmm.add_argument("--seed", type=_seed_value, default=0)
    cal_gmm.add_argument("--out", required=True, help="mixture model JSON path")
    cal_gmm.set_defaults(func=cmd_calibrate_gmm)

    cal_is = methods.add_parser("is", help="convex-hull importance sampling plan")
    cal_is.add_argument("--anchors", required=True, help="anchor store")
    cal_is.add_argument("--pool", required=True, help="pool store for counts and hulls")
    cal_is.add_argument("--report", required=True, help="diagnosis report JSON")
    cal_is.add_argument("--modes", type=_positive_int, default=1)
    cal_is.add_argument("--hull-size", type=_positive_int, default=100)
    cal_is.add_argument("--seed", type=_seed_value, default=0)
    cal_is.add_argument("--out", required=True, help="plan JSON path")
    cal_is.set_defaults(func=cmd_calibrate_is)

    evaluate = commands.add_parser(
        "evaluate", help="before/after diagnosis through a calibrated sampler")
    evaluate.add_argument("--source", required=True, help="source spec JSON")
    evaluate.add_argument("--model", required=True, help="mixture or plan JSON")
    evaluate.add_argument("--anchors", type=_positive_int, required=True,
                          help="anchor count per phase")
    evaluate.add_argument("--pool", type=_positive_int, required=True,
                          help="pool count per phase")
    _add_stat_flags(evaluate, "dense modes listed per phase")
    evaluate.add_argument("--seed", type=_seed_value, default=0)
    evaluate.add_argument("--out", required=True, help="evaluation JSON path")
    evaluate.set_defaults(func=cmd_evaluate)

    report = commands.add_parser(
        "report", help="re-emit CSV tables from a report, or export a store")
    which = report.add_mutually_exclusive_group(required=True)
    which.add_argument("--report", help="diagnosis or evaluation JSON")
    which.add_argument("--store", help="sample store to flatten")
    report.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                        help="store export format")
    report.add_argument("--fields", default="latent,embedding",
                        type=_usage_check(lambda text: stores.check_fields(text.split(","))),
                        help="comma-separated store columns")
    report.add_argument("--out", default=None,
                        help="output path (store) or prefix (report)")
    report.set_defaults(func=cmd_report)

    worker = commands.add_parser(
        "worker", help="serve a source over stdin/stdout frames (child side)")
    worker.add_argument("--source", required=True, help="source spec JSON")
    worker.set_defaults(func=cmd_worker)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (BbgcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_PRECONDITION if isinstance(exc, CalibrationError)
                else EXIT_SOURCE if isinstance(exc, SourceError) else EXIT_INPUT)
