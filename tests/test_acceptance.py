"""Acceptance checklist.

Ten end-to-end guarantees, one test each, every tolerance pinned in the
assertion.  Each test prints a single PASS/FAIL verdict line on the
real stdout so the result survives output capture.  The synthetic
testbed geometries live in ``configs.py``; the independent references
live in ``oracles.py``.
"""

import json
import math
import time
import warnings

import mpmath
import numpy as np
import pytest

from bbgc.cli import main as cli_main
from bbgc.diagnosis import (
    expected_similarity,
    find_worst_mode,
    mccs,
    mode_consistency_check,
    population_stats,
    top_k_modes,
)
from bbgc.embedding import (
    cosine_distance,
    mccs as mccs_of_mean,
    mean_similarities,
    neighbor_counts,
    scan,
    similarity,
)
from bbgc.gmm import calibrate_gmm, sample_calibrated
from bbgc.importance import build_plan, hull_membership, sample_calibrated_is
from bbgc.rng import (
    STREAM_ANCHORS,
    STREAM_EVAL_ANCHORS,
    STREAM_EVAL_POOL,
    STREAM_POOL,
)
from bbgc.source import SourceSpec, open_source, sample_latents
from bbgc.store import SampleStore, read_store, write_store

from configs import CONSISTENCY, DETECTION, EFFICIENCY, GMM_CALIBRATION, IS_CALIBRATION, spec_dict
from oracles import hull_distance, mp_distance, mp_similarity, naive_distance, naive_mccs, naive_similarity


def verdict(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def make_source(config: dict, seed: int):
    doc = spec_dict(config, seed)
    return open_source(SourceSpec(doc["kind"], doc["latent_dim"],
                                  doc["embed_dim"], doc["seed"], doc["parameters"]))


def sampled_store(src, n: int, seed: int, stream: int, plant_anchor=None) -> SampleStore:
    lat = sample_latents(n, src.latent_dim, seed, stream)
    if plant_anchor is not None:
        lat[0] = plant_anchor
    emb, _ = src.embed(lat)
    return SampleStore(latents=lat, embeddings=emb, seed=seed)


def test_criterion_01_formula_exactness(capsys):
    # The full grid is referenced against the closed form in 80-bit
    # extended precision (7 digits of headroom past the 1e-12 gate);
    # evaluating all 1e4 cases in mpmath would blow the 1s budget, so
    # the 25-digit check anchors a 1500-case subsample plus boundaries.
    assert np.finfo(np.longdouble).eps < 1e-18
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    a = rng.normal(size=(10_000, 6))
    b = rng.normal(size=(10_000, 6))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    thetas = rng.uniform(0.05, 1.0, size=10_000)

    one = np.longdouble(1.0)
    pi_ld = np.arccos(-one)
    dots = np.sum(a.astype(np.longdouble) * b.astype(np.longdouble), axis=1)
    d_ref = np.arccos(np.clip(dots, -one, one)) / pi_ld
    t_ld = thetas.astype(np.longdouble)
    s_ref = np.expm1(np.maximum(t_ld - d_ref, 0.0)) / np.expm1(t_ld)

    d_got = np.array([cosine_distance(a[i], b[i]) for i in range(10_000)])
    s_got = np.array([similarity(float(d_got[i]), float(thetas[i]))
                      for i in range(10_000)])
    worst_d = float(np.max(np.abs(d_got - d_ref)))
    worst_s = float(np.max(np.abs(s_got - s_ref)))

    worst_mp = 0.0
    with mpmath.workdps(25):
        for i in range(0, 10_000, 7):   # 1429 cases
            dm = float(mp_distance(a[i], b[i]))
            sm = float(mp_similarity(dm, thetas[i]))
            worst_mp = max(worst_mp, abs(d_got[i] - dm), abs(s_got[i] - sm),
                           abs(float(d_ref[i]) - dm), abs(float(s_ref[i]) - sm))

    boundary = (similarity(0.0, 0.3) == 1.0 and similarity(0.3, 0.3) == 0.0
                and similarity(0.9, 0.3) == 0.0 and similarity(1.0, 1.0) == 0.0)
    elapsed = time.perf_counter() - t0
    ok = (worst_d <= 1e-12 and worst_s <= 1e-12 and worst_mp <= 1e-12
          and boundary and elapsed < 1.0)
    verdict(capsys, 1, "formula exactness", ok,
            f"distance err {worst_d:.2e}, similarity err {worst_s:.2e}, "
            f"25-digit subsample err {worst_mp:.2e}, boundaries exact: "
            f"{boundary}, {elapsed:.2f}s < 1s")


def test_criterion_02_score_anchors_and_monotonicity(capsys):
    t0 = time.perf_counter()
    anchors = (mccs_of_mean(1.0) == 1.0
               and abs(mccs_of_mean(math.exp(-1.0)) - 0.5) < 1e-15
               and mccs_of_mean(0.0) == 0.0)
    rng = np.random.default_rng(202)
    flips = 0
    for _ in range(1000):
        n = int(rng.integers(1, 500))
        mean = float(rng.uniform(1e-6, 1.0))
        extra = float(rng.uniform(0.0, 1.0))
        new_mean = (n * mean + extra) / (n + 1)
        before, after = mccs_of_mean(mean), mccs_of_mean(new_mean)
        if extra > mean and not after > before:
            flips += 1
        if extra < mean and not after < before:
            flips += 1
    elapsed = time.perf_counter() - t0
    ok = anchors and flips == 0 and elapsed < 1.0
    verdict(capsys, 2, "score anchors and monotonicity", ok,
            f"anchors exact: {anchors}, {flips} monotonicity violations "
            f"in 1000 trials, {elapsed:.2f}s < 1s")


def test_criterion_03_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    worst_rel = 0.0
    mismatches = 0
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        emb_a = rng.normal(size=(50, 32))
        emb_a /= np.linalg.norm(emb_a, axis=1, keepdims=True)
        emb_c = rng.normal(size=(1000, 32))
        emb_c /= np.linalg.norm(emb_c, axis=1, keepdims=True)
        anchors = SampleStore(rng.normal(size=(50, 4)), emb_a, seed)
        pool = SampleStore(rng.normal(size=(1000, 4)), emb_c, seed)

        # random unit vectors at this dimension are typically neighborless
        # at radius 0.25, which exercises the all-ties ranking path
        dist = [[naive_distance(a, c) for c in emb_c] for a in emb_a]
        sims = [math.fsum(naive_similarity(d, 0.3) for d in row) / 1000 for row in dist]
        values = [naive_mccs(s) for s in sims]
        mu = math.fsum(values) / 50
        sigma = math.sqrt(math.fsum((v - mu) ** 2 for v in values) / 49)
        counts = [sum(1 for d in row if d <= 0.25) for row in dist]
        order = sorted(range(50), key=lambda i: (-counts[i], i))

        def rel(x, y):
            return abs(x - y) / max(abs(y), 1e-300)

        for i in range(50):
            worst_rel = max(worst_rel, rel(expected_similarity(emb_a[i], emb_c, 0.3), sims[i]))
            worst_rel = max(worst_rel, rel(mccs(emb_a[i], emb_c, 0.3).value, values[i]))
        stats = population_stats(anchors, pool, 0.3)
        worst_rel = max(worst_rel, rel(stats.mu, mu), rel(stats.sigma, sigma))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            worst = find_worst_mode(anchors, pool, 0.25)
        if (worst.anchor_index, worst.neighbor_count) != (order[0], counts[order[0]]):
            mismatches += 1
        top = top_k_modes(anchors, pool, 0.25, k=10)
        if [(t.anchor_index, t.neighbor_count) for t in top] != \
                [(i, counts[i]) for i in order[:10]]:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-9 and mismatches == 0 and elapsed < 10.0
    verdict(capsys, 3, "oracle equivalence", ok,
            f"worst rel err {worst_rel:.2e} <= 1e-9, {mismatches} ranking "
            f"mismatches, 5 seeds, {elapsed:.1f}s < 10s")


def test_criterion_04_planted_collapse_detection(capsys):
    t0 = time.perf_counter()
    hits = 0
    separated = True
    for seed in range(20):
        src = make_source(DETECTION, seed)
        anchor0 = src.model.planted[0].latent_anchor
        anchors = sampled_store(src, 1000, seed, STREAM_ANCHORS, plant_anchor=anchor0)
        pool = sampled_store(src, 100_000, seed, STREAM_POOL)
        # one pass gives find_worst_mode's counts at 0.25 and
        # population_stats' mean similarities at 0.3
        counts, sims = scan(anchors.embeddings, pool.embeddings, 0.3, 0.25)
        # argmax takes the lowest index among tied counts, as find_worst_mode does
        if int(np.argmax(counts)) == 0:
            hits += 1
        values = np.array([mccs_of_mean(s) for s in sims])
        if not values[0] > np.mean(values) + 3.0 * np.std(values, ddof=1):
            separated = False
    elapsed = time.perf_counter() - t0
    ok = hits >= 19 and separated and elapsed < 300.0
    verdict(capsys, 4, "planted-collapse detection", ok,
            f"planted anchor won {hits}/20 runs (need >= 19), "
            f"score above mu+3sigma in all runs: {separated}, {elapsed:.0f}s < 300s")


def test_criterion_05_sampling_efficiency(capsys):
    t0 = time.perf_counter()
    src = make_source(EFFICIENCY, 0)
    planted = src.model.planted[0].center
    random_anchor = src.embed(sample_latents(1, src.latent_dim, 0, STREAM_ANCHORS))[0][0]
    pool = src.embed(sample_latents(100_000, src.latent_dim, 0, STREAM_POOL))[0]
    gaps = []
    for emb in (planted, random_anchor):
        at_10k = mccs_of_mean(float(mean_similarities(emb[None], pool[:10_000], 0.3)[0]))
        at_100k = mccs_of_mean(float(mean_similarities(emb[None], pool, 0.3)[0]))
        gaps.append(abs(at_10k - at_100k) / at_100k)
    elapsed = time.perf_counter() - t0
    ok = max(gaps) < 0.05 and elapsed < 300.0
    verdict(capsys, 5, "sampling efficiency", ok,
            f"relative gap planted {gaps[0]:.4f}, random {gaps[1]:.4f} "
            f"(both < 0.05), {elapsed:.0f}s < 300s")


def test_criterion_06_mode_consistency(capsys):
    t0 = time.perf_counter()
    worst_dist = 0.0
    for seed in range(5):
        src = make_source(CONSISTENCY, seed)
        center = src.model.planted[0].center
        anchors = sampled_store(src, 10_000, seed, STREAM_ANCHORS)
        pool = sampled_store(src, 20_000, seed, STREAM_POOL)
        result = mode_consistency_check(anchors, pool, [1000, 10_000], 0.25)
        for _, _, emb in result.points:
            worst_dist = max(worst_dist, cosine_distance(emb, center))
    elapsed = time.perf_counter() - t0
    ok = worst_dist <= 0.25 and elapsed < 300.0
    verdict(capsys, 6, "mode consistency", ok,
            f"worst winner-to-center distance {worst_dist:.3f} <= 0.25 "
            f"at sizes 1e3 and 1e4, 5 seeds, {elapsed:.0f}s < 300s")


def test_criterion_07_gmm_calibration(capsys):
    t0 = time.perf_counter()
    seed = 0
    src = make_source(GMM_CALIBRATION, seed)
    center = src.model.planted[0].center
    model = calibrate_gmm(src, center[None, :], seed, k=64, r0=0.25, n_fit=100_000)

    before_pool = sampled_store(src, 100_000, seed, STREAM_EVAL_POOL)
    before_anchors = sampled_store(src, 1000, seed, STREAM_EVAL_ANCHORS)
    after_pool_lat = sample_calibrated(model, 100_000, seed)
    after_anchor_lat = sample_calibrated(model, 1000, seed, start=100_000)
    after_pool = SampleStore(after_pool_lat, src.embed(after_pool_lat)[0], seed)
    after_anchors = SampleStore(after_anchor_lat, src.embed(after_anchor_lat)[0], seed)

    count_before = int(neighbor_counts(center[None], before_pool.embeddings, 0.25)[0])
    count_after = int(neighbor_counts(center[None], after_pool.embeddings, 0.25)[0])
    drop = 1.0 - count_after / count_before

    stats_before = population_stats(before_anchors, before_pool, 0.3)
    stats_after = population_stats(after_anchors, after_pool, 0.3)
    # "noise" for the mean of 1000 anchor scores: generous 0.01 bound,
    # an order of magnitude above the observed run-to-run wobble
    mu_ok = stats_after.mu <= stats_before.mu + 0.01

    def off_mode(stats, store):
        dots = np.clip(store.embeddings @ center, -1.0, 1.0)
        off = np.arccos(dots) / math.pi > 0.25
        vals = stats.values[off]
        return float(np.mean(vals)), float(np.std(vals, ddof=1))

    mu_b, sigma_b = off_mode(stats_before, before_anchors)
    mu_a, sigma_a = off_mode(stats_after, after_anchors)
    off_shift = max(abs(mu_a - mu_b), abs(sigma_a - sigma_b))

    elapsed = time.perf_counter() - t0
    ok = drop >= 0.5 and mu_ok and off_shift < 0.02 and elapsed < 600.0
    verdict(capsys, 7, "mixture calibration efficacy", ok,
            f"mode count {count_before} -> {count_after} ({drop:.1%} drop, "
            f"need >= 50%), mu {stats_before.mu:.4f} -> {stats_after.mu:.4f}, "
            f"off-mode shift {off_shift:.2e} < 0.02, {elapsed:.0f}s < 600s")


def test_criterion_08_is_calibration(capsys):
    t0 = time.perf_counter()
    seed = 0
    src = make_source(IS_CALIBRATION, seed)
    dense_center = src.model.planted[0].center
    ref_center = src.model.planted[1].center
    pool = sampled_store(src, 100_000, seed, STREAM_POOL)
    on_ref = np.flatnonzero(np.all(pool.embeddings == ref_center, axis=1))
    plan = build_plan(pool, [(dense_center, 0)], int(on_ref[0]), 0.25, hull_size=100)

    out, stats = sample_calibrated_is(plan, 100_000, seed)
    outside_exact = stats.outside_accepted == stats.outside_hull
    after_emb = src.embed(out)[0]
    dense_after = int(neighbor_counts(dense_center[None], after_emb, 0.25)[0])
    ref_after = int(neighbor_counts(ref_center[None], after_emb, 0.25)[0])
    ratio = dense_after / ref_after

    elapsed = time.perf_counter() - t0
    ok = (0.5 <= ratio <= 2.0 and outside_exact
          and stats.proposals >= 100_000 and elapsed < 600.0)
    verdict(capsys, 8, "rejection calibration efficacy", ok,
            f"density ratio {ratio:.3f} in [0.5, 2.0], outside-hull acceptance "
            f"{stats.outside_accepted}/{stats.outside_hull} over "
            f"{stats.proposals} proposals, {elapsed:.0f}s < 600s")


def test_criterion_09_hull_membership(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    disagreements = 0
    for trial in range(1000):
        k = int(rng.integers(3, 11))
        v = rng.normal(size=(k, 8))
        kind = trial % 3
        if kind == 0:
            z = rng.normal(size=8) * 1.5
        elif kind == 1:
            z = v.T @ rng.dirichlet(np.ones(k) * 0.5)
        else:   # just outside a face point
            z = v.T @ rng.dirichlet(np.ones(k)) + rng.normal(size=8) * 5e-3
        res = hull_membership(z, v)
        truth = hull_distance(z, v) <= 1e-4 * (1.0 + np.linalg.norm(z))
        if res.is_member != truth:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 30.0
    verdict(capsys, 9, "hull membership correctness", ok,
            f"{disagreements}/1000 disagreements with the exhaustive "
            f"active-set enumeration at tol=1e-4, {elapsed:.1f}s < 30s")


def test_criterion_10_determinism_persistence(capsys, tmp_path):
    t0 = time.perf_counter()
    spec = tmp_path / "source.json"
    spec.write_text(json.dumps(spec_dict(CONSISTENCY, 5)))

    def pipeline(tag: str) -> tuple[bytes, bytes]:
        anchors = tmp_path / f"a-{tag}.bbgc"
        pool = tmp_path / f"c-{tag}.bbgc"
        report = tmp_path / f"r-{tag}.json"
        assert cli_main(["sample", "--source", str(spec), "--n", "150",
                         "--role", "anchors", "--seed", "7", "--out", str(anchors)]) == 0
        assert cli_main(["sample", "--source", str(spec), "--n", "4000",
                         "--role", "pool", "--seed", "7", "--out", str(pool)]) == 0
        assert cli_main(["diagnose", "--anchors", str(anchors), "--pool", str(pool),
                         "--curve-sizes", "10,50,400", "--seed", "7",
                         "--out", str(report)]) == 0
        return anchors.read_bytes() + pool.read_bytes(), report.read_bytes()

    stores_first, report_first = pipeline("first")
    stores_rerun, report_rerun = pipeline("rerun")
    byte_identical = stores_first == stores_rerun and report_first == report_rerun

    rng = np.random.default_rng(55)
    lat = rng.normal(size=(64, 3))
    emb = rng.normal(size=(64, 8))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    path = tmp_path / "roundtrip.bbgc"
    write_store(path, lat, emb, seed=9)
    back = read_store(path)
    round_trip = (np.array_equal(back.latents, lat.astype(np.float32))
                  and np.array_equal(back.embeddings, emb.astype(np.float32)))

    elapsed = time.perf_counter() - t0
    ok = byte_identical and round_trip
    verdict(capsys, 10, "determinism and persistence", ok,
            f"stores+reports byte-identical across reruns: {byte_identical}, "
            f"store round-trip exact at 32-bit: {round_trip}, {elapsed:.0f}s")
