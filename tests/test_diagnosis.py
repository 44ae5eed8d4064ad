"""Diagnosis statistics against the naive double-loop references."""

import dataclasses
import math
import warnings
from collections.abc import Iterator

import numpy as np
import pytest

from bbgc.diagnosis import (
    build_report,
    check_disjoint,
    convergence_curve,
    expected_similarity,
    find_worst_mode,
    mccs,
    mode_consistency_check,
    population_stats,
    top_k_modes,
)
from bbgc.embedding import mccs as mccs_of_mean
from bbgc.embedding import mean_similarities, normalize_rows
from bbgc.errors import (
    EmptyCollectionError,
    OverlappingCollectionsError,
    SizesOutOfRangeError,
    TooFewAnchorsError,
)
from bbgc.jsonutil import dumps
from bbgc.rng import STREAM_SHUFFLE, CounterStream
from bbgc.store import SampleStore, StoreStream

from oracles import naive_counts, naive_mccs, naive_mean_similarity, naive_population, naive_worst


def make_store(n, embed_dim, seed, latent_dim=4):
    rng = np.random.default_rng(seed)
    return SampleStore(latents=rng.normal(size=(n, latent_dim)),
                       embeddings=normalize_rows(rng.normal(size=(n, embed_dim))),
                       seed=seed)


def planted_store(n, embed_dim, seed, center, dense_fraction, latent_dim=4):
    """First ``dense_fraction`` of the rows sit exactly on ``center``."""
    st = make_store(n, embed_dim, seed, latent_dim)
    k = int(n * dense_fraction)
    st.embeddings[:k] = center
    return st


def test_check_disjoint():
    a = make_store(5, 8, 1)
    b = make_store(7, 8, 2)
    check_disjoint(a, b)
    with pytest.raises(EmptyCollectionError):
        check_disjoint(SampleStore(np.empty((0, 4)), np.empty((0, 8)), 0), b)
    shared = SampleStore(np.vstack([b.latents, a.latents[2]]),
                         np.vstack([b.embeddings, b.embeddings[0]]), 0)
    with pytest.raises(OverlappingCollectionsError):
        check_disjoint(a, shared)


def test_expected_similarity_matches_naive():
    a = make_store(3, 8, 3)
    b = make_store(200, 8, 4)
    for theta in (0.2, 0.3):
        for i in range(3):
            got = expected_similarity(a.embeddings[i], b.embeddings, theta)
            assert abs(got - naive_mean_similarity(a.embeddings[i], b.embeddings, theta)) <= 1e-12
    with pytest.raises(EmptyCollectionError):
        expected_similarity(a.embeddings[0], np.empty((0, 8)), 0.3)


def test_single_anchor_mccs():
    a = make_store(1, 8, 5)
    b = make_store(150, 8, 6)
    got = mccs(a.embeddings[0], b.embeddings, 0.3, anchor_index=7)
    want = naive_mccs(naive_mean_similarity(a.embeddings[0], b.embeddings, 0.3))
    assert abs(got.value - want) <= 1e-12
    assert got.anchor_index == 7 and got.n_samples == 150


def test_fully_collapsed_anchor_scores_one():
    # at theta = 1, np.expm1 and math.expm1 may differ in the last bit
    anchor = np.eye(8)[0]
    for theta in (0.3, 0.7, 1.0):
        got = mccs(anchor, np.tile(anchor, (5, 1)), theta)
        assert got.mean_similarity == 1.0 and got.value == 1.0


def test_population_stats_matches_naive():
    a = make_store(12, 8, 7)
    b = make_store(300, 8, 8)
    stats = population_stats(a, b, 0.3)
    mu, sigma, values = naive_population(a.embeddings, b.embeddings, 0.3)
    assert abs(stats.mu - mu) <= 1e-12
    assert abs(stats.sigma - sigma) <= 1e-12
    np.testing.assert_allclose(stats.values, values, atol=1e-12)
    assert stats.m == 12 and stats.n_samples == 300


def test_population_stats_needs_two_anchors():
    with pytest.raises(TooFewAnchorsError):
        population_stats(make_store(1, 8, 9), make_store(10, 8, 10), 0.3)


def test_find_worst_mode_matches_naive():
    center = np.zeros(8)
    center[0] = 1.0
    a = planted_store(20, 8, 11, center, dense_fraction=0.2)
    b = planted_store(400, 8, 12, center, dense_fraction=0.1)
    res = find_worst_mode(a, b, 0.25)
    idx, cnt = naive_worst(a.embeddings, b.embeddings, 0.25)
    assert (res.anchor_index, res.neighbor_count) == (idx, cnt)
    assert res.radius == 0.25 and not res.no_dense_mode
    # anchors 0..3 all sit on the center: tie resolves to index 0
    assert res.anchor_index == 0


def test_find_worst_mode_isolated_warns():
    a = make_store(4, 32, 13)
    b = make_store(4, 32, 14)
    with pytest.warns(RuntimeWarning, match="no dense mode"):
        res = find_worst_mode(a, b, 0.01)
    assert res.no_dense_mode and res.neighbor_count == 0


def test_top_k_modes_order_and_clamp():
    a = make_store(15, 8, 15)
    b = make_store(500, 8, 16)
    counts = naive_counts(a.embeddings, b.embeddings, 0.25)
    order = sorted(range(15), key=lambda i: (-counts[i], i))
    top = top_k_modes(a, b, 0.25, k=6)
    assert [t.anchor_index for t in top] == order[:6]
    assert [t.neighbor_count for t in top] == [counts[i] for i in order[:6]]
    assert len(top_k_modes(a, b, 0.25, k=99)) == 15
    with pytest.raises(ValueError):
        top_k_modes(a, b, 0.25, k=0)


def shuffle_perm(n, seed, offset=0):
    u = CounterStream(seed, STREAM_SHUFFLE).uniforms(offset, n)
    return np.argsort(u, kind="stable")


def test_mccs_single_curve_matches_direct_recompute():
    pool = make_store(500, 8, 17)
    anchor = make_store(1, 8, 18).embeddings[0]
    sizes = [10, 50, 200, 500]
    curve = convergence_curve("mccs_single", pool, sizes, 0.3, seed=21,
                              anchor_embedding=anchor)
    assert curve.statistic_kind == "mccs_single"
    perm = shuffle_perm(500, 21)
    for (s, v) in curve.points:
        direct = mccs_of_mean(float(mean_similarities(
            anchor[None, :], pool.embeddings[perm[:s]], 0.3)[0]))
        assert abs(v - direct) <= 1e-12


def test_mccs_single_curve_takes_the_checked_theta():
    # a float32 theta is the scan's theta, float64: one pool row's dot lies
    # between cos(pi * theta) and cos of the product rounded to float32
    theta = np.float32(0.3)
    cut = math.cos(math.pi * float(theta))
    assert math.cos(math.pi * theta) < 0.5877852 < cut
    pool = make_store(50, 32, 26)
    pool.embeddings[7] = [0.5877852, math.sqrt(1 - 0.5877852 ** 2)] + [0.0] * 30
    anchor = np.eye(32)[0]
    got, want = (convergence_curve("mccs_single", pool, [50], t, seed=27,
                                   anchor_embedding=anchor) for t in (theta, float(theta)))
    assert got.points == want.points
    direct = mean_similarities(anchor[None, :], pool.embeddings, float(theta))[0]
    assert abs(want.points[0][1] - mccs_of_mean(float(direct))) <= 1e-12


def test_mccs_single_curve_holds_no_copy_of_the_pool():
    # the curve takes one dot per pool row and shuffles those, not the rows
    import tracemalloc
    pool = make_store(100_000, 32, 23)
    anchor = make_store(1, 32, 24).embeddings[0]
    tracemalloc.start()
    try:
        convergence_curve("mccs_single", pool, [100, 100_000], 0.3, seed=25,
                          anchor_embedding=anchor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < pool.embeddings.nbytes, peak


def test_population_curves_match_direct_recompute():
    pool = make_store(300, 8, 19)
    anchors = make_store(60, 8, 20)
    sizes = [5, 20, 60]
    pool_perm = shuffle_perm(300, 33)
    anchor_perm = shuffle_perm(60, 33, offset=1 << 33)
    for kind in ("mu_mccs", "sigma_mccs"):
        curve = convergence_curve(kind, pool, sizes, 0.3, seed=33, anchors=anchors)
        for (s, v) in curve.points:
            sub_a = SampleStore(anchors.latents[anchor_perm[:s]],
                                anchors.embeddings[anchor_perm[:s]], 0)
            sub_p = SampleStore(pool.latents[pool_perm[:s]],
                                pool.embeddings[pool_perm[:s]], 0)
            stats = population_stats(sub_a, sub_p, 0.3)
            direct = stats.mu if kind == "mu_mccs" else stats.sigma
            assert abs(v - direct) <= 1e-12


def test_curve_validation():
    pool = make_store(100, 8, 22)
    anchors = make_store(50, 8, 23)
    anchor = anchors.embeddings[0]
    with pytest.raises(ValueError, match="unknown curve kind"):
        convergence_curve("median", pool, [10], 0.3, 0)
    with pytest.raises(ValueError, match="anchor_embedding"):
        convergence_curve("mccs_single", pool, [10], 0.3, 0)
    with pytest.raises(ValueError, match="anchors"):
        convergence_curve("mu_mccs", pool, [10], 0.3, 0)
    for bad in ([], [50, 20], [0, 10], [10, 101]):
        with pytest.raises(SizesOutOfRangeError):
            convergence_curve("mccs_single", pool, bad, 0.3, 0, anchor_embedding=anchor)
    with pytest.raises(SizesOutOfRangeError, match=">= 2"):
        convergence_curve("mu_mccs", pool, [1, 10], 0.3, 0, anchors=anchors)


def test_mode_consistency_statistic():
    center = np.zeros(8)
    center[3] = 1.0
    a = planted_store(40, 8, 24, center, dense_fraction=0.3)
    b = planted_store(600, 8, 25, center, dense_fraction=0.2)
    res = mode_consistency_check(a, b, [5, 10, 40], 0.25)
    # anchor 0 sits exactly on the planted center in every prefix
    assert [p[1] for p in res.points] == [0, 0, 0]
    assert res.statistic == 0.0
    with pytest.raises(SizesOutOfRangeError):
        mode_consistency_check(a, b, [5, 41], 0.25)


def test_mode_consistency_tracks_prefix_winners():
    a = make_store(30, 8, 26)
    b = make_store(800, 8, 27)
    counts = naive_counts(a.embeddings, b.embeddings, 0.25)
    res = mode_consistency_check(a, b, [7, 30], 0.25)
    for s, winner, emb in res.points:
        prefix = sorted(range(s), key=lambda i: (-counts[i], i))
        assert winner == prefix[0]
        np.testing.assert_array_equal(emb, a.embeddings[winner])


def test_build_report_structure_and_stability():
    center = np.zeros(8)
    center[1] = 1.0
    a = planted_store(25, 8, 28, center, dense_fraction=0.2)
    b = planted_store(400, 8, 29, center, dense_fraction=0.15)
    report = build_report(a, b, theta=0.3, radius=0.25, k=10,
                          curve_sizes=[5, 20, 100], seed=3)
    assert list(report) == ["schema", "theta", "radius", "m", "n", "mu_mccs",
                            "sigma_mccs", "worst_mode", "top_k", "curves"]
    assert report["schema"] == 1 and report["m"] == 25 and report["n"] == 400
    stats = population_stats(a, b, 0.3)
    assert report["mu_mccs"] == stats.mu and report["sigma_mccs"] == stats.sigma
    worst = report["worst_mode"]
    assert worst == report["top_k"][0]
    assert worst["anchor_index"] == 0
    assert worst["mccs"] == stats.values[0]
    assert len(report["top_k"]) == 10
    counts = report["top_k"]
    assert all(counts[i]["neighbor_count"] >= counts[i + 1]["neighbor_count"]
               for i in range(9))
    kinds = [c["kind"] for c in report["curves"]]
    assert kinds == ["mccs_single", "mu_mccs", "sigma_mccs"]
    # population curves drop sizes beyond the anchor count
    assert [p[0] for p in report["curves"][1]["points"]] == [5, 20]
    again = build_report(a, b, theta=0.3, radius=0.25, k=10,
                         curve_sizes=[5, 20, 100], seed=3)
    assert dumps(report) == dumps(again)


def test_build_report_warns_when_isolated():
    a = make_store(3, 32, 30)
    b = make_store(3, 32, 31)
    with pytest.warns(RuntimeWarning, match="no dense mode"):
        report = build_report(a, b, theta=0.3, radius=0.01)
    assert report["worst_mode"]["neighbor_count"] == 0
    assert report["curves"] == []


def test_build_report_equals_public_functions():
    # the fused report path must agree exactly with the one-question functions
    center = np.zeros(8)
    center[2] = 1.0
    a = planted_store(70, 8, 40, center, dense_fraction=0.1)
    b = planted_store(500, 8, 41, center, dense_fraction=0.1)
    sizes = [5, 20, 60, 300]
    report = build_report(a, b, theta=0.3, radius=0.25, k=12, curve_sizes=sizes, seed=5)
    stats = population_stats(a, b, 0.3)
    worst = find_worst_mode(a, b, 0.25)
    top = top_k_modes(a, b, 0.25, k=12)
    assert report["mu_mccs"] == stats.mu and report["sigma_mccs"] == stats.sigma

    def entry(i, count):
        return {"anchor_index": i, "neighbor_count": count, "mccs": float(stats.values[i])}

    assert report["worst_mode"] == entry(worst.anchor_index, worst.neighbor_count)
    assert report["top_k"] == [entry(t.anchor_index, t.neighbor_count) for t in top]
    curves = [convergence_curve("mccs_single", b, sizes, 0.3, 5,
                                anchor_embedding=a.embeddings[worst.anchor_index])]
    curves += [convergence_curve(kind, b, [5, 20, 60], 0.3, 5, anchors=a)
               for kind in ("mu_mccs", "sigma_mccs")]
    assert report["curves"] == [
        {"kind": c.statistic_kind, "points": [[s, v] for s, v in c.points]} for c in curves]


def test_build_report_isolated_warns_once_like_find_worst_mode():
    a = make_store(3, 32, 30)
    b = make_store(3, 32, 31)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = build_report(a, b, theta=0.3, radius=0.01, k=2, curve_sizes=[2, 3])
    assert [str(w.message) for w in caught] == [
        "no anchor has any neighbor: no dense mode exists"]
    with pytest.warns(RuntimeWarning, match="no dense mode"):
        worst = find_worst_mode(a, b, 0.01)
    assert report["worst_mode"]["anchor_index"] == worst.anchor_index
    assert [t["anchor_index"] for t in report["top_k"]] == [
        t.anchor_index for t in top_k_modes(a, b, 0.01, k=2)]


def test_build_report_scans_once_and_checks_disjointness_once(monkeypatch):
    import bbgc.diagnosis as D
    import bbgc.embedding as E
    a = make_store(30, 8, 42)
    b = make_store(400, 8, 43)
    real_scan, real_disjoint = E.scan, D.latents_disjoint
    shapes, disjoint_calls = [], []

    def counting_scan(anchors, pool, theta, radius, **options):
        # the rows of the blocks the scan is fed; an array is one block
        blocks = list(pool) if isinstance(pool, Iterator) else [(pool, None)]
        shapes.append((len(anchors), sum(len(rows) for rows, _ in blocks)))
        return real_scan(anchors, iter(blocks), theta, radius, **options)

    def counting_disjoint(x, y):
        disjoint_calls.append(1)
        return real_disjoint(x, y)

    monkeypatch.setattr(E, "scan", counting_scan)
    monkeypatch.setattr(D, "scan", counting_scan)
    monkeypatch.setattr(D, "latents_disjoint", counting_disjoint)
    build_report(a, b, 0.3, 0.25, curve_sizes=[5, 20, 100], seed=1)
    # one full anchors x pool scan, then one prefix scan per population size
    assert shapes == [(30, 400), (5, 5), (20, 20)]
    assert len(disjoint_calls) == 1


def test_report_of_float32_stores_equals_report_of_their_upcast(tmp_path):
    # stores read from disk hold float32 embedding views; every statistic,
    # the curves' row dots included, is that of the exact float64 upcast
    from bbgc.store import read_store, write_store
    center = normalize_rows(np.random.default_rng(40).normal(size=(1, 16)))[0]
    stores = {"a": planted_store(60, 16, 41, center, 0.2),
              "p": planted_store(3000, 16, 42, center, 0.05)}
    for name, st in stores.items():
        write_store(tmp_path / name, st.latents, st.embeddings, seed=0)
    a32, p32 = (read_store(tmp_path / name) for name in "ap")
    assert a32.embeddings.dtype == p32.embeddings.dtype == np.float32
    a64, p64 = (SampleStore(st.latents, st.embeddings.astype(np.float64), st.seed)
                for st in (a32, p32))
    sizes = [2, 10, 60, 500, 3000]
    assert dumps(build_report(a32, p32, 0.3, 0.25, k=5, curve_sizes=sizes, seed=4)) \
        == dumps(build_report(a64, p64, 0.3, 0.25, k=5, curve_sizes=sizes, seed=4))


def row_dots_curve(anchor, pool, sizes, theta, seed):
    """The mccs_single points by the row_dots formulation, the reference for
    the curve that the scan keeps: row_dots of every pool row, shuffled, then cut."""
    from bbgc.embedding import near_terms, row_dots
    dots = row_dots(pool.embeddings, np.ascontiguousarray(anchor, dtype=np.float64))
    near, terms = near_terms(dots[shuffle_perm(pool.count, seed)], theta)
    sims = np.zeros(pool.count)
    sims[near] = terms / math.expm1(theta)
    csum = np.cumsum(sims)
    return tuple((s, mccs_of_mean(min(1.0, csum[s - 1] / s))) for s in sizes)


def test_scan_kept_mccs_single_curve_equals_the_row_dots_formulation(tmp_path):
    from bbgc.store import read_store, write_store
    center = normalize_rows(np.random.default_rng(50).normal(size=(1, 16)))[0]
    anchors = planted_store(40, 16, 51, center, 0.2)
    pool = planted_store(3000, 16, 52, center, 0.05)
    write_store(tmp_path / "p", pool.latents, pool.embeddings, seed=0)
    sizes = [10, 300, 3000]
    for p in (pool, read_store(tmp_path / "p")):   # float64, then float32 views
        for row in (0, 13, 39):
            curve = convergence_curve("mccs_single", p, sizes, 0.3, seed=8,
                                      anchor_embedding=anchors.embeddings[row])
            assert curve.points == row_dots_curve(anchors.embeddings[row], p, sizes, 0.3, 8)
        report = build_report(anchors, p, 0.3, 0.25, curve_sizes=sizes, seed=8)
        worst = anchors.embeddings[report["worst_mode"]["anchor_index"]]
        assert [tuple(pt) for pt in report["curves"][0]["points"]] == \
            list(row_dots_curve(worst, p, sizes, 0.3, 8))


def bits(result):
    """A result as nested tuples, each array as its dtype and bytes, so
    that == compares bits."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if dataclasses.is_dataclass(result):
        return tuple(bits(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, tuple):
        return tuple(bits(v) for v in result)
    return result


@pytest.mark.parametrize("rows", [997, 8193])
def test_a_pool_streamed_in_blocks_gives_the_reports_of_the_whole_store(tmp_path, rows):
    # the scan, the disjointness test and the curves' rows take each block
    # as it passes; every result and each fault is that of the whole store
    from bbgc.store import read_store, stream_store, write_store
    center = normalize_rows(np.random.default_rng(60).normal(size=(1, 16)))[0]
    anchors = planted_store(300, 16, 61, center, 0.1)
    pool = planted_store(9000, 16, 62, center, 0.05)
    path = tmp_path / "p"
    write_store(path, pool.latents, pool.embeddings, seed=0)
    sizes = [2, 50, 300, 9000]
    want = dumps(build_report(anchors, read_store(path), 0.3, 0.25, k=7,
                              curve_sizes=sizes, seed=3))
    assert dumps(build_report(anchors, stream_store(path, rows), 0.3, 0.25, k=7,
                              curve_sizes=sizes, seed=3)) == want
    assert top_k_modes(anchors, stream_store(path, rows), 0.25, k=7) == \
        top_k_modes(anchors, read_store(path), 0.25, k=7)
    check_disjoint(anchors, stream_store(path, rows))
    whole = read_store(path)
    for run in (lambda p: population_stats(anchors, p, 0.3),
                lambda p: find_worst_mode(anchors, p, 0.25),
                lambda p: mode_consistency_check(anchors, p, [7, 30, 300], 0.25)):
        assert bits(run(stream_store(path, rows))) == bits(run(whole))
    # an anchor latent in the last block
    shared = pool.latents.copy()
    shared[-2] = anchors.latents[5].astype(np.float32)
    write_store(path, shared, pool.embeddings, seed=0)
    lat32 = SampleStore(anchors.latents.astype(np.float32).astype(np.float64),
                        anchors.embeddings, 0)
    # a whole store is a pool of one block, whose verdicts also come after its scan
    for pool_of in (lambda: stream_store(path, rows), lambda: read_store(path)):
        for run in (lambda p: build_report(lat32, p, 0.3, 0.25, curve_sizes=sizes),
                    lambda p: top_k_modes(lat32, p, 0.25), lambda p: check_disjoint(lat32, p),
                    lambda p: population_stats(lat32, p, 0.3),
                    lambda p: find_worst_mode(lat32, p, 0.25),
                    lambda p: mode_consistency_check(lat32, p, [7, 30], 0.25)):
            with pytest.raises(OverlappingCollectionsError):
                run(pool_of())
        with pytest.raises(TooFewAnchorsError):
            build_report(make_store(1, 16, 63), pool_of(), 0.3, 0.25)


def test_convergence_curves_of_a_streamed_pool_are_those_of_the_whole_store(tmp_path):
    # each curve reads its pool once, block by block: the single anchor's
    # near terms from the scan, the population curves' rows as they pass
    from bbgc.store import read_store, stream_store, write_store
    anchors, pool = make_store(60, 8, 73), make_store(500, 8, 74)
    path = tmp_path / "p"
    write_store(path, pool.latents, pool.embeddings, seed=0)
    whole = read_store(path)
    anchor = anchors.embeddings[3]
    for kind, sizes, extra in (("mccs_single", [10, 150, 500], {"anchor_embedding": anchor}),
                               ("mu_mccs", [5, 20, 60], {"anchors": anchors}),
                               ("sigma_mccs", [5, 20, 60], {"anchors": anchors})):
        want = convergence_curve(kind, whole, sizes, 0.3, 9, **extra)
        got = convergence_curve(kind, stream_store(path, 100), sizes, 0.3, 9, **extra)
        assert bits(got) == bits(want) and got.statistic_kind == kind
    shared = pool.latents.copy()
    shared[-1] = anchors.latents[7].astype(np.float32)
    write_store(path, shared, pool.embeddings, seed=0)
    lat32 = SampleStore(anchors.latents.astype(np.float32).astype(np.float64),
                        anchors.embeddings, 0)
    with pytest.raises(OverlappingCollectionsError):
        convergence_curve("mu_mccs", stream_store(path, 100), [5, 20], 0.3, 9, anchors=lat32)


@pytest.mark.parametrize("sizes", [[10, 5], [10, 600]])
def test_report_checks_curve_sizes_before_it_reads_a_block(sizes):
    # sizes are arguments, checked against the pool's count before its first
    # block is drawn, like theta and the radius
    anchors, pool = make_store(20, 8, 70), make_store(500, 8, 71)
    drawn = []

    def blocks():
        for lo in range(0, pool.count, 100):
            drawn.append(lo)
            yield SampleStore(pool.latents[lo:lo + 100], pool.embeddings[lo:lo + 100], 0)

    with pytest.raises(SizesOutOfRangeError):
        build_report(anchors, StoreStream(pool.count, blocks()), 0.3, 0.25, curve_sizes=sizes)
    assert drawn == []
    # a pool of no rows: its sizes fault comes before its emptiness
    with pytest.raises(SizesOutOfRangeError):
        build_report(anchors, make_store(0, 8, 72), 0.3, 0.25, curve_sizes=[1])
