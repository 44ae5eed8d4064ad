"""Diagnosis statistics against the naive double-loop references."""

import warnings

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
from bbgc.store import SampleStore

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


def test_population_stats_matches_naive():
    a = make_store(12, 8, 7)
    b = make_store(300, 8, 8)
    stats = population_stats(a, b, 0.3)
    mu, sigma, values = naive_population(a.embeddings, b.embeddings, 0.3)
    assert abs(stats.mu - mu) <= 1e-12
    assert abs(stats.sigma - sigma) <= 1e-12
    np.testing.assert_allclose(stats.values, values, atol=1e-12)
    assert stats.m == 12 and stats.n_samples == 300
    one = stats.anchor(3)
    assert one.value == stats.values[3] and one.anchor_index == 3


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
    counts = naive_counts(a.embeddings, b.embeddings, 0.25)
    expect_ups = sorted(range(20), key=lambda i: (-counts[i], i))[1:10]
    assert [i for i, _ in res.runner_ups] == expect_ups
    assert all(c == counts[i] for i, c in res.runner_ups)


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

    def counting_scan(anchors, pool, theta, radius):
        shapes.append((len(anchors), len(pool)))
        return real_scan(anchors, pool, theta, radius)

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
