"""Similarity, distance, score, and batched kernels against the oracles."""

import math

import numpy as np
import pytest

from bbgc.embedding import (
    check_radius,
    check_theta,
    cosine_distance,
    mccs,
    mean_similarities,
    neighbor_counts,
    normalize,
    normalize_rows,
    scan,
    similarity,
)
from bbgc.errors import NonFiniteError, ZeroVectorError

from oracles import mp_distance, mp_similarity, naive_distance, naive_similarity


def unit_rows(n, d, seed):
    return normalize_rows(np.random.default_rng(seed).normal(size=(n, d)))


def test_similarity_boundaries_exact():
    for theta in (0.1, 0.3, 1.0):
        assert similarity(0.0, theta) == 1.0
        assert similarity(theta, theta) == 0.0
        assert similarity(1.0, theta) == 0.0
        if theta < 0.8:
            assert similarity(theta + 0.2, theta) == 0.0


def test_similarity_matches_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        theta = float(rng.uniform(0.05, 1.0))
        d = float(rng.uniform(0.0, 1.0))
        got = similarity(d, theta)
        want = float(mp_similarity(d, theta))
        assert abs(got - want) <= 1e-12


def test_distance_matches_closed_form():
    rng = np.random.default_rng(8)
    for _ in range(500):
        a = normalize(rng.normal(size=16))
        b = normalize(rng.normal(size=16))
        assert abs(cosine_distance(a, b) - float(mp_distance(a, b))) <= 1e-12
    v = normalize(rng.normal(size=16))
    assert cosine_distance(v, v) == 0.0
    assert abs(cosine_distance(v, -v) - 1.0) <= 1e-15


def test_mccs_analytic_anchors():
    assert mccs(1.0) == 1.0
    assert mccs(0.0) == 0.0
    assert abs(mccs(math.exp(-1.0)) - 0.5) <= 1e-15


def test_mccs_monotone_in_mean_similarity():
    rng = np.random.default_rng(9)
    s = np.sort(rng.uniform(0, 1, size=1000))
    vals = [mccs(float(x)) for x in s]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_theta_radius_validation():
    check_theta(0.3)
    check_theta(1.0)
    check_radius(0.0)
    check_radius(1.0)
    for bad in (0.0, -0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            check_theta(bad)
    for bad in (-0.01, 1.01, math.nan):
        with pytest.raises(ValueError):
            check_radius(bad)


def test_normalize_rejects_degenerate_input():
    with pytest.raises(ZeroVectorError):
        normalize(np.zeros(4))
    with pytest.raises(NonFiniteError):
        normalize(np.array([1.0, np.nan]))
    with pytest.raises(NonFiniteError):
        normalize_rows(np.array([[1.0, 0.0], [np.inf, 1.0]]))


def test_neighbor_counts_against_naive():
    a = unit_rows(9, 6, 2)
    b = unit_rows(400, 6, 3)
    for radius in (0.0, 0.1, 0.25, 0.5, 1.0):
        got = neighbor_counts(a, b, radius)
        want = [sum(1 for row in b if naive_distance(x, row) <= radius) for x in a]
        assert got.tolist() == want


def test_neighbor_counts_boundary_inclusive():
    # an exact-boundary pair is one whose dot equals cos(pi * r) as computed;
    # building it from that constant keeps the tie on the included side even
    # when cos(pi * r) is not exactly representable
    a = np.array([[1.0, 0.0]])
    for radius in (0.25, 0.5):
        c = math.cos(math.pi * radius)
        edge = [c, math.sqrt(1.0 - c * c)]
        just_out = [math.cos(math.pi * (radius + 0.05)),
                    math.sin(math.pi * (radius + 0.05))]
        b = np.array([edge, [1.0, 0.0], just_out])
        assert neighbor_counts(a, b, radius).tolist() == [2]


def test_mean_similarities_against_naive():
    a = unit_rows(5, 8, 4)
    b = unit_rows(300, 8, 5)
    for theta in (0.1, 0.3, 0.9):
        got = mean_similarities(a, b, theta)
        for i in range(5):
            s = sum(naive_similarity(naive_distance(a[i], row), theta) for row in b)
            assert abs(got[i] - s / len(b)) <= 1e-11


def test_kernels_chunk_invariant(monkeypatch):
    # force multi-chunk execution and several workers; results must not move
    import bbgc.embedding as E
    a = unit_rows(150, 8, 6)
    b = unit_rows(20_000, 8, 7)
    base_counts = neighbor_counts(a, b, 0.25)
    base_sims = mean_similarities(a, b, 0.3)
    monkeypatch.setattr(E, "ANCHOR_CHUNK", 17)
    monkeypatch.setenv("BBGC_THREADS", "8")
    np.testing.assert_array_equal(E.neighbor_counts(a, b, 0.25), base_counts)
    np.testing.assert_array_equal(E.mean_similarities(a, b, 0.3), base_sims)


def row_by_row_mean_similarities(a, b, theta):
    """Reference: each row's surviving terms summed on their own."""
    dots = a @ b.T
    out = np.empty(a.shape[0])
    for i, row in enumerate(dots):
        near = row[row > math.cos(math.pi * theta)]
        d = np.arccos(np.clip(near, -1.0, 1.0)) / math.pi
        out[i] = np.sum(np.expm1(np.maximum(theta - d, 0.0)))
    return out / (math.expm1(theta) * b.shape[0])


def test_scan_matches_both_views_bit_for_bit(monkeypatch):
    # one pass yields exactly what the single-purpose views and a row-by-row
    # reference return, also with chunk boundaries that fall mid-block and
    # rows with more survivors than one pairwise-sum block
    import bbgc.embedding as E
    a = unit_rows(150, 8, 8)
    b = unit_rows(3_000, 8, 9)
    b[:400] = a[:40].repeat(10, axis=0)
    base_counts = neighbor_counts(a, b, 0.25)
    base_sims = mean_similarities(a, b, 0.3)
    assert base_sims.tobytes() == row_by_row_mean_similarities(a, b, 0.3).tobytes()
    monkeypatch.setattr(E, "ANCHOR_CHUNK", 17)
    counts, sims = scan(a, b, 0.3, 0.25)
    assert counts.tobytes() == base_counts.tobytes()
    assert sims.tobytes() == base_sims.tobytes()
    assert counts.dtype == np.int64 and sims.dtype == np.float64
    assert scan(a, b, None, 0.25)[1] is None and scan(a, b, 0.3, None)[0] is None


def test_scan_empty_anchor_set():
    counts, sims = scan(np.empty((0, 4)), unit_rows(5, 4, 10), 0.3, 0.25)
    assert counts.shape == sims.shape == (0,)
    assert counts.dtype == np.int64 and sims.dtype == np.float64
