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
from bbgc.errors import DimensionMismatchError, NonFiniteError, ZeroVectorError

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


OUT_OF_RANGE = (math.nan, math.inf, -math.inf, -0.1, 1.1)
NON_FINITE = (math.nan, math.inf, -math.inf)
E4 = np.eye(4)


def poisoned(bad):
    v = E4[0].copy()
    v[2] = bad
    return v


@pytest.mark.parametrize("fn, args, error", [
    *[(similarity, (bad, 0.5), ValueError) for bad in OUT_OF_RANGE],
    *[(similarity, (np.array([0.0, 0.5, bad, 1.0]), 0.5), ValueError) for bad in OUT_OF_RANGE],
    *[(cosine_distance, (poisoned(bad), E4[1]), NonFiniteError) for bad in NON_FINITE],
    *[(cosine_distance, (E4[1], poisoned(bad)), NonFiniteError) for bad in NON_FINITE],
    (cosine_distance, (E4[0], np.eye(5)[0]), DimensionMismatchError),
    (cosine_distance, (E4[:2], E4[:2]), DimensionMismatchError),
    (cosine_distance, (E4[0], E4[:1]), DimensionMismatchError),
])
def test_distance_and_similarity_reject_invalid_input(fn, args, error):
    with pytest.raises(error):
        fn(*args)


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
    # force multi-chunk execution; results must not move
    import bbgc.embedding as E
    a = unit_rows(150, 8, 6)
    b = unit_rows(20_000, 8, 7)
    base_counts = neighbor_counts(a, b, 0.25)
    base_sims = mean_similarities(a, b, 0.3)
    monkeypatch.setattr(E, "TILE_ROWS", 17)
    np.testing.assert_array_equal(E.neighbor_counts(a, b, 0.25), base_counts)
    np.testing.assert_array_equal(E.mean_similarities(a, b, 0.3), base_sims)


def pair_dots(x, b):
    """Reference float64 dots of one anchor with every pool row: one einsum
    over the pairs gathered as (anchor row, pool row)."""
    return np.einsum("ij,ij->i", np.repeat(x[None], b.shape[0], axis=0), b)


def row_by_row_mean_similarities(a, b, theta):
    """Reference: each row's surviving terms, from per-pair float64 einsum
    dots, summed on their own in column order."""
    out = np.empty(a.shape[0])
    for i, x in enumerate(a):
        row = pair_dots(x, b)
        near = row[row > math.cos(math.pi * theta)]
        d = np.arccos(np.clip(near, -1.0, 1.0)) / math.pi
        out[i] = np.sum(np.expm1(np.maximum(theta - d, 0.0)))
    return out / (math.expm1(theta) * b.shape[0])


def dense_rows():
    # rows with more survivors than one pairwise-sum block, and than one tile
    a = unit_rows(150, 8, 8)
    b = unit_rows(3_000, 8, 9)
    b[:400] = a[:40].repeat(10, axis=0)
    return a, b


def test_scan_matches_both_views_bit_for_bit():
    # one pass yields exactly what the single-purpose views and a per-pair
    # reference return
    a, b = dense_rows()
    base_counts = neighbor_counts(a, b, 0.25)
    base_sims = mean_similarities(a, b, 0.3)
    want_counts = [int(np.sum(pair_dots(x, b) >= math.cos(math.pi * 0.25))) for x in a]
    assert base_counts.tolist() == want_counts
    assert base_sims.tobytes() == row_by_row_mean_similarities(a, b, 0.3).tobytes()
    counts, sims = scan(a, b, 0.3, 0.25)
    assert counts.tobytes() == base_counts.tobytes()
    assert sims.tobytes() == base_sims.tobytes()
    assert counts.dtype == np.int64 and sims.dtype == np.float64
    assert scan(a, b, None, 0.25)[1] is None and scan(a, b, 0.3, None)[0] is None


@pytest.mark.parametrize("rows,cols", [(17, 1000), (5, 33), (1, 4096)])
def test_scan_bits_do_not_depend_on_tile_sizes(monkeypatch, rows, cols):
    # tiles and screen blocks change which pairs share a GEMM and a float64
    # einsum, never the bits; a screen block of 1 or 7 pool rows also puts
    # a row's terms in many GEMMs of its chunk
    import bbgc.embedding as E
    a, b = dense_rows()
    base = [scan(a, b, theta, 0.25, near=True) for theta in (0.3, 0.05)]
    monkeypatch.setattr(E, "TILE_ROWS", rows)
    monkeypatch.setattr(E, "TILE_COLS", cols)
    for width in (None, 1, 7):
        if width is not None:
            monkeypatch.setattr(E, "SCREEN_BYTES", 4 * width * max(rows, a.shape[1]))
            assert E._screen_shape(len(a), a.shape[1], len(b))[1] == width
        for theta, want in zip((0.3, 0.05), base):
            got = scan(a, b, theta, 0.25, near=True)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            for r in (0, 39, 149):
                assert [g.tobytes() for g in got.near(r)] == [w.tobytes() for w in want.near(r)]


def test_scan_keeps_pairs_whose_float32_dot_misses_the_cutoff():
    # Each pair's float64 dot lies just above its cutoff, while the float32
    # dot of the casts falls more than one float32 step below it: every
    # component casts down by almost half an ulp, and the float32 products
    # and sums are exact in any order, so no BLAS can round them back up.
    u = 2.0 ** -24
    up = 1 + 0.4999 * 2.0 ** -23   # casts to float32 1.0
    a, b = np.zeros((2, 46)), np.zeros((3, 46))
    a[0, :31], b[0, :31] = up, 2.0 ** -5 * up   # float32 dot 31/32
    a[1, 31:], b[1, 31:] = up, 2.0 ** -4 * up   # float32 dot 15/16
    b[2, :31] = 2.0 ** -5 * (1 - 2.0 ** -20)    # float64 dot just below 31/32
    radius = math.acos(31 / 32 + 1.7 * u) / math.pi
    theta = math.acos(15 / 16 + 1.7 * u) / math.pi
    cos_r, cos_t = math.cos(math.pi * radius), math.cos(math.pi * theta)
    for q, cutoff in ((31 / 32, cos_r), (15 / 16, cos_t)):
        assert np.float32(q) < np.nextafter(np.float32(cutoff), np.float32(-np.inf))
    assert pair_dots(a[0], b)[0] >= cos_r and pair_dots(a[1], b)[1] > cos_t
    counts, sims = scan(a, b, theta, radius)
    assert counts.tolist() == [int(np.sum(pair_dots(x, b) >= cos_r)) for x in a] == [1, 0]
    assert sims.tobytes() == row_by_row_mean_similarities(a, b, theta).tobytes()
    assert sims[1] > 0.0


def test_scan_screens_nothing_out_where_a_float32_dot_overflows():
    # rows of norm 1e39 are finite in float64 but inf as float32, so their
    # float32 dots are inf or NaN: no margin holds, and every pair goes to
    # its float64 dot
    a, b = dense_rows()
    big = a[:20] * 1e39
    cos_r = math.cos(math.pi * 0.25)
    with np.errstate(over="ignore", invalid="ignore"):
        counts = neighbor_counts(big, b, 0.25)
    assert counts.tolist() == [int(np.sum(pair_dots(x, b) >= cos_r)) for x in big]


def test_scan_memory_stays_bounded():
    # the scan holds float32 casts, one fixed tile and the surviving terms,
    # never an anchor-chunk x pool float64 block
    import tracemalloc
    a = unit_rows(64, 8, 11)
    for n in (100_000, 400_000):
        b = unit_rows(n, 8, 12)
        tracemalloc.start()
        try:
            scan(a, b, 0.3, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < b.nbytes / 2 + 32 * 2 ** 20, (n, peak)


@pytest.mark.parametrize("fed", ["array", "blocks"])
def test_scan_screens_in_blocks_of_one_mib(fed):
    # the GEMM output of a screen block, its mask and the kept pairs are the
    # scan's own buffers: 1.5 to 1.9 MiB here, 10.6 MiB with a float32
    # output of 256 anchors x 8192 pool rows and its mask
    import tracemalloc
    a = unit_rows(1000, 128, 14).astype(np.float32)
    b = unit_rows(16_384, 128, 15).astype(np.float32)
    tracemalloc.start()
    try:
        scan(a, b if fed == "array" else blocks_of(b, 8192, norms=True), 0.3, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 ** 20, peak / 2 ** 20


def test_scan_memory_does_not_grow_with_a_float64_pool():
    # a float64 pool is cast to float32 one tile at a time, and each tile
    # bounds its own rows' norms: no pool-sized copy or vector is made
    import tracemalloc
    a = unit_rows(64, 8, 11)
    peaks = []
    for n in (100_000, 400_000):
        b = unit_rows(n, 8, 12)
        tracemalloc.start()
        try:
            scan(a, b, 0.02, 0.25)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 2 ** 20, peaks


def test_scan_bits_do_not_depend_on_block_budgets(monkeypatch):
    # one pair per float64 einsum and one row per row_dots copy
    import bbgc.embedding as E
    a, b = dense_rows()
    base = [scan(a, b, theta, 0.25) for theta in (0.3, 0.05)]
    monkeypatch.setattr(E, "PIECE_BYTES", 16 * a.shape[1])
    monkeypatch.setattr(E, "BLOCK_BYTES", 8 * a.shape[1])
    assert E.block_rows(10, 2 * a.shape[1], piece=True) == E.block_rows(10, a.shape[1]) == 1
    for theta, (counts, sims) in zip((0.3, 0.05), base):
        got_counts, got_sims = scan(a, b, theta, 0.25)
        assert got_counts.tobytes() == counts.tobytes()
        assert got_sims.tobytes() == sims.tobytes()


def test_near_terms_cuts_at_the_checked_theta():
    # cos(pi * theta) of a float32 theta rounds the product to float32 and
    # cuts at 0.58778518..., below the float64 cutoff 0.58778522...
    from bbgc.embedding import near_terms
    dots = np.array([0.5877852, 0.9, 1.0, -1.0])
    for theta in (np.float32(0.3), float(np.float32(0.3))):
        near, terms = near_terms(dots, theta)
        assert near.tolist() == [False, True, True, False]
        t = float(theta)
        assert terms.tolist() == [np.expm1(t - np.arccos(0.9) / math.pi), np.expm1(t)]
    with pytest.raises(ValueError):
        near_terms(dots, 0.0)


def test_row_dots_of_a_wide_matrix_copy_one_block():
    # 4096 is the widest synthetic embedding: float64 copies of 8192 rows
    # of it would be 256 MiB, and of 2048 rows twice the float32 input
    import tracemalloc
    from bbgc.embedding import row_dots
    from bbgc.source import non_unit_row
    m = np.full((2048, 4096), 1 / 64, dtype=np.float32)   # unit rows
    for f in (row_dots, non_unit_row, lambda x: row_dots(x, np.ones(4096))):
        tracemalloc.start()
        try:
            f(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 33 * 2 ** 20, peak
    assert non_unit_row(m) is None and row_dots(m).tobytes() == np.ones(2048).tobytes()


def blocks_of(rows, k, norms=False):
    """``rows`` as an iterator of (block of ``k`` rows, its squared norms if
    ``norms``, else None) pairs."""
    from bbgc.embedding import row_dots
    return ((b, row_dots(b) if norms else None)
            for b in (rows[i:i + k] for i in range(0, len(rows), k)))


@pytest.mark.parametrize("k,read", [(1, True), (7, False), (7, True), (8193, False), (8193, True)])
def test_scan_of_a_pool_in_blocks_equals_the_scan_of_one_block(k, read):
    # blocks set tiles and screens only: each row's terms still meet in
    # column order, whatever the block sizes and whoever took the norms;
    # ``read`` feeds float32 blocks with their norms, as a store stream does
    a, b = dense_rows()
    b = np.vstack([b, unit_rows(6_000, 8, 13)])   # 9000 rows: two tiles, and 8193 + 807
    pool = b.astype(np.float32) if read else b
    want = scan(a, pool, 0.3, 0.25, near=True)
    got = scan(a, blocks_of(pool, k, norms=read), 0.3, 0.25, near=True)
    assert [w.tobytes() for w in want] == [g.tobytes() for g in got]
    for r in (0, 39, 149):
        assert [w.tobytes() for w in want.near(r)] == [g.tobytes() for g in got.near(r)]


def test_scan_keeps_each_rows_near_columns_with_their_row_dots_terms():
    # the terms near() returns are those of row_dots, the formulation that
    # the mccs_single curve took before the scan kept them
    from bbgc.embedding import near_terms, row_dots
    a, b = dense_rows()
    for pool in (b, b.astype(np.float32)):
        result = scan(a, pool, 0.3, None, near=True)
        for r, x in enumerate(a):
            near, terms = near_terms(row_dots(pool, x), 0.3)
            cols, got = result.near(r)
            assert cols.tolist() == np.flatnonzero(near).tolist()
            assert got.tobytes() == terms.tobytes()


def test_scan_empty_anchor_set():
    counts, sims = scan(np.empty((0, 4)), unit_rows(5, 4, 10), 0.3, 0.25)
    assert counts.shape == sims.shape == (0,)
    assert counts.dtype == np.int64 and sims.dtype == np.float64


def float32_pools(tmp_path):
    """(float32 anchors, float32 pool) pairs over the dense rows: contiguous
    casts, the strided views read_store returns, and the views of a pool
    store whose refs sit between its records."""
    from bbgc.store import read_store, write_store
    a, b = dense_rows()
    out = [(a.astype(np.float32), b.astype(np.float32))]
    for name, refs in (("plain", None), ("refs", [b"r" * (i % 3) for i in range(len(b))])):
        write_store(tmp_path / f"a-{name}", np.zeros((len(a), 2)), a, seed=0)
        write_store(tmp_path / f"b-{name}", np.zeros((len(b), 2)), b, seed=0, refs=refs)
        anchors, pool = (read_store(tmp_path / f"{k}-{name}").embeddings for k in "ab")
        assert pool.dtype == np.float32 and not pool.flags.writeable
        assert not pool.flags.c_contiguous   # the embedding field of each record
        out.append((anchors, pool))
    return out


@pytest.mark.parametrize("rows,cols", [(256, 8192), (17, 1000), (5, 700)])
def test_scan_of_float32_rows_equals_scan_of_their_upcast(tmp_path, monkeypatch, rows, cols):
    import bbgc.embedding as E
    monkeypatch.setattr(E, "TILE_ROWS", rows)
    monkeypatch.setattr(E, "TILE_COLS", cols)
    pools = float32_pools(tmp_path)
    # every pair holds the same values, so one float64 upcast gives the
    # reference; a float64 operand is cast one anchor chunk or pool tile at a
    # time, and at the smaller tile sizes both operands span several
    a64, b64 = (x.astype(np.float64) for x in pools[0])
    for theta, radius in ((0.3, 0.25), (0.05, 0.02), (None, 0.5), (0.5, None)):
        want = scan(a64, b64, theta, radius)
        for a32, b32 in [*pools, (pools[0][0], b64)]:
            for anchors in (a32, a64):
                got = scan(anchors, b32, theta, radius)
                for w, g in zip(want, got):
                    assert (w is None and g is None) or w.tobytes() == g.tobytes()
