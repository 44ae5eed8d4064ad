"""Generator sources: synthetic testbed, wire framing, child and HTTP adapters."""

import gc
import http.server
import inspect
import io
import itertools
import json
import struct
import sys
import tempfile
import threading
import time
import tracemalloc

import numpy as np
import pytest

from bbgc import store as store_format
from bbgc.embedding import block_rows
from bbgc.errors import (
    InvalidConfigError,
    MalformedResponseError,
    NonFiniteError,
    SourceTimeoutError,
    SourceUnavailableError,
)
from bbgc.source import (
    _EMBED_ROWS,
    RemoteSource,
    SourceSpec,
    SubprocessSource,
    SyntheticSource,
    _ball_radius2,
    build_synthetic_model,
    generate,
    load_source_spec,
    open_source,
    pack_frame,
    run_worker,
    sample_latents,
    unpack_frame,
)
from bbgc.store import _READ_PIECE, read_frame
from oracles import synthetic_embed

BG = [{"weight": 1.0, "spread": 10.0}]


def synth(latent_dim=8, embed_dim=16, seed=5, background=BG, planted=()):
    return SyntheticSource(build_synthetic_model(
        latent_dim, embed_dim, seed, background=background, planted=planted))


def f32(a):
    return np.asarray(a).astype(np.float32).astype(np.float64)


# -- latent sampling -----------------------------------------------------------

def test_sample_latents_absolute_addressing():
    whole = sample_latents(100, 6, seed=3)
    head = sample_latents(40, 6, seed=3)
    tail = sample_latents(60, 6, seed=3, start=40)
    np.testing.assert_array_equal(np.vstack([head, tail]), whole)


def test_sample_latents_validation():
    with pytest.raises(ValueError):
        sample_latents(0, 4, seed=0)
    with pytest.raises(ValueError):
        sample_latents(4, 0, seed=0)


# -- synthetic model construction ----------------------------------------------

def test_build_validation_errors():
    with pytest.raises(InvalidConfigError):
        build_synthetic_model(0, 8, 0, background=BG)
    with pytest.raises(InvalidConfigError):
        build_synthetic_model(4, 1, 0, background=BG)
    # a derived center is drawn whole: at the record bound's embed_dim, 4 GiB
    with pytest.raises(InvalidConfigError, match=r"embed_dim must be in \[2, 4096\]"):
        build_synthetic_model(1, 4097, 0, background=BG)
    with pytest.raises(InvalidConfigError):
        build_synthetic_model(4, 8, 0, background=[])
    with pytest.raises(InvalidConfigError):
        build_synthetic_model(4, 8, 0, background=[{"weight": -1.0}])
    with pytest.raises(InvalidConfigError):
        build_synthetic_model(4, 8, 0, background=[{"weight": 0.0}])
    with pytest.raises(InvalidConfigError):
        build_synthetic_model(4, 8, 0, background=[{"spread": -0.1}])
    with pytest.raises(InvalidConfigError):
        build_synthetic_model(4, 8, 0, background=BG, planted=[{"mass": 1.5}])
    with pytest.raises(InvalidConfigError):
        build_synthetic_model(4, 8, 0, background=BG,
                              planted=[{"mass": 0.6}, {"mass": 0.6}])
    with pytest.raises(InvalidConfigError):
        build_synthetic_model(4, 8, 0, background=[{"center": [1.0, 0.0]}])
    # chndtrix has no finite quantile this far out; the mode must not get zero mass
    with pytest.raises(InvalidConfigError, match="finite ball radius"):
        build_synthetic_model(8, 16, 1, background=BG,
                              planted=[{"mass": 0.5, "latent_norm": 1e6}])


def test_build_rejects_overlapping_balls():
    # both anchored near the origin with sizeable mass: balls intersect
    with pytest.raises(InvalidConfigError, match="overlap"):
        build_synthetic_model(4, 8, 0, background=BG, planted=[
            {"mass": 0.3, "latent_anchor": [0.0, 0.0, 0.0, 0.0]},
            {"mass": 0.3, "latent_anchor": [0.1, 0.0, 0.0, 0.0]},
        ])


def test_build_derived_geometry_is_deterministic():
    m1 = build_synthetic_model(6, 12, 42, background=[{"weight": 1.0}],
                               planted=[{"mass": 0.1}])
    m2 = build_synthetic_model(6, 12, 42, background=[{"weight": 1.0}],
                               planted=[{"mass": 0.1}])
    np.testing.assert_array_equal(m1.background[0].center, m2.background[0].center)
    np.testing.assert_array_equal(m1.planted[0].latent_anchor, m2.planted[0].latent_anchor)
    assert abs(np.linalg.norm(m1.planted[0].center) - 1.0) < 1e-12
    assert abs(np.linalg.norm(m1.planted[0].latent_anchor) - np.sqrt(6)) < 1e-9


def test_latent_norm_controls_anchor_placement():
    m = build_synthetic_model(6, 12, 42, background=BG,
                              planted=[{"mass": 0.1, "latent_norm": 0.0}])
    assert np.linalg.norm(m.planted[0].latent_anchor) == 0.0
    m2 = build_synthetic_model(6, 12, 42, background=BG,
                               planted=[{"mass": 0.1, "latent_norm": 2.5}])
    assert abs(np.linalg.norm(m2.planted[0].latent_anchor) - 2.5) < 1e-9


# -- synthetic embedding behaviour ----------------------------------------------

def test_planted_ball_mass_matches_quantile():
    # fraction of standard-normal latents landing in the ball ~ Binomial(n, mass)
    mass, n = 0.05, 20_000
    src = synth(planted=[{"mass": mass, "spread": 0.0}])
    lat = sample_latents(n, 8, seed=17)
    emb, _ = src.embed(lat)
    center = src.model.planted[0].center
    hits = int(np.sum(np.all(emb == center, axis=1)))
    sigma = np.sqrt(n * mass * (1 - mass))
    assert abs(hits - n * mass) <= 5 * sigma


def test_ball_radius2_equals_scipy_stats_quantiles():
    # the reference may import scipy.stats; bbgc.source must not (cold start)
    from scipy.stats import chi2, ncx2
    masses = np.concatenate([[1e-12, 1e-6, 0.05, 0.5, 0.95, 1 - 1e-9],
                             np.linspace(0.01, 0.99, 25)])
    for df in (1, 2, 3, 7, 8, 16, 64, 128, 512):
        origin = np.zeros(df)
        got = [_ball_radius2(m, df, origin) for m in masses]
        np.testing.assert_array_equal(got, chi2.ppf(masses, df))
        for scale in (1e-3, 0.3, 2.0, 10.0):
            anchor = np.full(df, scale / np.sqrt(df))
            nc = float(np.dot(anchor, anchor))   # 1e-6 ... 100
            got = [_ball_radius2(m, df, anchor) for m in masses]
            want = ncx2.ppf(masses, df, nc)
            assert np.all(np.isfinite(want))
            np.testing.assert_array_equal(got, want)


def test_ball_radius2_mass_edges():
    for anchor in (np.zeros(4), np.ones(4)):
        assert _ball_radius2(0.0, 4, anchor) == 0.0
        assert _ball_radius2(-0.5, 4, anchor) == 0.0
        assert _ball_radius2(1.0, 4, anchor) == np.inf
        assert _ball_radius2(1.5, 4, anchor) == np.inf


def test_spread_zero_copies_center_exactly():
    src = synth(background=[{"weight": 1.0, "spread": 0.0}])
    lat = sample_latents(50, 8, seed=1)
    emb, refs = src.embed(lat)
    assert refs is None
    np.testing.assert_array_equal(emb, np.broadcast_to(src.model.background[0].center, emb.shape))


def test_embeddings_are_unit_norm():
    src = synth(planted=[{"mass": 0.2, "spread": 0.3}])
    emb, _ = src.embed(sample_latents(500, 8, seed=2))
    np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-12)


def test_embed_is_pure_and_batch_invariant():
    src = synth(planted=[{"mass": 0.1, "spread": 0.2}])
    lat = sample_latents(300, 8, seed=9)
    whole, _ = src.embed(lat)
    parts = np.vstack([src.embed(lat[:113])[0], src.embed(lat[113:])[0]])
    np.testing.assert_array_equal(whole, parts)
    perm = np.random.default_rng(0).permutation(300)
    shuffled, _ = src.embed(lat[perm])
    np.testing.assert_array_equal(shuffled, whole[perm])

    # rows across block boundaries split off any block multiple; planted and
    # background components with and without spread; an infinite ball
    mixed = synth(latent_dim=4,
                  background=[{"weight": 1.0, "spread": 0.0}, {"weight": 2.0, "spread": 0.7}],
                  planted=[{"mass": 0.05, "spread": 0.2, "latent_norm": 5.0},
                           {"mass": 0.1, "spread": 0.0, "latent_norm": 0.0}])
    everywhere = synth(planted=[{"mass": 1.0, "spread": 0.3}])
    n = 2 * _EMBED_ROWS + 5
    for source, cut, labels in [(src, _EMBED_ROWS + 1234, {0, 1}),
                                (mixed, 1234, {0, 1, 2, 3}),
                                (everywhere, 113, {0})]:
        lat = sample_latents(n, source.latent_dim, seed=9)
        assert set(np.unique(source._components(lat))) == labels
        whole, _ = source.embed(lat)
        parts = np.vstack([source.embed(lat[:cut])[0], source.embed(lat[cut:])[0]])
        np.testing.assert_array_equal(whole, parts)
        for i in (0, _EMBED_ROWS - 1, _EMBED_ROWS, n - 1):
            np.testing.assert_array_equal(source.embed(lat[i:i + 1])[0][0], whole[i])
        perm = np.random.default_rng(1).permutation(n)
        np.testing.assert_array_equal(source.embed(lat[perm])[0], whole[perm])


@pytest.mark.parametrize("embed_dim", [2, 3, 32, 128, 129, 4096])
@pytest.mark.parametrize("spread", [0.0, 0.2, 10.0])
def test_embed_matches_the_allocating_formula(embed_dim, spread):
    # the in-place kernel gives the bits of the formula with a fresh array per
    # step, for planted and background rows, across blocks and kernel pieces
    mixed = synth(latent_dim=4, embed_dim=embed_dim,
                  background=[{"weight": 2.0, "spread": spread}, {"weight": 1.0, "spread": 0.2}],
                  planted=[{"mass": 0.05, "spread": spread, "latent_norm": 5.0},
                           {"mass": 0.1, "spread": 10.0, "latent_norm": 0.0}])
    everywhere = synth(latent_dim=4, embed_dim=embed_dim,
                       planted=[{"mass": 1.0, "spread": spread}])
    block = block_rows(_EMBED_ROWS, embed_dim)
    lat = sample_latents(block + 300, 4, seed=9)
    for src, labels in [(mixed, {0, 1, 2, 3}), (everywhere, {0})]:
        assert set(np.unique(src._components(lat))) == labels
        want = synthetic_embed(src.model, src._select_seed, src._noise_seed, lat)
        assert src.embed(lat)[0].tobytes() == want.tobytes()


def test_embed_refuses_a_spread_that_overflows():
    src = synth(background=[{"weight": 1.0, "spread": 1.7e308}])
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="non-finite"):
        src.embed(sample_latents(10, 8, seed=1))


def test_embed_working_memory_is_bounded():
    # blocks of _EMBED_ROWS rows, computed in pieces on two reused 512 KiB
    # arrays: 1.45 MiB beside the output was measured, and 3 MiB leaves about
    # as much again for numpy's allocations to vary
    src = synth(embed_dim=128, planted=[{"mass": 0.01, "spread": 0.0}])
    lat = sample_latents(100_000, 8, seed=1)
    tracemalloc.start()
    try:
        emb, _ = src.embed(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < emb.nbytes + 3 * 2 ** 20, peak


def test_background_mixture_frequencies():
    src = synth(background=[{"weight": 3.0, "spread": 0.0},
                            {"weight": 1.0, "spread": 0.0}])
    n = 8000
    emb, _ = src.embed(sample_latents(n, 8, seed=4))
    c0 = src.model.background[0].center
    hits = int(np.sum(np.all(emb == c0, axis=1)))
    sigma = np.sqrt(n * 0.75 * 0.25)
    assert abs(hits - n * 0.75) <= 5 * sigma


def test_embed_rejects_wrong_latent_dim():
    # the check runs before any child is started or request is sent
    for src in (synth(), SubprocessSource(["/nonexistent-worker-binary"], 8, 16),
                RemoteSource("http://127.0.0.1:9/embed", 8, 16, retries=0)):
        for shape in [(3, 5), (8,), (2, 3, 8)]:
            with pytest.raises(MalformedResponseError, match="latents shape"):
                src.embed(np.zeros(shape))


def test_generate_rejects_non_unit_sources():
    class Bad:
        def embed(self, lat):
            return np.full((len(lat), 4), 0.9), None
    with pytest.raises(MalformedResponseError):
        generate(Bad(), np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_generate_rejects_non_finite_rows(bad):
    class OneBadRow:
        def embed(self, lat):
            emb = np.tile(np.eye(4)[0], (len(lat), 1))
            emb[1, 2] = bad
            return emb, None
    with pytest.raises(MalformedResponseError, match="embedding 1"):
        generate(OneBadRow(), np.zeros((3, 3)))


def test_generate_verdicts_of_float32_rows_are_those_of_their_upcast():
    # rows placed at 1 +- the tolerance: a float32 reply, as the adapters
    # return, passes or fails exactly where its float64 upcast does, wherever
    # the row sits in the norm check's blocks
    from bbgc.source import _UNIT_NORM_TOL

    class Rows:
        def __init__(self, rows):
            self.rows = rows

        def embed(self, lat):
            return self.rows, None

    def verdict(rows):
        try:
            generate(Rows(rows), None)
        except MalformedResponseError as exc:
            return str(exc)
        return "ok"

    rng = np.random.default_rng(13)
    verdicts, float32_norm_differs = [], 0
    for k in range(1500):
        row = rng.normal(size=int(rng.integers(2, 200)))
        row *= (1 + rng.choice([-1, 1]) * _UNIT_NORM_TOL
                * (1 + rng.normal() * 10.0 ** -rng.integers(3, 9))) / np.linalg.norm(row)
        row32 = row.astype(np.float32)
        got = verdict(row32[None, :])
        assert got == verdict(row32[None, :].astype(np.float64)), k
        verdicts.append(got == "ok")
        float32_norm_differs += (abs(np.linalg.norm(row32) - 1.0) <= _UNIT_NORM_TOL) != (got == "ok")
    assert 0 < sum(verdicts) < len(verdicts)
    assert float32_norm_differs > 0   # a float32 norm would change some verdicts
    good = rng.normal(size=(2 * _EMBED_ROWS + 10, 16))
    good /= np.linalg.norm(good, axis=1, keepdims=True)
    for at in (0, _EMBED_ROWS - 1, _EMBED_ROWS, 2 * _EMBED_ROWS + 9):
        rows = good.copy()
        rows[at] *= 1 + 2 * _UNIT_NORM_TOL
        assert verdict(rows.astype(np.float32)) == verdict(rows) \
            == f"source returned embedding {at} with norm 1.000200"
    assert verdict(good.astype(np.float32)) == verdict(good) == "ok"


# -- wire framing ---------------------------------------------------------------

def test_frame_round_trip():
    lat = np.random.default_rng(0).normal(size=(17, 5))
    blob = pack_frame(lat, as_latents=True)
    latent_dim, embed_dim, got_lat, got_emb, refs = unpack_frame(blob)
    assert (latent_dim, embed_dim) == (5, 0)
    np.testing.assert_array_equal(got_lat, f32(lat))
    assert got_emb.shape == (17, 0) and refs is None

    emb = np.random.default_rng(1).normal(size=(4, 9))
    latent_dim, embed_dim, _, got_emb, _ = unpack_frame(pack_frame(emb, as_latents=False))
    assert (latent_dim, embed_dim) == (0, 9)
    np.testing.assert_array_equal(got_emb, f32(emb))


def test_pack_frame_matches_hand_assembled_bytes():
    vectors = np.array([[1.5, -2.0], [0.25, 3.0]])
    rows = struct.pack("<2fI2fI", 1.5, -2.0, 0, 0.25, 3.0, 0)
    assert pack_frame(vectors, as_latents=True) == (
        b"BBGC" + struct.pack("<IIIQQ", 1, 2, 0, 2, 0) + rows)
    assert pack_frame(vectors, as_latents=False) == (
        b"BBGC" + struct.pack("<IIIQQ", 1, 0, 2, 2, 0) + rows)


def test_unpack_frame_rejects_garbage():
    with pytest.raises(MalformedResponseError):
        unpack_frame(b"short")
    with pytest.raises(MalformedResponseError):
        unpack_frame(b"XXXX" + bytes(28))
    good = pack_frame(np.zeros((3, 2)), as_latents=True)
    with pytest.raises(MalformedResponseError, match="truncated"):
        unpack_frame(good[:-5])


def test_unpack_frame_rejects_oversized_count():
    good = pack_frame(np.zeros((3, 2)), as_latents=True)
    head = store_format.HEADER.pack(store_format.MAGIC, store_format.VERSION, 2, 0, 2 ** 40, 0)
    with pytest.raises(MalformedResponseError, match="truncated: 3 of 1099511627776"):
        unpack_frame(head + good[store_format.HEADER.size:])


@pytest.mark.parametrize("count", [0, 1])
def test_unpack_frame_rejects_an_oversized_record(count):
    head = store_format.HEADER.pack(store_format.MAGIC, store_format.VERSION, 2 ** 31, 0, count, 0)
    with pytest.raises(MalformedResponseError, match="exceeds"):
        unpack_frame(head + bytes(64))


# -- worker loop ----------------------------------------------------------------

def test_run_worker_round_trip():
    src = synth(latent_dim=4, embed_dim=6, planted=[{"mass": 0.1, "spread": 0.1}])
    lat1 = sample_latents(20, 4, seed=3)
    lat2 = sample_latents(7, 4, seed=3, start=20)
    stdin = io.BytesIO(pack_frame(lat1, as_latents=True) + pack_frame(lat2, as_latents=True))
    stdout = io.BytesIO()
    run_worker(src, stdin, stdout)
    blob = stdout.getvalue()
    _, _, _, emb1, _ = unpack_frame(blob)
    consumed = len(pack_frame(emb1, as_latents=False))
    _, _, _, emb2, _ = unpack_frame(blob[consumed:])
    np.testing.assert_array_equal(emb1, f32(src.embed(f32(lat1))[0]))
    np.testing.assert_array_equal(emb2, f32(src.embed(f32(lat2))[0]))


def test_run_worker_rejects_dim_mismatch():
    src = synth(latent_dim=4, embed_dim=6)
    stdin = io.BytesIO(pack_frame(np.zeros((2, 3)), as_latents=True))
    with pytest.raises(MalformedResponseError, match="latent_dim"):
        run_worker(src, stdin, io.BytesIO())


class RecordingReader(io.BytesIO):
    """In-memory stdin that remembers every size it was asked to read."""

    def __init__(self, data):
        super().__init__(data)
        self.asked = []

    def readinto(self, view):
        self.asked.append(len(view))
        return super().readinto(view)


def test_run_worker_reads_oversized_request_in_bounded_pieces():
    src = synth(latent_dim=4, embed_dim=6)
    head = store_format.HEADER.pack(store_format.MAGIC, store_format.VERSION, 4, 0, 2 ** 40, 0)
    stdin = RecordingReader(head + b"abc")
    with pytest.raises(SourceUnavailableError, match="truncated request body"):
        run_worker(src, stdin, io.BytesIO())
    assert max(stdin.asked) <= 1 << 20


def test_run_worker_rejects_embeddings_before_reading_them():
    # requests carry latents only; a header that promises embeddings is refused
    # before its body is read
    src = synth(latent_dim=4, embed_dim=6)
    head = store_format.HEADER.pack(store_format.MAGIC, store_format.VERSION, 4, 2 ** 28, 1, 0)
    stdin = RecordingReader(head + bytes(1 << 20))
    with pytest.raises(MalformedResponseError, match="embed_dim"):
        run_worker(src, stdin, io.BytesIO())
    assert stdin.tell() == store_format.HEADER.size


def test_run_worker_answers_requests_with_refs():
    src = synth(latent_dim=4, embed_dim=6)
    lat = sample_latents(5, 4, seed=3)
    refs = [b"", b"x" * 40, b"", b"y", b""]   # 40 bytes outgrow a record's fixed part
    request = (store_format.pack_header(4, 0, 5)
               + store_format.pack_records(lat, np.empty((5, 0)), refs))
    stdout = io.BytesIO()
    run_worker(src, io.BytesIO(request + request), stdout)
    reply = pack_frame(src.embed(f32(lat))[0], as_latents=False)
    assert stdout.getvalue() == reply + reply


# -- frame reader -------------------------------------------------------------------

class PieceReader:
    """A stream that fills at most the next of ``sizes`` bytes per read
    and remembers every size it was asked for."""

    def __init__(self, data, sizes):
        self.data, self.pos, self.asked = data, 0, []
        self.sizes = itertools.cycle(sizes)

    def readinto(self, view):
        self.asked.append(len(view))
        piece = self.data[self.pos:self.pos + min(len(view), next(self.sizes))]
        view[:len(piece)] = piece
        self.pos += len(piece)
        return len(piece)


def ref_frame(seed, n, latent_dim, embed_dim, refs):
    rng = np.random.default_rng(seed)
    return (store_format.pack_header(latent_dim, embed_dim, n)
            + store_format.pack_records(rng.normal(size=(n, latent_dim)),
                                        rng.normal(size=(n, embed_dim)), refs))


def assert_same_frame(got, want):
    assert got[:2] == want[:2]
    np.testing.assert_array_equal(got[2], want[2])
    np.testing.assert_array_equal(got[3], want[3])
    assert got[4] == want[4]


def not_truncated(got):
    return AssertionError(f"stream reported truncated at {got}")


@pytest.mark.parametrize("sizes", [[1], [1, 7, 3, 50, 2, 33]])
def test_read_frame_stops_at_the_frame_end(sizes):
    # records of 3 + 5 floats have a 32-byte fixed part; one ref outgrows it
    frames = [ref_frame(0, 5, 3, 5, [b"", b"a", b"", b"z" * 100, b""]),
              ref_frame(1, 4, 3, 5, [b"", b"", b"bc", b""])]
    reader = PieceReader(b"".join(frames), sizes)
    seen = []
    end = 0
    for blob in frames:
        got = read_frame(reader.readinto, lambda *dims: seen.append((dims, reader.pos)),
                         not_truncated)
        assert_same_frame(got, unpack_frame(blob))
        end += len(blob)
        assert reader.pos == end   # the next frame's bytes are left unread
    # each header is checked before any byte of its body is read
    assert seen == [((3, 5, 5), store_format.HEADER.size),
                    ((3, 5, 4), len(frames[0]) + store_format.HEADER.size)]
    assert read_frame(reader.readinto, lambda *dims: None, not_truncated) is None
    assert max(reader.asked) <= _READ_PIECE


def test_read_frame_reads_a_large_frame_in_bounded_pieces():
    blob = ref_frame(2, 3000, 2, 128, None)   # 1.5 MiB
    reader = PieceReader(blob + b"trailing", [1 << 30])
    assert_same_frame(read_frame(reader.readinto, lambda *dims: None, not_truncated),
                      unpack_frame(blob))
    assert reader.pos == len(blob)
    assert len(reader.asked) > 1 and max(reader.asked) <= _READ_PIECE


@pytest.mark.parametrize("size", [0, 40, 1000, 10 ** 9])
def test_read_frame_of_a_stated_size_reads_the_same_frame(size):
    # a regular file's size sizes the buffer once; refs past it, or bytes a
    # growing file added after its size was taken, still grow it by pieces
    for blob in (ref_frame(0, 5, 3, 5, [b"", b"a", b"", b"z" * 100, b""]),
                 ref_frame(2, 3000, 2, 128, None)):
        for stated in (size, len(blob)):
            reader = PieceReader(blob + b"trailing", [1 << 30])
            got = read_frame(reader.readinto, lambda *dims: None, not_truncated, stated)
            assert_same_frame(got, unpack_frame(blob))
            assert reader.pos == len(blob) and max(reader.asked) <= _READ_PIECE


def test_read_frame_reports_where_a_stream_ends():
    blob = ref_frame(0, 5, 3, 5, [b"", b"a", b"", b"z" * 100, b""])
    cut = {}

    def truncated(got):
        cut["got"] = got
        return SourceUnavailableError("cut")

    for data, got in [(blob[:20], None), (blob[:-60], (3, 5)), (blob[:-1], (4, 5))]:
        with pytest.raises(SourceUnavailableError, match="cut"):
            read_frame(PieceReader(data, [7]).readinto, lambda *dims: None, truncated)
        assert cut.pop("got") == got
    assert read_frame(PieceReader(b"", [7]).readinto, lambda *dims: None, truncated) is None
    assert not cut


def test_run_worker_reports_a_truncated_header():
    with pytest.raises(SourceUnavailableError, match="truncated request header"):
        run_worker(synth(latent_dim=4, embed_dim=6), io.BytesIO(b"BBGC"), io.BytesIO())


# -- subprocess adapter ----------------------------------------------------------

WORKER_CHILD = """
import sys
from bbgc.source import SyntheticSource, build_synthetic_model, run_worker
model = build_synthetic_model(4, 6, 5, background=[{"weight": 1.0, "spread": 10.0}],
                              planted=[{"mass": 0.1, "spread": 0.1}])
run_worker(SyntheticSource(model), sys.stdin.buffer, sys.stdout.buffer)
"""


def test_subprocess_source_round_trip():
    direct = synth(latent_dim=4, embed_dim=6, planted=[{"mass": 0.1, "spread": 0.1}])
    lat = sample_latents(90, 4, seed=8)
    with SubprocessSource([sys.executable, "-c", WORKER_CHILD], 4, 6,
                          batch_size=40) as src:
        emb, refs = src.embed(lat)
    assert refs is None
    # the child sees f32 latents and its reply is f32 on the wire
    np.testing.assert_array_equal(emb, f32(direct.embed(f32(lat))[0]))


def test_subprocess_child_runs_exactly_the_spec_argv(tmp_path):
    # the parent adds no flag of its own: a child whose command line does
    # not parse extra arguments serves as it is
    seen = tmp_path / "argv.json"
    child = f"import json, sys\njson.dump(sys.argv, open({str(seen)!r}, 'w'))\n" + WORKER_CHILD
    argv = [sys.executable, "-c", child, "one", "--two"]
    with open_source(SourceSpec("subprocess", 4, 6, 0, {"argv": argv})) as src:
        emb, _ = src.embed(sample_latents(3, 4, seed=8))
    assert emb.shape == (3, 6)
    assert json.loads(seen.read_text()) == ["-c", "one", "--two"]


def test_subprocess_source_timeout():
    child = "import sys, time\nsys.stdin.buffer.read(32)\ntime.sleep(30)\n"
    with SubprocessSource([sys.executable, "-c", child], 4, 6, timeout=0.5) as src:
        with pytest.raises(SourceTimeoutError):
            src.embed(np.zeros((2, 4)))


def test_subprocess_source_times_out_a_request_the_child_never_reads():
    # 4096 latents of dim 8 are a 147 488-byte frame, more than a pipe holds,
    # so the request's write waits on a child that reads nothing
    child = "import time\ntime.sleep(30)\n"
    with SubprocessSource([sys.executable, "-c", child], 8, 6, timeout=0.5) as src:
        proc = src._child()
        start = time.monotonic()
        with pytest.raises(SourceTimeoutError):
            src.embed(np.zeros((4096, 8)))
        assert time.monotonic() - start < 5.0
        assert proc.poll() is not None


def test_subprocess_source_reports_child_stderr():
    child = ("import sys\n"
             "sys.stderr.write('deliberate child failure\\n')\n"
             "sys.stderr.flush()\n"
             "sys.exit(3)\n")
    with SubprocessSource([sys.executable, "-c", child], 4, 6, timeout=10.0) as src:
        with pytest.raises(SourceUnavailableError, match="deliberate child failure"):
            src.embed(np.zeros((2, 4)))


BAD_VALUE_CHILD = """
import sys
import numpy as np
from bbgc.source import run_worker
class BadValues:
    latent_dim = 4
    def embed(self, lat):
        emb = np.zeros((len(lat), 6))
        emb[:, 0] = {value}
        return emb, None
run_worker(BadValues(), sys.stdin.buffer, sys.stdout.buffer)
"""


@pytest.mark.parametrize("value", ["float('nan')", "0.5"])
def test_subprocess_bad_values_fail_generate(value):
    child = BAD_VALUE_CHILD.format(value=value)
    with SubprocessSource([sys.executable, "-c", child], 4, 6, timeout=30.0) as src:
        emb, _ = src.embed(np.zeros((3, 4)))   # framing is fine ...
        assert emb.shape == (3, 6)
        with pytest.raises(MalformedResponseError):   # ... the values are not
            generate(src, np.zeros((3, 4)))


AXIS_CHILD = """
import sys
import numpy as np
from bbgc.source import run_worker
class Axis:
    latent_dim = 4
    def embed(self, lat):
        return np.tile(np.eye(128)[0], (len(lat), 1)), None
run_worker(Axis(), sys.stdin.buffer, sys.stdout.buffer)
"""


def test_adapter_embed_holds_the_output_and_one_frame():
    lat = np.zeros((40_000, 4))
    with SubprocessSource([sys.executable, "-c", AXIS_CHILD], 4, 128,
                          batch_size=4096, timeout=60.0) as src:
        tracemalloc.start()
        try:
            emb, _ = src.embed(lat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    frame = len(pack_frame(np.zeros((4096, 128), dtype=np.float32), as_latents=False))
    assert emb.dtype == np.float32 and emb.shape == (40_000, 128)
    assert peak < emb.nbytes + frame + 2 ** 20, (peak, emb.nbytes, frame)


def test_subprocess_source_keeps_one_stderr_file(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    child = "import sys\nsys.stderr.write('last words')\nsys.exit(0)\n"
    handles = []
    with SubprocessSource([sys.executable, "-c", child], 4, 6, timeout=10.0) as src:
        for _ in range(3):   # every request respawns the child
            with pytest.raises(SourceUnavailableError, match=r"\(child stderr: last words\)$"):
                src.embed(np.zeros((1, 4)))
            handles.append(src._stderr)
        # the one file, truncated for each child; it has no name
        assert handles[0] is handles[1] is handles[2]
        assert not list(tmp_path.iterdir())
    assert src._stderr is None and handles[0].closed


def test_subprocess_source_dropped_without_close_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    src = SubprocessSource([sys.executable, "-c", "import sys\nsys.exit(0)\n"], 4, 6,
                           timeout=10.0)
    with pytest.raises(SourceUnavailableError):
        src.embed(np.zeros((1, 4)))
    del src
    gc.collect()
    assert not list(tmp_path.iterdir())


def test_subprocess_source_serialises_threads():
    direct = synth(latent_dim=4, embed_dim=6, planted=[{"mass": 0.1, "spread": 0.1}])
    batches = [sample_latents(60, 4, seed=8, start=60 * i) for i in range(4)]
    results = [None] * len(batches)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with SubprocessSource([sys.executable, "-c", WORKER_CHILD], 4, 6,
                              batch_size=7) as src:
            def run(i):
                results[i] = src.embed(batches[i])[0]
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(batches))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for lat, emb in zip(batches, results):
        np.testing.assert_array_equal(emb, f32(direct.embed(f32(lat))[0]))


LYING_HEADER_CHILD = """
import struct, sys, time
sys.stdin.buffer.read(32)
out = sys.stdout.buffer
out.write(b"BBGC" + struct.pack("<IIIQQ", 1, {latent_dim}, 6, {count}, 0))
for _ in range(16):
    out.write(bytes(1 << 20))
    out.flush()
time.sleep(60)
"""


def test_subprocess_source_rejects_lying_reply_header():
    # the header promises 2**40 rows: the parent must stop at it, not read
    # the stream until the deadline
    child_code = LYING_HEADER_CHILD.format(latent_dim=0, count=2 ** 40)
    with SubprocessSource([sys.executable, "-c", child_code], 4, 6,
                          timeout=20.0) as src:
        child = src._child()
        start = time.monotonic()
        with pytest.raises(MalformedResponseError, match="1099511627776 rows"):
            src.embed(np.zeros((2, 4)))
        assert time.monotonic() - start < 10.0
        assert child.poll() is not None


def test_subprocess_source_rejects_reply_latent_dim():
    # right count and embed_dim, but one record of latent_dim 2**28 would
    # be 1 GiB: the parent must stop at the header
    child_code = LYING_HEADER_CHILD.format(latent_dim=2 ** 28, count=2)
    with SubprocessSource([sys.executable, "-c", child_code], 4, 6,
                          timeout=20.0) as src:
        child = src._child()
        start = time.monotonic()
        with pytest.raises(MalformedResponseError, match="latent_dim 268435456"):
            src.embed(np.zeros((2, 4)))
        assert time.monotonic() - start < 10.0
        assert child.poll() is not None


FLAKY_CHILD = """
import os, sys, time
if not os.path.exists({marker!r}):
    open({marker!r}, "w").close()
    sys.stdin.buffer.read(32)
    sys.stdout.buffer.write(b"JUNK" * 8)
    sys.stdout.buffer.flush()
    time.sleep(60)
"""


def test_subprocess_source_respawns_after_malformed_reply(tmp_path):
    # the first child answers garbage and then hangs; only a fresh child
    # can serve the second call
    direct = synth(latent_dim=4, embed_dim=6, planted=[{"mass": 0.1, "spread": 0.1}])
    lat = sample_latents(9, 4, seed=8)
    child = FLAKY_CHILD.format(marker=str(tmp_path / "replied")) + WORKER_CHILD
    with SubprocessSource([sys.executable, "-c", child], 4, 6, timeout=20.0) as src:
        first = src._child()
        with pytest.raises(MalformedResponseError, match="magic"):
            src.embed(lat)
        assert first.poll() is not None
        emb, _ = src.embed(lat)
    np.testing.assert_array_equal(emb, f32(direct.embed(f32(lat))[0]))


REFS_CHILD = """
import itertools, struct, sys, time
import numpy as np
from bbgc import store
from bbgc.source import SyntheticSource, build_synthetic_model, unpack_frame
src = SyntheticSource(build_synthetic_model(
    4, 6, 5, background=[{"weight": 1.0, "spread": 10.0}],
    planted=[{"mass": 0.1, "spread": 0.1}]))
inp, out = sys.stdin.buffer, sys.stdout.buffer
for request in itertools.count():
    head = inp.read(32)
    if not head:
        break
    count = struct.unpack_from("<Q", head, 16)[0]
    _, _, lat, _, _ = unpack_frame(head + inp.read(count * 20))
    emb, _ = src.embed(lat)
    refs = [b"r" * (i * 9) for i in range(count)] if request % 2 == 0 else None
    reply = store.pack_header(0, 6, count) + store.pack_records(np.empty((count, 0)), emb, refs)
    for lo in range(0, len(reply), 7):   # small pieces, short pauses
        out.write(reply[lo:lo + 7])
        out.flush()
        time.sleep(0.001)
"""


def test_subprocess_source_returns_refs_sent_in_pieces():
    direct = synth(latent_dim=4, embed_dim=6, planted=[{"mass": 0.1, "spread": 0.1}])
    lat = sample_latents(12, 4, seed=8)
    with SubprocessSource([sys.executable, "-c", REFS_CHILD], 4, 6,
                          batch_size=5, timeout=20.0) as src:
        emb, refs = src.embed(lat)
    np.testing.assert_array_equal(emb, f32(direct.embed(f32(lat))[0]))
    # the second batch's reply has no refs: its rows read as empty
    assert refs == [b"r" * (i * 9) for i in range(5)] + [b""] * 5 + [b"", b"r" * 9]


def test_subprocess_source_missing_binary():
    with SubprocessSource(["/nonexistent-worker-binary"], 4, 6) as src:
        with pytest.raises(SourceUnavailableError):
            src.embed(np.zeros((1, 4)))


def test_subprocess_source_validation():
    with pytest.raises(InvalidConfigError):
        SubprocessSource([], 4, 6)
    with pytest.raises(InvalidConfigError):
        SubprocessSource(["x"], 0, 6)


# -- remote adapter ---------------------------------------------------------------

class _Endpoint(http.server.BaseHTTPRequestHandler):
    source = None          # class-level: set per test
    failures = ()          # per request before the replies: an HTTP error code,
                           # "hang" to answer nothing until teardown, or "not-http"
    mode = "ok"            # ok | garbage | wrong-dim | short | stall | refs
                           # | huge-length | trailing | trickle
    requests = 0
    release = None         # set at teardown to end a stalled reply

    def log_message(self, *a):
        pass

    def do_POST(self):
        cls = type(self)
        cls.requests += 1
        if cls.requests <= len(cls.failures):
            failure = cls.failures[cls.requests - 1]
            if failure == "hang":
                cls.release.wait(60)
            elif failure == "not-http":
                self.wfile.write(b"garbage\r\n\r\n")
            else:
                self.send_error(failure)
            return
        body = self.rfile.read(int(self.headers["Content-Length"]))
        if cls.mode == "stall":
            # a header claiming 2**40 rows, then nothing; no Content-Length,
            # so the client reads until the connection closes
            self.send_response(200)
            self.end_headers()
            self.wfile.write(store_format.pack_header(0, 6, 2 ** 40))
            self.wfile.flush()
            cls.release.wait(60)
            return
        if cls.mode == "garbage":
            payload = b"not a frame"
        else:
            _, _, lat, _, _ = unpack_frame(body)
            emb, _ = cls.source.embed(lat)
            if cls.mode == "wrong-dim":
                emb = emb[:, :-1]
            if cls.mode == "short":
                emb = emb[:-1]
            payload = pack_frame(emb, as_latents=False)
            if cls.mode == "refs":   # refs on the first reply only
                refs = [b"r" * (i * 9) for i in range(len(emb))] if cls.requests == 1 else None
                payload = (store_format.pack_header(0, 6, len(emb))
                           + store_format.pack_records(np.empty((len(emb), 0)), emb, refs))
        self.send_response(200)
        if cls.mode == "trailing":
            # a valid frame, then junk until the stream stops by itself
            self.end_headers()
            self.wfile.write(payload)
            stop = time.monotonic() + 3.5
            try:
                while time.monotonic() < stop:
                    self.wfile.write(bytes(1 << 16))
                    self.wfile.flush()
                    time.sleep(0.05)
            except OSError:   # the client has hung up
                pass
            return
        length = 2 ** 40 if cls.mode == "huge-length" else len(payload)
        self.send_header("Content-Length", str(length))
        self.end_headers()
        if cls.mode == "trickle":
            # a valid reply, 40 bytes every 0.3 s
            try:
                for lo in range(0, len(payload), 40):
                    self.wfile.write(payload[lo:lo + 40])
                    if cls.release.wait(0.3):
                        return
            except OSError:   # the client has hung up
                pass
            return
        self.wfile.write(payload)


@pytest.fixture
def endpoint():
    _Endpoint.source = synth(latent_dim=4, embed_dim=6, planted=[{"mass": 0.1, "spread": 0.1}])
    _Endpoint.failures = ()
    _Endpoint.mode = "ok"
    _Endpoint.requests = 0
    _Endpoint.release = threading.Event()
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Endpoint)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/embed"
    _Endpoint.release.set()
    server.shutdown()
    thread.join()


def test_remote_source_round_trip(endpoint):
    lat = sample_latents(60, 4, seed=6)
    src = RemoteSource(endpoint, 4, 6, batch_size=25)
    emb, _ = src.embed(lat)
    np.testing.assert_array_equal(emb, f32(_Endpoint.source.embed(f32(lat))[0]))
    assert _Endpoint.requests == 3   # 25 + 25 + 10


def test_remote_source_retries_transient_errors(endpoint):
    _Endpoint.failures = (503, 503)
    src = RemoteSource(endpoint, 4, 6, retries=3, backoff=0.01)
    emb, _ = src.embed(sample_latents(5, 4, seed=6))
    assert emb.shape == (5, 6)
    assert _Endpoint.requests == 3


def test_remote_source_gives_up_after_retries(endpoint):
    _Endpoint.failures = (503,) * 99
    src = RemoteSource(endpoint, 4, 6, retries=2, backoff=0.01)
    with pytest.raises(SourceUnavailableError, match="after 3 attempts"):
        src.embed(sample_latents(5, 4, seed=6))
    assert _Endpoint.requests == 3


@pytest.mark.parametrize("failures, error", [
    (("hang", 503), SourceUnavailableError),
    ((503, "hang"), SourceTimeoutError),
    (("not-http", "not-http"), SourceUnavailableError),
])
def test_remote_source_last_failure_decides(endpoint, failures, error):
    _Endpoint.failures = failures
    src = RemoteSource(endpoint, 4, 6, retries=1, backoff=0.01, timeout=0.2)
    start = time.monotonic()
    with pytest.raises(error, match="after 2 attempts"):
        src.embed(sample_latents(5, 4, seed=6))
    assert time.monotonic() - start < 1.0
    assert _Endpoint.requests == 2


def test_remote_source_client_errors_do_not_retry(endpoint):
    _Endpoint.failures = (404,)
    src = RemoteSource(endpoint, 4, 6, retries=3, backoff=0.01)
    with pytest.raises(SourceUnavailableError, match="HTTP 404"):
        src.embed(sample_latents(5, 4, seed=6))
    assert _Endpoint.requests == 1


def test_remote_source_malformed_reply(endpoint):
    _Endpoint.mode = "garbage"
    src = RemoteSource(endpoint, 4, 6, retries=1, backoff=0.01)
    with pytest.raises(MalformedResponseError):
        src.embed(sample_latents(5, 4, seed=6))


def test_remote_source_wrong_dim_reply(endpoint):
    _Endpoint.mode = "wrong-dim"
    src = RemoteSource(endpoint, 4, 6, retries=1, backoff=0.01)
    with pytest.raises(MalformedResponseError, match="embed_dim"):
        src.embed(sample_latents(5, 4, seed=6))


def test_remote_source_short_reply(endpoint):
    _Endpoint.mode = "short"
    src = RemoteSource(endpoint, 4, 6, retries=1, backoff=0.01)
    with pytest.raises(MalformedResponseError, match="4 rows"):
        src.embed(sample_latents(5, 4, seed=6))


def test_remote_source_rejects_lying_reply_header(endpoint):
    # the header promises 2**40 rows: the source must stop at it, not wait
    # for a body that never comes
    _Endpoint.mode = "stall"
    src = RemoteSource(endpoint, 4, 6, retries=2, backoff=0.01, timeout=10.0)
    start = time.monotonic()
    with pytest.raises(MalformedResponseError, match="1099511627776 rows"):
        src.embed(sample_latents(5, 4, seed=6))
    assert time.monotonic() - start < 5.0
    assert _Endpoint.requests == 1


@pytest.mark.parametrize("mode", ["huge-length", "trailing"])
def test_remote_source_reads_only_the_reply_frame(endpoint, mode):
    # a Content-Length of 2**40, or junk after the frame: either way the
    # source reads the frame and stops
    _Endpoint.mode = mode
    lat = sample_latents(8, 4, seed=6)
    src = RemoteSource(endpoint, 4, 6, retries=0, timeout=10.0)
    start = time.monotonic()
    emb, refs = src.embed(lat)
    assert time.monotonic() - start < 1.0
    np.testing.assert_array_equal(emb, f32(_Endpoint.source.embed(f32(lat))[0]))
    assert refs is None


def test_remote_source_returns_refs(endpoint):
    _Endpoint.mode = "refs"
    lat = sample_latents(7, 4, seed=6)
    src = RemoteSource(endpoint, 4, 6, batch_size=4)
    emb, refs = src.embed(lat)
    np.testing.assert_array_equal(emb, f32(_Endpoint.source.embed(f32(lat))[0]))
    # the second reply has no refs: its rows read as empty
    assert refs == [b"r" * (i * 9) for i in range(4)] + [b""] * 3
    assert _Endpoint.requests == 2


def test_remote_source_times_out_a_trickling_reply(endpoint):
    # each socket read gets its 40 bytes well within the timeout; the whole
    # 1 824-byte reply would take 14 s
    _Endpoint.mode = "trickle"
    src = RemoteSource(endpoint, 4, 6, retries=0, timeout=0.5)
    start = time.monotonic()
    with pytest.raises(SourceTimeoutError, match="after 1 attempts"):
        src.embed(sample_latents(64, 4, seed=6))
    assert time.monotonic() - start < 3.0


@pytest.mark.parametrize("kind, parameters", [
    ("subprocess", {"argv": ["worker"]}),
    ("remote", {"url": "http://x"}),
])
def test_open_source_keeps_the_constructor_defaults(kind, parameters):
    # a spec that states no adapter key gets the constructor's defaults; each
    # stated key reaches the source
    cls = {"subprocess": SubprocessSource, "remote": RemoteSource}[kind]
    defaults = {name: p.default for name, p in inspect.signature(cls).parameters.items()
                if p.default is not inspect.Parameter.empty}
    with open_source(SourceSpec(kind, 4, 6, 0, parameters)) as src:
        assert {name: getattr(src, name) for name in defaults} == defaults
    stated = {"batch": 7, "timeout": 2.5, "retries": 1, "backoff": 0.5}
    keys = ["batch", "timeout"] + (["retries", "backoff"] if kind == "remote" else [])
    with open_source(SourceSpec(kind, 4, 6, 0, dict(parameters, **stated))) as src:
        assert [getattr(src, "batch_size" if k == "batch" else k) for k in keys] == \
            [stated[k] for k in keys]


def test_open_source_ignores_connections():
    spec = SourceSpec("subprocess", 4, 6, 0, {"argv": ["worker"], "connections": 1})
    with open_source(spec) as src:
        assert isinstance(src, SubprocessSource)


def test_remote_source_validation():
    with pytest.raises(InvalidConfigError):
        RemoteSource("ftp://x", 4, 6)
    with pytest.raises(InvalidConfigError):
        RemoteSource("http://x", 0, 6)
    # the defaults, and attempt timeouts plus retry sleeps summing to under a day
    RemoteSource("http://x", 4, 6)
    RemoteSource("http://x", 4, 6, timeout=86400.0, retries=0)
    RemoteSource("http://x", 4, 6, timeout=1200.0, retries=16, backoff=1.0)
    RemoteSource("http://x", 4, 6, timeout=1e-3, retries=86_000_000, backoff=0.0)


@pytest.mark.parametrize("kind, parameters", [
    ("subprocess", {"argv": ["worker"], "batch": 0}),
    ("subprocess", {"argv": ["worker"], "batch": -5}),
    ("subprocess", {"argv": ["worker"], "timeout": 0}),
    ("subprocess", {"argv": "python3 -m bbgc worker"}),
    ("subprocess", {"argv": ["worker", 5]}),
    ("remote", {"url": "http://x", "retries": -1}),
    ("remote", {"url": "http://x", "backoff": -0.5}),
    ("remote", {"url": "http://x", "timeout": -1}),
    ("remote", {"url": "http://x", "batch": [256]}),
    # a wait past one day: the timeout, or the attempts' timeouts plus the retry
    # sleeps, (retries + 1) * timeout + backoff * (2**retries - 1)
    ("subprocess", {"argv": ["worker"], "timeout": 1e300}),
    ("remote", {"url": "http://x", "timeout": 86400.5}),
    ("remote", {"url": "http://x", "retries": 17, "backoff": 1.0}),
    ("remote", {"url": "http://x", "retries": 10 ** 9}),
    ("remote", {"url": "http://x", "timeout": 86400.0, "retries": 16, "backoff": 1.0}),
    ("remote", {"url": "http://x", "timeout": 1e-3, "retries": 86_400_000, "backoff": 0.0}),
    ("remote", {"url": "http://x", "retries": 10 ** 9, "backoff": 0.0}),
    ("remote", {"url": "http://x", "retries": 10 ** 400, "backoff": 0.0}),
])
def test_open_source_rejects_out_of_range_parameters(kind, parameters):
    with pytest.raises(InvalidConfigError):
        open_source(SourceSpec(kind, 4, 6, 0, parameters))


# -- source specs ------------------------------------------------------------------

def test_load_source_spec(tmp_path):
    path = tmp_path / "src.json"
    path.write_text(json.dumps({
        "kind": "synthetic", "latent_dim": 8, "embed_dim": 16, "seed": 7,
        "parameters": {"background": [{"weight": 1.0, "spread": 10.0}]},
    }))
    spec = load_source_spec(str(path))
    assert spec == SourceSpec("synthetic", 8, 16, 7,
                              {"background": [{"weight": 1.0, "spread": 10.0}]})
    src = open_source(spec)
    assert src.latent_dim == 8 and src.embed_dim == 16


def test_load_source_spec_errors(tmp_path):
    cases = [
        {"kind": "synthetic", "latent_dim": 8},                        # no embed_dim
        {"kind": "mystery", "latent_dim": 8, "embed_dim": 16},
        {"kind": "synthetic", "latent_dim": 0, "embed_dim": 16},
        {"kind": "synthetic", "latent_dim": 8, "embed_dim": 1},
        {"kind": "synthetic", "latent_dim": 8, "embed_dim": 16, "seed": -1},
        # int() would truncate or convert these
        {"kind": "synthetic", "latent_dim": 2.7, "embed_dim": 16},
        {"kind": "synthetic", "latent_dim": 8, "embed_dim": 16.0},
        {"kind": "synthetic", "latent_dim": 8, "embed_dim": 16, "seed": 1.5},
        {"kind": "synthetic", "latent_dim": True, "embed_dim": 16},
        {"kind": "synthetic", "latent_dim": "8", "embed_dim": 16},
    ]
    for i, doc in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidConfigError):
            load_source_spec(str(path))


def test_load_source_spec_takes_dims_up_to_the_record_bound(tmp_path):
    # the store a sample would write must read back: a 4 * (latent_dim +
    # embed_dim + 1) byte record stays below 2**31.  Loading a spec opens no source.
    top = (2 ** 31 - 1) // 4 - 2
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"kind": "synthetic", "latent_dim": 1, "embed_dim": top}))
    assert load_source_spec(str(path)).embed_dim == top
    path.write_text(json.dumps({"kind": "synthetic", "latent_dim": 1, "embed_dim": top + 1}))
    with pytest.raises(InvalidConfigError, match="exceeds"):
        load_source_spec(str(path))


def test_open_source_remote_needs_url():
    spec = SourceSpec("remote", 4, 8, 0, {})
    with pytest.raises(InvalidConfigError):
        open_source(spec)
