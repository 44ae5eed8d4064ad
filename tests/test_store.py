"""Store file round trips, truncation, tables, and the JSON emitter."""

import base64
import csv
import io
import json
import math
import struct

import numpy as np
import pytest

from bbgc.errors import (
    BadMagicError,
    DimensionMismatchError,
    InvalidConfigError,
    NonFiniteError,
    StoreFormatError,
    TruncatedStoreError,
    VersionMismatchError,
)
from bbgc.jsonutil import decode_matrix, dumps, encode_matrix, format_float
from bbgc.store import (
    HEADER,
    MAGIC,
    REF_LEN,
    VERSION,
    SampleStore,
    StoreWriter,
    export_table,
    frame_blocks,
    hash_rows,
    latents_disjoint,
    pack_header,
    pack_records,
    read_frame,
    read_store,
    stream_store,
    write_store,
)


def make_data(n, latent_dim, embed_dim, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, latent_dim)), rng.normal(size=(n, embed_dim))


class Stream:
    """``data`` as a stream whose reads each stop at the next of ``ends``
    (byte offsets), so that a reader resumes there."""

    def __init__(self, data, ends=()):
        self.data, self.pos, self.ends = data, 0, sorted(ends)

    def readinto(self, view):
        stop = min([e for e in self.ends if e > self.pos] + [len(self.data)])
        piece = self.data[self.pos:min(stop, self.pos + len(view))]
        view[:len(piece)] = piece
        self.pos += len(piece)
        return len(piece)


class Cut(Exception):
    pass


def read_body(body, latent_dim, embed_dim, count, ends=()):
    """(latents, embeddings, refs, bytes read) of ``body`` behind a header
    counting ``count`` records, read through :func:`read_frame` with reads
    that stop at each of ``ends`` (offsets into ``body``); a body cut short
    raises ``Cut((records, count))``."""
    stream = Stream(pack_header(latent_dim, embed_dim, count) + bytes(body),
                    [HEADER.size + e for e in ends])
    frame = read_frame(stream.readinto, lambda *dims: None, Cut)
    return frame[2], frame[3], frame[4], stream.pos - HEADER.size


def test_round_trip_quantizes_to_f32(tmp_path):
    path = tmp_path / "a.bbgc"
    lat, emb = make_data(40, 6, 10)
    write_store(path, lat, emb, seed=99)
    st = read_store(path)
    assert st.count == 40
    assert st.latent_dim == 6 and st.embed_dim == 10
    assert st.seed == 99
    assert st.refs is None and st.ref(3) == b""
    np.testing.assert_array_equal(st.latents, lat.astype(np.float32).astype(np.float64))
    np.testing.assert_array_equal(st.embeddings, emb.astype(np.float32).astype(np.float64))
    assert st.latents.dtype == np.float64


def test_refs_round_trip(tmp_path):
    path = tmp_path / "r.bbgc"
    lat, emb = make_data(5, 3, 4)
    refs = [b"", b"alpha", bytes(range(256)), b"x" * 1000, b"end"]
    write_store(path, lat, emb, seed=1, refs=refs)
    st = read_store(path)
    assert [st.ref(i) for i in range(5)] == refs


def test_all_empty_refs_collapse_to_none(tmp_path):
    path = tmp_path / "e.bbgc"
    lat, emb = make_data(4, 3, 3)
    write_store(path, lat, emb, seed=0, refs=[b""] * 4)
    assert read_store(path).refs is None


def test_ref_and_fast_paths_agree(tmp_path):
    lat, emb = make_data(64, 4, 4, seed=3)
    p1, p2 = tmp_path / "fast.bbgc", tmp_path / "slow.bbgc"
    write_store(p1, lat, emb, seed=7)
    write_store(p2, lat, emb, seed=7, refs=[b""] * 64)
    assert p1.read_bytes() == p2.read_bytes()


def test_streaming_appends_accumulate(tmp_path):
    path = tmp_path / "s.bbgc"
    lat, emb = make_data(30, 5, 6, seed=4)
    with StoreWriter(path, 5, 6, seed=11) as w:
        for i in range(0, 30, 7):
            w.append(lat[i:i + 7], emb[i:i + 7])
        assert w.count == 30
    st = read_store(path)
    np.testing.assert_array_equal(st.latents, lat.astype(np.float32))


def test_close_is_atomic_replace(tmp_path):
    path = tmp_path / "a.bbgc"
    lat, emb = make_data(3, 2, 2)
    write_store(path, lat, emb, seed=1)
    old = path.read_bytes()
    w = StoreWriter(path, 2, 2, seed=2)
    w.append(lat, emb)
    # before close the visible file is still the old one
    assert path.read_bytes() == old
    assert (tmp_path / "a.bbgc.tmp").exists()
    w.close()
    assert not (tmp_path / "a.bbgc.tmp").exists()
    assert read_store(path).seed == 2


def test_abort_keeps_previous_file(tmp_path):
    path = tmp_path / "b.bbgc"
    lat, emb = make_data(3, 2, 2)
    write_store(path, lat, emb, seed=5)
    with pytest.raises(RuntimeError):
        with StoreWriter(path, 2, 2, seed=6) as w:
            w.append(lat, emb)
            raise RuntimeError("boom")
    assert not (tmp_path / "b.bbgc.tmp").exists()
    assert read_store(path).seed == 5


def test_writer_validation(tmp_path):
    path = tmp_path / "v.bbgc"
    with pytest.raises(ValueError):
        StoreWriter(path, 0, 4, seed=0)
    # the record bound read_store applies; each writer stages a header, no record
    top = (2 ** 31 - 1) // 4 - 2
    with pytest.raises(StoreFormatError, match="exceeds"):
        StoreWriter(path, 1, top + 1, seed=0)
    StoreWriter(path, 1, top, seed=0).close()
    st = read_store(path)
    assert (st.latent_dim, st.embed_dim, st.count, st.seed) == (1, top, 0, 0)
    lat, emb = make_data(4, 3, 5)
    with StoreWriter(path, 3, 5, seed=0) as w:
        with pytest.raises(DimensionMismatchError):
            w.append(lat[:, :2], emb)
        with pytest.raises(DimensionMismatchError):
            w.append(lat, emb[:3])
        with pytest.raises(DimensionMismatchError):
            w.append(lat, emb, refs=[b""])
        bad = lat.copy()
        bad[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            w.append(bad, emb)
        w.append(lat, emb)
    assert read_store(path).count == 4


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "m.bbgc"
    lat, emb = make_data(2, 2, 2)
    write_store(path, lat, emb, seed=0)
    blob = bytearray(path.read_bytes())
    corrupt = tmp_path / "bad.bbgc"

    blob2 = blob.copy()
    blob2[:4] = b"NOPE"
    corrupt.write_bytes(blob2)
    with pytest.raises(BadMagicError):
        read_store(corrupt)

    blob3 = blob.copy()
    blob3[4:8] = struct.pack("<I", 9)
    corrupt.write_bytes(blob3)
    with pytest.raises(VersionMismatchError):
        read_store(corrupt)

    corrupt.write_bytes(b"BB")
    with pytest.raises(TruncatedStoreError):
        read_store(corrupt)


@pytest.mark.parametrize("dims", [(0, 3), (3, 0), (0, 0)])
def test_header_with_a_zero_dim_is_a_format_error(tmp_path, dims):
    # a 0 dim is a wire frame's; a store's records carry both vectors
    path = tmp_path / "frame.bbgc"
    path.write_bytes(pack_header(*dims, 0))
    with pytest.raises(StoreFormatError, match=f"store dims {dims[0]}x{dims[1]}"):
        read_store(path)


def test_truncation_is_strict(tmp_path):
    path = tmp_path / "t.bbgc"
    lat, emb = make_data(10, 3, 3, seed=8)
    write_store(path, lat, emb, seed=0)
    blob = path.read_bytes()
    record = 4 * 3 + 4 * 3 + 4
    cut = tmp_path / "cut.bbgc"
    # drop the last record and a half
    cut.write_bytes(blob[:HEADER.size + record * 8 + record // 2])
    with pytest.raises(TruncatedStoreError, match="promises 10 records, only 8 complete"):
        read_store(cut)


def test_oversized_count_is_truncation_not_allocation(tmp_path):
    # a header may claim far more records than the file holds; parsing must
    # not size its buffers from that claim
    path = tmp_path / "huge.bbgc"
    lat, emb = make_data(3, 2, 2)
    write_store(path, lat, emb, seed=0)
    blob = path.read_bytes()
    path.write_bytes(HEADER.pack(MAGIC, VERSION, 2, 2, 2 ** 40, 0) + blob[HEADER.size:])
    with pytest.raises(TruncatedStoreError, match="promises 1099511627776 records, only 3"):
        read_store(path)


def test_truncation_inside_a_ref_is_strict(tmp_path):
    path = tmp_path / "tr.bbgc"
    lat, emb = make_data(4, 2, 2, seed=9)
    write_store(path, lat, emb, seed=0, refs=[b"aa", b"bb", b"cc", b"dd"])
    blob = path.read_bytes()
    cut = tmp_path / "cutr.bbgc"
    cut.write_bytes(blob[:len(blob) - 1])   # clips the final ref payload
    with pytest.raises(TruncatedStoreError, match="promises 4 records, only 3 complete"):
        read_store(cut)


def test_store_bytes_match_hand_assembled_layout(tmp_path):
    seed = 0x0102030405060708
    full_lat = np.array([[1.5, -2.0], [0.25, 3.0]])
    full_emb = np.array([[0.5, 0.5, -1.0], [1.0, 0.0, 2.0]])
    # a 0 dim is a wire frame, which has no store file
    for latent_dim, embed_dim in ((2, 3), (1, 1), (0, 1), (1, 0), (0, 3), (2, 0)):
        lat, emb = full_lat[:, :latent_dim], full_emb[:, :embed_dim]
        for refs in (None, [b"ab", b""], [b"", b"xyz"]):
            head = MAGIC + struct.pack("<IIIQQ", 1, latent_dim, embed_dim, 2, seed)
            body = b"".join(
                struct.pack(f"<{latent_dim + embed_dim}fI", *lat[i], *emb[i], len(ref)) + ref
                for i, ref in enumerate(refs or [b"", b""]))
            assert pack_header(latent_dim, embed_dim, 2, seed) + pack_records(lat, emb, refs) \
                == head + body, (latent_dim, embed_dim, refs)
            got_lat, got_emb, got_refs, size = read_body(body, latent_dim, embed_dim, 2)
            assert size == len(body)
            np.testing.assert_array_equal(got_lat, lat)
            np.testing.assert_array_equal(got_emb, emb)
            assert got_lat.shape == (2, latent_dim) and got_emb.shape == (2, embed_dim)
            assert got_refs == (None if refs is None or not any(refs) else refs)
            if latent_dim and embed_dim:
                path = tmp_path / "pinned.bbgc"
                write_store(path, lat, emb, seed=seed, refs=refs)
                assert path.read_bytes() == head + body


@pytest.mark.parametrize("count", [0, 1])
def test_header_promising_an_oversized_record_is_a_format_error(tmp_path, count):
    # u32 dims allow a record of ~32 GiB; numpy cannot describe one past 2**31 - 1 bytes
    blob = HEADER.pack(MAGIC, VERSION, 2 ** 31, 1, count, 0) + bytes(64)
    path = tmp_path / "wide.bbgc"
    path.write_bytes(blob)
    with pytest.raises(StoreFormatError, match="exceeds"):
        read_store(path)
    # the largest dims that still fit are read as usual
    top = (2 ** 31 - 1) // 4 - 2
    path.write_bytes(HEADER.pack(MAGIC, VERSION, top, 1, 0, 0))
    assert read_store(path).latent_dim == top
    path.write_bytes(HEADER.pack(MAGIC, VERSION, top + 1, 1, 0, 0))
    with pytest.raises(StoreFormatError, match="exceeds"):
        read_store(path)


def test_read_store_holds_the_file_and_its_float64_arrays(tmp_path):
    # latents go from the file bytes straight to float64; embeddings are a
    # view of the file bytes, with no copy at all
    import tracemalloc
    path = tmp_path / "big.bbgc"
    lat, emb = make_data(100_000, 8, 32, seed=3)
    write_store(path, lat, emb, seed=0)
    del lat, emb
    tracemalloc.start()
    try:
        st = read_store(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.latents.dtype == np.float64 and st.embeddings.dtype == np.float32
    assert peak < path.stat().st_size + st.latents.nbytes + 2 ** 20, peak


@pytest.mark.parametrize("ref_every", [0, 1000])
def test_read_store_and_scan_hold_no_copy_of_the_embeddings(tmp_path, ref_every):
    # the scan's float32 screen reads the store's embedding view itself, and
    # a store with refs moves its records together in the file buffer
    import tracemalloc

    from bbgc.embedding import scan
    n, embed_dim = 100_000, 64
    rng = np.random.default_rng(5)
    pool = rng.normal(size=(n, embed_dim))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    pool[:2000] = pool[:20].repeat(100, axis=0)   # pairs that pass the screen
    refs = [b"r" if ref_every and i % ref_every == 0 else b"" for i in range(n)]
    write_store(tmp_path / "a", rng.normal(size=(64, 4)), pool[:64], seed=0)
    write_store(tmp_path / "p", rng.normal(size=(n, 4)), pool, seed=0, refs=refs)
    want = scan(pool[:64].astype(np.float32).astype(np.float64),
                pool.astype(np.float32).astype(np.float64), 0.3, 0.25)
    files = sum((tmp_path / k).stat().st_size for k in "ap")
    del pool
    tracemalloc.start()
    try:
        anchors, st = read_store(tmp_path / "a"), read_store(tmp_path / "p")
        got = scan(anchors.embeddings, st.embeddings, 0.3, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(w.tobytes() == g.tobytes() for w, g in zip(want, got))
    margin = 8 * 2 ** 20   # the scan's 2 MB block, an 8192-row float64 block and the rest
    assert margin < st.embeddings.nbytes / 2   # so no embedding copy fits under the bound
    assert peak < files + anchors.latents.nbytes + st.latents.nbytes + margin, peak


# -- record scan ------------------------------------------------------------------

def test_scan_records_resumes_across_uneven_slices():
    lat, emb = make_data(6, 3, 2, seed=2)
    fixed = 4 * 3 + 4 * 2
    refs = [b"", b"x" * 9, b"", b"abc", b"y" * 40, b"z"]
    body = pack_records(lat, emb, refs)
    whole = read_body(body, 3, 2, len(refs))
    assert whole[2] == refs and whole[3] == len(body)
    for ends in ((0, 5, fixed + 2, fixed + 4, 40, 41, 77, 150, len(body) - 1),
                 range(0, len(body), 3), range(0, len(body), 1)):
        got = read_body(body, 3, 2, len(refs), ends)
        assert [g.tobytes() for g in got[:2]] == [w.tobytes() for w in whole[:2]]
        assert got[2:] == whole[2:]
    # records past the header's count are not part of the frame, and are not read
    assert read_body(body, 3, 2, 2, (fixed + 3,))[2:] == (refs[:2], 2 * (fixed + 4) + 9)


def _scalar_scan(body, fixed, count):
    off, done = 0, 0
    while done < count and off + fixed + 4 <= len(body):
        (ref_len,) = REF_LEN.unpack(body[off + fixed:off + fixed + 4])
        if off + fixed + 4 + ref_len > len(body):
            break
        off += fixed + 4 + ref_len
        done += 1
    return off, done


@pytest.mark.parametrize("refs", [
    [b""] * 12,
    [b"", b"", b"x" * 9, b"", b"", b"", b"abc", b"", b"y" * 40, b"", b""],
    [b"z", b"", b"", b"\x00" * 4, b""],
])
def test_scan_records_fast_path_matches_scalar_scan(refs):
    # random record bytes, so a scan that lost the stride would read them as lengths
    rng = np.random.default_rng(len(refs))
    fixed = 4 * 3 + 4 * 2
    body = b"".join(rng.bytes(fixed) + REF_LEN.pack(len(r)) + r for r in refs)
    for count in (len(refs), 4):
        whole = _scalar_scan(body, fixed, count)
        for cut in range(len(body) + 1):
            head = _scalar_scan(body[:cut], fixed, count)
            if head[1] < count:
                with pytest.raises(Cut) as cut_short:
                    read_body(body[:cut], 3, 2, count)
                assert cut_short.value.args == ((head[1], count),)
            else:
                assert read_body(body[:cut], 3, 2, count)[3] == head[0]
            # resumed at the cut, the read takes the whole frame
            got = read_body(body, 3, 2, count, (cut,))
            assert got[2:] == ((refs[:count] if any(refs[:count]) else None), whole[0])


def _scalar_parse(body, latent_dim, embed_dim, count):
    """Reference (latents, embeddings, refs): each record cut out on its own."""
    width = latent_dim + embed_dim
    rows, refs, off = [], [], 0
    for _ in range(count):
        rows.append(struct.unpack_from(f"<{width}f", body, off))
        (ref_len,) = REF_LEN.unpack_from(body, off + 4 * width)
        off += 4 * width + 4
        refs.append(bytes(body[off:off + ref_len]))
        off += ref_len
    grid = np.array(rows, dtype=np.float64).reshape(count, width)
    return grid[:, :latent_dim], grid[:, latent_dim:], refs if any(refs) else None


def _ref_pattern(kind, n, rng):
    if kind == "none":
        return None
    if kind == "all":
        return [rng.bytes(int(rng.integers(1, 6))) for _ in range(n)]
    if kind == "some":
        return [rng.bytes(3) if rng.random() < 0.05 else b"" for _ in range(n)]
    # runs of empty refs around _RUN_PROBE long, and longer, between refs
    with_ref = set(np.cumsum(rng.choice([0, 1, 15, 16, 17, 40, 200], size=n) + 1).tolist())
    return [b"r" * (i % 4 + 1) if i in with_ref else b"" for i in range(n)]


@pytest.mark.parametrize("kind", ["none", "some", "all", "runs"])
def test_scan_and_parse_match_a_per_record_reference(kind):
    # random record bytes, so a scan that lost the stride would read them as lengths
    rng = np.random.default_rng(["none", "some", "all", "runs"].index(kind))
    n, latent_dim, embed_dim = 700, 2, 3
    lat, emb = rng.normal(size=(n, latent_dim)), rng.normal(size=(n, embed_dim))
    refs = _ref_pattern(kind, n, rng)
    body = pack_records(lat, emb, refs)
    fixed = 4 * (latent_dim + embed_dim)
    for count in (n, n - 37, n + 5):
        whole = _scalar_scan(body, fixed, count)
        want_lat, want_emb, want_refs = _scalar_parse(body, latent_dim, embed_dim, whole[1])
        for cut in [len(body), len(body) - 1, *rng.integers(0, len(body), 12)]:
            want = _scalar_scan(body[:cut], fixed, count)
            if want[1] < count:
                with pytest.raises(Cut) as cut_short:
                    read_body(body[:cut], latent_dim, embed_dim, count)
                assert cut_short.value.args == ((want[1], count),), (count, cut)
            if whole[1] < count:
                continue
            # read whole, in uneven pieces, and resumed at the cut
            for ends in ((), (cut,), np.cumsum(rng.integers(1, 300, 40)).tolist()):
                got_lat, got_emb, got_refs, size = read_body(body, latent_dim, embed_dim,
                                                             count, ends)
                assert size == whole[0]
                assert got_lat.tobytes() == want_lat.tobytes()
                assert got_emb.dtype == np.float32 and not got_emb.flags.writeable
                assert got_emb.astype(np.float64).tobytes() == want_emb.tobytes()
                assert got_refs == want_refs


def test_read_store_with_one_ref_takes_at_most_twice_the_time(tmp_path):
    # after a record with a ref the scan goes back to the record dtype, and the
    # records move together in the file buffer, not into a second one
    import time
    lat, emb = make_data(100_000, 8, 32, seed=6)
    paths = {"none": tmp_path / "none.bbgc", "one": tmp_path / "one.bbgc"}
    write_store(paths["none"], lat, emb, seed=0)
    write_store(paths["one"], lat, emb, seed=0, refs=[b"x"] + [b""] * 99_999)
    best = {}
    for _ in range(9):
        for name, path in paths.items():
            start = time.perf_counter()
            read_store(path)
            best[name] = min(best.get(name, math.inf), time.perf_counter() - start)
    assert best["one"] <= 2 * best["none"], best


def test_read_frame_walks_each_body_byte_once(tmp_path, monkeypatch):
    # the segments that the walk yields tile the body, in order, with no
    # second pass over a store with refs
    import bbgc.store as store
    segments, walked = store._segments, []

    def recording(payload, rec, count, off):
        for at, n, ref_len in segments(payload, rec, count, off):
            walked.append((at, at + n * rec.itemsize + ref_len, n))
            yield at, n, ref_len

    monkeypatch.setattr(store, "_segments", recording)
    n = 60_000   # 1.7 MB, so the file is read in two pieces
    lat, emb = make_data(n, 3, 2, seed=4)
    refs = [b"x" * (i % 7) if i % 500 < 3 else b"" for i in range(n)]
    path = tmp_path / "refs.bbgc"
    write_store(path, lat, emb, seed=0, refs=refs)

    def assert_walked_once(got_lat, got_emb, got_refs):
        assert got_refs == refs
        np.testing.assert_array_equal(got_lat, lat.astype(np.float32))
        np.testing.assert_array_equal(got_emb, emb.astype(np.float32))
        starts, ends, counts = zip(*walked)
        assert starts[0] == HEADER.size and ends[-1] == path.stat().st_size
        assert starts[1:] == ends[:-1] and sum(counts) == n
        walked.clear()

    st = read_store(path)
    assert_walked_once(st.latents, st.embeddings, st.refs)
    # and in uneven pieces, each of which resumes the walk
    assert_walked_once(*read_body(path.read_bytes()[HEADER.size:], 3, 2, n,
                                  range(5, 2_000_000, 4999))[:3])


def test_latents_disjoint():
    a, _ = make_data(50, 4, 4, seed=1)
    b, _ = make_data(50, 4, 4, seed=2)
    assert latents_disjoint(a, b)
    shared = np.vstack([b, a[17]])
    assert not latents_disjoint(a, shared)
    assert latents_disjoint(np.empty((0, 4)), b)
    # hashed once, a set gives the same verdicts against many blocks
    hashed = hash_rows(a)
    assert latents_disjoint(hashed, b) and not latents_disjoint(hashed, shared)
    assert latents_disjoint(hash_rows(np.empty((0, 4))), b)


def block_refs(n):
    """Refs for ``n`` records: most empty, some long enough that a block
    with one outgrows the buffer that the first block sized."""
    return [b"r" * (i % 5) if i % 11 == 0 else b"z" * 70_000 if i == n - 3 else b""
            for i in range(n)]


@pytest.mark.parametrize("refs", [False, True])
@pytest.mark.parametrize("rows", [1, 7, 8193])
def test_a_store_read_in_blocks_equals_the_store_read_whole(tmp_path, rows, refs):
    n = 9000
    lat, emb = make_data(n, 3, 5, seed=8)
    path = tmp_path / "s.bbgc"
    write_store(path, lat, emb, seed=5, refs=block_refs(n) if refs else None)
    whole = read_store(path)
    stream = stream_store(path, rows)
    assert stream.count == n
    # each block's embeddings view the buffer that the next block reuses
    blocks = [(b.latents, b.embeddings.copy(), b.refs, b.seed) for b in stream]
    assert [len(b[0]) for b in blocks] == [min(rows, n - lo) for lo in range(0, n, rows)]
    assert np.vstack([b[0] for b in blocks]).tobytes() == whole.latents.tobytes()
    assert np.vstack([b[1] for b in blocks]).tobytes() == whole.embeddings.tobytes()
    assert [r for b in blocks for r in (b[2] or [b""] * len(b[0]))] == \
        [whole.ref(i) for i in range(n)]
    assert {b[3] for b in blocks} == {5}


@pytest.mark.parametrize("rows", [1, 7, 8193])
def test_frame_blocks_read_a_stream_up_to_its_last_record(rows):
    # in uneven pieces, each block stops at its own last record, and a cut
    # in a later block reports every record that came before it
    n = 9000
    lat, emb = make_data(n, 3, 5, seed=9)
    body = pack_records(lat, emb, block_refs(n))
    frame = pack_header(3, 5, n, seed=4) + body
    stream = Stream(frame + b"trailing", range(5, len(frame), 4999))
    blocks = frame_blocks(stream.readinto, lambda *dims: None, Cut, rows=rows)
    assert next(blocks) == (3, 5, n, 4)
    got = [b[1].copy() for b in blocks]
    assert stream.pos == len(frame)
    assert np.vstack(got).tobytes() == emb.astype(np.float32).tobytes()
    cut = Stream(frame[:-100])
    blocks = frame_blocks(cut.readinto, lambda *dims: None, Cut, rows=rows)
    with pytest.raises(Cut) as err:
        for _ in blocks:
            pass
    assert err.value.args[0] == (n - 3, n)   # the long ref's record is the one cut


def test_export_table_csv(tmp_path):
    lat = np.array([[1.0, 2.5], [0.125, -3.0]])
    emb = np.array([[0.5, 0.5, 0.5], [1.0, 0.0, 0.0]])
    st = SampleStore(latents=lat, embeddings=emb, seed=0, refs=[b"hi", b""])
    out = tmp_path / "t.csv"
    n = export_table(st, out, fmt="csv", fields=("index", "latent", "ref"))
    assert n == 2
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "latent_0", "latent_1", "ref"]
    assert rows[1] == ["0", "1", "2.5", base64.b64encode(b"hi").decode()]
    assert rows[2] == ["1", "0.125", "-3", ""]


def test_export_table_jsonl(tmp_path):
    lat = np.array([[0.1, 0.2]])
    emb = np.array([[1.0, 0.0]])
    st = SampleStore(latents=lat, embeddings=emb, seed=0)
    out = tmp_path / "t.jsonl"
    export_table(st, out, fmt="jsonl", fields=("index", "latent", "embedding"))
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc == {"index": 0, "latent": [0.1, 0.2], "embedding": [1.0, 0.0]}


def test_export_table_jsonl_refs_are_base64(tmp_path):
    refs = [b"hi", b"", bytes(range(256))]
    st = SampleStore(latents=np.zeros((3, 2)), embeddings=np.eye(3), seed=0, refs=refs)
    out = tmp_path / "t.jsonl"
    assert export_table(st, out, fmt="jsonl", fields=("index", "ref")) == 3
    docs = [json.loads(line) for line in out.read_text().splitlines()]
    assert [d["index"] for d in docs] == [0, 1, 2]
    assert [base64.b64decode(d["ref"], validate=True) for d in docs] == refs


@pytest.mark.parametrize("fmt, fields, want", [
    ("csv", ("index", "latent", "embedding", "ref"),
     b"index,latent_0,latent_1,embedding_0,embedding_1,embedding_2,ref\r\n"
     b"0,-0,1.5,0.600000024,-0.800000012,0,aGk/Pg==\r\n"
     b"1,0.1,-2,-0,1,9.99999968e-21,\r\n"),
    # csv.writer quotes a lone empty cell, so the empty ref's line is not blank
    ("csv", ("ref",), b'ref\r\naGk/Pg==\r\n""\r\n'),
    ("jsonl", ("index", "latent", "embedding", "ref"),
     b'{"index": 0, "latent": [-0, 1.5], "embedding": [0.600000024, -0.800000012, 0], '
     b'"ref": "aGk/Pg=="}\n'
     b'{"index": 1, "latent": [0.1, -2], "embedding": [-0, 1, 9.99999968e-21], "ref": ""}\n'),
    ("jsonl", ("ref",), b'{"ref": "aGk/Pg=="}\n{"ref": ""}\n'),
])
def test_export_table_bytes(tmp_path, fmt, fields, want):
    st = SampleStore(latents=np.array([[-0.0, 1.5], [0.1, -2.0]]),
                     embeddings=np.array([[0.6, -0.8, 0.0], [-0.0, 1.0, 1e-20]], dtype=np.float32),
                     seed=0, refs=[b"hi?>", b""])
    out = tmp_path / "t.out"
    assert export_table(st, out, fmt=fmt, fields=fields) == 2
    assert out.read_bytes() == want


def _csv_reference(st, fields):
    """The table as one csv.writer row per line, the header included."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    header = []
    for f in fields:
        dim = {"latent": st.latent_dim, "embedding": st.embed_dim}.get(f)
        header.extend([f] if dim is None else [f"{f}_{d}" for d in range(dim)])
    writer.writerow(header)
    for i in range(st.count):
        row = []
        for f in fields:
            if f == "index":
                row.append(i)
            elif f == "ref":
                row.append(base64.b64encode(st.ref(i)).decode("ascii"))
            else:
                row.extend(format_float(x) for x in getattr(st, f + "s")[i])
        writer.writerow(row)
    return out.getvalue().encode("utf-8")


def test_export_table_csv_matches_the_csv_writer(tmp_path, monkeypatch):
    # the header goes out in pieces; the bytes are those of one csv.writer row
    import bbgc.store as store
    lat, emb = make_data(30, 5, 7, seed=8)
    write_store(tmp_path / "s", lat, emb, seed=0, refs=[b"r" * (i % 3) for i in range(30)])
    st = read_store(tmp_path / "s")
    assert st.embeddings.dtype == np.float32
    for piece in (4096, 3, 1):
        monkeypatch.setattr(store, "_HEADER_PIECE", piece)
        for fields in (("latent", "embedding"), ("index", "latent", "ref"),
                       ("embedding", "index", "latent"), ("ref",)):
            export_table(st, tmp_path / "t.csv", fmt="csv", fields=fields)
            assert (tmp_path / "t.csv").read_bytes() == _csv_reference(st, fields), (piece, fields)


def test_export_table_header_of_a_wide_empty_store_is_bounded(tmp_path):
    # a count-0 header may claim any width the record check allows; the CSV
    # header is written without a list of one name per column
    import tracemalloc
    width = 2 ** 20
    path = tmp_path / "wide.bbgc"
    path.write_bytes(pack_header(width, 1, 0))
    st = read_store(path)
    tracemalloc.start()
    try:
        assert export_table(st, tmp_path / "t.csv", fmt="csv") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    names = (tmp_path / "t.csv").read_text().rstrip("\r\n").split(",")
    assert len(names) == width + 1
    assert names[:2] == ["latent_0", "latent_1"] and names[-2:] == [f"latent_{width - 1}", "embedding_0"]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_export_table_refuses_a_non_finite_row_before_writing(tmp_path, fmt):
    lat = np.zeros((4, 2))
    emb = np.eye(4, 3)
    emb[2, 1] = np.nan
    lat[3, 0] = np.inf
    st = SampleStore(latents=lat, embeddings=emb, seed=0)
    out = tmp_path / "t.out"
    with pytest.raises(NonFiniteError, match="row 2 has a non-finite embedding"):
        export_table(st, out, fmt=fmt, fields=("index", "embedding"))
    with pytest.raises(NonFiniteError, match="row 3 has a non-finite latent"):
        export_table(st, out, fmt=fmt, fields=("latent", "index"))
    assert not out.exists()
    # a field left out of the table is not read
    assert export_table(st, out, fmt=fmt, fields=("index", "ref")) == 4


def test_export_table_validation(tmp_path):
    st = SampleStore(latents=np.zeros((1, 2)), embeddings=np.zeros((1, 2)), seed=0)
    with pytest.raises(ValueError):
        export_table(st, tmp_path / "x", fmt="xml")
    with pytest.raises(ValueError):
        export_table(st, tmp_path / "x", fields=("nope",))
    with pytest.raises(ValueError):
        export_table(st, tmp_path / "x", fields=())
    # JSON Lines would write the key twice, and a JSON reader keeps one
    with pytest.raises(ValueError, match="'index' listed twice"):
        export_table(st, tmp_path / "x", fmt="jsonl", fields=("index", "latent", "index"))
    assert not (tmp_path / "x").exists()


def test_dumps_is_canonical():
    doc = {"b": 1, "a": [1.5, True, None, "s"], "nested": {"x": 0.1}}
    text = dumps(doc)
    # insertion order, two-space indent, fixed float rendering
    assert text.startswith('{\n  "b": 1,\n  "a": [')
    assert '"x": 0.1' in text
    assert dumps(doc) == text
    assert json.loads(text) == {"b": 1, "a": [1.5, True, None, "s"],
                                "nested": {"x": 0.1}}


def test_dumps_float_styles():
    v = 0.1234567891234
    assert format_float(v) == "0.123456789"
    assert format_float(v, style="exact") == repr(v)
    assert float(format_float(v, style="exact")) == v
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(TypeError):
        dumps({"f": object()})


def test_dumps_numpy_scalars_and_arrays():
    text = dumps({"a": np.float64(2.0), "b": np.int32(3),
                  "c": np.array([1.0, 2.0]), "d": np.bool_(False)})
    assert json.loads(text) == {"a": 2.0, "b": 3, "c": [1.0, 2.0], "d": False}


def test_matrix_codec_round_trip():
    m = np.random.default_rng(0).normal(size=(7, 5))
    payload = encode_matrix(m)
    assert payload["dtype"] == "f4"
    np.testing.assert_array_equal(decode_matrix(payload),
                                  m.astype("<f4").astype(np.float64))
    # float32 is the one payload kind: no writer produces another
    wide = dict(payload, dtype="f8",
                data=base64.b64encode(m.astype("<f8").tobytes()).decode("ascii"))
    with pytest.raises(InvalidConfigError, match="dtype"):
        decode_matrix(wide)
    bad = encode_matrix(m)
    bad["rows"] = 3
    with pytest.raises(InvalidConfigError):
        decode_matrix(bad)
