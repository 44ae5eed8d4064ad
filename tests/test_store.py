"""Store file round trips, recovery, tables, and the JSON emitter."""

import base64
import csv
import json
import struct

import numpy as np
import pytest

from bbgc.errors import (
    BadMagicError,
    DimensionMismatchError,
    NonFiniteError,
    TruncatedStoreError,
    VersionMismatchError,
)
from bbgc.jsonutil import decode_matrix, dumps, encode_matrix, format_float
from bbgc.store import (
    HEADER,
    MAGIC,
    VERSION,
    SampleStore,
    StoreWriter,
    export_table,
    latents_disjoint,
    read_header,
    read_store,
    write_store,
)


def make_data(n, latent_dim, embed_dim, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, latent_dim)), rng.normal(size=(n, embed_dim))


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
        read_header(corrupt)


def test_truncation_strict_and_recover(tmp_path):
    path = tmp_path / "t.bbgc"
    lat, emb = make_data(10, 3, 3, seed=8)
    write_store(path, lat, emb, seed=0)
    blob = path.read_bytes()
    record = 4 * 3 + 4 * 3 + 4
    cut = tmp_path / "cut.bbgc"
    # drop the last record and a half
    cut.write_bytes(blob[:HEADER.size + record * 8 + record // 2])
    with pytest.raises(TruncatedStoreError):
        read_store(cut)
    with pytest.warns(RuntimeWarning, match="recovered 8 of 10"):
        st = read_store(cut, recover=True)
    assert st.count == 8
    np.testing.assert_array_equal(st.latents, lat[:8].astype(np.float32))


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
    with pytest.warns(RuntimeWarning, match="recovered 3 of"):
        assert read_store(path, recover=True).count == 3


def test_recover_with_refs(tmp_path):
    path = tmp_path / "tr.bbgc"
    lat, emb = make_data(4, 2, 2, seed=9)
    write_store(path, lat, emb, seed=0, refs=[b"aa", b"bb", b"cc", b"dd"])
    blob = path.read_bytes()
    cut = tmp_path / "cutr.bbgc"
    cut.write_bytes(blob[:len(blob) - 3])   # clips the final ref payload
    with pytest.warns(RuntimeWarning):
        st = read_store(cut, recover=True)
    assert st.count == 3
    assert [st.ref(i) for i in range(3)] == [b"aa", b"bb", b"cc"]


def test_latents_disjoint():
    a, _ = make_data(50, 4, 4, seed=1)
    b, _ = make_data(50, 4, 4, seed=2)
    assert latents_disjoint(a, b)
    shared = np.vstack([b, a[17]])
    assert not latents_disjoint(a, shared)
    assert latents_disjoint(np.empty((0, 4)), b)


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


def test_export_table_validation(tmp_path):
    st = SampleStore(latents=np.zeros((1, 2)), embeddings=np.zeros((1, 2)), seed=0)
    with pytest.raises(ValueError):
        export_table(st, tmp_path / "x", fmt="xml")
    with pytest.raises(ValueError):
        export_table(st, tmp_path / "x", fields=("nope",))
    with pytest.raises(ValueError):
        export_table(st, tmp_path / "x", fields=())


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
    for dtype in ("f4", "f8"):
        payload = encode_matrix(m, dtype=dtype)
        back = decode_matrix(payload)
        expect = m.astype(payload["dtype"].replace("f4", "<f4").replace("f8", "<f8"))
        np.testing.assert_array_equal(back, expect.astype(np.float64))
    with pytest.raises(ValueError):
        encode_matrix(m, dtype="i8")
    bad = encode_matrix(m)
    bad["rows"] = 3
    with pytest.raises(ValueError):
        decode_matrix(bad)
